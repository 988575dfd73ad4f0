"""The simulator's amplitude bits, pinned.

The benchmark fingerprints cover parities, query totals and stage counts,
not amplitudes. This hash covers the bytes of :func:`dump_state` and of
:func:`index_distribution` after a preparation and after each of three
Grover steps, for one column at n = 5, 8 and 14, and for a four-column
batch at n = 10: its distributions, and the dump of each column run
alone (the simulator tests check that a batch's columns hold those
bits). So a change to the state's layout or to a gate that keeps every
amplitude keeps this hash. Like a report's bits (see README), these
depend on the BLAS kernel and thread count; Tier-1 runs one BLAS thread.
"""
import hashlib

import numpy as np

from qhslab import QueryCounter, grover_step, index_distribution, prepare_spectrum_state
from qhslab.simulator import dump_state

STEPS = 3
PINNED = {
    "a566a3f22777dc39": "SkylakeX",
    "3dba793e4d55843c": "Haswell, Zen",
    "1a2b453d951d3ab4": "Sandybridge, Prescott",
}


def run(bits, marked, digest, dump=True):
    """Hash the state's bytes after its preparation and after each Grover step."""
    counter = QueryCounter()
    state = prepare_spectrum_state(bits, counter)
    for step in range(STEPS + 1):
        if step:
            grover_step(state, bits, marked, counter)
        if dump:
            digest.update(dump_state(state))
        digest.update(index_distribution(state).tobytes())


def test_dump_and_distribution_bytes_are_pinned():
    rng = np.random.default_rng(39)
    digest = hashlib.sha256()
    for n in (5, 8, 14):
        bits = rng.integers(0, 2, size=1 << n).astype(np.uint8)
        run(bits, rng.random(1 << n) < 0.05, digest)
    n, k = 10, 4
    bits = rng.integers(0, 2, size=(1 << n, k)).astype(np.uint8)
    marked = rng.random((1 << n, k)) < 0.05
    run(bits, marked, digest, dump=False)
    for c in range(k):
        run(bits[:, c], marked[:, c], digest)
    assert digest.hexdigest()[:16] in PINNED
