"""Exact statevector simulation of the correlation-sampling circuit and
its amplitude-amplified search iterate, with query accounting.

The register holds n index qubits, one answer qubit and one phase
qubit, ``2**(n + 2)`` amplitudes. The work qubits are outermost in
memory,

    basis index = (answer << (n + 1)) | (phase << n) | i

so each of the four work states is one contiguous block of ``2**n``
amplitudes. :meth:`StateVector.view`, the ``[index, answer, phase]``
array of shape ``(2**n, 2, 2)``, is what the measurement, the dump (the
C order of the view's axes) and the tests index the state through.
Besides the view, :func:`hadamard_index` and the block gates
(:func:`x_phase`, :func:`apply_membership`, :func:`apply_marked_phase`)
rely on the memory order: they act on whole blocks, and the index
Hadamards transform only the blocks that hold amplitude. Along the
correlation operator, its adjoint and the amplification iterate, every
index Hadamard meets exactly one such block.
Operations mutate the state in place and return it.
Every gate is real (H, X, CZ, the membership permutation, the marked
phase), so the amplitudes are float64.

Nothing here renormalizes silently. Every public operation checks the
L2 norm on exit and raises :class:`StateNormError` past a drift of
1e-9, because drift at that size means a broken gate, not roundoff.

The prepared state ``correlation_op`` applied to the all-zero state has
a useful closed form: the index-register distribution equals the
squared sign-form correlation spectrum of the oracle function. A
noisy-parity oracle that agrees with some parity on a 1/2 + g fraction
of inputs therefore shows that parity with probability exactly
(2g)**2, and the amplification iterate boosts any marked index set
along the usual sin**2((2k+1) asin sqrt(p0)) schedule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import butterfly_axis0, check_cap

_NORM_TOL = 1e-9
_DUMP_MAGIC = b"QHSREAL1"


class StateNormError(RuntimeError):
    """The L2 norm drifted; some applied operation was not unitary."""


@dataclass
class QueryCounter:
    """Oracle-use tally attached to every run.

    ``quantum_queries`` counts membership-map applications (the adjoint
    is the same self-inverse map and counts equally);
    ``classical_queries`` counts point evaluations used for sampling.
    """

    quantum_queries: int = 0
    classical_queries: int = 0


@dataclass
class StateVector:
    n: int
    amps: np.ndarray

    def view(self) -> np.ndarray:
        """(2**n, 2, 2) view: index register, answer qubit, phase qubit.

        Writes through it change the state."""
        return _blocks(self).transpose(2, 0, 1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def init_state(n: int) -> StateVector:
    """All-zero basis state on n index qubits plus the two work qubits."""
    if n < 1:
        raise ValueError("need at least one index qubit")
    check_cap(n)
    amps = np.zeros(1 << (n + 2), dtype=np.float64)
    amps[0] = 1.0
    return StateVector(n, amps)


def _checked(state: StateVector) -> StateVector:
    if not abs(state.norm() - 1.0) <= _NORM_TOL:  # a NaN amplitude fails too
        raise StateNormError("state norm drifted beyond 1e-9")
    return state


def _index_table(values, n: int, dtype) -> np.ndarray:
    """A table with one entry per index value (an oracle's bits, a marked mask)."""
    table = np.asarray(values)
    if table.shape != (1 << n,):
        raise ValueError(f"index table must have length {1 << n}")
    return table.astype(dtype)


def _blocks(state: StateVector) -> np.ndarray:
    """(2, 2, 2**n) view in memory order: answer qubit, phase qubit, then
    each work state's contiguous block of index amplitudes."""
    return state.amps.reshape(2, 2, 1 << state.n)


def hadamard_index(state: StateVector) -> StateVector:
    """Hadamard on every index qubit (the n-fold tensor).

    Only the work blocks holding a nonzero amplitude are transformed: an
    all-zero block transforms to zero, so skipping it is exact. The live
    blocks go through one kernel call, as the lone 1-D block they usually
    are, or else gathered into one contiguous ``(2**n, live)`` array."""
    blocks = _blocks(state).reshape(4, -1)
    live = [w for w, on in enumerate((blocks != 0.0).any(axis=1).tolist()) if on]
    scale = 2.0 ** (-state.n / 2.0)
    if len(live) == 1:
        block = blocks[live[0]]
        butterfly_axis0(block)
        block *= scale
    else:
        columns = np.ascontiguousarray(blocks[live].T)
        butterfly_axis0(columns)
        blocks[live] = columns.T * scale
    return _checked(state)


def x_phase(state: StateVector) -> StateVector:
    """Pauli X on the phase qubit: swaps the phase blocks."""
    blocks = _blocks(state)
    blocks[:] = blocks[:, ::-1].copy()
    return _checked(state)


def cz_answer_phase(state: StateVector) -> StateVector:
    """Controlled phase flip: negate amplitudes with answer = phase = 1."""
    state.view()[:, 1, 1] *= -1.0
    return _checked(state)


def reflect_zero_index(state: StateVector) -> StateVector:
    """Negate amplitudes whose index register is all zero."""
    state.view()[0] *= -1.0
    return _checked(state)


def apply_membership(state: StateVector, f, counter: QueryCounter) -> StateVector:
    """XOR the oracle bit f(i) into the answer qubit; one quantum query.

    Swaps the two answer blocks at every index with f(i) = 1. Self-inverse,
    so the same call serves as the adjoint query (which is counted
    identically).
    """
    bits = _index_table(f, state.n, np.uint8)
    blocks = _blocks(state)
    blocks[:] = np.where(bits, blocks[::-1], blocks)
    counter.quantum_queries += 1
    return _checked(state)


def apply_marked_phase(state: StateVector, marked) -> StateVector:
    """Negate amplitudes whose index value is marked; diagonal, self-inverse."""
    mask = _index_table(marked, state.n, bool)
    blocks = _blocks(state)
    np.negative(blocks, out=blocks, where=mask)
    return _checked(state)


def _correlation_gates(f, counter: QueryCounter) -> tuple:
    """The correlation operator's gates in order: index Hadamards with the
    phase-qubit flip, the membership query, the controlled phase flip, the
    adjoint query, and the closing index Hadamards. Each is a real
    involution, so the same gates in reverse order are the adjoint. The
    gates are looked up per call, so a gate swapped into this module
    takes effect in both directions."""
    def query(state):
        return apply_membership(state, f, counter)
    return (hadamard_index, x_phase, query, cz_answer_phase, query, hadamard_index)


def correlation_op(state: StateVector, f, counter: QueryCounter) -> StateVector:
    """The two-query correlation operator."""
    for gate in _correlation_gates(f, counter):
        gate(state)
    return state


def correlation_op_dagger(state: StateVector, f, counter: QueryCounter) -> StateVector:
    """Adjoint of :func:`correlation_op`: its gates in reverse; also two queries."""
    for gate in reversed(_correlation_gates(f, counter)):
        gate(state)
    return state


def prepare_spectrum_state(f, counter: QueryCounter) -> StateVector:
    """Correlation operator applied to the all-zero state; two queries.

    ``f`` is the oracle's bit table. Measuring the index register of the
    result samples a parity with probability equal to its squared
    sign-form correlation coefficient.
    """
    bits = np.asarray(f)
    state = init_state(int(bits.shape[0]).bit_length() - 1)
    return correlation_op(state, bits, counter)


def grover_step(state: StateVector, f, marked, counter: QueryCounter) -> StateVector:
    """One amplification iterate: marked-phase flip, adjoint correlation
    operator, zero reflection, correlation operator, overall sign flip.
    Four queries."""
    apply_marked_phase(state, marked)
    correlation_op_dagger(state, f, counter)
    reflect_zero_index(state)
    correlation_op(state, f, counter)
    state.amps *= -1.0
    return state


def index_distribution(state: StateVector) -> np.ndarray:
    """Measurement distribution of the index register; sums to 1."""
    return (state.view() ** 2).sum(axis=(1, 2))


def dump_state(state: StateVector) -> bytes:
    """Binary dump: 16-byte header (magic, n) then the amplitudes as
    little-endian doubles in the C order of the view's axes, so the
    double for ``[i, answer, phase]`` sits at byte
    ``16 + 8 * ((i << 2) | (answer << 1) | phase)``."""
    header = _DUMP_MAGIC + int(state.n).to_bytes(8, "little")
    return header + np.ascontiguousarray(state.view(), dtype="<f8").tobytes()


def load_state(buf: bytes) -> StateVector:
    """Inverse of :func:`dump_state`, checked like any other state."""
    if buf[:8] != _DUMP_MAGIC:
        raise ValueError("bad state dump magic")
    state = init_state(int.from_bytes(buf[8:16], "little"))
    amps = np.frombuffer(buf[16:], dtype="<f8")
    view = state.view()
    if amps.size != view.size:
        raise ValueError("state dump length does not match its header")
    view.flat = amps  # in the C order of the view's axes, as dump_state wrote it
    return _checked(state)
