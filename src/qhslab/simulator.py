"""Exact statevector simulation of the correlation-sampling circuit and
its amplitude-amplified search iterate, with query accounting.

The register holds n index qubits, one answer qubit and one phase
qubit, ``2**(n + 2)`` amplitudes per circuit. A state holds k >= 1
independent circuits, its columns, that run the same gates, each on its
own oracle column. The work qubits are outermost in memory, then the
column, then the index register:

    position in amps = (((answer << 1) | phase) * k + column) * 2**n + i

so each of the four work states ``w = (answer << 1) | phase`` is one
contiguous block of k rows of ``2**n`` amplitudes, the index axis of
every column contiguous. A one-column state is the single-circuit
layout. :meth:`StateVector.view`, the ``[index, answer, phase]`` array
of shape ``(2**n, 2, 2)``, is how the tests and callers outside this
module index a one-column state; the dump writes the C order of its
axes. Both refuse a state of several columns. An index table (an
oracle's bits, a marked mask) has shape ``(2**n,)``, shared by every
column, or ``(2**n, k)``, one column per circuit. One state holds at
most ``BATCH_AMPS`` = 2**16 amplitudes (512 KB), or one column when a
single circuit is larger: :func:`batch_columns` gives the most columns
on n index qubits. Past that size the gates' passes over the state
outrun a 2 MB L2 cache and cost more per column than one column at a
time does: 16 columns at n = 10, 4 at n = 12, one from n = 14 on.

Only X and the diagonal CZ act on the phase qubit, so along the
correlation operator, its adjoint and the amplification iterate the
phase qubit stays in a basis state and at most two blocks hold
amplitude. ``StateVector.live`` is the set of blocks that may be
nonzero; every block outside it is exactly zero. :func:`init_state`
starts it at ``(0,)``; a state built from an array, :meth:`view` and
:func:`load_state` mark all four blocks live, which is conservative
and exact. Each gate touches only the live blocks and leaves the set
that can be nonzero after it: :func:`x_phase` moves or swaps blocks and
relabels, :func:`apply_membership` swaps marked entries of the live
answer pairs bit for bit, and :func:`x_phase` and :func:`hadamard_index`
drop a live block that has cancelled to exact zero in every column, so
along those operators every index Hadamard transforms a single block
and no gate moves an all-zero block. It transforms
the span from the first live block to the last in one kernel call; only
states built from an array, through :meth:`view` or by
:func:`load_state`, or gate sequences the learners do not run, leave a
dead block inside that span, which then holds zeros that may read
``-0.0``. The index transform sends each column through the same
matmuls as a one-column state, so a column's amplitudes do not depend
on the columns beside it, bit for bit. Operations mutate the state in
place and return it. A state built on a :class:`Buffers` object keeps
its amplitudes in the object's tables, and its gates take their work
tables from it too, so preparations repeated on one object allocate no
table of the state's size. Every gate is real (H, X, CZ, the membership
permutation, the marked phase), so the amplitudes are float64.

Nothing here renormalizes silently. Each public operation checks the
norm once, on exit. A gate called on its own checks that the live
blocks' total squared norm is k, one dot product per live block, and so
do :func:`correlation_op` and its adjoint.
:func:`prepare_spectrum_state` and :func:`grover_step` check that every
column of the whole state has norm 1, so a gate that writes outside the
live set, or moves norm from one column to another, is caught too.
Inside an operation the gates, and an inner operation, put their checks
off: an operation raises the state's private depth counter around its
body and lowers it again even when the body raises, and a gate or an
operation checks only when it finds the counter at 0. So a gate that
breaks the norm inside an operation is caught at the operation's exit.
A drift past 1e-9 raises :class:`StateNormError`, because drift at that
size means a broken gate, not roundoff.

The prepared state ``correlation_op`` applied to the all-zero state has
a useful closed form: the index-register distribution equals the
squared sign-form correlation spectrum of the oracle function. A
noisy-parity oracle that agrees with some parity on a 1/2 + g fraction
of inputs therefore shows that parity with probability exactly
(2g)**2, and the amplification iterate boosts any marked index set
along the usual sin**2((2k+1) asin sqrt(p0)) schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boolfn import butterfly_axis0, check_cap

_NORM_TOL = 1e-9
_DUMP_MAGIC = b"QHSREAL1"
ALL_BLOCKS = (0, 1, 2, 3)
BATCH_AMPS = 1 << 16  # most amplitudes one state of several columns holds


class StateNormError(RuntimeError):
    """The L2 norm drifted; some applied operation was not unitary."""


@dataclass
class QueryCounter:
    """Oracle-use tally attached to every run.

    ``quantum_queries`` counts membership-map applications, one per
    column of the state (the adjoint is the same self-inverse map and
    counts equally); ``classical_queries`` counts point evaluations used
    for sampling.
    """

    quantum_queries: int = 0
    classical_queries: int = 0


class Buffers:
    """Tables that the preparations of one owner reuse, one per role.

    ``take(role, shape, dtype)`` returns an array of that shape and dtype
    (float64 by default) at the start of the role's table, which is
    allocated at the first request larger than it and otherwise handed out
    again with whatever it held; arrays taken from one role share its
    memory, whatever their shapes. A run that lends one object to all its
    stages (as :func:`weaklearn.weighted_weak_parity` does through its
    records) then allocates no 2**n table per preparation, so none is
    returned to the system and faulted in again. The roles: ``state``
    holds the amplitudes of the last state built on the object, and
    between preparations what a stage reads before its next one (the
    signed-digit split's integers, a correlation table); ``scratch`` a
    gate's or a transform's work table for one call, the measurement table
    of :func:`index_distribution` until the next gate, or |g| and then
    the bit planes while a stage splits it; ``rows`` a stage's distinct
    digit rows, in a table taken for all the digit depth's rows. One
    computation uses an object at a time, and what it holds stays valid
    only until its role is taken again.
    """

    def __init__(self):
        self._tables = {}

    def take(self, role: str, shape, dtype=np.float64) -> np.ndarray:
        try:
            return np.ndarray(shape, dtype, self._tables[role])
        except (KeyError, TypeError):  # no table yet, or one too small for the request
            size = math.prod(np.atleast_1d(shape)) * np.dtype(dtype).itemsize
            table = self._tables[role] = np.empty(size, np.uint8)
            return np.ndarray(shape, dtype, table)


@dataclass
class StateVector:
    n: int
    amps: np.ndarray
    live: tuple = ALL_BLOCKS  # sorted work states (answer << 1) | phase that may be nonzero
    buffers: Buffers | None = field(default=None, repr=False, compare=False)  # the gates' scratch
    _depth: int = field(default=0, init=False, repr=False, compare=False)  # operations running

    @property
    def columns(self) -> int:
        """The number of circuits the state holds."""
        return self.amps.size >> (self.n + 2)

    def view(self) -> np.ndarray:
        """(2**n, 2, 2) view of a one-column state: index register, answer
        qubit, phase qubit.

        Writes through it change the state and may reach any block, so
        it marks all four live."""
        _one_column(self)
        self.live = ALL_BLOCKS
        return _index_view(self.amps)


def batch_columns(n: int) -> int:
    """Most columns a state on n index qubits holds: ``BATCH_AMPS``
    amplitudes, and never fewer than one column."""
    return max(1, BATCH_AMPS >> (n + 2))


def init_state(n: int, columns: int = 1, buffers: Buffers | None = None) -> StateVector:
    """All-zero basis state on n index qubits plus the two work qubits,
    in each of ``columns`` circuits: a new table, or the ``state`` table
    of ``buffers``, whose gates then take their scratch from it too."""
    if n < 1:
        raise ValueError("need at least one index qubit")
    check_cap(n)
    if not 1 <= columns <= batch_columns(n):
        raise ValueError(f"a state on {n} index qubits holds 1 to {batch_columns(n)} columns")
    if buffers is None:
        amps = np.zeros(columns << (n + 2), dtype=np.float64)
    else:
        amps = buffers.take("state", columns << (n + 2))
        amps.fill(0.0)
    amps[:columns << n:1 << n] = 1.0
    return StateVector(n, amps, (0,), buffers)


def _scratch(state: StateVector, size: int) -> np.ndarray:
    """A float64 work table of ``size`` entries for one gate call: the
    state's ``scratch`` buffer, or a new table when it has none."""
    return np.empty(size) if state.buffers is None else state.buffers.take("scratch", size)


def _one_column(state: StateVector) -> None:
    if state.columns != 1:
        raise ValueError(f"the one-column layout does not hold {state.columns} columns")


def _checked(state: StateVector, whole: bool = False) -> StateVector:
    """Raise unless the live blocks' total squared norm is the column
    count, or with ``whole`` every column's norm is 1, within 1e-9."""
    amps = state.amps
    k = amps.size >> (state.n + 2)
    if whole and k > 1:
        blocks = amps.reshape(4, k, -1)
        drift = np.max(np.abs(np.sqrt(np.einsum("wci,wci->c", blocks, blocks)) - 1.0))
    else:
        if whole:
            total = amps.dot(amps)
        else:
            size, total = amps.size >> 2, 0.0
            for w in state.live:
                block = amps[w * size:(w + 1) * size]
                total += block.dot(block)
        drift = abs(math.sqrt(total / k) - 1.0)
    if not drift <= _NORM_TOL:  # a NaN amplitude fails too
        raise StateNormError("state norm drifted beyond 1e-9")
    return state


def _exit_check(state: StateVector, whole: bool = False) -> StateVector:
    """A gate's or an operation's check on exit: :func:`_checked`, or
    nothing while an enclosing operation runs, which checks once when it
    ends."""
    return state if state._depth else _checked(state, whole)


def _operation(state: StateVector, steps, whole: bool = False) -> StateVector:
    """Apply ``steps`` (callables on the state) in order with their checks
    put off, then make the operation's one check on exit."""
    state._depth += 1
    try:
        for step in steps:
            step(state)
    finally:
        state._depth -= 1
    return _exit_check(state, whole)


def _index_table(values, state: StateVector, dtype) -> np.ndarray:
    """A table with one entry per index value (an oracle's bits, a marked
    mask), shared by every column or one column per column of the state,
    laid out like a block: ``k * 2**n`` entries, column after column. A
    table of ``dtype`` already in that layout (a ``(2**n,)`` one, or the
    transpose of a C-contiguous ``(k, 2**n)`` one) is read as it is."""
    table = np.asarray(values)
    n, k = state.n, state.columns
    if table.shape == (1 << n,):
        table = table.astype(dtype, copy=False)
        return table if k == 1 else np.tile(table, k)
    if table.shape != (1 << n, k):
        raise ValueError(f"index table must have shape ({1 << n},) or ({1 << n}, {k})")
    return np.ascontiguousarray(table.T, dtype=dtype).reshape(-1)


def _index_view(amps: np.ndarray) -> np.ndarray:
    return amps.reshape(2, 2, -1).transpose(2, 0, 1)


def _blocks(state: StateVector) -> np.ndarray:
    """(4, k * 2**n) view in memory order: row w is work state w's block,
    its k columns' index registers one after another."""
    return state.amps.reshape(4, -1)


def _live(state: StateVector) -> list:
    """Views of the live blocks, in the order of ``state.live``."""
    blocks = _blocks(state)
    return [blocks[w] for w in state.live]


def hadamard_index(state: StateVector) -> StateVector:
    """Hadamard on every index qubit (the n-fold tensor) of every column.

    Only the live blocks that hold a nonzero amplitude are transformed
    and stay live: an all-zero block transforms to zero, so dropping it
    is exact. One kernel call transforms the span of blocks from the
    first such block to the last, usually a lone block, one contiguous
    index column per column and block; a dead block inside the span is
    zero and stays zero, possibly ``-0.0``. An all-zero state transforms
    nothing and fails the norm check. The kernel's work table comes from
    :func:`_scratch`."""
    blocks = _blocks(state)
    live = [w for w in state.live if (blocks[w] != 0.0).any()]
    state.live = tuple(live)
    if live:
        span = blocks[live[0]:live[-1] + 1]
        butterfly_axis0(span.reshape(-1, 1 << state.n).T, _scratch(state, span.size))
        span *= 2.0 ** (-state.n / 2.0)
    return _exit_check(state)


def x_phase(state: StateVector) -> StateVector:
    """Pauli X on the phase qubit: block w moves to w ^ 1. A live block
    whose partner is dead is moved and zeroed behind; two live partners
    are swapped. Beside other live blocks (a lone one holds the whole
    norm), a block that is exactly zero in every column is dropped from
    the set instead of moved, which is exact: it is the block that
    membership-CZ-membership cancels in the adjoint correlation operator."""
    blocks = _blocks(state)
    live = state.live
    if len(live) > 1:
        live = tuple(w for w in live if w ^ 1 in state.live or blocks[w].any())
    for w in live:
        partner = w ^ 1
        if partner not in live:
            blocks[partner] = blocks[w]
            blocks[w] = 0.0
        elif w < partner:
            blocks[[w, partner]] = blocks[[partner, w]]
    state.live = tuple(sorted(w ^ 1 for w in live))
    return _exit_check(state)


def cz_answer_phase(state: StateVector) -> StateVector:
    """Controlled phase flip: negate amplitudes with answer = phase = 1."""
    if 3 in state.live:
        _blocks(state)[3] *= -1.0
    return _exit_check(state)


def reflect_zero_index(state: StateVector) -> StateVector:
    """Negate amplitudes whose index register is all zero."""
    for block in _live(state):
        block[::1 << state.n] *= -1.0
    return _exit_check(state)


def apply_membership(state: StateVector, f, counter: QueryCounter) -> StateVector:
    """XOR the oracle bit f(i) into the answer qubit; one quantum query per
    column.

    Swaps the two answer blocks of each live pair at every index with
    f(i) = 1, and leaves both blocks of the pair live. The swap is a
    branch-free select on the amplitudes' int64 bits: ``d = (low ^ high)
    * f`` is the XOR of the two where f(i) = 1 and 0 elsewhere, formed in
    the gate's scratch table, and XORing d into both blocks exchanges
    exactly those entries, bit for bit. When one block of the pair is
    dead it is all zero, so d is the live block times f: it is written
    straight into the dead block and XORed into the live one. Self-inverse,
    so the same call serves as the adjoint query (which is counted
    identically).
    """
    bits = _blocks(state).view(np.int64)
    select = _index_table(f, state, bool)
    phases = sorted({w & 1 for w in state.live})
    for phase in phases:
        low, high = bits[phase], bits[2 | phase]
        if phase in state.live and (2 | phase) in state.live:
            diff = np.bitwise_xor(low, high, out=_scratch(state, low.size).view(np.int64))
            diff *= select
            low ^= diff
            high ^= diff
        else:  # one block of the pair is dead, so all zero
            live, dead = (low, high) if phase in state.live else (high, low)
            np.multiply(live, select, out=dead)
            live ^= dead
    state.live = tuple(phases + [2 | phase for phase in phases])
    counter.quantum_queries += state.columns
    return _exit_check(state)


def apply_marked_phase(state: StateVector, marked) -> StateVector:
    """Negate amplitudes whose index value is marked; diagonal, self-inverse."""
    mask = _index_table(marked, state, bool)
    for block in _live(state):
        np.negative(block, out=block, where=mask)
    return _exit_check(state)


def _correlation_gates(f, counter: QueryCounter) -> tuple:
    """The correlation operator's gates in order: index Hadamards with the
    phase-qubit flip, the membership query, the controlled phase flip, the
    adjoint query, and the closing index Hadamards. Each is a real
    involution, so the same gates in reverse order are the adjoint. The
    gates are looked up per call, so a gate swapped into this module
    takes effect in both directions and in :func:`prepare_spectrum_state`."""
    def query(state):
        return apply_membership(state, f, counter)
    return (hadamard_index, x_phase, query, cz_answer_phase, query, hadamard_index)


def correlation_op(state: StateVector, f, counter: QueryCounter) -> StateVector:
    """The two-query correlation operator; called on its own, it checks
    the live blocks once on exit."""
    return _operation(state, _correlation_gates(f, counter))


def correlation_op_dagger(state: StateVector, f, counter: QueryCounter) -> StateVector:
    """Adjoint of :func:`correlation_op`: its gates in reverse; also two
    queries and one check."""
    return _operation(state, reversed(_correlation_gates(f, counter)))


def prepare_spectrum_state(f, counter: QueryCounter, buffers: Buffers | None = None) -> StateVector:
    """Correlation operator applied to the all-zero state; two queries per
    column.

    ``f`` is the oracle's bit table, ``(2**n,)`` for one circuit or
    ``(2**n, k)`` for k circuits, one column each; a bool table laid out
    as the gates read it (see :func:`_index_table`) is never copied.
    Measuring the index register of a column samples a parity with
    probability equal to its squared sign-form correlation coefficient.
    Every column's norm is checked once, on exit, and by no gate inside.
    The state is built on ``buffers`` when given (see :func:`init_state`).
    """
    bits = np.asarray(f)
    state = init_state(int(bits.shape[0]).bit_length() - 1, bits.shape[1] if bits.ndim == 2 else 1,
                       buffers)
    return _operation(state, _correlation_gates(bits, counter), whole=True)


def grover_step(state: StateVector, f, marked, counter: QueryCounter) -> StateVector:
    """One amplification iterate: marked-phase flip, adjoint correlation
    operator, zero reflection, correlation operator, overall sign flip.
    Four queries per column. Every column's norm is checked once, on
    exit, and by no gate or correlation operator inside."""
    def iterate(state):
        apply_marked_phase(state, marked)
        correlation_op_dagger(state, f, counter)
        reflect_zero_index(state)
        correlation_op(state, f, counter)
        for block in _live(state):
            block *= -1.0
    return _operation(state, (iterate,), whole=True)


def index_distribution(state: StateVector) -> np.ndarray:
    """Measurement distribution of the index register, each sums to 1: a
    ``(2**n,)`` array for a one-column state, else one row per column.

    The live blocks' squares are summed in the order of ``state.live``,
    the first written straight into the result, which is the state's
    ``scratch`` buffer when it has buffers (valid until the next gate) and
    a new array otherwise."""
    dist = _scratch(state, state.amps.size >> 2)
    blocks = _live(state)
    if blocks:
        np.square(blocks[0], out=dist)
    else:
        dist.fill(0.0)
    for block in blocks[1:]:
        dist += np.square(block)
    return dist if state.columns == 1 else dist.reshape(-1, 1 << state.n)


def dump_state(state: StateVector) -> bytes:
    """Binary dump of a one-column state: 16-byte header (magic, n) then
    the amplitudes as little-endian doubles in the C order of the view's
    axes, so the double for ``[i, answer, phase]`` sits at byte
    ``16 + 8 * ((i << 2) | (answer << 1) | phase)``."""
    _one_column(state)
    header = _DUMP_MAGIC + int(state.n).to_bytes(8, "little")
    return header + np.ascontiguousarray(_index_view(state.amps), dtype="<f8").tobytes()


def load_state(buf: bytes) -> StateVector:
    """Inverse of :func:`dump_state`, checked like any other state; a
    one-column state, so a buffer of several columns fails its length check."""
    if buf[:8] != _DUMP_MAGIC:
        raise ValueError("bad state dump magic")
    state = init_state(int.from_bytes(buf[8:16], "little"))
    amps = np.frombuffer(buf[16:], dtype="<f8")
    view = state.view()
    if amps.size != view.size:
        raise ValueError("state dump length does not match its header")
    view.flat = amps  # in the C order of the view's axes, as dump_state wrote it
    return _checked(state)
