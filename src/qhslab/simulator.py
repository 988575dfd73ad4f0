"""Exact statevector simulation of the correlation-sampling circuit and
its amplitude-amplified search iterate, with query accounting.

The register holds n index qubits, one answer qubit and one phase
qubit. Only X and the diagonal CZ act on the phase qubit, so along the
correlation operator, its adjoint and the amplification iterate the
phase qubit stays in a basis state. A state stores that basis state,
``StateVector.phase``, and the ``2**(n + 1)`` amplitudes at it. It holds
k >= 1 independent circuits, its columns, that run the same gates, each
on its own oracle column. The answer qubit is outermost in memory, then
the column, then the index register:

    position in amps = (answer * k + column) * 2**n + i

so each answer value's block holds k rows of ``2**n`` amplitudes, each
column's index axis contiguous. :meth:`StateVector.view` builds the
``[index, answer, phase]`` array of shape ``(2**n, 2, 2)`` of a
one-column state, +0.0 at the other phase; the dump writes its C order.
Both refuse a state of several columns. An index table (an oracle's
bits, a marked mask) has shape ``(2**n,)``, shared by every column, or
``(2**n, k)``, one column per circuit. A state stores at most
``BATCH_AMPS`` = 2**15 amplitudes (256 KB), or one column when a single
circuit is larger (:func:`batch_columns`): 16 columns at n = 10, 4 at
n = 12, one from n = 14 on. That is the cap measured when a state stored
both phases, past which the gates' passes outran a 2 MB L2 cache.

X on the phase qubit flips ``phase`` and moves no amplitude.
``StateVector.lone`` is true only when the answer-1 block is known to be
exactly zero in every column: :func:`init_state` sets it,
:func:`hadamard_index` sets it when it finds that block cancelled, and
:func:`apply_membership` clears it. The gates of a lone state act on its
answer-0 block alone, so along the learners' operators every index
Hadamard transforms one block, and no gate negates a zero block, which
would turn its +0.0 into -0.0. Each column goes through the same
matmuls as a one-column state, so its amplitudes do not depend on the
columns beside it, bit for bit. Operations mutate the state in place
and return it. A state built on a :class:`Buffers` object keeps its
amplitudes in the object's tables, and its gates take their work tables
from it too, so preparations repeated on one object allocate no table
of the state's size. Every gate is real, so the amplitudes are float64.

Nothing here renormalizes silently. Each public operation, a gate
called on its own included, checks the norm once, on exit, by one rule:
every column's norm over everything the state stores is 1. So a gate
that writes into the answer-1 block of a lone state, or moves norm from
one column to another, is caught too. Inside an operation the gates,
and an inner operation, put their checks off: an operation raises the
state's private depth counter around its body and lowers it again even
when the body raises, and a gate or an operation checks only when it
finds the counter at 0. So a gate that breaks the norm inside an
operation is caught at the operation's exit. A drift past 1e-9 raises
:class:`StateNormError`, because drift at that size means a broken
gate, not roundoff.

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
BATCH_AMPS = 1 << 15  # most amplitudes one state of several columns stores


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
    of :func:`index_distribution` until the next gate, or |g| while a
    stage splits it; ``rows`` the split's bit planes, all the digit
    depth's, and over them a stage's distinct digit rows. One
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
    amps: np.ndarray  # the answer-0 block, then the answer-1 block, at ``phase``
    phase: int = 0  # the phase qubit's basis state
    lone: bool = False  # the answer-1 block is exactly zero in every column
    buffers: Buffers | None = field(default=None, repr=False, compare=False)  # the gates' scratch
    _depth: int = field(default=0, init=False, repr=False, compare=False)  # operations running

    @property
    def columns(self) -> int:
        """The number of circuits the state holds."""
        return self.amps.size >> (self.n + 1)

    def view(self) -> np.ndarray:
        """(2**n, 2, 2) array of a one-column state: index register, answer
        qubit, phase qubit.

        A new array: the two answer blocks at the state's phase, and +0.0
        at the other, so writes to it do not reach the state."""
        _one_column(self)
        out = np.zeros((1 << self.n, 2, 2))
        out[:, :, self.phase] = self.amps.reshape(2, -1).T
        return out


def batch_columns(n: int) -> int:
    """Most columns a state on n index qubits holds: ``BATCH_AMPS``
    stored amplitudes, and never fewer than one column."""
    return max(1, BATCH_AMPS >> (n + 1))


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
        amps = np.zeros(columns << (n + 1), dtype=np.float64)
    else:
        amps = buffers.take("state", columns << (n + 1))
        amps.fill(0.0)
    amps[:columns << n:1 << n] = 1.0
    return StateVector(n, amps, lone=True, buffers=buffers)


def _scratch(state: StateVector, size: int) -> np.ndarray:
    """A float64 work table of ``size`` entries for one gate call: the
    state's ``scratch`` buffer, or a new table when it has none."""
    return np.empty(size) if state.buffers is None else state.buffers.take("scratch", size)


def _one_column(state: StateVector) -> None:
    if state.columns != 1:
        raise ValueError(f"the one-column layout does not hold {state.columns} columns")


def _checked(state: StateVector) -> StateVector:
    """Raise unless every column's norm over both stored blocks is 1,
    within 1e-9: one dot for a one-column state, one ``vecdot`` over the
    blocks and columns otherwise, summed over the blocks."""
    amps = state.amps
    k = state.columns
    if k == 1:
        drift = abs(math.sqrt(amps.dot(amps)) - 1.0)
    else:
        blocks = amps.reshape(2, k, -1)
        drift = np.max(np.abs(np.sqrt(np.vecdot(blocks, blocks).sum(axis=0)) - 1.0))
    if not drift <= _NORM_TOL:  # a NaN amplitude fails too
        raise StateNormError("state norm drifted beyond 1e-9")
    return state


def _exit_check(state: StateVector) -> StateVector:
    """A gate's or an operation's check on exit: :func:`_checked`, or
    nothing while an enclosing operation runs, which checks once when it
    ends."""
    return state if state._depth else _checked(state)


def _operation(state: StateVector, steps) -> StateVector:
    """Apply ``steps`` (callables on the state) in order with their checks
    put off, then make the operation's one check on exit."""
    state._depth += 1
    try:
        for step in steps:
            step(state)
    finally:
        state._depth -= 1
    return _exit_check(state)


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


def _held(state: StateVector) -> np.ndarray:
    """(1 or 2, k * 2**n) view of the blocks that may hold amplitude: the
    answer-0 block alone when the state is lone, else both."""
    return state.amps.reshape(2, -1)[:1 if state.lone else 2]


def hadamard_index(state: StateVector) -> StateVector:
    """Hadamard on every index qubit (the n-fold tensor) of every column.

    A state that is not lone becomes lone when its answer-1 block is
    exactly zero in every column: that block transforms to zero, so
    leaving it is exact. One kernel call then transforms the held blocks,
    one contiguous index column per column and block, its work table from
    :func:`_scratch`. An all-zero state fails the norm check."""
    if not state.lone:  # the compare beats a float any() at n = 14
        state.lone = not (state.amps.reshape(2, -1)[1] != 0.0).any()
    held = _held(state)
    butterfly_axis0(held.reshape(-1, 1 << state.n).T, _scratch(state, held.size))
    held *= 2.0 ** (-state.n / 2.0)
    return _exit_check(state)


def x_phase(state: StateVector) -> StateVector:
    """Pauli X on the phase qubit: flips ``phase``; no amplitude moves."""
    state.phase ^= 1
    return _exit_check(state)


def cz_answer_phase(state: StateVector) -> StateVector:
    """Controlled phase flip: negate amplitudes with answer = phase = 1."""
    if state.phase and not state.lone:
        state.amps.reshape(2, -1)[1] *= -1.0
    return _exit_check(state)


def reflect_zero_index(state: StateVector) -> StateVector:
    """Negate amplitudes whose index register is all zero."""
    _held(state)[:, ::1 << state.n] *= -1.0
    return _exit_check(state)


def apply_membership(state: StateVector, f, counter: QueryCounter) -> StateVector:
    """XOR the oracle bit f(i) into the answer qubit; one quantum query per
    column.

    Swaps the two answer blocks at every index with f(i) = 1, and leaves
    the state not lone. The swap is a branch-free select on the
    amplitudes' int64 bits: ``d = (low ^ high) * f`` is the XOR of the
    two where f(i) = 1 and 0 elsewhere, formed in the gate's scratch
    table, and XORing d into both blocks exchanges exactly those entries,
    bit for bit. When the state is lone the answer-1 block is all zero,
    so d is the answer-0 block times f: it is written straight into the
    answer-1 block and XORed into the answer-0 one. Self-inverse, so the
    same call serves as the adjoint query (which is counted identically).
    """
    low, high = state.amps.view(np.int64).reshape(2, -1)
    select = _index_table(f, state, bool)
    if state.lone:
        np.multiply(low, select, out=high)
        low ^= high
    else:
        diff = np.bitwise_xor(low, high, out=_scratch(state, low.size).view(np.int64))
        diff *= select
        low ^= diff
        high ^= diff
    state.lone = False
    counter.quantum_queries += state.columns
    return _exit_check(state)


def apply_marked_phase(state: StateVector, marked) -> StateVector:
    """Negate amplitudes whose index value is marked; diagonal, self-inverse."""
    held = _held(state)
    np.negative(held, out=held, where=_index_table(marked, state, bool))
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
    the norm once, on exit."""
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
    return _operation(state, _correlation_gates(bits, counter))


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
        held = _held(state)
        held *= -1.0
    return _operation(state, (iterate,))


def index_distribution(state: StateVector) -> np.ndarray:
    """Measurement distribution of the index register, each sums to 1: a
    ``(2**n,)`` array for a one-column state, else one row per column.

    The held blocks' squares are summed, answer 0 first, written straight
    into the result, which is the state's ``scratch`` buffer when it has
    buffers (valid until the next gate) and a new array otherwise."""
    held = _held(state)
    dist = np.square(held[0], out=_scratch(state, held.shape[1]))
    if len(held) == 2:
        dist += np.square(held[1])
    return dist if state.columns == 1 else dist.reshape(-1, 1 << state.n)


def dump_state(state: StateVector) -> bytes:
    """Binary dump of a one-column state: 16-byte header (magic, n) then
    the amplitudes as little-endian doubles in the C order of the view's
    axes, so the double for ``[i, answer, phase]`` sits at byte
    ``16 + 8 * ((i << 2) | (answer << 1) | phase)``."""
    header = _DUMP_MAGIC + int(state.n).to_bytes(8, "little")
    return header + state.view().astype("<f8", copy=False).tobytes()


def load_state(buf: bytes) -> StateVector:
    """Inverse of :func:`dump_state`, checked like any other state; a
    one-column state, so a buffer of several columns fails its length
    check. The phase qubit must be in a basis state: a dump with a
    nonzero amplitude at both phases raises ``ValueError`` (a phase whose
    amplitudes are all +-0.0 counts as empty)."""
    if buf[:8] != _DUMP_MAGIC:
        raise ValueError("bad state dump magic")
    state = init_state(int.from_bytes(buf[8:16], "little"))
    amps = np.frombuffer(buf[16:], dtype="<f8")
    if amps.size != 2 * state.amps.size:
        raise ValueError("state dump length does not match its header")
    by_phase = amps.reshape(-1, 2, 2).transpose(2, 1, 0)  # [phase, answer, index]
    nonzero = [(by_phase[phase] != 0.0).any() for phase in (0, 1)]
    if all(nonzero):
        raise ValueError("state dump's phase qubit is not in a basis state")
    state.phase = int(nonzero[1])
    state.amps[:] = by_phase[state.phase].reshape(-1)
    state.lone = False
    return _checked(state)
