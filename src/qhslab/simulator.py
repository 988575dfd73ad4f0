"""Exact statevector simulation of the correlation-sampling circuit and
its amplitude-amplified search iterate, with query accounting.

The register layout is fixed so dumps compare bit-exactly across runs:
n index qubits, one answer qubit, one phase qubit, packed as

    basis index = (i << 2) | (answer << 1) | phase

so the amplitude array has length ``2**(n + 2)`` and reshapes to
``(2**n, 2, 2)``. Operations mutate the state in place and return it.
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
        """(2**n, 2, 2) view: index register, answer qubit, phase qubit."""
        return self.amps.reshape(-1, 2, 2)

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
    if abs(state.norm() - 1.0) > _NORM_TOL:
        raise StateNormError("state norm drifted beyond 1e-9")
    return state


def _index_table(values, n: int, dtype) -> np.ndarray:
    """A table with one entry per index value (an oracle's bits, a marked mask)."""
    table = np.asarray(values)
    if table.shape != (1 << n,):
        raise ValueError(f"index table must have length {1 << n}")
    return table.astype(dtype)


def hadamard_index(state: StateVector) -> StateVector:
    """Hadamard on every index qubit (the n-fold tensor)."""
    butterfly_axis0(state.amps.reshape(1 << state.n, 4))
    state.amps *= 2.0 ** (-state.n / 2.0)
    return _checked(state)


def x_phase(state: StateVector) -> StateVector:
    """Pauli X on the phase qubit."""
    v = state.amps.reshape(-1, 2)
    v[:] = v[:, ::-1].copy()
    return _checked(state)


def cz_answer_phase(state: StateVector) -> StateVector:
    """Controlled phase flip: negate amplitudes with answer = phase = 1."""
    state.amps.reshape(-1, 4)[:, 3] *= -1.0
    return _checked(state)


def reflect_zero_index(state: StateVector) -> StateVector:
    """Negate amplitudes whose index register is all zero."""
    state.amps.reshape(-1, 4)[0] *= -1.0
    return _checked(state)


def apply_membership(state: StateVector, f, counter: QueryCounter) -> StateVector:
    """XOR the oracle bit f(i) into the answer qubit; one quantum query.

    Self-inverse, so the same call serves as the adjoint query (which is
    counted identically).
    """
    bits = _index_table(f, state.n, np.uint8)
    v = state.view()
    ones = np.flatnonzero(bits)
    v[ones] = v[ones][:, ::-1, :]
    counter.quantum_queries += 1
    return _checked(state)


def apply_marked_phase(state: StateVector, marked) -> StateVector:
    """Negate amplitudes whose index value is marked; diagonal, self-inverse."""
    mask = _index_table(marked, state.n, bool)
    state.amps.reshape(-1, 4)[mask] *= -1.0
    return _checked(state)


def correlation_op(state: StateVector, f, counter: QueryCounter) -> StateVector:
    """The two-query correlation operator.

    Applied in order: index Hadamards with the phase-qubit flip, the
    membership query, the controlled phase flip, the adjoint query, and
    the closing index Hadamards.
    """
    hadamard_index(state)
    x_phase(state)
    apply_membership(state, f, counter)
    cz_answer_phase(state)
    apply_membership(state, f, counter)
    hadamard_index(state)
    return state


def correlation_op_dagger(state: StateVector, f, counter: QueryCounter) -> StateVector:
    """Adjoint of :func:`correlation_op`; also two queries."""
    hadamard_index(state)
    apply_membership(state, f, counter)
    cz_answer_phase(state)
    apply_membership(state, f, counter)
    x_phase(state)
    hadamard_index(state)
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
    return (state.amps.reshape(-1, 4) ** 2).sum(axis=1)


def dump_state(state: StateVector) -> bytes:
    """Binary dump: 16-byte header (magic, n) then the amplitudes as
    little-endian doubles in basis order."""
    header = _DUMP_MAGIC + int(state.n).to_bytes(8, "little")
    return header + state.amps.astype("<f8").tobytes()


def load_state(buf: bytes) -> StateVector:
    """Inverse of :func:`dump_state`, checked like any other state."""
    if buf[:8] != _DUMP_MAGIC:
        raise ValueError("bad state dump magic")
    state = init_state(int.from_bytes(buf[8:16], "little"))
    amps = np.frombuffer(buf[16:], dtype="<f8")
    if amps.size != state.amps.size:
        raise ValueError("state dump length does not match its header")
    state.amps[:] = amps
    return _checked(state)
