import math

import numpy as np
import pytest

from qhslab import (QueryCounter, grover_step, index_distribution, planted_parity,
                    prepare_spectrum_state, to_pm1, wht)
from qhslab.simulator import (StateNormError, apply_marked_phase, apply_membership,
                              correlation_op, correlation_op_dagger, cz_answer_phase,
                              dump_state, hadamard_index, init_state, load_state,
                              reflect_zero_index, x_phase)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << (n + 2))
    amps /= np.linalg.norm(amps)
    state = init_state(n)
    state.amps[:] = amps
    return state


def dense_hadamard(n):
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    h = np.array([[1.0]])
    for _ in range(n):
        h = np.kron(h, h1)
    return h


def apply_c_matrix_free(state_vec, n, bits):
    """Dense-matrix reference for the correlation operator on one vector."""
    h = dense_hadamard(n)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    eye2 = np.eye(2)
    u_mq = np.zeros((1 << (n + 2), 1 << (n + 2)))
    for i in range(1 << n):
        for a in range(2):
            for b in range(2):
                row = (i << 2) | ((a ^ int(bits[i])) << 1) | b
                col = (i << 2) | (a << 1) | b
                u_mq[row, col] = 1.0
    first = np.kron(h, np.kron(eye2, x))
    mid = np.kron(np.eye(1 << n), cz)
    last = np.kron(h, np.eye(4))
    return last @ u_mq.T @ mid @ u_mq @ first @ state_vec


def test_init_state():
    state = init_state(1)
    assert state.amps.dtype == np.float64
    assert state.amps[0] == 1.0 and np.all(state.amps[1:] == 0)
    bits = np.array([0, 1], dtype=np.uint8)
    stepped = grover_step(prepare_spectrum_state(bits, QueryCounter()), bits,
                          np.array([False, True]), QueryCounter())
    assert stepped.amps.dtype == np.float64
    assert abs(state.norm() - 1.0) < 1e-12
    assert init_state(3).amps.size == 32
    with pytest.raises(ValueError):
        init_state(0)
    with pytest.raises(ValueError):
        init_state(99)


def test_hadamard_uniform_and_involution():
    state = hadamard_index(init_state(4))
    probs = index_distribution(state)
    assert np.allclose(probs, 1.0 / 16, atol=1e-12)
    hadamard_index(state)
    want = np.zeros(state.amps.size)
    want[0] = 1.0
    assert np.allclose(state.amps, want, atol=1e-12)


def test_hadamard_matches_dense_matrix():
    n = 3
    state = random_state(n, 1)
    before = state.amps.copy()
    hadamard_index(state)
    dense = np.kron(dense_hadamard(n), np.eye(4)) @ before
    assert np.allclose(state.amps, dense, atol=1e-12)


def test_x_phase_and_cz():
    state = init_state(2)
    x_phase(state)
    assert state.amps[1] == 1.0  # phase qubit flipped to 1
    x_phase(state)
    assert state.amps[0] == 1.0
    state = random_state(2, 2)
    before = state.amps.copy()
    cz_answer_phase(state)
    view = state.amps.reshape(-1, 4)
    assert np.allclose(view[:, :3], before.reshape(-1, 4)[:, :3])
    assert np.allclose(view[:, 3], -before.reshape(-1, 4)[:, 3])
    cz_answer_phase(state)
    assert np.allclose(state.amps, before, atol=1e-15)


def test_reflect_zero_index():
    state = hadamard_index(init_state(3))
    before = state.amps.copy()
    reflect_zero_index(state)
    assert np.allclose(state.amps[:4], -before[:4])
    assert np.allclose(state.amps[4:], before[4:])
    reflect_zero_index(state)
    assert np.allclose(state.amps, before)
    assert abs(state.norm() - 1.0) < 1e-12


def test_membership_zero_oracle_and_involution():
    n = 3
    counter = QueryCounter()
    state = random_state(n, 3)
    before = state.amps.copy()
    apply_membership(state, np.zeros(1 << n, dtype=np.uint8), counter)
    assert np.array_equal(state.amps, before)
    bits = np.arange(1 << n) % 2
    apply_membership(state, bits, counter)
    apply_membership(state, bits, counter)
    assert np.array_equal(state.amps, before)
    assert counter.quantum_queries == 3


def test_membership_answer_marginal():
    n = 4
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, size=1 << n).astype(np.uint8)
    state = hadamard_index(init_state(n))
    apply_membership(state, bits, QueryCounter())
    view = state.amps.reshape(-1, 2, 2)
    answer_one = float(np.sum(np.abs(view[:, 1, :]) ** 2))
    want = sum(int(b) for b in bits) / (1 << n)  # direct enumeration
    assert abs(answer_one - want) < 1e-12


def test_marked_phase_identity_and_dense_check():
    n = 3
    state = random_state(n, 5)
    before = state.amps.copy()
    apply_marked_phase(state, np.zeros(1 << n, dtype=bool))
    assert np.array_equal(state.amps, before)
    target = 5
    mask = np.zeros(1 << n, dtype=bool)
    mask[target] = True
    apply_marked_phase(state, mask)
    dense = np.kron(np.diag([1.0 if i != target else -1.0 for i in range(1 << n)]),
                    np.eye(4)) @ before
    assert np.allclose(state.amps, dense, atol=1e-15)
    apply_marked_phase(state, np.arange(1 << n) == target)
    assert np.allclose(state.amps, before, atol=1e-15)


def test_correlation_op_matches_dense_reference():
    n = 3
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, size=1 << n).astype(np.uint8)
    state = random_state(n, 7)
    before = state.amps.copy()
    correlation_op(state, bits, QueryCounter())
    assert np.allclose(state.amps, apply_c_matrix_free(before, n, bits), atol=1e-12)


def test_correlation_op_unitary_and_dagger():
    n = 5
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, size=1 << n).astype(np.uint8)
    psi = random_state(n, 9)
    phi = random_state(n, 10)
    inner_before = np.vdot(psi.amps, phi.amps)
    correlation_op(psi, bits, QueryCounter())
    correlation_op(phi, bits, QueryCounter())
    assert abs(np.vdot(psi.amps, phi.amps) - inner_before) < 1e-10
    correlation_op_dagger(phi, bits, QueryCounter())
    again = random_state(n, 10)
    assert np.allclose(phi.amps, again.amps, atol=1e-12)


def test_spectrum_state_exact_parity():
    n, b = 6, 41
    bits = ((np.bitwise_count(np.arange(1 << n) & b)) & 1).astype(np.uint8)
    counter = QueryCounter()
    state = prepare_spectrum_state(bits, counter)
    dist = index_distribution(state)
    assert counter.quantum_queries == 2
    assert abs(dist[b] - 1.0) < 1e-12


def test_spectrum_state_planted_noise_probability():
    n, b, gamma = 8, 19, 0.125
    bits = planted_parity(n, b, gamma, seed=13)
    dist = index_distribution(prepare_spectrum_state(bits, QueryCounter()))
    assert abs(dist[b] - 4 * gamma**2) < 1e-10


def test_spectrum_state_master_theorem():
    rng = np.random.default_rng(14)
    for n in (4, 6, 8, 10):
        bits = rng.integers(0, 2, size=1 << n).astype(np.uint8)
        dist = index_distribution(prepare_spectrum_state(bits, QueryCounter()))
        want = wht(to_pm1(bits).astype(float)) ** 2
        assert np.max(np.abs(dist - want)) < 1e-10


def test_amplify_k0_and_query_count():
    n = 6
    rng = np.random.default_rng(15)
    bits = rng.integers(0, 2, size=1 << n).astype(np.uint8)
    mask = np.zeros(1 << n, dtype=bool)
    mask[3] = True
    base = prepare_spectrum_state(bits, QueryCounter())
    for k in (0, 1, 3):
        counter = QueryCounter()
        state = prepare_spectrum_state(bits, counter)
        for _ in range(k):
            grover_step(state, bits, mask, counter)
        assert counter.quantum_queries == 2 * (2 * k + 1)  # 2 + 4k
        if k == 0:
            assert np.allclose(state.amps, base.amps, atol=1e-14)


def test_amplify_follows_sine_law():
    n, b, gamma = 8, 19, 0.125
    bits = planted_parity(n, b, gamma, seed=16)
    coeffs = wht(to_pm1(bits).astype(float))
    marked = np.abs(coeffs) >= 1.8 * gamma
    p0 = float(np.sum(coeffs[marked] ** 2))
    theta = math.asin(math.sqrt(p0))
    state = prepare_spectrum_state(bits, QueryCounter())
    for k in range(0, 9):
        if k:
            grover_step(state, bits, marked, QueryCounter())
        hit = float(index_distribution(state)[marked].sum())
        assert abs(hit - math.sin((2 * k + 1) * theta) ** 2) < 1e-9


def test_amplify_empty_overlap_stays_zero():
    n, b = 6, 11
    bits = ((np.bitwise_count(np.arange(1 << n) & b)) & 1).astype(np.uint8)
    mask = np.zeros(1 << n, dtype=bool)
    mask[b ^ 1] = True  # no spectral mass there
    state = prepare_spectrum_state(bits, QueryCounter())
    for _ in range(5):
        grover_step(state, bits, mask, QueryCounter())
        assert float(index_distribution(state)[mask].sum()) < 1e-20


def test_norm_guard_trips():
    state = init_state(3)
    state.amps *= 1.1
    with pytest.raises(StateNormError):
        hadamard_index(state)


def test_measure_index_point_mass_and_frequencies():
    n, b = 5, 7
    bits = ((np.bitwise_count(np.arange(1 << n) & b)) & 1).astype(np.uint8)
    state = prepare_spectrum_state(bits, QueryCounter())
    rng = np.random.default_rng(17)
    probs = index_distribution(state)
    assert np.all(rng.choice(probs.size, size=20, p=probs) == b)

    state = hadamard_index(init_state(3))
    probs = index_distribution(state)
    draws = 100_000
    rng = np.random.default_rng(18)
    outcomes = np.bincount(rng.choice(probs.size, size=draws, p=probs), minlength=8)
    sigma = np.sqrt(draws * probs * (1 - probs))
    # 4 sigma on the max deviation across the 8 bins (union bound)
    assert np.all(np.abs(outcomes - draws * probs) <= 4 * sigma + 1)


def test_distribution_sums_to_one():
    state = random_state(7, 19)
    assert abs(index_distribution(state).sum() - 1.0) < 1e-12


def test_dump_round_trip():
    state = prepare_spectrum_state(
        planted_parity(5, 9, 0.25, seed=20), QueryCounter())
    blob = dump_state(state)
    assert blob[:8] == b"QHSREAL1"
    assert len(blob) == 16 + 8 * state.amps.size
    again = load_state(blob)
    assert again.n == state.n
    assert np.array_equal(again.amps, state.amps)
    hadamard_index(again)  # the loaded state is writable
    with pytest.raises(ValueError):
        load_state(b"BADMAGIC" + blob[8:])
    with pytest.raises(ValueError):
        load_state(blob[:-8])
    with pytest.raises(ValueError):
        load_state(b"QHSREAL1" + (0).to_bytes(8, "little") + bytes(8 * 4))  # n=0
    with pytest.raises(StateNormError):
        load_state(blob[:16] + bytes(len(blob) - 16))
