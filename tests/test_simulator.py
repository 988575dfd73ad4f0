import math

import numpy as np
import pytest

from qhslab import (QueryCounter, grover_step, index_distribution, planted_parity,
                    prepare_spectrum_state, simulator, to_pm1, wht)
from qhslab.simulator import (ALL_BLOCKS, BATCH_AMPS, StateNormError, StateVector,
                              apply_marked_phase, apply_membership, batch_columns,
                              correlation_op, correlation_op_dagger, cz_answer_phase, dump_state,
                              hadamard_index, init_state, load_state, reflect_zero_index, x_phase)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << (n + 2))
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


def where_membership(amps, n, bits):
    """Reference membership gate: the np.where swap of the two answer blocks
    over the whole state."""
    blocks = amps.reshape(2, 2, 1 << n)
    blocks[:] = np.where(np.asarray(bits, dtype=np.uint8), blocks[::-1], blocks)


def copy_x_phase(amps, n):
    """Reference phase-qubit X: swap the two phase blocks through a full copy."""
    blocks = amps.reshape(2, 2, 1 << n)
    blocks[:] = blocks[:, ::-1].copy()


# quiet NaNs of both signs with payloads; the bit-exact gates must carry them unchanged
NAN_PAYLOADS = np.array([0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64).view(np.float64)


def special_state(n, seed, live, nan):
    """A state whose live blocks mix normal amplitudes with -0.0, subnormals
    and, if ``nan``, NaNs with payloads; every other block is +0.0. Without
    NaN its norm is 1 to roundoff."""
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((4, 1 << n))
    specials = np.concatenate([[-0.0, 5e-324, -2.5e-310, 1e-310], NAN_PAYLOADS[:2 * nan]])
    spots = {w: rng.choice(1 << n, size=len(specials), replace=False) for w in live}
    blocks[[w for w in ALL_BLOCKS if w not in live]] = 0.0
    for w, at in spots.items():
        blocks[w, at] = 0.0
    blocks /= np.linalg.norm(blocks)
    for w, at in spots.items():
        blocks[w, at] = specials
    return StateVector(n, blocks.ravel(), live)


def dense_hadamard(n):
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    h = np.array([[1.0]])
    for _ in range(n):
        h = np.kron(h, h1)
    return h


def basis(n):
    """``basis(n)[i, a, p]``: the position in ``amps`` of index i, answer a, phase p."""
    return StateVector(n, np.arange(4 << n)).view()


def in_memory_order(n, op):
    """A dense operator written over the (index, answer, phase) basis in
    that C order (a Kronecker product), moved to memory order."""
    pos = basis(n).ravel()
    placed = np.zeros_like(op)
    placed[np.ix_(pos, pos)] = op
    return placed


def apply_c_matrix_free(state_vec, n, bits):
    """Dense-matrix reference for the correlation operator on one vector."""
    h = dense_hadamard(n)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    eye2 = np.eye(2)
    pos = basis(n)
    u_mq = np.zeros((4 << n, 4 << n))
    for i, a, b in np.ndindex(pos.shape):
        u_mq[pos[i, a ^ int(bits[i]), b], pos[i, a, b]] = 1.0
    first = in_memory_order(n, np.kron(h, np.kron(eye2, x)))
    mid = in_memory_order(n, np.kron(np.eye(1 << n), cz))
    last = in_memory_order(n, np.kron(h, np.eye(4)))
    return last @ u_mq.T @ mid @ u_mq @ first @ state_vec


def test_init_state():
    state = init_state(1)
    assert state.amps.dtype == np.float64
    assert state.amps[0] == 1.0 and np.all(state.amps[1:] == 0)
    bits = np.array([0, 1], dtype=np.uint8)
    stepped = grover_step(prepare_spectrum_state(bits, QueryCounter()), bits,
                          np.array([False, True]), QueryCounter())
    assert stepped.amps.dtype == np.float64
    assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12
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
    for n in (3, 8):  # one transform block, and two
        state = random_state(n, 1)
        amps = state.amps
        before = state.view().copy()
        hadamard_index(state)
        dense = np.einsum("ji,iap->jap", dense_hadamard(n), before)
        assert state.amps is amps  # transformed in place, through a reshaped view
        assert np.allclose(state.view(), dense, atol=1e-12)


def test_hadamard_transforms_the_live_work_blocks_in_one_kernel_call(monkeypatch):
    calls = []
    kernel = simulator.butterfly_axis0

    def counting_kernel(a, scratch=None):
        calls.append(a.shape)
        return kernel(a, scratch)

    monkeypatch.setattr(simulator, "butterfly_axis0", counting_kernel)
    rng = np.random.default_rng(22)
    for n in (3, 8):
        for live in ((1,), (0, 3), (0, 1, 2, 3)):  # work states (answer << 1) | phase
            state = init_state(n)
            state.amps[:] = 0.0
            for w in live:
                state.view()[:, w >> 1, w & 1] = rng.standard_normal(1 << n)
            state.amps /= np.linalg.norm(state.amps)
            before = state.view().copy()
            calls.clear()
            hadamard_index(state)
            assert calls == [(1 << n, live[-1] - live[0] + 1)]  # the span of live blocks
            dense = np.einsum("ji,iap->jap", dense_hadamard(n), before)
            assert np.allclose(state.view(), dense, atol=1e-12)
            for w in set(range(4)) - set(live):
                assert np.all(state.view()[:, w >> 1, w & 1] == 0.0)


def test_hadamard_of_an_all_zero_state_fails_the_norm_check():
    for n, columns in ((3, 1), (4, 2)):
        for state in (init_state(n, columns), StateVector(n, np.zeros(columns << (n + 2)))):
            state.amps[:] = 0.0
            with pytest.raises(StateNormError):
                hadamard_index(state)
            assert state.live == ()
            assert not state.amps.any()


def test_x_phase_and_cz():
    state = init_state(2)
    x_phase(state)
    assert state.view()[0, 0, 1] == 1.0  # phase qubit flipped to 1
    x_phase(state)
    assert state.view()[0, 0, 0] == 1.0
    state = random_state(2, 2)
    before = state.view().copy()
    cz_answer_phase(state)
    view = state.view()
    untouched = np.array([[True, True], [True, False]])  # all but answer = phase = 1
    assert np.allclose(view[:, untouched], before[:, untouched])
    assert np.allclose(view[:, 1, 1], -before[:, 1, 1])
    cz_answer_phase(state)
    assert np.allclose(state.view(), before, atol=1e-15)


@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("live", [(0,), (1,), (0, 2), (1, 3), (0, 1), ALL_BLOCKS,
                                  (2,), (3,), (1, 2)])
def test_block_gates_move_the_bits_the_reference_gates_move(live, nan):
    n = 5
    bits = np.random.default_rng(24).integers(0, 2, size=1 << n).astype(np.uint8)
    gates = (
        (lambda s: apply_membership(s, bits, QueryCounter()),
         lambda amps: where_membership(amps, n, bits),
         sorted({w & ~2 for w in live} | {w | 2 for w in live})),
        (x_phase, lambda amps: copy_x_phase(amps, n), sorted(w ^ 1 for w in live)),
    )
    for gate, reference, live_after in gates:
        state = special_state(n, 25, live, nan)
        want = state.amps.copy()
        reference(want)
        if nan:
            with pytest.raises(StateNormError):
                gate(state)
        else:
            gate(state)
        assert state.amps.tobytes() == want.tobytes()
        assert state.live == tuple(live_after)


def test_buffers_take_arrays_of_any_shape_from_one_table_per_role():
    buffers = simulator.Buffers()
    state = buffers.take("state", 64)
    ints = buffers.take("state", (3, 8), np.int16)
    planes = buffers.take("state", (2, 16), np.uint8)
    assert (ints.shape, ints.dtype, planes.shape, planes.dtype) == ((3, 8), np.int16,
                                                                    (2, 16), np.uint8)
    assert state.ctypes.data == ints.ctypes.data == planes.ctypes.data  # the table's start
    assert np.shares_memory(state, ints) and np.shares_memory(state, planes)
    scratch = buffers.take("scratch", 64)
    rows = buffers.take("rows", (2, 64), np.int8)
    for a, b in ((state, scratch), (state, rows), (scratch, rows)):
        assert not np.shares_memory(a, b)
    state[:] = np.arange(64)
    grown = buffers.take("state", (2, 64))  # larger than the table: a new one replaces it
    grown.fill(-1.0)
    assert not np.shares_memory(grown, state)
    assert np.array_equal(state, np.arange(64))
    assert np.shares_memory(grown, buffers.take("state", 8, np.uint8))


def test_blocks_outside_the_live_set_stay_zero_through_the_circuit(monkeypatch):
    n, b, gamma = 8, 19, 0.125
    bits = planted_parity(n, b, gamma, seed=26)
    marked = np.abs(wht(to_pm1(bits).astype(float))) >= 1.8 * gamma
    checked = []

    def checking(name, gate):
        def wrapped(state, *args):
            out = gate(state, *args)
            blocks = state.amps.reshape(4, -1)  # not view(), which marks every block live
            dead = [w for w in ALL_BLOCKS if w not in state.live]
            assert np.all(blocks[dead] == 0.0), name
            if name == "hadamard_index":
                assert len(state.live) == 1  # one block transformed, as the circuit needs
            checked.append(name)
            return out
        return wrapped

    for name in ("hadamard_index", "x_phase", "apply_membership", "cz_answer_phase",
                 "apply_marked_phase", "reflect_zero_index", "grover_step"):
        monkeypatch.setattr(simulator, name, checking(name, getattr(simulator, name)))
    assert init_state(n).live == (0,)
    counter = QueryCounter()
    state = prepare_spectrum_state(bits, counter)
    for _ in range(3):
        simulator.grover_step(state, bits, marked, counter)
    assert counter.quantum_queries == 2 + 3 * 4
    assert checked.count("hadamard_index") == 2 + 3 * 4
    assert checked.count("grover_step") == 3 and checked.count("reflect_zero_index") == 3
    assert len(state.live) == 1
    assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12

    assert StateVector(n, state.amps.copy()).live == ALL_BLOCKS
    assert load_state(dump_state(state)).live == ALL_BLOCKS
    state.view()
    assert state.live == ALL_BLOCKS


def test_the_adjoint_operator_moves_no_cancelled_block(monkeypatch):
    """In the adjoint correlation operator, membership-CZ-membership cancels
    one answer block; x_phase drops it instead of moving it onto its dead
    partner, so no index Hadamard of the adjoint receives an all-zero live
    block. The closing Hadamard of the forward operator still receives the
    one that operator cancels, and drops it."""
    n, b, gamma = 8, 19, 0.125
    bits = planted_parity(n, b, gamma, seed=26)
    marked = np.abs(wht(to_pm1(bits))) >= 1.8 * gamma
    hadamard, dagger = simulator.hadamard_index, simulator.correlation_op_dagger
    zero_blocks = {"adjoint": [], "forward": []}
    inside = ["forward"]

    def recording_hadamard(state):
        blocks = state.amps.reshape(4, -1)
        zero_blocks[inside[-1]].append(sum(not blocks[w].any() for w in state.live))
        return hadamard(state)

    def marked_dagger(state, f, counter):
        inside.append("adjoint")
        try:
            return dagger(state, f, counter)
        finally:
            inside.pop()

    counter = QueryCounter()
    state = prepare_spectrum_state(bits, counter)
    monkeypatch.setattr(simulator, "hadamard_index", recording_hadamard)
    monkeypatch.setattr(simulator, "correlation_op_dagger", marked_dagger)
    steps = 2
    for _ in range(steps):
        grover_step(state, bits, marked, counter)
    assert zero_blocks["adjoint"] == [0, 0] * steps
    assert zero_blocks["forward"] == [0, 1] * steps
    assert counter.quantum_queries == 2 + 4 * steps
    assert len(state.live) == 1


def test_a_gate_writing_outside_the_live_set_fails_the_composite_exit_check(monkeypatch):
    n = 6
    bits = np.random.default_rng(27).integers(0, 2, size=1 << n).astype(np.uint8)
    cz = simulator.cz_answer_phase

    def leaking_cz(state):
        cz(state)
        dead = [w for w in ALL_BLOCKS if w not in state.live]
        state.amps.reshape(4, -1)[dead[0], 3] = 0.5
        return state

    monkeypatch.setattr(simulator, "cz_answer_phase", leaking_cz)
    correlation_op(init_state(n), bits, QueryCounter())  # which checks its live blocks only
    with pytest.raises(StateNormError):
        prepare_spectrum_state(bits, QueryCounter())
    monkeypatch.setattr(simulator, "cz_answer_phase", cz)
    state = prepare_spectrum_state(bits, QueryCounter())
    monkeypatch.setattr(simulator, "cz_answer_phase", leaking_cz)
    with pytest.raises(StateNormError):
        grover_step(state, bits, np.arange(1 << n) == 1, QueryCounter())


def test_reflect_zero_index():
    state = hadamard_index(init_state(3))
    before = state.view().copy()
    reflect_zero_index(state)
    assert np.allclose(state.view()[0], -before[0])
    assert np.allclose(state.view()[1:], before[1:])
    reflect_zero_index(state)
    assert np.allclose(state.view(), before)
    assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12


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
    view = state.view()
    answer_one = float(np.sum(np.abs(view[:, 1, :]) ** 2))
    want = sum(int(b) for b in bits) / (1 << n)  # direct enumeration
    assert abs(answer_one - want) < 1e-12


def test_marked_phase_identity_and_dense_check():
    n = 3
    state = random_state(n, 5)
    before = state.view().copy()
    apply_marked_phase(state, np.zeros(1 << n, dtype=bool))
    assert np.array_equal(state.view(), before)
    target = 5
    mask = np.zeros(1 << n, dtype=bool)
    mask[target] = True
    apply_marked_phase(state, mask)
    dense = np.einsum("ji,iap->jap",
                      np.diag([1.0 if i != target else -1.0 for i in range(1 << n)]), before)
    assert np.allclose(state.view(), dense, atol=1e-15)
    apply_marked_phase(state, np.arange(1 << n) == target)
    assert np.allclose(state.view(), before, atol=1e-15)


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


def test_both_directions_apply_a_gate_swapped_into_the_module(monkeypatch):
    n = 4
    bits = np.random.default_rng(11).integers(0, 2, size=1 << n).astype(np.uint8)
    flips = []
    x = simulator.x_phase

    def counting_x_phase(state):
        flips.append(state.n)
        return x(state)

    monkeypatch.setattr(simulator, "x_phase", counting_x_phase)
    state = random_state(n, 12)
    before = state.amps.copy()
    counter = QueryCounter()
    correlation_op(state, bits, counter)
    assert flips == [n]
    correlation_op_dagger(state, bits, counter)
    assert flips == [n, n]
    assert counter.quantum_queries == 4
    assert np.allclose(state.amps, before, atol=1e-12)


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
    state = random_state(3, 4)
    state.amps[5] = np.nan  # a NaN norm must trip the guard too
    with pytest.raises(StateNormError):
        x_phase(state)


def scale_a_live_block(state):
    for block in simulator._live(state):
        if block.any():
            block *= 1.1
            return


def write_a_nan(state):
    simulator._live(state)[0][1] = np.nan


# each public operation on a state of the given columns, oracle table and marked mask
OPERATIONS = {
    "correlation_op": lambda state, bits, marked: correlation_op(state, bits, QueryCounter()),
    "correlation_op_dagger":
        lambda state, bits, marked: correlation_op_dagger(state, bits, QueryCounter()),
    "prepare_spectrum_state":
        lambda state, bits, marked: prepare_spectrum_state(bits, QueryCounter()),
    "grover_step": lambda state, bits, marked: grover_step(state, bits, marked, QueryCounter()),
}


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
@pytest.mark.parametrize("corrupt", [scale_a_live_block, write_a_nan])
@pytest.mark.parametrize("gate", ["hadamard_index", "x_phase", "apply_membership",
                                  "cz_answer_phase"])
def test_a_broken_inner_gate_fails_the_operations_one_check(monkeypatch, gate, corrupt, operation):
    n, k = 5, 2
    rng = np.random.default_rng(32)
    bits = rng.integers(0, 2, size=(1 << n, k)).astype(np.uint8)
    marked = rng.random((1 << n, k)) < 0.25
    args = (bits[:, 0], QueryCounter()) if gate == "apply_membership" else ()
    real = getattr(simulator, gate)

    def broken(state, *gate_args):  # the real gate, on a state it breaks first
        corrupt(state)
        return real(state, *gate_args)

    with pytest.raises(StateNormError):  # called on its own, the stand-in checks on exit
        broken(random_state(n, 33), *args)
    state = prepare_spectrum_state(bits, QueryCounter())
    monkeypatch.setattr(simulator, gate, broken)
    with pytest.raises(StateNormError):
        OPERATIONS[operation](state, bits, marked)


@pytest.mark.parametrize("operation", ["correlation_op", "correlation_op_dagger", "grover_step"])
def test_a_raise_inside_an_operation_leaves_a_lone_gate_its_check(operation):
    n = 5
    rng = np.random.default_rng(35)
    bits = rng.integers(0, 2, size=(1 << n, 2)).astype(np.uint8)
    state = prepare_spectrum_state(bits, QueryCounter())
    with pytest.raises(ValueError):  # a gate inside refuses index tables of three columns
        OPERATIONS[operation](state, np.tile(bits[:, :1], 3), np.zeros((1 << n, 3), dtype=bool))
    scale_a_live_block(state)
    with pytest.raises(StateNormError):
        cz_answer_phase(state)


def test_each_public_operation_checks_the_norm_once(monkeypatch):
    checks = []
    checked = simulator._checked

    def counting(state, whole=False):
        checks.append(whole)
        return checked(state, whole)

    monkeypatch.setattr(simulator, "_checked", counting)
    rng = np.random.default_rng(34)
    for n, k in ((6, 1), (5, 3)):
        bits = rng.integers(0, 2, size=(1 << n, k)).astype(np.uint8)
        marked = rng.random((1 << n, k)) < 0.25
        counter = QueryCounter()
        state = prepare_spectrum_state(bits, counter)
        steps = (
            (lambda: grover_step(state, bits, marked, counter), True),
            (lambda: correlation_op(state, bits, counter), False),
            (lambda: correlation_op_dagger(state, bits, counter), False),
            (lambda: hadamard_index(state), False),
            (lambda: x_phase(state), False),
            (lambda: apply_membership(state, bits, counter), False),
            (lambda: cz_answer_phase(state), False),
            (lambda: reflect_zero_index(state), False),
            (lambda: apply_marked_phase(state, marked), False),
        )
        assert checks == [True]
        for step, whole in steps:
            checks.clear()
            step()
            assert checks == [whole]
        checks.clear()


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


def test_dump_is_the_c_order_of_the_view():
    state = random_state(3, 21)
    blob = dump_state(state)
    view = state.view()
    for i, a, p in np.ndindex(view.shape):
        at = 16 + 8 * ((i << 2) | (a << 1) | p)
        assert np.frombuffer(blob, dtype="<f8", count=1, offset=at)[0] == view[i, a, p]


def test_each_column_of_a_batch_runs_its_own_circuit_bit_for_bit():
    rng = np.random.default_rng(30)
    for n in (1, 5, 6, 9, 10):  # odd n: the amplitudes are not dyadic
        k = 4
        bits = rng.integers(0, 2, size=(1 << n, k)).astype(np.uint8)
        marked = rng.random((1 << n, k)) < 0.2
        counter = QueryCounter()
        batch = grover_step(prepare_spectrum_state(bits, counter), bits, marked, counter)
        assert batch.columns == k and counter.quantum_queries == k * (2 + 4)
        dists = index_distribution(batch)
        assert dists.shape == (k, 1 << n)
        for c in range(k):
            alone = prepare_spectrum_state(bits[:, c], QueryCounter())
            grover_step(alone, bits[:, c], marked[:, c], QueryCounter())
            assert batch.amps.reshape(4, k, -1)[:, c].tobytes() == alone.amps.tobytes()
            assert dists[c].tobytes() == index_distribution(alone).tobytes()


def test_a_batch_holds_at_most_its_amplitude_cap():
    assert batch_columns(10) == BATCH_AMPS >> 12 >= 9  # a stage's digit rows at n = 10
    assert batch_columns(20) == 1 and init_state(20).columns == 1
    with pytest.raises(ValueError):
        init_state(10, batch_columns(10) + 1)
    with pytest.raises(ValueError):
        init_state(4, 0)
    with pytest.raises(ValueError):
        prepare_spectrum_state(np.zeros((1 << 16, 2), dtype=np.uint8), QueryCounter())
    with pytest.raises(ValueError):  # an index table fits the state's column count or is shared
        apply_membership(init_state(4, 3), np.zeros((16, 2), dtype=np.uint8), QueryCounter())


def test_a_gate_moving_norm_between_columns_fails_the_composite_exit_check(monkeypatch):
    n, k = 6, 3
    bits = np.random.default_rng(31).integers(0, 2, size=(1 << n, k)).astype(np.uint8)
    cz = simulator.cz_answer_phase

    def tilting_cz(state):  # column 0 gains the squared norm column 1 loses
        cz(state)
        for block in simulator._live(state):
            columns = block.reshape(k, -1)
            columns[0] *= math.sqrt(1.5)
            columns[1] *= math.sqrt(0.5)
        return simulator._checked(state)  # the live blocks still total k

    monkeypatch.setattr(simulator, "cz_answer_phase", tilting_cz)
    correlation_op(init_state(n, k), bits, QueryCounter())  # which passes the live-block check
    with pytest.raises(StateNormError):
        prepare_spectrum_state(bits, QueryCounter())


def test_one_column_layouts_refuse_a_batch():
    state = prepare_spectrum_state(np.zeros((8, 2), dtype=np.uint8), QueryCounter())
    with pytest.raises(ValueError):
        state.view()
    with pytest.raises(ValueError):
        dump_state(state)
    single = dump_state(prepare_spectrum_state(np.zeros(8, dtype=np.uint8), QueryCounter()))
    with pytest.raises(ValueError):  # two columns' amplitudes under a one-column header
        load_state(single + single[16:])
