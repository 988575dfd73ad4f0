import math

import numpy as np
import pytest

from qhslab import (QueryCounter, grover_step, index_distribution, planted_parity,
                    prepare_spectrum_state, simulator, to_pm1, wht)
from qhslab.simulator import (BATCH_AMPS, StateNormError, StateVector, apply_marked_phase,
                              apply_membership, batch_columns, correlation_op,
                              correlation_op_dagger, cz_answer_phase, dump_state, hadamard_index,
                              init_state, load_state, reflect_zero_index, x_phase)

PHASES = pytest.mark.parametrize("phase", [0, 1])


def random_state(n, seed, phase=0):
    """A random one-column state of two answer blocks at ``phase``, not lone."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps, phase)


def answer_one(state):
    """The state's stored answer-1 block, every column."""
    return state.amps.reshape(2, -1)[1]


def where_membership(dense, bits):
    """Reference membership gate on the C order of ``view()``: the np.where
    swap of the answer axis wherever the bit is set."""
    dense[:] = np.where(np.asarray(bits, dtype=bool)[:, None, None], dense[:, ::-1], dense)


# quiet NaNs of both signs with payloads; the bit-exact gates must carry them unchanged
NAN_PAYLOADS = np.array([0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64).view(np.float64)


def special_state(n, seed, phase, lone, nan):
    """A state at ``phase`` whose held blocks mix normal amplitudes with
    -0.0, subnormals and, if ``nan``, NaNs with payloads; a lone state's
    answer-1 block is +0.0. Without NaN its norm is 1 to roundoff."""
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((2, 1 << n))
    held = (0,) if lone else (0, 1)
    specials = np.concatenate([[-0.0, 5e-324, -2.5e-310, 1e-310], NAN_PAYLOADS[:2 * nan]])
    spots = {a: rng.choice(1 << n, size=len(specials), replace=False) for a in held}
    if lone:
        blocks[1] = 0.0
    for a, at in spots.items():
        blocks[a, at] = 0.0
    blocks /= np.linalg.norm(blocks)
    for a, at in spots.items():
        blocks[a, at] = specials
    return StateVector(n, blocks.ravel(), phase, lone)


def dense_hadamard(n):
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    h = np.array([[1.0]])
    for _ in range(n):
        h = np.kron(h, h1)
    return h


def apply_c_matrix_free(state_vec, n, bits):
    """Dense-matrix reference for the correlation operator on one vector in
    the C order of ``view()``, the (index, answer, phase) basis."""
    h = dense_hadamard(n)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    eye2 = np.eye(2)
    u_mq = np.zeros((4 << n, 4 << n))
    for i, a, p in np.ndindex(1 << n, 2, 2):
        u_mq[(i << 2) | ((a ^ int(bits[i])) << 1) | p, (i << 2) | (a << 1) | p] = 1.0
    first = np.kron(h, np.kron(eye2, x))
    mid = np.kron(np.eye(1 << n), cz)
    last = np.kron(h, np.eye(4))
    return last @ u_mq.T @ mid @ u_mq @ first @ state_vec


def test_init_state():
    state = init_state(1)
    assert state.amps.dtype == np.float64
    assert state.amps[0] == 1.0 and np.all(state.amps[1:] == 0)
    assert state.phase == 0 and state.lone
    bits = np.array([0, 1], dtype=np.uint8)
    stepped = grover_step(prepare_spectrum_state(bits, QueryCounter()), bits,
                          np.array([False, True]), QueryCounter())
    assert stepped.amps.dtype == np.float64
    assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12
    assert init_state(3).amps.size == 16 and init_state(3, 2).amps.size == 32
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


@PHASES
def test_hadamard_matches_dense_matrix(phase):
    for n in (3, 8):  # one transform block, and two
        state = random_state(n, 1, phase)
        amps = state.amps
        before = state.view().copy()
        hadamard_index(state)
        dense = np.einsum("ji,iap->jap", dense_hadamard(n), before)
        assert state.amps is amps  # transformed in place, through a reshaped view
        assert np.allclose(state.view(), dense, atol=1e-12)


@pytest.mark.parametrize("k", [1, 3])
@PHASES
def test_hadamard_transforms_the_held_blocks_in_one_kernel_call(monkeypatch, k, phase):
    """One kernel call of shape (2**n, k) on a lone state, or on a state
    whose answer-1 block is zero, which becomes lone; (2**n, 2k) otherwise."""
    calls = []
    kernel = simulator.butterfly_axis0

    def counting_kernel(a, scratch=None):
        calls.append(a.shape)
        return kernel(a, scratch)

    monkeypatch.setattr(simulator, "butterfly_axis0", counting_kernel)
    rng = np.random.default_rng(22)
    for n in (3, 8):
        for lone, zero_answer_one, columns_after in ((True, True, k), (False, True, k),
                                                     (False, False, 2 * k)):
            blocks = rng.standard_normal((2, k, 1 << n))
            if zero_answer_one:
                blocks[1] = 0.0
            blocks /= np.linalg.norm(blocks, axis=(0, 2))[:, None]  # each column's norm is 1
            before = blocks.copy()
            state = StateVector(n, blocks.ravel(), phase, lone)
            calls.clear()
            hadamard_index(state)
            assert calls == [(1 << n, columns_after)]
            assert state.lone == zero_answer_one and state.phase == phase
            dense = np.einsum("ji,aci->acj", dense_hadamard(n), before)
            assert np.allclose(state.amps.reshape(2, k, -1), dense, atol=1e-12)
            if zero_answer_one:
                assert np.all(answer_one(state) == 0.0)


def test_hadamard_of_an_all_zero_state_fails_the_norm_check():
    for n, columns in ((3, 1), (4, 2)):
        for state in (init_state(n, columns), StateVector(n, np.zeros(columns << (n + 1)))):
            state.amps[:] = 0.0
            with pytest.raises(StateNormError):
                hadamard_index(state)
            assert state.lone
            assert not state.amps.any()


@PHASES
def test_x_phase_and_cz(phase):
    state = init_state(2)
    x_phase(state)
    assert state.view()[0, 0, 1] == 1.0  # phase qubit flipped to 1
    x_phase(state)
    assert state.view()[0, 0, 0] == 1.0
    lone = x_phase(init_state(2))
    cz_answer_phase(lone)
    assert lone.amps.tobytes() == init_state(2).amps.tobytes()  # no -0.0 written
    state = random_state(2, 2, phase)
    before = state.view()
    cz_answer_phase(state)
    view = state.view()
    untouched = np.array([[True, True], [True, False]])  # all but answer = phase = 1
    assert np.allclose(view[:, untouched], before[:, untouched])
    assert np.allclose(view[:, 1, 1], -before[:, 1, 1])
    cz_answer_phase(state)
    assert np.allclose(state.view(), before, atol=1e-15)


SPECIAL_STATES = pytest.mark.parametrize("phase, lone, nan", [
    (phase, lone, nan) for phase in (0, 1) for lone in (False, True) for nan in (False, True)])


@SPECIAL_STATES
def test_membership_moves_the_bits_the_reference_gate_moves(phase, lone, nan):
    n = 5
    bits = np.random.default_rng(24).integers(0, 2, size=1 << n).astype(np.uint8)
    state = special_state(n, 25, phase, lone, nan)
    want = state.view()
    where_membership(want, bits)
    if nan:
        with pytest.raises(StateNormError):
            apply_membership(state, bits, QueryCounter())
    else:
        apply_membership(state, bits, QueryCounter())
    assert state.view().tobytes() == want.tobytes()
    assert state.phase == phase and not state.lone


@SPECIAL_STATES
def test_x_phase_flips_the_phase_and_moves_no_bit(phase, lone, nan):
    state = special_state(5, 25, phase, lone, nan)
    amps, before = state.amps, state.amps.tobytes()
    if nan:
        with pytest.raises(StateNormError):
            x_phase(state)
    else:
        x_phase(state)
    assert state.amps is amps and amps.tobytes() == before
    assert state.phase == 1 - phase and state.lone == lone


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


def test_the_answer_1_block_of_a_lone_state_stays_zero_through_the_circuit(monkeypatch):
    n, b, gamma = 8, 19, 0.125
    bits = planted_parity(n, b, gamma, seed=26)
    marked = np.abs(wht(to_pm1(bits).astype(float))) >= 1.8 * gamma
    checked = []

    def checking(name, gate):
        def wrapped(state, *args):
            out = gate(state, *args)
            if state.lone:
                assert np.all(answer_one(state) == 0.0), name
            if name == "hadamard_index":
                assert state.lone  # one block transformed, as the circuit needs
            checked.append(name)
            return out
        return wrapped

    for name in ("hadamard_index", "x_phase", "apply_membership", "cz_answer_phase",
                 "apply_marked_phase", "reflect_zero_index", "grover_step"):
        monkeypatch.setattr(simulator, name, checking(name, getattr(simulator, name)))
    assert init_state(n).lone
    counter = QueryCounter()
    state = prepare_spectrum_state(bits, counter)
    for _ in range(3):
        simulator.grover_step(state, bits, marked, counter)
    assert counter.quantum_queries == 2 + 3 * 4
    assert checked.count("hadamard_index") == 2 + 3 * 4
    assert checked.count("grover_step") == 3 and checked.count("reflect_zero_index") == 3
    assert state.lone
    assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12

    assert not StateVector(n, state.amps.copy()).lone
    loaded = load_state(dump_state(state))
    assert loaded.phase == state.phase and not loaded.lone


def test_the_closing_hadamard_of_each_direction_finds_the_answer_1_block_cancelled(monkeypatch):
    """Membership-CZ-membership cancels the answer-1 block in both
    directions of the correlation operator, so the closing index Hadamard
    of each finds it exactly zero and leaves the state lone, and the
    opening one receives a lone state."""
    n, b, gamma = 8, 19, 0.125
    bits = planted_parity(n, b, gamma, seed=26)
    marked = np.abs(wht(to_pm1(bits))) >= 1.8 * gamma
    hadamard, dagger = simulator.hadamard_index, simulator.correlation_op_dagger
    zero_blocks = {"adjoint": [], "forward": []}
    inside = ["forward"]

    def recording_hadamard(state):  # (lone on entry, answer-1 block zero on entry)
        zero_blocks[inside[-1]].append((state.lone, not answer_one(state).any()))
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
    assert zero_blocks["adjoint"] == [(True, True), (False, True)] * steps
    assert zero_blocks["forward"] == [(True, True), (False, True)] * steps
    assert counter.quantum_queries == 2 + 4 * steps
    assert state.lone


def test_a_gate_writing_into_a_lone_answer_1_block_fails_the_composite_exit_check(monkeypatch):
    n = 6
    bits = np.random.default_rng(27).integers(0, 2, size=1 << n).astype(np.uint8)
    hadamard = simulator.hadamard_index

    def leaking_hadamard(state):  # the closing transform of each direction leaves a lone state
        hadamard(state)
        leak_into_a_dead_block(state)
        return state

    monkeypatch.setattr(simulator, "hadamard_index", leaking_hadamard)
    with pytest.raises(StateNormError):  # on its own, too: every check reads both blocks
        correlation_op(init_state(n), bits, QueryCounter())
    with pytest.raises(StateNormError):
        prepare_spectrum_state(bits, QueryCounter())
    monkeypatch.setattr(simulator, "hadamard_index", hadamard)
    state = prepare_spectrum_state(bits, QueryCounter())
    monkeypatch.setattr(simulator, "hadamard_index", leaking_hadamard)
    with pytest.raises(StateNormError):
        grover_step(state, bits, np.arange(1 << n) == 1, QueryCounter())


@PHASES
def test_reflect_zero_index(phase):
    state = hadamard_index(random_state(3, 3, phase))
    before = state.view()
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


@PHASES
def test_marked_phase_identity_and_dense_check(phase):
    n = 3
    state = random_state(n, 5, phase)
    before = state.view()
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


@PHASES
def test_correlation_op_matches_dense_reference(phase):
    n = 3
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, size=1 << n).astype(np.uint8)
    state = random_state(n, 7, phase)
    before = state.view().ravel()
    correlation_op(state, bits, QueryCounter())
    assert state.phase == 1 - phase
    assert np.allclose(state.view().ravel(), apply_c_matrix_free(before, n, bits), atol=1e-12)


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


def scale_a_held_block(state):
    for block in simulator._held(state):
        if block.any():
            block *= 1.1
            return


def write_a_nan(state):
    simulator._held(state)[0, 1] = np.nan


def leak_into_a_dead_block(state):
    assert state.lone
    answer_one(state)[3] = 0.5


def tilt_two_columns(state):  # column 0 gains the squared norm column 1 loses
    for block in simulator._held(state):
        columns = block.reshape(state.columns, -1)
        columns[0] *= math.sqrt(1.5)
        columns[1] *= math.sqrt(0.5)


# apply_membership on a lone state overwrites the answer-1 block, so a leak there is erased
@pytest.mark.parametrize("gate, corrupt", [
    (gate, corrupt)
    for gate in ("hadamard_index", "x_phase", "apply_membership", "cz_answer_phase",
                 "reflect_zero_index", "apply_marked_phase")
    for corrupt in (leak_into_a_dead_block, tilt_two_columns)
    if (gate, corrupt) != ("apply_membership", leak_into_a_dead_block)])
def test_a_lone_gate_breaking_the_norm_where_no_held_block_shows_it_fails_its_check(gate, corrupt):
    """A gate that writes into the answer-1 block of a lone state, which
    no gate of a lone state reads, or that moves norm from one column to
    another, keeps the held blocks' total; its check on exit reads every
    column of both blocks, so it raises."""
    n, k = 5, 2
    rng = np.random.default_rng(36)
    args = {"apply_membership": (rng.integers(0, 2, size=1 << n), QueryCounter()),
            "apply_marked_phase": (rng.random(1 << n) < 0.25,)}.get(gate, ())
    state = hadamard_index(init_state(n, k))
    corrupt(state)
    with pytest.raises(StateNormError):
        getattr(simulator, gate)(state, *args)


@pytest.mark.parametrize("operation", [correlation_op, correlation_op_dagger])
@pytest.mark.parametrize("gate, corrupt", [("hadamard_index", leak_into_a_dead_block),
                                           ("cz_answer_phase", tilt_two_columns)])
def test_a_lone_correlation_op_with_a_gate_breaking_the_norm_unseen_fails(monkeypatch, operation,
                                                                          gate, corrupt):
    """A gate inside that writes into the answer-1 block of the lone state
    each index transform leaves, the last gate of both directions, or
    that moves norm between columns, keeps the held blocks' total; the
    operation's one check reads every column of both blocks, so it
    raises."""
    n, k = 5, 2
    bits = np.random.default_rng(37).integers(0, 2, size=(1 << n, k)).astype(np.uint8)
    real = getattr(simulator, gate)

    def broken(state, *args):
        real(state, *args)
        corrupt(state)
        return state

    monkeypatch.setattr(simulator, gate, broken)
    with pytest.raises(StateNormError):
        operation(init_state(n, k), bits, QueryCounter())


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
@pytest.mark.parametrize("corrupt", [scale_a_held_block, write_a_nan])
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
    scale_a_held_block(state)
    with pytest.raises(StateNormError):
        cz_answer_phase(state)


def test_each_public_operation_checks_the_norm_once(monkeypatch):
    checks = []
    checked = simulator._checked

    def counting(state):
        checks.append(state)
        return checked(state)

    monkeypatch.setattr(simulator, "_checked", counting)
    rng = np.random.default_rng(34)
    for n, k in ((6, 1), (5, 3)):
        bits = rng.integers(0, 2, size=(1 << n, k)).astype(np.uint8)
        marked = rng.random((1 << n, k)) < 0.25
        counter = QueryCounter()
        state = prepare_spectrum_state(bits, counter)
        steps = (
            lambda: grover_step(state, bits, marked, counter),
            lambda: correlation_op(state, bits, counter),
            lambda: correlation_op_dagger(state, bits, counter),
            lambda: hadamard_index(state),
            lambda: x_phase(state),
            lambda: apply_membership(state, bits, counter),
            lambda: cz_answer_phase(state),
            lambda: reflect_zero_index(state),
            lambda: apply_marked_phase(state, marked),
        )
        assert checks == [state]
        for step in steps:
            checks.clear()
            step()
            assert checks == [state]
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
    assert len(blob) == 16 + 8 * (4 << state.n)
    again = load_state(blob)
    assert (again.n, again.phase) == (state.n, state.phase)
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


def test_a_write_to_the_view_leaves_the_state_and_its_dump_unchanged():
    state = prepare_spectrum_state(planted_parity(4, 5, 0.25, seed=40), QueryCounter())
    blob = dump_state(state)
    view = state.view()
    view[:] = 0.5
    assert dump_state(state) == blob
    assert not np.shares_memory(state.view(), state.amps)


@PHASES
def test_load_state_refuses_a_phase_qubit_outside_a_basis_state(phase):
    state = random_state(3, 41, phase)
    blob = dump_state(state)
    dense = np.frombuffer(blob, "<f8", offset=16).reshape(8, 2, 2).copy()
    dense[:, :, 1 - phase] = -0.0  # a phase whose amplitudes are all +-0.0 counts as empty
    loaded = load_state(blob[:16] + dense.astype("<f8").tobytes())
    assert loaded.phase == phase and loaded.amps.tobytes() == state.amps.tobytes()
    dense[5, 1, 1 - phase] = 1e-300  # one tiny amplitude at the other phase
    with pytest.raises(ValueError, match="basis state"):
        load_state(blob[:16] + dense.astype("<f8").tobytes())


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
            assert batch.phase == alone.phase
            assert batch.amps.reshape(2, k, -1)[:, c].tobytes() == alone.amps.tobytes()
            assert dists[c].tobytes() == index_distribution(alone).tobytes()


def test_a_batch_holds_at_most_its_amplitude_cap():
    assert batch_columns(10) == BATCH_AMPS >> 11 == 16 >= 9  # a stage's digit rows at n = 10
    assert [batch_columns(n) for n in (12, 13, 14)] == [4, 2, 1]
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
        for block in simulator._held(state):
            columns = block.reshape(k, -1)
            columns[0] *= math.sqrt(1.5)
            columns[1] *= math.sqrt(0.5)
        return state  # the blocks still total k

    monkeypatch.setattr(simulator, "cz_answer_phase", tilting_cz)
    with pytest.raises(StateNormError):  # on its own, too: every check reads each column
        correlation_op(init_state(n, k), bits, QueryCounter())
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
