import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from checkout import traced_peak
from qsolve import statevector as sv
from qsolve.circuit import apply_ops, h_layer
from qsolve.problems import QubitBudgetError

NORM_TOL = 1e-9
UNITARY_TOL = 1e-12


def basis_state(num_qubits: int, index: int) -> np.ndarray:
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[index] = 1.0
    return state


def apply_gate(state, gate, controls=(), targets=()) -> np.ndarray:
    out = state.copy()
    sv.apply_gate_in_place(out, gate, controls, targets)
    return out


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    state /= np.linalg.norm(state)
    return state


@st.composite
def gate_applications(draw, max_qubits=4):
    """(num_qubits, gate, controls, targets) with valid disjoint operands."""
    name = draw(st.sampled_from(["h", "x", "z", "phase", "swap"]))
    need = 2 if name == "swap" else 1
    n = draw(st.integers(need, max_qubits))
    lam = 0.0
    if name == "phase":
        lam = draw(st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))
    qubits = draw(st.permutations(range(n)))
    targets = tuple(qubits[:need])
    num_controls = draw(st.integers(0, n - need))
    controls = tuple(qubits[need : need + num_controls])
    return n, sv.Gate(name, lam), controls, targets


# --- gate definitions ---------------------------------------------------------


def test_gate_validation():
    with pytest.raises(ValueError):
        sv.Gate("bogus")
    with pytest.raises(ValueError):
        sv.Gate("x", 1.0)  # angle only makes sense on phase
    with pytest.raises(ValueError):
        sv.Gate("phase", math.inf)


# --- state construction ---------------------------------------------------------


def test_init_zero_starts_in_all_zeros():
    state = sv.init_zero(3)
    assert state[0] == 1.0
    assert np.count_nonzero(state) == 1
    assert abs(np.linalg.norm(state) - 1.0) < NORM_TOL


def test_init_zero_enforces_qubit_cap():
    with pytest.raises(QubitBudgetError, match="26"):
        sv.init_zero(27)
    with pytest.raises(ValueError):
        sv.init_zero(0)


@pytest.mark.parametrize("n", range(1, 21))
def test_uniform_is_the_h_layer_on_all_zeros_bit_for_bit(n):
    state = sv.init_zero(n)
    apply_ops(state, h_layer(n).ops)
    built = sv.uniform((1 << n,))
    assert (built.dtype, built.shape) == (np.complex128, state.shape)
    assert built.tobytes() == state.tobytes()


@pytest.mark.parametrize("m", range(1, 12))
def test_uniform_batch_rows_are_the_h_layer_bit_for_bit(m):
    batch = np.zeros((64, 1 << m), np.complex128)
    batch[:, 0] = 1.0
    apply_ops(batch, h_layer(m).ops)
    assert sv.uniform((64, 1 << m)).tobytes() == batch.tobytes()


def test_statevector_rejects_wrong_length():
    for bad in (
        np.zeros(3, dtype=complex),
        np.zeros(6, dtype=complex),
        np.zeros((2, 3), dtype=complex),
        np.zeros((2, 2, 4), dtype=complex),
        np.zeros(4),  # float64, not complex128
        np.zeros(0, dtype=complex),
    ):
        before = bad.copy()
        with pytest.raises(ValueError, match="complex128 amplitudes"):
            sv.apply_gate_in_place(bad, sv.X, targets=(0,))
        with pytest.raises(ValueError, match="complex128 amplitudes"):
            sv.sample(bad, 10, seed=0)
        assert bad.tobytes() == before.tobytes(), bad.shape


def test_sample_refuses_a_batch_before_drawing(monkeypatch):
    batch = np.zeros((2, 4), dtype=complex)
    batch[:, 0] = 1.0
    assert sv.sample(batch[0], 10, seed=0).counts == {"00": 10}

    def no_draws(*args):
        raise AssertionError("draws were taken for a batch")

    monkeypatch.setattr(sv, "sorted_draws", no_draws)
    with pytest.raises(ValueError, match="a batch of states cannot be sampled"):
        sv.sample(batch, 10, seed=0)


def test_kernel_updates_state_built_from_strided_amplitudes():
    buffer = np.zeros(8, dtype=complex)
    buffer[0] = 1.0
    state = buffer[::2]
    sv.apply_gate_in_place(state, sv.X, targets=(0,))
    assert np.array_equal(state, [0, 0, 1, 0])
    assert np.array_equal(buffer, [0, 0, 0, 0, 1, 0, 0, 0])


# --- bit ordering ----------------------------------------------------------------


def test_qubit_zero_is_most_significant():
    state = apply_gate(sv.init_zero(3), sv.X, targets=(0,))
    assert state[0b100] == 1.0
    assert sv.bitstring(0b100, 3) == "100"


def test_bitstring_subset_order():
    assert sv.bitstring(0b110, 3, qubits=(2, 0)) == "01"


# --- kernels against the matrix reference ---------------------------------------


@settings(max_examples=150, deadline=None)
@given(gate_applications(), st.integers(0, 2**32 - 1))
def test_apply_gate_matches_reference_matrix(application, seed):
    n, gate, controls, targets = application
    state = random_state(n, seed)
    result = apply_gate(state, gate, controls, targets)
    expected = oracles.embedded_op(n, gate.name, gate.lam, controls, targets) @ state
    assert np.max(np.abs(result - expected)) < 1e-12


@settings(max_examples=80, deadline=None)
@given(gate_applications(), st.integers(0, 2**32 - 1))
def test_batch_rows_advance_bitwise_as_single_states(application, seed):
    n, gate, controls, targets = application
    rows = [random_state(n, seed + k) for k in range(3)]
    batch = np.stack(rows)
    sv.apply_gate_in_place(batch, gate, controls, targets)
    for got, row in zip(batch, rows):
        # a phase on one amplitude per row included: rotate rounds each product alone
        assert got.tobytes() == apply_gate(row, gate, controls, targets).tobytes()


@settings(max_examples=60, deadline=None)
@given(gate_applications(max_qubits=3))
def test_apply_gate_is_unitary(application):
    n, gate, controls, targets = application
    dim = 1 << n
    built = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        built[:, col] = apply_gate(basis_state(n, col), gate, controls, targets)
    assert np.max(np.abs(built.conj().T @ built - np.eye(dim))) < UNITARY_TOL


@settings(max_examples=100, deadline=None)
@given(gate_applications(), st.integers(0, 2**32 - 1))
def test_apply_gate_preserves_norm(application, seed):
    n, gate, controls, targets = application
    state = random_state(n, seed)
    result = apply_gate(state, gate, controls, targets)
    assert abs(np.linalg.norm(result) - 1.0) < NORM_TOL


@settings(max_examples=80, deadline=None)
@given(gate_applications(), st.integers(0, 2**32 - 1))
def test_self_inverse_gates_round_trip(application, seed):
    n, gate, controls, targets = application
    state = random_state(n, seed)
    there = apply_gate(state, gate, controls, targets)
    # phase(-lam) undoes phase(lam); h, x, z and swap are their own inverses
    inverse = sv.phase(-gate.lam) if gate.name == "phase" else gate
    back = apply_gate(there, inverse, controls, targets)
    assert np.max(np.abs(back - state)) < 1e-12


def test_multi_controlled_x_flips_only_full_control_patterns():
    for index in range(8):
        out = apply_gate(basis_state(3, index), sv.X, controls=(0, 1), targets=(2,))
        expected = index ^ 1 if (index >> 1) == 0b11 else index
        assert out[expected] == 1.0


def test_multi_controlled_z_phases_only_all_ones():
    for index in range(8):
        out = apply_gate(basis_state(3, index), sv.Z, controls=(0, 1), targets=(2,))
        expected = -1.0 if index == 0b111 else 1.0
        assert out[index] == expected


def test_swap_exchanges_outer_qubits():
    out = apply_gate(basis_state(3, 0b100), sv.SWAP, targets=(0, 2))
    assert out[0b001] == 1.0


def test_controlled_swap_respects_control():
    idle = apply_gate(basis_state(3, 0b010), sv.SWAP, controls=(0,), targets=(1, 2))
    assert idle[0b010] == 1.0
    active = apply_gate(basis_state(3, 0b110), sv.SWAP, controls=(0,), targets=(1, 2))
    assert active[0b101] == 1.0


def test_apply_gate_leaves_input_untouched():
    state = sv.init_zero(2)
    apply_gate(state, sv.H, targets=(0,))
    assert state[0] == 1.0


# --- operand validation -----------------------------------------------------------


def test_operand_validation_errors():
    state = sv.init_zero(3)
    with pytest.raises(ValueError, match="overlap"):
        apply_gate(state, sv.X, controls=(1,), targets=(1,))
    with pytest.raises(ValueError, match="out of range"):
        apply_gate(state, sv.X, targets=(3,))
    with pytest.raises(ValueError, match="duplicate"):
        apply_gate(state, sv.SWAP, targets=(1, 1))
    with pytest.raises(ValueError, match="target"):
        apply_gate(state, sv.X, targets=(0, 1))
    with pytest.raises(ValueError, match="target"):
        apply_gate(state, sv.SWAP, targets=(0,))


# --- probabilities and marginals ----------------------------------------------------


def _random_amplitudes(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _random_amplitudes((1 << 10,), 1),
        lambda: _random_amplitudes((64, 128), 2),
        lambda: _random_amplitudes((), 3),  # a 0-d array
        lambda: _random_amplitudes((), 4)[()],  # a numpy scalar, as estimate_phases passes
        lambda: _random_amplitudes((sv._PROB_CHUNK + 5,), 5),  # a chunk and a part
        lambda: _random_amplitudes((64, 128), 6).T,  # not C-ordered
    ],
    ids=["1d", "batch", "0d_array", "scalar", "straddles_chunk", "transposed"],
)
def test_probabilities_are_the_squares_summed_byte_for_byte(make):
    state = make()
    probs = sv.probabilities(state)
    expected = state.real**2 + state.imag**2
    assert np.shape(probs) == np.shape(expected)
    assert probs.tobytes() == expected.tobytes()


@pytest.mark.parametrize("target", [0, 10, 19])
def test_an_h_call_holds_one_half_state_temporary(target):
    state = sv.uniform((1 << 20,))
    half = state.nbytes // 2
    assert traced_peak(sv.apply_unchecked, state, sv.H, (), (target,))[1] <= 1.1 * half


def test_probabilities_hold_the_result_and_one_chunk():
    n = 20
    state = np.full(1 << n, 2.0 ** (-n / 2) * (1 + 1j))
    result = state.nbytes // 2  # float64 per complex128 amplitude
    assert traced_peak(sv.probabilities, state)[1] <= 1.1 * result


# --- sampling ---------------------------------------------------------------------


def _uniform_state(num_qubits: int) -> np.ndarray:
    state = sv.init_zero(num_qubits)
    for q in range(num_qubits):
        state = apply_gate(state, sv.H, targets=(q,))
    return state


def test_sample_varies_with_seed():
    state = _uniform_state(5)
    assert sv.sample(state, 5000, seed=0) != sv.sample(state, 5000, seed=1)


def test_sample_never_emits_dead_outcomes():
    eps = 1e-8  # squared probability 1e-16 sits below the zero clamp
    amps = np.array([math.sqrt(1.0 - eps * eps), eps], dtype=complex)
    hist = sv.sample(amps, 5000, seed=3)
    assert hist.counts == {"0": 5000}


def test_sample_subset_respects_given_order():
    state = basis_state(2, 0b01)
    assert sv.sample(state, 10, seed=0, qubits=(0, 1)).counts == {"01": 10}
    assert sv.sample(state, 10, seed=0, qubits=(1, 0)).counts == {"10": 10}


def test_sample_subset_merges_projected_outcomes():
    hist = sv.sample(_uniform_state(3), 3000, seed=5, qubits=(1,))
    assert set(hist.counts) == {"0", "1"}
    assert sum(hist.counts.values()) == 3000


def test_sample_argument_validation():
    state = _uniform_state(2)
    with pytest.raises(ValueError):
        sv.sample(state, 0, seed=0)
    with pytest.raises(ValueError):
        sv.sample(state, 10, seed=0, qubits=())
    with pytest.raises(ValueError):
        sv.sample(state, 10, seed=0, qubits=(0, 0))
    with pytest.raises(ValueError):
        sv.sample(state, 10, seed=0, qubits=(2,))


def sampling_case(seed: int):
    """A generated (state, shots, seed, qubits) case: 1-12 qubits whose
    amplitudes are dense, sparse with exact zeros, mostly below the zero
    clamp (in mass enough to move the readout if it were not clamped), or tie
    in magnitude on a random support; 1-4096 shots; all qubits or a subset
    in any order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    size = 1 << n
    kind = seed % 4
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    if kind > 0:
        live = rng.choice(size, size=int(rng.integers(1, min(size, 9) + 1)), replace=False)
        if kind == 1:
            amps[np.setdiff1d(np.arange(size), live)] = 0.0
        elif kind == 2:
            p = 10.0 ** rng.uniform(-14, -12, size)
            p[live] = 10.0 ** rng.uniform(-11.9, -10, live.size)
            amps = np.sqrt(p) * np.exp(2j * np.pi * rng.random(size))
        else:
            amps = np.zeros(size, dtype=complex)
            amps[live] = np.exp(2j * np.pi * rng.random(live.size))
    shots = int(rng.choice([1, 2, 3, 64, 4096, int(rng.integers(1, 4097))]))
    subset = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    qubits = None if rng.random() < 0.3 else tuple(subset.tolist())
    return amps, shots, int(rng.integers(0, 1000)), qubits


@pytest.mark.parametrize("kind", range(4), ids=["dense", "exact_zeros", "below_clamp", "tied"])
def test_sample_matches_the_choice_oracle(kind):
    for seed in range(kind, 1000, 4):
        state, shots, sample_seed, qubits = sampling_case(seed)
        hist = sv.sample(state, shots, sample_seed, qubits)
        expected = oracles.choice_histogram(state, shots, sample_seed, qubits)
        assert list(hist.counts.items()) == list(expected.items()), seed
        assert sum(hist.counts.values()) == shots


@pytest.mark.parametrize("bad", [0.0, 1e-7, np.nan, np.inf])
def test_sample_refuses_a_state_without_finite_measurable_mass(bad):
    state = np.array([bad, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        sv.sample(state, 10, seed=0)


def test_sample_holds_no_more_than_a_tenth_beyond_the_state():
    n = 20
    state = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    sv.sorted_draws.cache_clear()  # count the draws too
    assert traced_peak(sv.sample, state, 4096, 0)[1] <= 1.1 * state.nbytes


def test_chunk_sums_added_as_a_tree_are_numpys_sum():
    """numpy sums a power-of-two float64 array pairwise: 128-element leaves,
    split in halves.  So chunk sums added as a binary tree by ``_tree_sum``
    equal ``np.sum`` bit for bit, and a cumulative sum carried from chunk to
    chunk equals ``np.cumsum``.  Both are numpy implementation details; a
    numpy that changes them fails here."""
    rng = np.random.default_rng(5)
    for bits in range(7, 23):
        values = rng.random(1 << bits) * 10.0 ** rng.integers(-6, 6, 1 << bits)
        total, running = np.sum(values), np.cumsum(values)
        for chunk in sorted({1 << 7, 1 << 10, sv._CDF_CHUNK}):
            chunk = min(chunk, values.size)
            sums = [float(np.sum(values[i : i + chunk])) for i in range(0, values.size, chunk)]
            assert sv._tree_sum(sums) == total, (bits, chunk)
            carried = values.copy()
            for i in range(0, values.size, chunk):
                if i:
                    carried[i] += carried[i - 1]
                np.cumsum(carried[i : i + chunk], out=carried[i : i + chunk])
            assert carried.tobytes() == running.tobytes(), (bits, chunk)


@pytest.mark.parametrize("chunk", [1 << 7, sv._CDF_CHUNK])
def test_two_level_sampling_is_the_sample_of_the_state(monkeypatch, chunk):
    """Outcomes whose probability is one of two levels, chosen by a packed
    mask, sample as :func:`sample` samples the state of those amplitudes,
    for registers of 1 to 12 qubits, levels at and below the clamp, and
    cumulative sums that meet a draw on a chunk's edge."""
    monkeypatch.setattr(sv, "_CDF_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for case in range(300):
        n = int(rng.integers(1, 13))
        marked = rng.random(1 << n) < rng.choice([0.0, 0.01, 0.5, 1.0])
        a, b = (rng.choice([0.0, 1e-7, 1.0 / 3, 1.0]) * rng.random() for _ in range(2))
        if not (marked.any() and a * a >= 1e-12 or not marked.all() and b * b >= 1e-12):
            marked[0], b = False, 1.0  # some mass stays above the clamp
        words = np.zeros(max(1, (1 << n) // 64), np.uint64)
        words.view(np.uint8)[: ((1 << n) + 7) // 8] = np.packbits(marked, bitorder="little")
        shots, seed = int(rng.choice([1, 5, 4096])), int(rng.integers(0, 1000))
        state = np.where(marked, a, b) + 0j
        expected = sv.sample(state, shots, seed)
        assert sv.sample_two_levels(words, n, a * a, b * b, shots, seed) == expected, case
    # one half of 2**8 outcomes has no mass: in 2**7-outcome chunks, its chunk
    # holds no draw, whether it comes first or last
    ones = 2**64 - 1
    for words, live in (([0, 0, ones, ones], range(128)), ([ones, ones, 0, 0], range(128, 256))):
        hist = sv.sample_two_levels(np.array(words, np.uint64), 8, 0.0, 1.0, 4096, 0)
        assert set(hist.counts) == {format(i, "08b") for i in live}


def test_two_level_sampling_refuses_no_finite_measurable_mass():
    words = np.array([0b1010], np.uint64)
    with pytest.raises(ValueError, match="no measurable probability mass"):
        sv.sample_two_levels(words, 2, 1e-13, 0.0, 10, 0)
    with pytest.raises(ValueError, match="non-finite"):
        sv.sample_two_levels(words, 2, np.nan, 0.5, 10, 0)
    with pytest.raises(ValueError, match="non-finite"):
        sv.sample_two_levels(words, 2, 0.5, np.inf, 10, 0)


STREAM_SEEDS = [*range(200), 2**31 - 1, 2**32, 2**32 + 5, 2**63 + 17, 2**100 + 3, 2**160 + 1]
BLOCK = sv._DRAW_BLOCK


@pytest.mark.parametrize(
    "shots",
    # the block is a power of two from 2**10 to BLOCK, about shots // 4
    [1, 2, 3, 7, 1023, 1024, 1025, 4095, 4096, 4097, 8191, 8192, 8193]
    + [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1],
)
def test_sorted_draws_are_numpys_default_rng_stream(shots):
    # 2**160 + 1 has six 32-bit words, more than SeedSequence's pool of four
    for seed in STREAM_SEEDS:
        expected = np.sort(np.random.default_rng(seed).random(shots))
        assert sv.sorted_draws(shots, seed).tobytes() == expected.tobytes(), seed


def test_sorted_draws_hold_the_draws_and_one_block():
    shots = 1 << 20
    sv.sorted_draws.cache_clear()
    # six uint64 arrays of one block each, and a little more
    assert traced_peak(sv.sorted_draws, shots, 11)[1] <= 8 * shots + 48 * BLOCK + 64 * 1024


def test_sorted_draws_are_kept_read_only_and_refuse_a_negative_seed():
    draws = sv.sorted_draws(100, 3)
    assert sv.sorted_draws(100, 3) is draws
    with pytest.raises(ValueError, match="read-only"):
        draws[0] = 0.5
    with pytest.raises(ValueError, match="non-negative"):
        sv.sorted_draws(100, -1)


M64, M128 = 2**64 - 1, 2**128 - 1


@pytest.mark.parametrize("add_lo", [0, 1, 2, 2**32 - 1, 2**32, 2**63, M64 - 1, M64])
@pytest.mark.parametrize("mult", [sv._PCG_MULT, 1, M128, 6 << 64 | 2**63 + 2**32 + 5])
def test_advance_is_the_128_bit_affine_step(mult, add_lo):
    add = 0x9E3779B97F4A7C15 << 64 | add_lo
    rng = np.random.default_rng(add_lo % 997)
    hi = rng.integers(0, M64, 64, dtype=np.uint64, endpoint=True)
    lo = rng.integers(0, M64, 64, dtype=np.uint64, endpoint=True)
    # the carry's edges: lo = 2**64 - 1 and 0, and a low product word of
    # 2**64 - add_lo (the least that carries) and one below it
    inv = pow(mult & M64, -1, 2**64)
    lo[:4] = [M64, 0, -add_lo * inv & M64, (-add_lo - 1) * inv & M64]
    expected = [((int(h) << 64 | int(x)) * mult + add) & M128 for h, x in zip(hi, lo)]
    sv._advance(hi, lo, mult, add, [np.empty_like(hi) for _ in range(4)])
    assert [int(h) << 64 | int(x) for h, x in zip(hi, lo)] == expected


def test_histogram_most_common_orders_by_count_then_key():
    hist = sv.Histogram({"11": 3, "00": 4, "01": 3})
    assert hist.most_common() == [("00", 4), ("01", 3), ("11", 3)]
