"""The pure-Python kernels of qsolve.scalar against the numpy kernels of
qsolve.statevector, bit for bit: the PCG64 draws, the pairwise sum, the
two-level sampler, the sign table and the batch of phase-estimation rows.
A small solve runs the pure-Python kernels, so no small golden runs the
numpy ones; these tests keep them checked at small sizes, and
test_goldens.py runs this file again with numpy's SIMD loops held to the
x86-64 baseline."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from checkout import CROSS_SUMS, EIGHT_CITIES, GOLDEN, TSP, UNIT_KAKURO, UNSAT
from qsolve import cli, grover_sat, qpe_tsp, scalar
from qsolve import statevector as sv
from qsolve.problems import phase_scale, qubit_layout


@pytest.mark.parametrize("shots, seed", [(4096, 0), (4096, 7), (1000, 123), (5, 2**70)])
def test_draws_are_numpys_default_rng_stream(shots, seed):
    expected = np.random.default_rng(seed).random(shots)
    assert scalar._pcg64_doubles(shots, seed) == expected.tolist()
    assert scalar.sorted_draws(shots, seed) == tuple(sv.sorted_draws(shots, seed).tolist())


# every size to 300, where the leaves and the first splits are, then powers
# of two and sizes just past them, whose halves are rounded down to 8s
SUM_SIZES = sorted({*range(1, 300), *(n + d for n in (1 << k for k in range(9, 19)) for d in (0, 13))})


def test_pairwise_sum_is_numpys_sum():
    rng = np.random.default_rng(11)
    for n in SUM_SIZES:
        if n > 1 << 18:
            continue
        values = rng.random(n) * 10.0 ** rng.integers(-8, 8, n)
        assert scalar.pairwise_sum(values.tolist()) == values.sum(), n
        # two levels, as a search step sums them
        levels = np.where(rng.random(n) < 0.1, 1.0 / 3, 1e-7)
        assert scalar.pairwise_sum(levels.tolist()) == levels.sum(), n


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300))
def test_cdf_is_numpys_outcome_cdf(probs):
    assume(max(probs) >= 1e-12)
    clamped = [0.0 if p < 1e-12 else p for p in probs]
    assert scalar._normalized_cdf(clamped) == sv.outcome_cdf(np.array(probs)).tolist()


def packed(mask: int, bits: int) -> np.ndarray:
    """An int sign table as the numpy kernels' little-endian uint64 words."""
    words = max(1, (1 << bits) >> 6)
    return np.frombuffer(mask.to_bytes(8 * words, "little"), "<u8")


# a level at, just below and just above the zero clamp, or anywhere in (0, 1]
LEVELS = st.one_of(
    st.sampled_from([0.0, 1e-12, math.nextafter(1e-12, 0.0), math.nextafter(1e-12, 1.0), 1e-7]),
    st.floats(1e-12, 1.0),
)


@st.composite
def two_level_cases(draw):
    bits = draw(st.integers(1, 12))
    ones = (1 << (1 << bits)) - 1
    mask = draw(
        st.one_of(
            st.just(0),
            st.just(ones),
            st.integers(0, ones),
            st.integers(0, (1 << bits) - 1).map(lambda i: 1 << i),
            st.integers(0, (1 << bits) - 1).map(lambda i: ones ^ 1 << i),
        )
    )
    return bits, mask, draw(LEVELS), draw(LEVELS)


@settings(max_examples=200, deadline=None)
@given(case=two_level_cases(), shots=st.sampled_from([1, 5, 4096]), seed=st.integers(0, 999))
def test_two_level_sampler_is_the_numpy_sampler(case, shots, seed):
    bits, mask, hit, miss = case
    marked = mask.bit_count()
    # some mass at or above the clamp, or both refuse alike (below)
    assume(marked and hit >= 1e-12 or marked < 1 << bits and miss >= 1e-12)
    got = scalar.sample_two_levels(mask, bits, hit, miss, shots, seed)
    expected = sv.sample_two_levels(packed(mask, bits), bits, hit, miss, shots, seed)
    assert list(got.counts.items()) == list(expected.counts.items())


@pytest.mark.parametrize("hit, miss", [(1e-13, 0.0), (math.nan, 0.5), (0.5, math.inf)])
def test_both_samplers_refuse_alike(hit, miss):
    with pytest.raises(ValueError) as pure:
        scalar.sample_two_levels(0b1010, 2, hit, miss, 10, 0)
    with pytest.raises(ValueError) as vectorized:
        sv.sample_two_levels(packed(0b1010, 2), 2, hit, miss, 10, 0)
    assert str(pure.value) == str(vectorized.value)


def test_a_draw_on_a_cdf_step_falls_above_it(monkeypatch):
    """A draw equal to a CDF value counts for the outcome above it, as
    ``searchsorted(side="right")`` and ``choice`` place it: in a sample,
    and in a phase readout, whose outcomes below a certain one have no mass."""
    draws = (0.0, 0.0, 0.0, 0.0, 0.25, 0.5, 0.75, 0.75)
    monkeypatch.setattr(scalar, "sorted_draws", lambda shots, seed: draws)
    monkeypatch.setattr(sv, "sorted_draws", lambda shots, seed: np.array(draws))
    # a uniform 2-bit register: CDF steps at 0.25, 0.5, 0.75 and 1
    got = scalar.sample_two_levels(0, 2, 0.0, 0.25, len(draws), 0)
    assert got == sv.sample_two_levels(packed(0, 2), 2, 0.0, 0.25, len(draws), 0)
    assert got.counts == {"00": 4, "01": 1, "10": 1, "11": 2}
    # phase 3/4 on 2 qubits reads 3 with certainty
    estimates = [qpe_tsp.estimate_phases([3], 4, 2, len(draws), 0, k) for k in (scalar, sv)]
    assert estimates[0] == estimates[1]
    assert estimates[0][0].raw == 3


SMALL_SAT = [CROSS_SUMS, UNIT_KAKURO, UNSAT, GOLDEN / "readme_example.json", GOLDEN / "needle20.json"]


@pytest.mark.parametrize("path", SMALL_SAT, ids=lambda path: path.stem)
def test_sign_table_is_the_numpy_table(path):
    problem = cli.parse_problem(path).sat
    layout = qubit_layout(problem)
    ops = grover_sat._compute(problem, layout)
    table, words = scalar.sign_table(ops, layout), sv.sign_table(ops, layout)
    assert table == int.from_bytes(words.tobytes(), "little")
    assert scalar.count_marked(table) == sv.count_marked(words)


def test_phase_factors_are_numpys_complex_exp():
    """The kickback and phase-gate factor ``np.exp(1j * x)`` is (cos x, sin x)."""
    rng = np.random.default_rng(3)
    angles = np.concatenate(
        [rng.uniform(-7.0, 7.0, 20000), [0.0, -0.0, math.pi, -math.pi / 2, 1e-300]]
    )
    factors = np.exp(1j * angles)
    assert factors.real.tolist() == [math.cos(x) for x in angles.tolist()]
    assert factors.imag.tolist() == [math.sin(x) for x in angles.tolist()]


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("path", [TSP, EIGHT_CITIES], ids=lambda path: path.stem)
def test_phase_batch_is_the_numpy_batch(path, seed):
    instance = cli.parse_problem(path).tsp
    scale, m = phase_scale(instance)
    cycles = qpe_tsp.enumerate_cycles(instance.n_nodes)
    exponents = list(dict.fromkeys(qpe_tsp.tour_length(instance, tour) for tour in cycles))
    got = qpe_tsp.estimate_phases(exponents, scale, m, 4096, seed, scalar)
    assert got == qpe_tsp.estimate_phases(exponents, scale, m, 4096, seed, sv)


@pytest.mark.parametrize("shots", [1, 3, 64, 4096])
@pytest.mark.parametrize("m", range(1, 9))
def test_phase_batch_of_spread_rows_is_the_numpy_batch(m, shots):
    """A scale that is not a power of two leaves phases between readouts, so
    each row spreads over several outcomes and small shot counts tie."""
    scale = 3 * (1 << m) // 2 + 1
    exponents = range(0, scale, max(1, scale // 9))
    got = qpe_tsp.estimate_phases(exponents, scale, m, shots, m * shots, scalar)
    assert got == qpe_tsp.estimate_phases(exponents, scale, m, shots, m * shots, sv)
