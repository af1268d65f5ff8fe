"""Core linear algebra: log determinants, the LU oracle they are checked
against, seeds, and the helpers the tests share."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sympdet.linalg import (
    LogDet,
    _child_seeds,
    _frobeniuses,
    _rngs,
    log_det,
    phase_angle,
    rng_from_seed,
    split_seed,
)
from sympdet.symplectic import symplectic_form

from oracles import (SEED_MASK, SingularMatrixError, as_square, cofactor_det, frobenius,
                     lu_decompose, permutation_sign, random_gaussian, solve)

EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# Shared helpers (tests/oracles.py)
# ---------------------------------------------------------------------------

def test_as_square_value_semantics():
    # a fresh copy even when the input needs no conversion
    a = np.eye(3)
    b = as_square(a)
    b[0, 0] = 5.0
    assert a[0, 0] == 1.0
    assert as_square([[1, 2], [3, 4]]).dtype == np.float64
    with pytest.raises(ValueError, match="square"):
        as_square(np.ones((2, 3)))


def test_random_gaussian_deterministic():
    a = random_gaussian(rng_from_seed(99), 5, np.complex128)
    b = random_gaussian(rng_from_seed(99), 5, np.complex128)
    assert np.array_equal(a, b)
    # one draw, real parts then imaginary parts: the lemma oracle's stream
    z = rng_from_seed(99).standard_normal((2, 5, 5))
    assert np.array_equal(a.real, z[0]) and np.array_equal(a.imag, z[1])


def test_random_gaussian_real_kind_has_no_imaginary_part():
    a = random_gaussian(rng_from_seed(1), 4, np.float64)
    assert a.dtype == np.float64
    assert np.array_equal(a, random_gaussian(rng_from_seed(1), 4))


def test_random_gaussian_rejects_other_dtypes():
    for dtype in ("R", "C", np.float32, np.complex64, np.int64):
        with pytest.raises(ValueError, match="unsupported dtype"):
            random_gaussian(rng_from_seed(1), 4, dtype)


def test_random_gaussian_mean_within_monte_carlo_bound():
    # 10^4 entries: |mean| <= 5 / sqrt(10^4) with probability ~ 1 - 6e-7
    rng = rng_from_seed(2)
    entries = np.concatenate([random_gaussian(rng, 10).ravel() for _ in range(100)])
    assert entries.size == 10_000
    assert abs(entries.mean()) <= 5.0 / math.sqrt(entries.size)


# ---------------------------------------------------------------------------
# LU oracle (tests/oracles.py)
# ---------------------------------------------------------------------------

def test_lu_identity():
    fac = lu_decompose(np.eye(4))
    assert fac.swap_count == 0
    assert list(fac.perm) == [0, 1, 2, 3]
    assert_allclose(fac.upper, np.eye(4))
    assert not fac.singular


def test_lu_forced_swap_parity():
    fac = lu_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert fac.swap_count == 1
    assert fac.swap_count % 2 == (0 if permutation_sign(fac.perm) == 1 else 1)


def test_lu_pivot_tie_breaks_to_lowest_row():
    # |1| == |-1| in column 0: the first (lowest-index) row must win
    fac = lu_decompose(np.array([[1.0, 2.0], [-1.0, 3.0]]))
    assert fac.swap_count == 0
    assert list(fac.perm) == [0, 1]


def test_lu_complex_pivot_uses_modulus():
    # |2j| > |1|, so rows swap even though the real part is zero
    fac = lu_decompose(np.array([[1.0 + 0j, 1.0], [2j, 1.0]]))
    assert fac.swap_count == 1


def test_lu_reconstruction_random():
    rng = rng_from_seed(11)
    a = random_gaussian(rng, 6)
    fac = lu_decompose(a)
    residual = frobenius(a[fac.perm] - fac.lower @ fac.upper)
    assert residual <= 64 * EPS * frobenius(a)


def test_lu_swap_parity_matches_permutation_sign():
    rng = rng_from_seed(13)
    for _ in range(25):
        a = random_gaussian(rng, 7)
        fac = lu_decompose(a)
        assert (-1) ** fac.swap_count == permutation_sign(fac.perm)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 32),
       dtype=st.sampled_from([np.float64, np.complex128]))
def test_lu_reconstruction_property(seed, n, dtype):
    a = random_gaussian(rng_from_seed(seed), n, dtype)
    fac = lu_decompose(a)
    residual = frobenius(a[fac.perm] - fac.lower @ fac.upper)
    assert residual <= 8 * n * EPS * frobenius(a)


def test_lu_reconstruction_bulk():
    # the documented bound kappa = 8n, exercised across many instances
    count = 0
    for master in range(250):
        rng = rng_from_seed(master)
        for n in (2, 5, 13, 32):
            dtype = np.complex128 if (master + n) % 2 else np.float64
            a = random_gaussian(rng, n, dtype)
            fac = lu_decompose(a)
            residual = frobenius(a[fac.perm] - fac.lower @ fac.upper)
            assert residual <= 8 * n * EPS * frobenius(a)
            count += 1
    assert count == 1000


def test_lu_singular_marks_and_logdet():
    fac = lu_decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert fac.singular
    dd = fac.log_det()
    assert dd.log_magnitude == -math.inf
    assert dd.phase == 1
    # exactly-zero pivot column at the start
    fac0 = lu_decompose(np.array([[0.0, 0.0], [0.0, 5.0]]))
    assert fac0.singular
    assert fac0.log_det().log_magnitude == -math.inf


# ---------------------------------------------------------------------------
# log_det
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_logdet_of_form_is_one(n):
    dd = log_det(symplectic_form(n))
    assert abs(dd.log_magnitude) <= 1e-12
    assert abs(dd.phase - 1.0) <= 1e-12


def test_logdet_reciprocal_diagonal():
    dd = log_det(np.diag([2.0, 0.5]))
    assert abs(dd.log_magnitude) <= 1e-15
    assert dd.phase == 1


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["R", "C"])
def test_logdet_against_cofactor_expansion(dtype):
    rng = rng_from_seed(29)
    for _ in range(20):
        a = random_gaussian(rng, 4, dtype)
        expected = cofactor_det(a)
        got = log_det(a).value
        assert abs(got - expected) <= 1e-12 * abs(expected)


def test_logdet_matches_numpy_slogdet():
    rng = rng_from_seed(31)
    a = random_gaussian(rng, 8, np.complex128)
    dd = log_det(a)
    sign, logabs = np.linalg.slogdet(a)
    assert_allclose(dd.log_magnitude, logabs, rtol=1e-12)
    assert abs(dd.phase - sign) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float64, np.complex128]))
def test_det_multiplicative(seed, dtype):
    rng = rng_from_seed(seed)
    a = random_gaussian(rng, 8, dtype)
    b = random_gaussian(rng, 8, dtype)
    assert log_det(a @ b).rel_diff(log_det(a) * log_det(b)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float64, np.complex128]))
def test_det_transpose_and_conjugate(seed, dtype):
    a = random_gaussian(rng_from_seed(seed), 6, dtype)
    dd = log_det(a)
    assert log_det(a.T).rel_diff(dd) <= 1e-10
    assert log_det(a.conj()).rel_diff(dd.conjugated()) <= 1e-10


def test_logdet_scaled_identity_power_overflows_safely():
    # det((2 I_4)^k) = 2^(4k): far beyond float range at k = 1000
    base = log_det(2.0 * np.eye(4))
    acc = LogDet(0.0, 1 + 0j)
    for _ in range(1000):
        acc = acc * base
    assert_allclose(acc.log_magnitude, 4000 * math.log(2.0), rtol=1e-12)
    assert acc.phase == 1
    assert acc.value == complex(math.inf, 0.0)


def test_logdet_phase_stays_unit_under_accumulation():
    rng = rng_from_seed(37)
    acc = LogDet(0.0, 1 + 0j)
    for _ in range(500):
        acc = acc * log_det(random_gaussian(rng, 3, np.complex128))
    assert abs(abs(acc.phase) - 1.0) <= 1e-15


def test_logdet_value_and_rel_diff_edges():
    zero = LogDet(-math.inf, 1 + 0j)
    one = LogDet(0.0, 1 + 0j)
    assert zero.value == 0
    assert zero.rel_diff(zero) == 0.0
    assert zero.rel_diff(one) == math.inf
    assert LogDet(1000.0, 1 + 0j).rel_diff(one) == math.inf
    assert one.rel_diff(LogDet(1000.0, 1 + 0j)) == pytest.approx(1.0)
    assert one.rel_diff(LogDet(0.0, -1 + 0j)) == pytest.approx(2.0)


def test_logdet_value_beyond_float_range():
    # det = 1e600 is past float range: inf, as the docstring says, not 1.8e308
    assert log_det(np.diag([1e300, 1e300])).value == complex(math.inf, 0.0)
    assert log_det(np.diag([-1e300, 1e300])).value == complex(-math.inf, 0.0)
    # a nonzero phase part becomes +-inf, a zero part stays 0, never nan
    for phase, expected in ((1j, (0.0, math.inf)), (-1j, (0.0, -math.inf)),
                            (complex(-0.6, 0.8), (-math.inf, math.inf))):
        for log_magnitude in (710.0, 1e4, math.inf):
            v = LogDet(log_magnitude, phase).value
            assert (v.real, v.imag) == expected
    # the largest finite magnitude still comes out finite
    assert LogDet(math.log(np.finfo(np.float64).max), 1 + 0j).value.real < math.inf
    assert log_det(np.zeros((2, 2))).value == 0j


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["R", "C"])
def test_logdet_agrees_with_lu_oracle(dtype):
    # LAPACK and the oracle pivot differently for complex input (izamax ranks
    # by |re| + |im|), so agreement is to rounding, not bitwise
    rng = rng_from_seed(53)
    for n in [*range(1, 33), 100]:
        a = random_gaussian(rng, n, dtype)
        assert log_det(a).rel_diff(lu_decompose(a).log_det()) <= 1e-12, n
    singular = random_gaussian(rng, 4, dtype)
    singular[3] = 0.0
    for dd in (log_det(singular), lu_decompose(singular).log_det()):
        assert (dd.log_magnitude, dd.phase) == (-math.inf, 1)


# ---------------------------------------------------------------------------
# solve / inverse (LU oracle)
# ---------------------------------------------------------------------------

def test_solve_identity_and_inverse_action():
    rng = rng_from_seed(41)
    b = random_gaussian(rng, 4)
    assert_allclose(solve(lu_decompose(np.eye(4)), b), b)
    a = random_gaussian(rng, 5)
    assert_allclose(solve(lu_decompose(a), a), np.eye(5), atol=1e-12)
    assert_allclose(solve(lu_decompose(np.diag([2.0, 4.0])), np.eye(2)),
                    np.diag([0.5, 0.25]))


def test_solve_residual_bound():
    rng = rng_from_seed(43)
    a = random_gaussian(rng, 12, np.complex128)
    rhs = random_gaussian(rng, 12, np.complex128)
    x = solve(lu_decompose(a), rhs)
    assert frobenius(a @ x - rhs) <= 8 * 12 * EPS * frobenius(a) * frobenius(x)


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve(lu_decompose(np.zeros((2, 2))), np.eye(2))
    with pytest.raises(SingularMatrixError):
        solve(lu_decompose(np.array([[1.0, 2.0], [2.0, 4.0]])), np.eye(2))


def test_inverse_roundtrip():
    a = random_gaussian(rng_from_seed(47), 6, np.complex128)
    eye = np.eye(6, dtype=np.complex128)
    assert_allclose(a @ solve(lu_decompose(a), eye), eye, atol=1e-12)


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------

def test_split_seed_deterministic_and_distinct():
    assert split_seed(5, 0) == split_seed(5, 0)
    children = {split_seed(5, i) for i in range(100)}
    assert len(children) == 100


MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1]
INDICES = [0, 2**32 - 1, 2**32]


def _same_streams(a, b):
    for draw in (lambda g: g.standard_normal(7), lambda g: g.integers(0, 2**40, 5),
                 lambda g: g.integers(0, 5, 3), lambda g: g.uniform(-1.0, 1.0, 4)):
        x, y = draw(a), draw(b)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_rng_seed_takes_integers_only():
    # a numpy integer is the int it holds; a float seed used to be truncated
    _same_streams(rng_from_seed(np.uint64(2**64 - 1)), rng_from_seed(-1))
    _same_streams(rng_from_seed(np.int32(7)), np.random.default_rng(7))
    for bad in (1.5, 1.0, "1", None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            rng_from_seed(bad)


def test_seed_derivation_matches_numpy():
    # one vectorized pass gives numpy's SeedSequence words and default_rng
    # streams for one- and two-word master seeds, masked negative ones and
    # one- and two-word indices, per lane or broadcast
    for s in MASTER_SEEDS:
        ref = [int(np.random.SeedSequence([s & SEED_MASK, t]).generate_state(1, np.uint64)[0])
               for t in INDICES]
        got = _child_seeds(s, INDICES)
        assert got.dtype == np.uint64 and got.tolist() == ref, s
        assert _child_seeds([s] * len(INDICES), INDICES).tolist() == ref
        assert [split_seed(s, t) for t in INDICES] == ref
        assert all(type(split_seed(s, t)) is int for t in INDICES)
        for g, seed in zip(_rngs(got), ref):
            _same_streams(g, np.random.default_rng(seed))
        _same_streams(rng_from_seed(s), np.random.default_rng(s & SEED_MASK))
    # lanes of mixed one- and two-word master seeds, one index
    assert _child_seeds(MASTER_SEEDS, 1).tolist() == [split_seed(s, 1) for s in MASTER_SEEDS]
    for g, s in zip(_rngs([s & SEED_MASK for s in MASTER_SEEDS]), MASTER_SEEDS):
        _same_streams(g, np.random.default_rng(s & SEED_MASK))


# split_seed(s, t) and the first integers(0, 2**32, 4) of rng_from_seed of
# it, as numpy's SeedSequence and PCG64 give them on every platform: the
# replay seeds of recorded failures
GOLDEN_SEEDS = {
    (0, 0): (15793235383387715774, [4243321519, 3436417047, 620250597, 382194032]),
    (0, 1): (5836529245451711556, [1086572517, 2807677539, 638145576, 3070129098]),
    (0, 2): (17195319236771816063, [4116467904, 1435914849, 4173364434, 2439400085]),
    (0, 1667): (17201314449641639564, [1869503939, 1455077722, 1236473388, 1021529184]),
    (7, 0): (16920295385781661272, [3897861088, 1923277997, 1211290157, 4246630735]),
    (7, 1): (6635463128224577688, [468291741, 1023178105, 3175574660, 4232076707]),
    (7, 2): (18279110831140952437, [1590379322, 2124409160, 717476145, 3857236226]),
    (7, 1667): (6790753508897530790, [2967323199, 4097265028, 4275925865, 1370009559]),
    (42, 0): (11465652750463011511, [3952492598, 2420814617, 2889482042, 2309979332]),
    (42, 1): (15658369528003122356, [47770353, 578580840, 3788941742, 3759453587]),
    (42, 2): (11821647455969306524, [766308656, 683420539, 3714229228, 253052205]),
    (42, 1667): (12912246729212885499, [4113426504, 109440223, 2145777329, 3052709837]),
}


def test_replay_seeds_are_pinned():
    for (s, t), (child, draws) in GOLDEN_SEEDS.items():
        assert split_seed(s, t) == child, (s, t)
        assert rng_from_seed(child).integers(0, 2**32, 4).tolist() == draws, (s, t)
    children = _child_seeds(0, [0, 1, 2, 1667])
    assert children.tolist() == [GOLDEN_SEEDS[0, t][0] for t in (0, 1, 2, 1667)]
    assert [g.integers(0, 2**32, 4).tolist() for g in _rngs(children)] == [
        GOLDEN_SEEDS[0, t][1] for t in (0, 1, 2, 1667)]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["R", "C"])
def test_norms_whose_squares_overflow_are_summed_scaled(dtype):
    # a matrix whose sum of squares overflows is summed again, scaled by its
    # largest entry; the other matrices of the stack keep np.linalg.norm's
    # bits, and an Inf entry still gives inf
    z = rng_from_seed(37).standard_normal((2, 4, 6, 6))
    stack = (z[0] if dtype is np.float64 else z[0] + 1j * z[1]).copy()
    stack[1] *= 1e160  # its squares alone overflow
    stack[2, 3, 1] = math.inf
    with np.errstate(over="ignore"):  # the plain sum of stack[1] overflows
        got = _frobeniuses(stack)
    s = float(np.abs(stack[1].view(np.float64)).max())
    assert got[1] == pytest.approx(s * np.linalg.norm(stack[1] / s), rel=1e-14, abs=0.0)
    assert 1e160 < got[1] < math.inf
    assert [f.hex() for f in got[::2]] == [frobenius(m).hex() for m in stack[::2]]
    assert got[2] == math.inf


def test_phase_angle():
    assert phase_angle(1 + 0j, 1 + 0j) == 0.0
    assert phase_angle(np.exp(0.3j), np.exp(0.1j)) == pytest.approx(0.2, rel=1e-12)
    assert phase_angle(-1 + 0j, 1 + 0j) == pytest.approx(math.pi)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["R", "C"])
def test_stacked_norms_are_each_matrix_norm_alone(dtype):
    # the stacked dot sums each matrix in the memory order np.linalg.norm
    # sums it alone, whatever the layout: F-ordered matrices by column,
    # strided ones as their contiguous copy
    rng = rng_from_seed(31)
    for n in range(1, 65):
        z = rng.standard_normal((2, 3, n, 2 * n))
        wide = z[0] if dtype is np.float64 else z[0] + 1j * z[1]
        for scale in (1.0, 1e150, 1e-150):
            w = scale * wide
            c_order = w[:, :, :n].copy()
            read_only = c_order.copy()
            read_only.flags.writeable = False
            stacks = {
                "C": c_order,
                "F": np.ascontiguousarray(c_order.swapaxes(1, 2)).swapaxes(1, 2),
                "strided": w[:, :, ::2],
                "read-only": read_only,
                **{f"transpose {i}": m.T[None] for i, m in enumerate(c_order)},
                **{f"F {i}": np.asfortranarray(m)[None] for i, m in enumerate(c_order)},
            }
            for name, stack in stacks.items():
                got = [f.hex() for f in _frobeniuses(stack)]
                assert got == [frobenius(m).hex() for m in stack], (n, scale, name)
                assert all(type(f) is float for f in _frobeniuses(stack))
