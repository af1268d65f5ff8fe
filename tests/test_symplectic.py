"""Form identities, block machinery, paired-block determinants, certificates,
and the conjugate-symplectic determinant formula."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sympdet.generators import GeneratorConfig, generate
from sympdet.linalg import (
    LogDet,
    _det_columns,
    _log_det_at,
    log_det,
    rng_from_seed,
    split_seed,
)
from sympdet.symplectic import (
    DEFAULT_TOLERANCES,
    RESIDUAL_BOUNDS,
    BlockPair,
    Certificate,
    GroupKind,
    MembershipError,
    ToleranceConfig,
    _certificate_residuals,
    _certificates,
    _conj_phases,
    _entries,
    _formula_phase,
    _membership_residuals,
    _pair,
    certify_symplectic,
    conj_block_reduction,
    conj_symplectic_det,
    embed_pair,
    half_dim,
    membership_residual,
    sign_slacks,
    symplectic_form,
    unitary_split_det,
    within_bounds,
)

REAL = GroupKind.REAL_SYMPLECTIC
COMPLEX = GroupKind.COMPLEX_SYMPLECTIC
CONJ = GroupKind.CONJUGATE_SYMPLECTIC

from oracles import (block_j_conjugate, cofactor_det, dense_membership_residual, frobenius,
                     loop_reduction_residuals, random_gaussian)


# ---------------------------------------------------------------------------
# The form J
# ---------------------------------------------------------------------------

def test_form_n1_layout():
    assert_allclose(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("n", range(1, 9))
def test_form_identities(n):
    j = symplectic_form(n)
    eye = np.eye(2 * n)
    assert frobenius(j @ j + eye) == 0.0
    assert frobenius(j.T + j) == 0.0
    assert frobenius(j.T @ j - eye) == 0.0
    assert abs(log_det(j).value - 1.0) <= 1e-12


def test_half_dim_checks_its_input():
    # any square matrix, a nested list too; a non-square one is no 2N x 2N
    with pytest.raises(ValueError, match="square"):
        half_dim(np.zeros((2, 3)))
    assert half_dim([[1, 0], [0, 1]]) == 1
    with pytest.raises(ValueError, match="even"):
        half_dim(np.eye(3))


def test_residual_of_members_is_zero():
    assert membership_residual(symplectic_form(3), REAL) == 0.0
    assert membership_residual(np.eye(4), REAL) == 0.0


def test_residual_of_scaled_identity_hand_value():
    # A = 2 I_4, N = 2: A^T J A = 4J, so ||4J - J||_F / ||J||_F = 3, and
    # ||A||_F^2 = 4 * 2^2 = 16 scales it to 3/16
    a = 2.0 * np.eye(4)
    j = symplectic_form(2)
    assert frobenius(a.T @ j @ a - j) / frobenius(j) == pytest.approx(3.0, rel=1e-15)
    assert membership_residual(a, REAL) == pytest.approx(3.0 / 16.0, rel=1e-15)


def test_residual_of_all_zero_matrix_is_inf():
    for group in GroupKind:
        assert membership_residual(np.zeros((4, 4), group.dtype), group) == math.inf


def test_conj_residual_scalar_phase_cancels():
    a = np.exp(0.7j) * np.eye(4, dtype=np.complex128)
    assert membership_residual(a, CONJ) <= 1e-16
    assert membership_residual(symplectic_form(2), CONJ) == 0.0
    assert membership_residual(random_gaussian(rng_from_seed(5), 4, np.complex128), CONJ) > 0.01


def test_residual_rejects_odd_dimension():
    with pytest.raises(ValueError, match="even"):
        membership_residual(np.eye(3), REAL)
    with pytest.raises(ValueError, match="even"):
        membership_residual(np.eye(3, dtype=np.complex128), CONJ)


def test_membership_dispatch():
    j = symplectic_form(2)
    tol = DEFAULT_TOLERANCES.membership
    assert membership_residual(j, REAL) <= tol
    assert membership_residual(j.astype(complex), GroupKind.COMPLEX_SYMPLECTIC) <= tol
    assert membership_residual(j.astype(complex), CONJ) <= tol
    with pytest.raises(ValueError, match="real"):
        membership_residual(j.astype(complex), REAL)
    assert not membership_residual(np.diag([3.0, 3.0]), REAL) <= tol


@pytest.mark.parametrize("group", list(GroupKind))
@pytest.mark.parametrize("n", [*range(1, 9), 50, 100])
def test_membership_residual_matches_dense_reference(group, n):
    # J as a signed column swap, subtracted in place, gives the dense
    # (A^# J) A - J bit for bit; the F-ordered and transposed inputs reach
    # BLAS in another layout, and a layout-dependent kernel choice only showed
    # at N >= 50
    m = generate(GeneratorConfig(half_dim=n, target=group, seed=split_seed(61, n)))
    noise = random_gaussian(rng_from_seed(n), 2 * n, group.dtype)
    for base in (m, m + 1e-7 * noise, 3.0 * m):
        for a in (base, np.asfortranarray(base), base.T):
            assert membership_residual(a, group) == dense_membership_residual(a, group)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in (A^T J) A
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [1, 3])
def test_residual_of_non_finite_input_is_nan(n, bad):
    for group in GroupKind:
        m = generate(GeneratorConfig(half_dim=n, target=group, seed=split_seed(67, n)))
        for i, k in np.ndindex(m.shape):
            a = m.copy()
            a[i, k] = bad
            assert math.isnan(membership_residual(a, group)), (group, i, k)


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

def test_j_conjugate_trivials():
    assert_allclose(block_j_conjugate(np.eye(4)), np.eye(4))
    j = symplectic_form(2)
    assert_allclose(block_j_conjugate(j), j)


def test_j_conjugate_matches_dense_product():
    a = random_gaussian(rng_from_seed(19), 6)
    j = symplectic_form(3)
    dense = j @ a @ (-j)      # J^{-1} = -J
    assert frobenius(block_j_conjugate(a) - dense) <= 1e-13 * frobenius(a)


def test_block_pair_trivials():
    j = symplectic_form(2)
    p = _pair(j, GroupKind.REAL_SYMPLECTIC)
    assert_allclose(p.c, np.zeros((2, 2)))
    assert_allclose(p.d, 2 * np.eye(2))
    p = _pair(np.eye(4), GroupKind.REAL_SYMPLECTIC)
    assert_allclose(p.c, 2 * np.eye(2))
    assert_allclose(p.d, np.zeros((2, 2)))
    theta = 0.9
    p = _pair(np.exp(1j * theta) * np.eye(4, dtype=np.complex128), CONJ)
    assert_allclose(p.c, 2 * np.exp(1j * theta) * np.eye(2, dtype=np.complex128))
    assert_allclose(p.d, np.zeros((2, 2), np.complex128))


def test_block_pair_conjugated_variant():
    a = random_gaussian(rng_from_seed(23), 6, np.complex128)
    p = _pair(a, GroupKind.COMPLEX_SYMPLECTIC)
    assert_allclose(p.c, a[:3, :3] + a[3:, 3:].conj())
    assert_allclose(p.d, a[:3, 3:] - a[3:, :3].conj())


def test_embed_pair_trivials():
    p = BlockPair(np.eye(2), np.zeros((2, 2)), GroupKind.REAL_SYMPLECTIC)
    assert_allclose(embed_pair(p), np.eye(4))
    p = BlockPair(np.zeros((2, 2)), np.eye(2), GroupKind.REAL_SYMPLECTIC)
    assert_allclose(embed_pair(p), symplectic_form(2))


def test_embed_pair_reconstructs_j_conjugation_sum():
    a = generate(GeneratorConfig(half_dim=4, seed=57))
    lhs = a + block_j_conjugate(a)
    rhs = embed_pair(_pair(a, GroupKind.REAL_SYMPLECTIC))
    assert frobenius(lhs - rhs) == 0.0


def test_embed_pair_conjugated_layout():
    c = random_gaussian(rng_from_seed(29), 2, np.complex128)
    d = random_gaussian(rng_from_seed(31), 2, np.complex128)
    m = embed_pair(BlockPair(c, d, GroupKind.COMPLEX_SYMPLECTIC))
    assert_allclose(m[:2, :2], c)
    assert_allclose(m[2:, :2], -d.conj())
    assert_allclose(m[2:, 2:], c.conj())


def test_embed_pair_real_det_nonnegative():
    rng = rng_from_seed(41)
    c = random_gaussian(rng, 3)
    d = random_gaussian(rng, 3)
    pair = BlockPair(c, d, GroupKind.REAL_SYMPLECTIC)
    dd = log_det(embed_pair(pair))
    assert dd.phase.real >= -1e-10
    dp, dm = unitary_split_det(pair)
    assert dd.rel_diff(dp.abs_squared()) <= 1e-10


# ---------------------------------------------------------------------------
# Unitary split
# ---------------------------------------------------------------------------

def test_unitary_split_trivials():
    dp, dm = unitary_split_det(BlockPair(np.eye(3), np.zeros((3, 3)), GroupKind.REAL_SYMPLECTIC))
    assert abs(dp.value - 1.0) <= 1e-15 and abs(dm.value - 1.0) <= 1e-15
    dp, dm = unitary_split_det(BlockPair(np.zeros((1, 1)), np.eye(1), GroupKind.REAL_SYMPLECTIC))
    assert abs(dp.value - 1j) <= 1e-15
    assert abs(dm.value + 1j) <= 1e-15
    assert abs((dp * dm).value - 1.0) <= 1e-15   # = det(J)


def test_unitary_split_conjugation_and_product():
    rng = rng_from_seed(37)
    c = random_gaussian(rng, 4)
    d = random_gaussian(rng, 4)
    pair = BlockPair(c, d, GroupKind.REAL_SYMPLECTIC)
    dp, dm = unitary_split_det(pair)
    assert dm.rel_diff(dp.conjugated()) <= 1e-12
    dense = log_det(embed_pair(pair))
    assert dense.rel_diff(dp * dm) <= 1e-12
    assert dense.phase.real >= -1e-12           # |det(C + iD)|^2 >= 0


def test_unitary_split_rejects_conjugated_variant():
    c = random_gaussian(rng_from_seed(41), 2, np.complex128)
    with pytest.raises(ValueError, match="unconjugated"):
        unitary_split_det(BlockPair(c, c, GroupKind.COMPLEX_SYMPLECTIC))


def test_unitary_factorization_materialized():
    # [[C, D], [-D, C]] = U diag(C + iD, C - iD) U^*, with U unitary
    rng = rng_from_seed(43)
    n = 3
    c = random_gaussian(rng, n)
    d = random_gaussian(rng, n)
    eye = np.eye(n, dtype=np.complex128)
    u = np.block([[eye, eye], [1j * eye, -1j * eye]]) / math.sqrt(2.0)
    assert_allclose(u @ u.conj().T, np.eye(2 * n, dtype=np.complex128), atol=1e-15)
    zero = np.zeros((n, n))
    blockdiag = np.block([[c + 1j * d, zero], [zero, c - 1j * d]])
    emb = embed_pair(BlockPair(c, d, GroupKind.REAL_SYMPLECTIC))
    assert_allclose(u @ blockdiag @ u.conj().T, emb, atol=1e-13)


# ---------------------------------------------------------------------------
# Conjugate-paired block determinants
# ---------------------------------------------------------------------------

def test_conj_block_det_trivials():
    n = 2
    dd = conj_block_reduction(np.eye(n, dtype=np.complex128),
                              np.zeros((n, n), np.complex128)).block_det
    assert abs(dd.value - 1.0) <= 1e-15
    dd = conj_block_reduction(np.zeros((n, n), np.complex128),
                              np.eye(n, dtype=np.complex128)).block_det
    assert abs(dd.value - 1.0) <= 1e-15   # the embedding is J itself


def test_conj_block_det_nonnegative_random():
    rng = rng_from_seed(47)
    for _ in range(20):
        c = random_gaussian(rng, 4, np.complex128)
        d = random_gaussian(rng, 4, np.complex128)
        dd = conj_block_reduction(c, d).block_det
        assert max(sign_slacks(dd, ToleranceConfig())) <= 1e-10


def test_conj_block_det_matches_cofactor_oracle():
    rng = rng_from_seed(53)
    c = random_gaussian(rng, 2, np.complex128)
    d = random_gaussian(rng, 2, np.complex128)
    expected = cofactor_det(embed_pair(BlockPair(c, d, GroupKind.COMPLEX_SYMPLECTIC)))
    assert abs(conj_block_reduction(c, d).block_det.value - expected) <= 1e-12 * abs(expected)


def test_conj_block_reduction_trivials():
    probe = conj_block_reduction(np.eye(2), np.zeros((2, 2)))
    assert_allclose(probe.e, np.zeros((2, 2)))
    assert abs(probe.pair_det.value - 1.0) <= 1e-15
    # scalar case: C = 2, D = 2i -> E = i, conj(E) E + I = 2
    probe = conj_block_reduction(np.array([[2.0]]), np.array([[2j]]))
    assert_allclose(probe.e, [[1j]])
    assert abs(probe.pair_det.value - 2.0) <= 1e-15
    # det [[2, 2i], [2i, 2]] = 4 - (2i)^2 = 8 = det(C) det(conj(C)) det(EE+I)
    assert abs(probe.block_det.value - 8.0) <= 8e-15


def test_conj_block_reduction_identities_random():
    rng = rng_from_seed(59)
    for _ in range(10):
        c = random_gaussian(rng, 5, np.complex128)
        d = random_gaussian(rng, 5, np.complex128)
        probe = conj_block_reduction(c, d)
        assert probe.e is not None
        assert probe.residuals["solve"] <= 1e-9
        assert probe.residuals["reduction"] <= 1e-9
        assert probe.residuals["commuting"] <= 1e-9
        assert probe.residuals["eeNonneg"] <= 1e-9


def test_conj_block_reduction_flags_singular_c():
    probe = conj_block_reduction(np.zeros((2, 2)), np.eye(2))
    assert probe.e is None
    assert probe.pair_det is None
    assert probe.residuals == {}
    assert abs(probe.block_det.value - 1.0) <= 1e-15


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # NaN pivots in slogdet
def test_conj_block_reduction_matches_the_loop():
    # conj_block_reduction is the stack of one of the stacked core: E and the
    # residuals are the per-pair solve's bits for C- and F-ordered blocks, no
    # reduction for an exactly singular C, and NaN residuals for a NaN C
    rng = rng_from_seed(61)
    for n in (1, 3, 8):
        c = random_gaussian(rng, n, np.complex128)
        d = random_gaussian(rng, n, np.complex128)
        nan_c = c.copy()
        nan_c[0, -1] = math.nan
        cases = [(c, d), (np.asfortranarray(c), np.asfortranarray(d)), (c.T, d.T),
                 (np.zeros_like(c), d), (nan_c, d)]
        for cc, dd in cases:
            probe = conj_block_reduction(cc, dd)
            ref = loop_reduction_residuals(cc, dd)
            assert ([(k, v.hex()) for k, v in probe.residuals.items()]
                    == [(k, v.hex()) for k, v in ref.items()]), n
            assert repr(probe.block_det) == repr(log_det(embed_pair(BlockPair(cc, dd, COMPLEX))))
            if ref:
                assert probe.e.tobytes() == np.linalg.solve(cc, dd).tobytes()
            else:
                assert probe.e is None and probe.pair_det is None
    assert math.isnan(conj_block_reduction(nan_c, d).residuals["solve"])


def test_ee_pair_det_nonnegative_for_random_e():
    # det(conj(E) E + I) >= 0 for any complex E: checked at determinant level
    # over 500 draws across sizes
    rng = rng_from_seed(61)
    for t in range(500):
        n = (t % 6) + 1
        e = random_gaussian(rng, n, np.complex128)
        dd = log_det(e.conj() @ e + np.eye(n, dtype=np.complex128))
        assert max(sign_slacks(dd, ToleranceConfig())) <= 1e-9


def _with_bad_entries(c0, d0, bad):
    """(C, D) copies with one entry of C or of D set to bad, in every place."""
    for block in (0, 1):
        for i, k in np.ndindex(c0.shape):
            c, d = c0.copy(), d0.copy()
            (c, d)[block][i, k] = bad
            yield c, d


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # NaN pivots in slogdet
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_non_finite_blocks_fail_the_sign_checks(n, bad):
    # Python's max(0.0, nan) is 0.0, so a NaN violation once read as no
    # violation; and LAPACK calls a NaN pivot of a diagonal C zero
    for family, dtype in (("lemma", np.complex128), ("ineq-real", np.float64)):
        rng = rng_from_seed(n)
        dense = random_gaussian(rng, n, dtype), random_gaussian(rng, n, dtype)
        diagonal = np.eye(n, dtype=dtype), np.zeros((n, n), dtype)
        for c0, d0 in (dense, diagonal):
            for c, d in _with_bad_entries(c0, d0, bad):
                if family == "lemma":
                    dd = conj_block_reduction(c, d).block_det
                else:
                    dd = log_det(embed_pair(BlockPair(c, d, REAL)))
                im_slack, re_slack = sign_slacks(dd)
                assert math.isnan(im_slack) and math.isnan(re_slack), (family, c, d, dd)
                assert math.isnan(max(im_slack, re_slack))  # the certificate's one slack
                assert not within_bounds(family, {"imagSlack": im_slack, "realSlack": re_slack})
    for c, d in _with_bad_entries(np.eye(n), np.eye(n), bad):
        probe = conj_block_reduction(c, d)
        assert math.isnan(probe.block_det.log_magnitude)
        assert probe.e is None or not within_bounds("lemma", probe.residuals)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def test_certificate_identity_matrix():
    cert = certify_symplectic(np.eye(4))
    assert cert.verdict == "pass"
    assert abs(cert.det_a.value - 1.0) == 0.0
    assert all(chk.passed for chk in cert.narrative)


def test_certificate_form_n2():
    cert = certify_symplectic(symplectic_form(2))
    assert cert.verdict == "pass"
    # J^T J + I = 2I, so the gram determinant is 2^(2N) = 16
    assert cert.lhs_det.log_magnitude == pytest.approx(4 * math.log(2.0), rel=1e-12)
    assert abs(cert.det_a.value - 1.0) <= 1e-14


def test_certificate_generated_real_n10():
    a = generate(GeneratorConfig(half_dim=10, seed=67))
    cert = certify_symplectic(a)
    assert cert.verdict == "pass"
    assert cert.residuals["detOne"] <= 1e-8
    assert cert.residuals["factorIdentity"] <= 1e-9
    assert cert.residuals["splitIdentity"] <= 1e-9


def test_certificate_generated_complex():
    a = generate(GeneratorConfig(half_dim=6, target=GroupKind.COMPLEX_SYMPLECTIC, seed=71))
    cert = certify_symplectic(a, GroupKind.COMPLEX_SYMPLECTIC)
    assert cert.verdict == "pass"
    assert cert.residuals["detOne"] <= 1e-8
    assert "splitIdentity" not in cert.residuals   # real-variant check only


def test_certificate_phase_is_plus_minus_one_then_plus_one():
    # the LU phase of a real symplectic matrix is exactly +-1; certification
    # concludes +1
    for seed in range(5):
        a = generate(GeneratorConfig(half_dim=3, seed=split_seed(73, seed)))
        dd = log_det(a)
        assert dd.phase in (1 + 0j, -1 + 0j)
        cert = certify_symplectic(a)
        assert cert.verdict == "pass"
        assert dd.phase == 1 + 0j


def test_certificate_rejects_non_members_and_bad_kinds():
    with pytest.raises(MembershipError, match="residual"):
        certify_symplectic(np.diag([3.0, 3.0]))
    with pytest.raises(MembershipError, match="inf"):       # all-zero input
        certify_symplectic(np.zeros((4, 4)))
    with pytest.raises(MembershipError, match="inf"):
        certify_symplectic(np.zeros((4, 4), np.complex128), GroupKind.COMPLEX_SYMPLECTIC)
    with pytest.raises(ValueError, match="R-kind"):
        certify_symplectic(np.eye(4, dtype=np.complex128), GroupKind.REAL_SYMPLECTIC)
    with pytest.raises(ValueError, match="C-kind"):
        certify_symplectic(np.eye(4), GroupKind.COMPLEX_SYMPLECTIC)
    with pytest.raises(ValueError, match="conj_symplectic_det"):
        certify_symplectic(np.eye(4), GroupKind.CONJUGATE_SYMPLECTIC)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in (A^T J) A
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_certificate_rejects_non_finite_input(bad):
    for group in (GroupKind.REAL_SYMPLECTIC, GroupKind.COMPLEX_SYMPLECTIC):
        a = symplectic_form(2, group.dtype)
        a[0, 1] = bad
        with pytest.raises(MembershipError):
            certify_symplectic(a, group)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0, inf - inf
@pytest.mark.parametrize("group", list(GroupKind))
def test_non_finite_members_are_isolated_in_a_stack(group):
    # a member with a NaN or an Inf entry gets NaN determinant columns and
    # fails the membership gate (no LU is run for it, and certify_symplectic
    # or the formula raises); every other member of its stack gets the bits
    # it gets alone, as a column entry and as the one entry of its own call
    members = [generate(GeneratorConfig(half_dim=3, target=group, seed=split_seed(89, t)))
               for t in range(5)]
    members[1][2, 4] = math.nan
    members[3][0, 0] = math.inf
    stack = np.stack(members)
    dets = _det_columns(stack)
    residuals = _membership_residuals(stack, group)
    if group is CONJ:
        measured, alone = _conj_phases(stack, residuals, DEFAULT_TOLERANCES), conj_symplectic_det
    else:
        measured = _certificates(stack, residuals, group, DEFAULT_TOLERANCES)
        alone = lambda a: certify_symplectic(a, group)  # noqa: E731
        with np.errstate(all="ignore"):
            columns = _certificate_residuals(measured, DEFAULT_TOLERANCES)[0]
    for i, a in enumerate(members):
        entry = _entries(measured, i)
        if i in (1, 3):
            assert math.isnan(dets[0, i]) and math.isnan(dets[1, i]), i
            assert math.isnan(residuals[i]), i
            assert entry["kept"] is False, i
            with pytest.raises(MembershipError):
                alone(a)
            continue
        assert repr(_log_det_at(dets, i)) == repr(log_det(a)), i
        assert repr(float(residuals[i])) == repr(membership_residual(a, group)), i
        ref = alone(a)
        if group is CONJ:
            assert repr(_formula_phase(entry, DEFAULT_TOLERANCES)) == repr(ref), i
            continue
        # the certificate certify_symplectic builds from its columns' entry
        checks = _certificate_residuals(entry, DEFAULT_TOLERANCES)[0]
        det_a, lhs, aux, *split = (LogDet(lm, complex(re, im)) for lm, re, im in
                                   (entry[k] for k in ("det_a", "lhs", "aux", "d_plus", "d_minus")
                                    if k in entry))
        cert = Certificate(group, det_a, lhs, aux, checks, ref.verdict, tuple(split) or None,
                           DEFAULT_TOLERANCES)
        assert repr(checks) == repr(ref.residuals), i
        assert repr({k: float(c[i]) for k, c in columns.items()}) == repr(ref.residuals), i
        assert cert.narrative == ref.narrative and ref.verdict == "pass", i
        assert within_bounds("certificate", checks), i


def test_certificate_checks_follow_the_bound_table():
    # det_one = 0 fails detOne and detPhaseSign (|det - 1| is rounding, not
    # zero); every other check stays within its bound
    a = generate(GeneratorConfig(half_dim=3, seed=101))
    tol = dataclasses.replace(DEFAULT_TOLERANCES, det_one=0.0)
    cert = certify_symplectic(a, tol=tol)
    assert cert.residuals["detOne"] > 0.0
    assert cert.verdict == "fail"
    assert (cert.verdict == "pass") == within_bounds("certificate", cert.residuals, tol)
    assert set(cert.residuals) <= set(RESIDUAL_BOUNDS["certificate"])
    failed = {name for name, value in cert.residuals.items()
              if not within_bounds("certificate", {name: value}, tol)}
    assert failed == {"detOne", "detPhaseSign"}
    marked = {chk.label for chk in cert.narrative if not chk.passed}
    assert marked == {"det(A) = 1", "det(A) is +-1"}


def test_membership_closure_products_and_inverses():
    # members at residual <= 1e-12 stay members at <= 1e-9 under * and ^-1
    tol = ToleranceConfig(product_residual=1e-12)
    a = generate(GeneratorConfig(half_dim=4, seed=79, num_factors=3), tol=tol)
    b = generate(GeneratorConfig(half_dim=4, seed=83, num_factors=3), tol=tol)
    for m in (a @ b, np.linalg.inv(a)):
        assert membership_residual(m, REAL) <= 1e-9


# ---------------------------------------------------------------------------
# Conjugate symplectic determinant formula
# ---------------------------------------------------------------------------

def test_conj_det_scalar_phase_matrix():
    # A = e^{i theta} I_{2N}: det(A) = e^{2 i N theta}
    theta, n = 0.3, 1
    a = np.exp(1j * theta) * np.eye(2 * n, dtype=np.complex128)
    got = conj_symplectic_det(a)
    assert abs(got - np.exp(2j * n * theta)) <= 1e-14
    theta, n = -0.8, 3
    a = np.exp(1j * theta) * np.eye(2 * n, dtype=np.complex128)
    assert abs(conj_symplectic_det(a) - np.exp(2j * n * theta)) <= 1e-14


def test_conj_det_of_form_is_one():
    assert abs(conj_symplectic_det(symplectic_form(2, np.complex128)) - 1.0) <= 1e-14


def test_conj_det_accepts_real_symplectic_and_returns_one():
    a = generate(GeneratorConfig(half_dim=3, seed=89))
    assert abs(conj_symplectic_det(a) - 1.0) <= 1e-10


def test_conj_det_matches_lu_oracle():
    a = generate(GeneratorConfig(half_dim=6, target=GroupKind.CONJUGATE_SYMPLECTIC, seed=97))
    got = conj_symplectic_det(a)
    assert abs(abs(got) - 1.0) <= 1e-12
    oracle = log_det(a)
    assert abs(got - oracle.phase) <= 1e-8
    assert abs(math.expm1(oracle.log_magnitude)) <= 1e-8


def test_conj_det_rejects_non_members():
    with pytest.raises(MembershipError):
        conj_symplectic_det(np.diag([2.0 + 0j, 2.0]))
    for dtype in (np.float64, np.complex128):               # all-zero input
        with pytest.raises(MembershipError, match="inf"):
            conj_symplectic_det(np.zeros((4, 4), dtype))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in (A^T J) A
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_conj_det_rejects_non_finite_input(bad):
    a = symplectic_form(2, np.complex128)
    a[3, 0] = bad
    with pytest.raises(MembershipError):
        conj_symplectic_det(a)


def test_conj_det_rejects_a_formula_short_of_four_to_the_n():
    # C = [1], D = [i] makes the formula matrix exactly zero, far short of
    # the 4^N every member reaches; the input passes a loosened membership
    # gate, and the bound still rejects it
    a = np.array([[1.0 + 0j, 1j], [0j, 0j]])
    loose = ToleranceConfig(membership=1e9)
    with pytest.raises(MembershipError, match=r"not conjugate symplectic: .*4\^N"):
        conj_symplectic_det(a, loose)


def _unitary(rng, n):
    return np.linalg.qr(random_gaussian(rng, n, np.complex128))[0]


def _unitary_conj_members(rng, n):
    """(A, det A) for e^{i theta} I, J and diag(U, U): conjugate symplectic
    and unitary, so their formula |det| is 4^N up to rounding."""
    theta = float(rng.uniform(-math.pi, math.pi))
    u = _unitary(rng, n)
    z = np.zeros((n, n), np.complex128)
    return [(np.exp(1j * theta) * np.eye(2 * n), np.exp(2j * n * theta)),
            (symplectic_form(n, np.complex128), 1.0),
            (np.block([[u, z], [z, u]]), np.linalg.det(u) ** 2)]


@pytest.mark.parametrize("n", [1, 2, 8, 50])
def test_conj_det_of_unitary_members_meeting_the_bound(n):
    # unitary members meet 4^N with equality, so rounding may leave the
    # formula |det| just under it (7e-14 for diag(U, U) at N = 50)
    for a, det in _unitary_conj_members(rng_from_seed(n), n):
        assert abs(conj_symplectic_det(a) - det) <= 1e-10


def test_conj_det_gives_near_members_within_det_one_a_phase():
    # unitary and generated members perturbed to a membership residual of
    # 1e-9 ... 1e-8: each that passes the default gate with |det| within
    # det_one of 1 gets a phase.  The formula's shortfall below 4^N follows
    # |det| - 1, so a bound at identity_rel (1e-9) would reject many of them.
    tol = DEFAULT_TOLERANCES
    judged = 0
    for n in (1, 2, 4, 8):
        for t in range(10):
            rng = rng_from_seed(split_seed(3, 100 * n + t))
            members = [a for a, _ in _unitary_conj_members(rng, n)]
            members.append(generate(GeneratorConfig(half_dim=n, target=CONJ,
                                                    seed=int(rng.integers(1 << 30)))))
            for a in members:
                e = random_gaussian(rng, 2 * n, np.complex128)
                scale = 1e-6 / membership_residual(a + 1e-6 * e, CONJ)
                b = a + scale * 10 ** rng.uniform(-9, -8) * e
                oracle = log_det(b)
                if not (membership_residual(b, CONJ) <= tol.membership
                        and abs(math.expm1(oracle.log_magnitude)) <= tol.det_one):
                    continue
                judged += 1
                assert abs(abs(conj_symplectic_det(b, tol)) - 1.0) <= 1e-12, (n, t)
    assert judged >= 80
