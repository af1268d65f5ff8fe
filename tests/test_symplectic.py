"""Form identities, block machinery, paired-block determinants, certificates,
and the conjugate-symplectic determinant formula."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sympdet.generators import GeneratorConfig, generate
from sympdet.linalg import (
    frobenius,
    identity,
    log_det,
    random_gaussian,
    rng_from_seed,
    split_seed,
    zeros,
)
from sympdet.symplectic import (
    DEFAULT_TOLERANCES,
    RESIDUAL_BOUNDS,
    BlockPair,
    FormulaInconclusiveError,
    GroupKind,
    MembershipError,
    ToleranceConfig,
    block_pair,
    certify_symplectic,
    conj_block_det,
    conj_block_reduction,
    conj_symplectic_det,
    embed_pair,
    j_conjugate,
    membership_residual,
    nonneg_slack,
    symplectic_form,
    unitary_split_det,
    within_bounds,
)

REAL = GroupKind.REAL_SYMPLECTIC
CONJ = GroupKind.CONJUGATE_SYMPLECTIC

from oracles import cofactor_det


# ---------------------------------------------------------------------------
# The form J
# ---------------------------------------------------------------------------

def test_form_n1_layout():
    assert_allclose(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("n", range(1, 9))
def test_form_identities(n):
    j = symplectic_form(n)
    eye = identity(2 * n)
    assert frobenius(j @ j + eye) == 0.0
    assert frobenius(j.T + j) == 0.0
    assert frobenius(j.T @ j - eye) == 0.0
    assert abs(log_det(j).value - 1.0) <= 1e-12


def test_residual_of_members_is_zero():
    assert membership_residual(symplectic_form(3), REAL) == 0.0
    assert membership_residual(identity(4), REAL) == 0.0


def test_residual_of_scaled_identity_hand_value():
    # A = 2 I_4, N = 2: A^T J A = 4J, so ||4J - J||_F / ||J||_F = 3, and
    # ||A||_F^2 = 4 * 2^2 = 16 scales it to 3/16
    a = 2.0 * identity(4)
    j = symplectic_form(2)
    assert frobenius(a.T @ j @ a - j) / frobenius(j) == pytest.approx(3.0, rel=1e-15)
    assert membership_residual(a, REAL) == pytest.approx(3.0 / 16.0, rel=1e-15)


def test_residual_of_all_zero_matrix_is_inf():
    for group, kind in ((REAL, "R"), (GroupKind.COMPLEX_SYMPLECTIC, "C"), (CONJ, "C")):
        assert membership_residual(zeros(4, kind), group) == math.inf


def test_conj_residual_scalar_phase_cancels():
    a = np.exp(0.7j) * identity(4, "C")
    assert membership_residual(a, CONJ) <= 1e-16
    assert membership_residual(symplectic_form(2), CONJ) == 0.0
    assert membership_residual(random_gaussian(rng_from_seed(5), 4, "C"), CONJ) > 0.01


def test_residual_rejects_odd_dimension():
    with pytest.raises(ValueError, match="even"):
        membership_residual(identity(3), REAL)
    with pytest.raises(ValueError, match="even"):
        membership_residual(identity(3, "C"), CONJ)


def test_membership_dispatch():
    j = symplectic_form(2)
    tol = DEFAULT_TOLERANCES.membership
    assert membership_residual(j, REAL) <= tol
    assert membership_residual(j.astype(complex), GroupKind.COMPLEX_SYMPLECTIC) <= tol
    assert membership_residual(j.astype(complex), CONJ) <= tol
    with pytest.raises(ValueError, match="real"):
        membership_residual(j.astype(complex), REAL)
    assert not membership_residual(np.diag([3.0, 3.0]), REAL) <= tol


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

def test_j_conjugate_trivials():
    assert_allclose(j_conjugate(identity(4)), identity(4))
    j = symplectic_form(2)
    assert_allclose(j_conjugate(j), j)


def test_j_conjugate_matches_dense_product():
    a = random_gaussian(rng_from_seed(19), 6)
    j = symplectic_form(3)
    dense = j @ a @ (-j)      # J^{-1} = -J
    assert frobenius(j_conjugate(a) - dense) <= 1e-13 * frobenius(a)


def test_block_pair_trivials():
    j = symplectic_form(2)
    p = block_pair(j, GroupKind.REAL_SYMPLECTIC)
    assert_allclose(p.c, zeros(2))
    assert_allclose(p.d, 2 * identity(2))
    p = block_pair(identity(4), GroupKind.REAL_SYMPLECTIC)
    assert_allclose(p.c, 2 * identity(2))
    assert_allclose(p.d, zeros(2))
    theta = 0.9
    p = block_pair(np.exp(1j * theta) * identity(4, "C"), GroupKind.CONJUGATE_SYMPLECTIC)
    assert_allclose(p.c, 2 * np.exp(1j * theta) * identity(2, "C"))
    assert_allclose(p.d, zeros(2, "C"))


def test_block_pair_conjugated_variant():
    a = random_gaussian(rng_from_seed(23), 6, "C")
    p = block_pair(a, GroupKind.COMPLEX_SYMPLECTIC)
    assert_allclose(p.c, a[:3, :3] + a[3:, 3:].conj())
    assert_allclose(p.d, a[:3, 3:] - a[3:, :3].conj())
    with pytest.raises(ValueError, match="complex"):
        block_pair(random_gaussian(rng_from_seed(23), 6, "R"), GroupKind.COMPLEX_SYMPLECTIC)


def test_embed_pair_trivials():
    p = BlockPair(identity(2), zeros(2), GroupKind.REAL_SYMPLECTIC)
    assert_allclose(embed_pair(p), identity(4))
    p = BlockPair(zeros(2), identity(2), GroupKind.REAL_SYMPLECTIC)
    assert_allclose(embed_pair(p), symplectic_form(2))


def test_embed_pair_reconstructs_j_conjugation_sum():
    a = generate(GeneratorConfig(half_dim=4, seed=57))
    lhs = a + j_conjugate(a)
    rhs = embed_pair(block_pair(a, GroupKind.REAL_SYMPLECTIC))
    assert frobenius(lhs - rhs) == 0.0


def test_embed_pair_conjugated_layout():
    c = random_gaussian(rng_from_seed(29), 2, "C")
    d = random_gaussian(rng_from_seed(31), 2, "C")
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
    dp, dm = unitary_split_det(BlockPair(identity(3), zeros(3), GroupKind.REAL_SYMPLECTIC))
    assert abs(dp.value - 1.0) <= 1e-15 and abs(dm.value - 1.0) <= 1e-15
    dp, dm = unitary_split_det(BlockPair(zeros(1), identity(1), GroupKind.REAL_SYMPLECTIC))
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
    c = random_gaussian(rng_from_seed(41), 2, "C")
    with pytest.raises(ValueError, match="unconjugated"):
        unitary_split_det(BlockPair(c, c, GroupKind.COMPLEX_SYMPLECTIC))


def test_unitary_factorization_materialized():
    # [[C, D], [-D, C]] = U diag(C + iD, C - iD) U^*, with U unitary
    rng = rng_from_seed(43)
    n = 3
    c = random_gaussian(rng, n)
    d = random_gaussian(rng, n)
    eye = identity(n, "C")
    u = np.block([[eye, eye], [1j * eye, -1j * eye]]) / math.sqrt(2.0)
    assert_allclose(u @ u.conj().T, identity(2 * n, "C"), atol=1e-15)
    blockdiag = np.block([[c + 1j * d, zeros(n, "C")], [zeros(n, "C"), c - 1j * d]])
    emb = embed_pair(BlockPair(c, d, GroupKind.REAL_SYMPLECTIC))
    assert_allclose(u @ blockdiag @ u.conj().T, emb, atol=1e-13)


# ---------------------------------------------------------------------------
# Conjugate-paired block determinants
# ---------------------------------------------------------------------------

def test_conj_block_det_trivials():
    n = 2
    dd = conj_block_det(identity(n, "C"), zeros(n, "C"))
    assert abs(dd.value - 1.0) <= 1e-15
    dd = conj_block_det(zeros(n, "C"), identity(n, "C"))
    assert abs(dd.value - 1.0) <= 1e-15   # the embedding is J itself


def test_conj_block_det_nonnegative_random():
    rng = rng_from_seed(47)
    for _ in range(20):
        c = random_gaussian(rng, 4, "C")
        d = random_gaussian(rng, 4, "C")
        dd = conj_block_det(c, d)
        assert nonneg_slack(dd, ToleranceConfig()) <= 1e-10


def test_conj_block_det_matches_cofactor_oracle():
    rng = rng_from_seed(53)
    c = random_gaussian(rng, 2, "C")
    d = random_gaussian(rng, 2, "C")
    expected = cofactor_det(embed_pair(BlockPair(c, d, GroupKind.COMPLEX_SYMPLECTIC)))
    assert abs(conj_block_det(c, d).value - expected) <= 1e-12 * abs(expected)


def test_conj_block_reduction_trivials():
    probe = conj_block_reduction(identity(2, "C"), zeros(2, "C"))
    assert_allclose(probe.e, zeros(2, "C"))
    assert abs(probe.pair_det.value - 1.0) <= 1e-15
    # scalar case: C = 2, D = 2i -> E = i, conj(E) E + I = 2
    probe = conj_block_reduction(2 * identity(1, "C"), 2j * identity(1, "C"))
    assert_allclose(probe.e, 1j * identity(1, "C"))
    assert abs(probe.pair_det.value - 2.0) <= 1e-15
    # det [[2, 2i], [2i, 2]] = 4 - (2i)^2 = 8 = det(C) det(conj(C)) det(EE+I)
    assert abs(probe.block_det.value - 8.0) <= 8e-15


def test_conj_block_reduction_identities_random():
    rng = rng_from_seed(59)
    for _ in range(10):
        c = random_gaussian(rng, 5, "C")
        d = random_gaussian(rng, 5, "C")
        probe = conj_block_reduction(c, d)
        assert not probe.singular_c
        assert probe.residuals["solve"] <= 1e-9
        assert probe.residuals["reduction"] <= 1e-9
        assert probe.residuals["commuting"] <= 1e-9
        assert probe.residuals["eeNonneg"] <= 1e-9


def test_conj_block_reduction_flags_singular_c():
    probe = conj_block_reduction(zeros(2, "C"), identity(2, "C"))
    assert probe.singular_c
    assert probe.e is None
    assert probe.pair_det is None
    assert abs(probe.block_det.value - 1.0) <= 1e-15


def test_ee_pair_det_nonnegative_for_random_e():
    # det(conj(E) E + I) >= 0 for any complex E: checked at determinant level
    # over 500 draws across sizes
    rng = rng_from_seed(61)
    for t in range(500):
        n = (t % 6) + 1
        e = random_gaussian(rng, n, "C")
        dd = log_det(e.conj() @ e + identity(n, "C"))
        assert nonneg_slack(dd, ToleranceConfig()) <= 1e-9


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def test_certificate_identity_matrix():
    cert = certify_symplectic(identity(4))
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
        certify_symplectic(zeros(4))
    with pytest.raises(MembershipError, match="inf"):
        certify_symplectic(zeros(4, "C"), GroupKind.COMPLEX_SYMPLECTIC)
    with pytest.raises(ValueError, match="R-kind"):
        certify_symplectic(identity(4, "C"), GroupKind.REAL_SYMPLECTIC)
    with pytest.raises(ValueError, match="C-kind"):
        certify_symplectic(identity(4), GroupKind.COMPLEX_SYMPLECTIC)
    with pytest.raises(ValueError, match="conj_symplectic_det"):
        certify_symplectic(identity(4), GroupKind.CONJUGATE_SYMPLECTIC)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in A^T J A
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_certificate_rejects_non_finite_input(bad):
    for group, kind in ((GroupKind.REAL_SYMPLECTIC, "R"), (GroupKind.COMPLEX_SYMPLECTIC, "C")):
        a = symplectic_form(2, kind)
        a[0, 1] = bad
        with pytest.raises(MembershipError):
            certify_symplectic(a, group)


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
    a = np.exp(1j * theta) * identity(2 * n, "C")
    got = conj_symplectic_det(a)
    assert abs(got - np.exp(2j * n * theta)) <= 1e-14
    theta, n = -0.8, 3
    a = np.exp(1j * theta) * identity(2 * n, "C")
    assert abs(conj_symplectic_det(a) - np.exp(2j * n * theta)) <= 1e-14


def test_conj_det_of_form_is_one():
    assert abs(conj_symplectic_det(symplectic_form(2, "C")) - 1.0) <= 1e-14


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
    for kind in ("R", "C"):                                 # all-zero input
        with pytest.raises(MembershipError, match="inf"):
            conj_symplectic_det(zeros(4, kind))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in A^T J A
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_conj_det_rejects_non_finite_input(bad):
    a = symplectic_form(2, "C")
    a[3, 0] = bad
    with pytest.raises(MembershipError):
        conj_symplectic_det(a)


def test_conj_det_inconclusive_guard_is_distinct():
    # C = [1], D = [i] makes the formula matrix exactly zero; membership is
    # bypassed with a huge tolerance to reach the guard (exact group members
    # can never trigger it)
    a = np.array([[1.0 + 0j, 1j], [0j, 0j]])
    loose = ToleranceConfig(membership=1e9)
    with pytest.raises(FormulaInconclusiveError):
        conj_symplectic_det(a, loose)
