"""Elementary structured factors and seeded group sampling."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sympdet.generators import (
    GenerationError,
    GeneratorConfig,
    diag_block,
    elementary_factor,
    generate,
    phase_factor,
    shear_lower,
    shear_upper,
)
from sympdet.linalg import (
    SingularMatrixError,
    identity,
    log_det,
    random_gaussian,
    rng_from_seed,
    split_seed,
    zeros,
)
from sympdet.matio import format_matrix
from sympdet.symplectic import (
    BlockPair,
    GroupKind,
    embed_pair,
    membership_residual,
    symplectic_form,
)

REAL = GroupKind.REAL_SYMPLECTIC
ALL_TARGETS = (REAL, GroupKind.COMPLEX_SYMPLECTIC, GroupKind.CONJUGATE_SYMPLECTIC)


# ---------------------------------------------------------------------------
# Elementary factors
# ---------------------------------------------------------------------------

def test_shear_of_zero_is_identity():
    assert_allclose(shear_lower(zeros(3)), identity(6))
    assert_allclose(shear_upper(zeros(3)), identity(6))


def test_shear_scalar_hand_check():
    a = shear_lower(np.array([[3.0]]))
    assert_allclose(a, [[1.0, 0.0], [3.0, 1.0]])
    assert membership_residual(a, REAL) == 0.0
    assert abs(log_det(a).value - 1.0) == 0.0


def test_shear_symmetrizes_input():
    rng = rng_from_seed(3)
    s = random_gaussian(rng, 3)          # not symmetric
    a = shear_upper(s)
    assert_allclose(a[:3, 3:], (s + s.T) / 2)
    assert membership_residual(a, REAL) <= 1e-12
    h = random_gaussian(rng, 3, "C")     # Hermitian for the conjugate group
    b = shear_lower(h, GroupKind.CONJUGATE_SYMPLECTIC)
    assert_allclose(b[3:, :3], (h + h.conj().T) / 2)
    assert membership_residual(b, GroupKind.CONJUGATE_SYMPLECTIC) <= 1e-12


def test_diag_block_trivials():
    assert_allclose(diag_block(identity(3)), identity(6))
    a = diag_block(np.array([[2.0]]))
    assert_allclose(a, np.diag([2.0, 0.5]))
    assert membership_residual(a, REAL) <= 1e-15
    assert abs(log_det(a).value - 1.0) <= 1e-15


def test_diag_block_conjugate_uses_conjugate_inverse():
    p = random_gaussian(rng_from_seed(5), 2, "C")
    a = diag_block(p, GroupKind.CONJUGATE_SYMPLECTIC)
    assert_allclose(a[2:, 2:] @ p.conj().T, identity(2, "C"), atol=1e-13)
    assert membership_residual(a, GroupKind.CONJUGATE_SYMPLECTIC) <= 1e-12


def test_diag_block_random_clamped_residual():
    rng = rng_from_seed(7)
    cfg = GeneratorConfig(half_dim=5, seed=0)
    for _ in range(10):
        f = elementary_factor("diag_block", cfg, rng)
        assert membership_residual(f, REAL) <= 1e-10


def test_diag_block_singular_raises():
    with pytest.raises(SingularMatrixError):
        diag_block(zeros(2))


def test_phase_factor_values():
    assert_allclose(phase_factor(0.0, 2), identity(4, "C"))
    a = phase_factor(math.pi, 1)
    assert_allclose(a, -identity(2, "C"), atol=1e-15)
    assert abs(log_det(a).value - 1.0) <= 1e-14   # e^{2 pi i} = 1
    # theta = 0.3, N = 2: det = e^{1.2 i} straight from the LU oracle
    dd = log_det(phase_factor(0.3, 2))
    assert abs(dd.phase - np.exp(1.2j)) <= 1e-12
    assert abs(dd.log_magnitude) <= 1e-12


def test_phase_factor_only_for_conjugate_target():
    cfg = GeneratorConfig(half_dim=2, seed=1)
    with pytest.raises(ValueError, match="conjugate"):
        elementary_factor("phase", cfg, rng_from_seed(0))


def test_every_factor_passes_its_residual():
    for target in ALL_TARGETS:
        cfg = GeneratorConfig(half_dim=4, target=target, seed=11)
        rng = rng_from_seed(11)
        names = ["shear_lower", "shear_upper", "diag_block", "form"]
        if target is GroupKind.CONJUGATE_SYMPLECTIC:
            names.append("phase")
        for name in names:
            f = elementary_factor(name, cfg, rng)
            assert membership_residual(f, target) <= 1e-12, (target, name)


def test_unknown_factor_name():
    cfg = GeneratorConfig(half_dim=2)
    with pytest.raises(ValueError, match="unknown factor"):
        elementary_factor("rotation", cfg, rng_from_seed(0))


def test_embed_orthogonal_pair_trivials():
    # [[C, D], [-D, C]]: the orthogonal-group layout of an unconjugated pair
    assert_allclose(embed_pair(BlockPair(identity(2), zeros(2), REAL)), identity(4))
    assert_allclose(embed_pair(BlockPair(zeros(2), identity(2), REAL)), symplectic_form(2))
    c = random_gaussian(rng_from_seed(43), 2, "C")
    d = random_gaussian(rng_from_seed(47), 2, "C")
    m = embed_pair(BlockPair(c, d, GroupKind.CONJUGATE_SYMPLECTIC))
    assert_allclose(m[2:, :2], -d)      # no conjugation outside the complex group
    assert_allclose(m[2:, 2:], c)
    with pytest.raises(ValueError, match="dimension"):
        embed_pair(BlockPair(identity(2), zeros(3), REAL))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_rejects_bad_configs():
    with pytest.raises(ValueError):
        GeneratorConfig(half_dim=2, num_factors=0)
    with pytest.raises(ValueError):
        GeneratorConfig(half_dim=0)
    with pytest.raises(ValueError):
        GeneratorConfig(half_dim=2, factor_scale=0.0)
    with pytest.raises(ValueError):
        GeneratorConfig(half_dim=2, condition_cap=1.0)


def test_generate_forced_form_factor_is_the_form():
    a = generate(GeneratorConfig(half_dim=3, num_factors=1, seed=0), factors=["form"])
    assert np.array_equal(a, symplectic_form(3))


def test_generate_real_default_bounds():
    a = generate(GeneratorConfig(half_dim=4, seed=13))
    assert membership_residual(a, REAL) <= 1e-9
    assert abs(log_det(a).value - 1.0) <= 1e-9


def test_generate_deterministic_bytes():
    cfg = GeneratorConfig(half_dim=3, target=GroupKind.CONJUGATE_SYMPLECTIC, seed=17)
    assert format_matrix(generate(cfg)) == format_matrix(generate(cfg))


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_generate_membership_across_targets(target):
    for t in range(6):
        cfg = GeneratorConfig(half_dim=3, target=target, seed=split_seed(19, t))
        a = generate(cfg)
        assert membership_residual(a, target) <= 1e-9


def test_generate_many_factors_large_dim():
    # group closure under long products, documented tolerance growth
    for target in ALL_TARGETS:
        cfg = GeneratorConfig(half_dim=16, target=target, num_factors=40, seed=23)
        a = generate(cfg)
        assert membership_residual(a, target) <= 1e-9
        dd = log_det(a)
        if target is GroupKind.CONJUGATE_SYMPLECTIC:
            assert abs(math.expm1(dd.log_magnitude)) <= 1e-8
        else:
            assert abs(dd.value - 1.0) <= 1e-8


def test_generate_det_one_is_reported_not_tolerated():
    # determinant of every symplectic output is the theorem under test
    for t in range(10):
        a = generate(GeneratorConfig(half_dim=5, seed=split_seed(29, t)))
        assert abs(log_det(a).value - 1.0) <= 1e-8


def test_generate_conjugate_phases_cover_the_circle():
    # with phase factors in the draw, det is generically away from 1
    hits = 0
    for t in range(50):
        cfg = GeneratorConfig(half_dim=3, target=GroupKind.CONJUGATE_SYMPLECTIC,
                              seed=split_seed(31, t))
        a = generate(cfg)
        dd = log_det(a)
        assert abs(math.expm1(dd.log_magnitude)) <= 1e-9
        if abs(dd.value - 1.0) > 1e-3:
            hits += 1
    assert hits >= 45


def test_generate_huge_factor_scale_still_clamped():
    a = generate(GeneratorConfig(half_dim=4, seed=37, factor_scale=100.0))
    assert membership_residual(a, REAL) <= 1e-9
    assert abs(log_det(a).value - 1.0) <= 1e-8


def test_generate_forced_bad_sequence_fails_loudly():
    cfg = GeneratorConfig(half_dim=2, num_factors=1, seed=0)
    with pytest.raises(ValueError, match="conjugate"):
        generate(cfg, factors=["phase"])   # phase factor outside its group

