"""Elementary structured factors and seeded group sampling."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sympdet import generators, suites
from sympdet.generators import (
    GenerationError,
    GeneratorConfig,
    _fill_diag_blocks,
    _fill_phases,
    _fill_shears,
    _sample,
    _symmetrized,
    elementary_factor,
    generate,
)
from sympdet.linalg import (
    log_det,
    rng_from_seed,
    split_seed,
)
from sympdet.matio import format_matrix
from sympdet.symplectic import (
    BlockPair,
    GroupKind,
    ToleranceConfig,
    embed_pair,
    membership_residual,
    symplectic_form,
)

from oracles import (
    block_diag_block,
    block_embed_pair,
    block_shear_lower,
    block_shear_upper,
    loop_generate,
    random_gaussian,
)

REAL = GroupKind.REAL_SYMPLECTIC
ALL_TARGETS = (REAL, GroupKind.COMPLEX_SYMPLECTIC, GroupKind.CONJUGATE_SYMPLECTIC)


# ---------------------------------------------------------------------------
# Elementary factors
# ---------------------------------------------------------------------------

def _one(fill, n, dtype, *args):
    """The factor a fill writes into a zeroed stack of one 2N x 2N matrix."""
    return fill(np.zeros((1, 2 * n, 2 * n), dtype), 0, *args)[0]


def _shear_lower(s, target=REAL):
    """[[I, 0], [S, I]] with S symmetrized (Hermitian for the conjugate group)."""
    s = _symmetrized(np.asarray(s), target is GroupKind.CONJUGATE_SYMPLECTIC)
    return _one(_fill_shears, len(s), s.dtype, s, True)


def _shear_upper(s, target=REAL):
    """[[I, S], [0, I]] with S symmetrized (Hermitian for the conjugate group)."""
    s = _symmetrized(np.asarray(s), target is GroupKind.CONJUGATE_SYMPLECTIC)
    return _one(_fill_shears, len(s), s.dtype, s, False)


def _diag_block(p, target=REAL):
    """[[P, 0], [0, P^{-T}]] (P^{-*} for the conjugate group)."""
    return _one(_fill_diag_blocks, len(p), p.dtype, p, np.linalg.inv(p),
                target is GroupKind.CONJUGATE_SYMPLECTIC)


def _phase_factor(theta, n_half):
    """exp(i theta) I_2N."""
    return _one(_fill_phases, n_half, np.complex128, [theta])


def test_shear_of_zero_is_identity():
    assert_allclose(_shear_lower(np.zeros((3, 3))), np.eye(6))
    assert_allclose(_shear_upper(np.zeros((3, 3))), np.eye(6))


def test_shear_scalar_hand_check():
    a = _shear_lower(np.array([[3.0]]))
    assert_allclose(a, [[1.0, 0.0], [3.0, 1.0]])
    assert membership_residual(a, REAL) == 0.0
    assert abs(log_det(a).value - 1.0) == 0.0


def test_shear_symmetrizes_input():
    rng = rng_from_seed(3)
    s = random_gaussian(rng, 3)                  # not symmetric
    a = _shear_upper(s)
    assert_allclose(a[:3, 3:], (s + s.T) / 2)
    assert membership_residual(a, REAL) <= 1e-12
    h = random_gaussian(rng, 3, np.complex128)   # Hermitian for the conjugate group
    b = _shear_lower(h, GroupKind.CONJUGATE_SYMPLECTIC)
    assert_allclose(b[3:, :3], (h + h.conj().T) / 2)
    assert membership_residual(b, GroupKind.CONJUGATE_SYMPLECTIC) <= 1e-12


def test_diag_block_trivials():
    assert_allclose(_diag_block(np.eye(3)), np.eye(6))
    a = _diag_block(np.array([[2.0]]))
    assert_allclose(a, np.diag([2.0, 0.5]))
    assert membership_residual(a, REAL) <= 1e-15
    assert abs(log_det(a).value - 1.0) <= 1e-15


def test_diag_block_conjugate_uses_conjugate_inverse():
    p = random_gaussian(rng_from_seed(5), 2, np.complex128)
    a = _diag_block(p, GroupKind.CONJUGATE_SYMPLECTIC)
    assert_allclose(a[2:, 2:] @ p.conj().T, np.eye(2, dtype=np.complex128), atol=1e-13)
    assert membership_residual(a, GroupKind.CONJUGATE_SYMPLECTIC) <= 1e-12


def test_diag_block_random_clamped_residual():
    rng = rng_from_seed(7)
    cfg = GeneratorConfig(half_dim=5, seed=0)
    for _ in range(10):
        f = elementary_factor("diag_block", cfg, rng)
        assert membership_residual(f, REAL) <= 1e-10


def test_phase_factor_values():
    assert_allclose(_phase_factor(0.0, 2), np.eye(4, dtype=np.complex128))
    a = _phase_factor(math.pi, 1)
    assert_allclose(a, -np.eye(2, dtype=np.complex128), atol=1e-15)
    assert abs(log_det(a).value - 1.0) <= 1e-14   # e^{2 pi i} = 1
    # theta = 0.3, N = 2: det = e^{1.2 i} straight from the LU oracle
    dd = log_det(_phase_factor(0.3, 2))
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


def test_norm_clamp_scales_only_the_matrices_over_the_cap():
    # a matrix under the cap keeps its bits, signed zeros included (times
    # 1 + 0j would turn -0.0 - 1j into 0.0 - 1j); one over it is scaled as
    # alone; a NaN norm counts as over
    under = np.array([[complex(-0.0, -1.0), complex(0.5, -0.0)], [0.0, 0.25]])
    over = np.array([[3.0 - 4.0j, 1.0], [-2.0j, 0.0]])
    x = np.stack([under, over, np.full((2, 2), np.nan + 0j)])
    got = generators._norm_clamped(x.copy(), 2.0)
    assert got[0].tobytes() == under.tobytes()
    assert got[1].tobytes() == (over * (2.0 / np.linalg.norm(over))).tobytes()
    assert np.isnan(got[2]).all()
    # a cap per matrix gives each matrix the bits of a call with its cap alone
    for caps in ([0.5, 2.0, 1.0], [2.0, 10.0, math.inf]):
        got = generators._norm_clamped(x.copy(), np.array(caps))
        for i, cap in enumerate(caps):
            assert got[i].tobytes() == generators._norm_clamped(x[i:i + 1].copy(), cap).tobytes()


def test_embed_orthogonal_pair_trivials():
    # [[C, D], [-D, C]]: the orthogonal-group layout of an unconjugated pair
    assert_allclose(embed_pair(BlockPair(np.eye(2), np.zeros((2, 2)), REAL)), np.eye(4))
    assert_allclose(embed_pair(BlockPair(np.zeros((2, 2)), np.eye(2), REAL)), symplectic_form(2))
    c = random_gaussian(rng_from_seed(43), 2, np.complex128)
    d = random_gaussian(rng_from_seed(47), 2, np.complex128)
    m = embed_pair(BlockPair(c, d, GroupKind.CONJUGATE_SYMPLECTIC))
    assert_allclose(m[2:, :2], -d)      # no conjugation outside the complex group
    assert_allclose(m[2:, 2:], c)
    with pytest.raises(ValueError, match="dimension"):
        embed_pair(BlockPair(np.eye(2), np.zeros((3, 3)), REAL))


def _members(config, seeds, *args, **kwargs):
    """The stack _sample builds for the rngs of the given seeds."""
    return _sample(config, [rng_from_seed(s) for s in seeds], *args, **kwargs)[0]


def _assert_bitwise(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref) and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["R", "C"])
def test_structured_builders_match_block_reference(dtype, n):
    # every element copied, none recomputed: equal to np.block bit for bit
    rng = rng_from_seed(1000 * n + (dtype is np.complex128))
    s = random_gaussian(rng, n, dtype)
    p = np.eye(n, dtype=dtype) + 0.3 * random_gaussian(rng, n, dtype)
    c, d = random_gaussian(rng, n, dtype), random_gaussian(rng, n, dtype)
    for target in ALL_TARGETS:
        conj = target is GroupKind.CONJUGATE_SYMPLECTIC
        _assert_bitwise(_shear_lower(s, target), block_shear_lower(s, conj))
        _assert_bitwise(_shear_upper(s, target), block_shear_upper(s, conj))
        _assert_bitwise(_diag_block(p, target), block_diag_block(p, conj))
        _assert_bitwise(embed_pair(BlockPair(c, d, target)),
                        block_embed_pair(c, d, target is GroupKind.COMPLEX_SYMPLECTIC))
    # mixed dtypes take numpy's common result type
    _assert_bitwise(embed_pair(BlockPair(c.real, d, REAL)), block_embed_pair(c.real, d))


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
    for value in (math.inf, math.nan):  # an infinite scale or cap leaves nothing to clamp
        with pytest.raises(ValueError, match="finite"):
            GeneratorConfig(half_dim=2, factor_scale=value)
        with pytest.raises(ValueError, match="finite"):
            GeneratorConfig(half_dim=2, condition_cap=value)


def test_integer_fields_take_integers_only():
    # a numpy integer is the int it holds; anything else names its field,
    # (seed=1.5 used to sample seed 1's member, and half_dim=2.0 to fail in numpy)
    ref = generate(GeneratorConfig(half_dim=2, num_factors=3, seed=1))
    cfg = GeneratorConfig(half_dim=np.int64(2), num_factors=np.int32(3), seed=np.uint64(1))
    assert (type(cfg.half_dim), type(cfg.num_factors), type(cfg.seed)) == (int, int, int)
    assert generate(cfg).tobytes() == ref.tobytes()
    for field in ("half_dim", "num_factors", "seed"):
        for bad in (1.5, 2.0, "2", None):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                GeneratorConfig(**{"half_dim": 2, field: bad})


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



# ---------------------------------------------------------------------------
# Sampling as stacks against the one-matrix loop (oracles.loop_generate)
# ---------------------------------------------------------------------------

SAMPLE_DIMS = [*range(1, 17), 32, 50]


@pytest.mark.parametrize("n", SAMPLE_DIMS)
@pytest.mark.parametrize("target", ALL_TARGETS)
def test_generate_matches_the_loop(target, n):
    for t in range(3):
        cfg = GeneratorConfig(half_dim=n, target=target, seed=split_seed(n, t))
        _assert_bitwise(generate(cfg), loop_generate(cfg))


SAMPLING_SUITE = {REAL: "real-theorem", GroupKind.COMPLEX_SYMPLECTIC: "complex-theorem",
                  GroupKind.CONJUGATE_SYMPLECTIC: "conj-formula"}


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_stacks_split_by_size_match_the_loop(monkeypatch, target):
    # the suites cut 8 trials of 100 x 100 members into stacks below the byte
    # budget counted as complex128 (6 + 2), whatever the group's dtype
    stacks = []

    def capture(*args, **kwargs):
        stack, res_mem = _sample(*args, **kwargs)
        stacks.append(np.array(stack))
        return stack, res_mem

    monkeypatch.setattr(suites, "_sample", capture)
    assert suites.run_suite(suites.default_suite_spec(
        SAMPLING_SUITE[target], seed=50, trials=8, half_dims=(50,))).all_passed
    assert [len(s) for s in stacks] == [6, 2]
    base = GeneratorConfig(half_dim=50, target=target)
    for t, got in enumerate(itertools.chain.from_iterable(stacks)):
        _assert_bitwise(got, loop_generate(dataclasses.replace(base, seed=split_seed(50, t))))


FORCED = {
    "form": ["form"],
    "phase": ["phase"],
    "mixed": ["shear_lower", "phase", "diag_block", "form", "shear_upper", "phase"],
    "no-phase": ["diag_block", "shear_upper", "form", "diag_block", "shear_lower"],
    # runs of phases: two between drawn kinds, and three that end the sequence
    "phase-runs": ["shear_lower", "phase", "phase", "diag_block", "form", "phase", "phase",
                   "phase"],
    # chunks that draw no block, and chunks whose blocks are all of one kind
    "forms": ["form"] * 3,
    "form-phase": ["form", "phase", "form"],
    "lower": ["shear_lower"] * 3,
    "upper": ["shear_upper"] * 3,
    "diag": ["diag_block"] * 3,
}


@pytest.mark.parametrize("name", FORCED)
@pytest.mark.parametrize("target", ALL_TARGETS)
def test_forced_factor_lists_match_the_loop(target, name):
    factors = FORCED[name]
    base = GeneratorConfig(half_dim=3, target=target)
    seeds = [split_seed(41, t) for t in range(5)]
    if "phase" in factors and target is not GroupKind.CONJUGATE_SYMPLECTIC:
        for sample in (lambda: generate(base, factors),
                       lambda: list(_members(base, seeds, factors)),
                       lambda: loop_generate(base, factors)):
            with pytest.raises(ValueError, match="conjugate group"):
                sample()
        return
    for seed, got in zip(seeds, _members(base, seeds, factors)):
        cfg = dataclasses.replace(base, seed=seed)
        ref = loop_generate(cfg, factors)
        _assert_bitwise(got, ref)
        _assert_bitwise(generate(cfg, factors), ref)


def test_unknown_forced_factor_fails_on_every_path():
    base = GeneratorConfig(half_dim=2)
    for sample in (lambda: generate(base, ["form", "rotation"]),
                   lambda: list(_members(base, range(3), ["form", "rotation"]))):
        with pytest.raises(ValueError, match="unknown factor kind 'rotation'"):
            sample()


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_members_that_retry_or_fail_match_the_loop(target):
    # a product_residual near the median first-attempt residual sends some
    # members of one stack back for more attempts and fails some outright
    tol = ToleranceConfig(product_residual=2e-17)
    base = GeneratorConfig(half_dim=3, target=target)
    seeds = list(range(40))
    refs = {}
    for s in seeds:
        try:
            refs[s] = loop_generate(dataclasses.replace(base, seed=s), tol=tol)
        except GenerationError:
            refs[s] = None
    failed = [s for s in seeds if refs[s] is None]
    passed = [s for s in seeds if refs[s] is not None]
    retried = [s for s in passed
               if not np.array_equal(refs[s], loop_generate(dataclasses.replace(base, seed=s)))]
    assert failed and retried
    for s, got in zip(passed, _members(base, passed, tol=tol)):
        _assert_bitwise(got, refs[s])
    with pytest.raises(GenerationError, match=f"no {target.value} product"):
        _members(base, seeds, tol=tol)  # a stack that holds a failing member
    for s in failed:
        with pytest.raises(GenerationError):
            generate(dataclasses.replace(base, seed=s), tol=tol)


# ---------------------------------------------------------------------------
# Chunks of product steps: a member does not depend on how its steps are chunked
# ---------------------------------------------------------------------------

def _chunk_by(monkeypatch, config, steps):
    """Set _STACK_BYTES so that a stack of config's members builds ``steps``
    product steps at a time (any stack, if steps is 1 or None, which is all
    of them; a stack of at most 16 members otherwise); returns the step
    counts of the chunks built, in turn."""
    member = (2 * config.half_dim) ** 2 * np.dtype(config.target.dtype).itemsize
    # the per-member bound allows `steps`, and the stack bound as many for 16 members
    budget = 1 << 40 if steps is None else 16 * member * steps
    monkeypatch.setattr(generators, "_STACK_BYTES", budget)
    return _chunks_seen(monkeypatch)


def _chunks_seen(monkeypatch):
    """The step counts of the chunks _factors builds from now on, in turn."""
    seen = []

    def factors(config, rngs, codes):
        seen.append(codes.shape[1])
        return fill(config, rngs, codes)

    fill = generators._factors
    monkeypatch.setattr(generators, "_factors", factors)
    return seen


CHUNK_STEPS = [1, 2, 3, 4, None]


def test_a_chunk_takes_the_whole_stack_budget(monkeypatch):
    # 40 real members at N = 10 (125 KiB) build 8 of their 12 product steps
    # in the first chunk of the default 1 MiB budget, as many as it holds
    base = GeneratorConfig(half_dim=10)
    seeds = [split_seed(1, t) for t in range(40)]
    seen = _chunks_seen(monkeypatch)
    for seed, got in zip(seeds, _members(base, seeds)):
        _assert_bitwise(got, loop_generate(dataclasses.replace(base, seed=seed)))
    assert seen == [8, 4]


@pytest.mark.parametrize("steps", CHUNK_STEPS, ids=lambda s: f"chunk{s or 'all'}")
@pytest.mark.parametrize("target", ALL_TARGETS)
def test_members_do_not_depend_on_the_chunks(monkeypatch, target, steps):
    base = GeneratorConfig(half_dim=3, target=target)
    seeds = [split_seed(43, t) for t in range(12)]
    seen = _chunk_by(monkeypatch, base, steps)
    for seed, got in zip(seeds, _members(base, seeds)):
        _assert_bitwise(got, loop_generate(dataclasses.replace(base, seed=seed)))
    assert set(seen) == {steps or base.num_factors}  # 12 steps chunk evenly


@pytest.mark.parametrize("steps", CHUNK_STEPS, ids=lambda s: f"chunk{s or 'all'}")
@pytest.mark.parametrize("name", ["mixed", "no-phase", "phase-runs", "forms", "form-phase",
                                  "lower", "upper", "diag"])
@pytest.mark.parametrize("target", ALL_TARGETS)
def test_forced_factors_on_chunk_boundaries_match_the_loop(monkeypatch, target, name, steps):
    # mixed: a phase ends the first chunk of 2, and the form ends the second
    # chunk of 2 and of 4 and starts the second chunk of 3; no-phase: the
    # form ends the first chunk of 3 and starts the second chunk of 2;
    # phase-runs: chunks of 2 and 3 split its runs of phases, and every
    # chunk size leaves a run of phases at a chunk's end; the rest are the
    # edges of the kind-sorted pass: no block drawn, or one kind
    factors = FORCED[name]
    if "phase" in factors and target is not GroupKind.CONJUGATE_SYMPLECTIC:
        return
    base = GeneratorConfig(half_dim=3, target=target)
    seeds = [split_seed(47, t) for t in range(6)]
    seen = _chunk_by(monkeypatch, base, steps)
    for seed, got in zip(seeds, _members(base, seeds, factors)):
        _assert_bitwise(got, loop_generate(dataclasses.replace(base, seed=seed), factors))
    whole, rest = divmod(len(factors), steps or len(factors))
    assert seen == [steps or len(factors)] * whole + [rest] * bool(rest)


@pytest.mark.parametrize("steps", [1, None], ids=["chunk1", "chunkall"])
@pytest.mark.parametrize("target", ALL_TARGETS)
def test_retries_and_failures_do_not_depend_on_the_chunks(monkeypatch, target, steps):
    # as test_members_that_retry_or_fail_match_the_loop, chunked a step at a
    # time and all at once; a retry is a smaller stack, with its own chunks
    tol = ToleranceConfig(product_residual=2e-17)
    base = GeneratorConfig(half_dim=3, target=target)
    seeds = list(range(40))
    refs = {}
    for s in seeds:
        try:
            refs[s] = loop_generate(dataclasses.replace(base, seed=s), tol=tol)
        except GenerationError:
            refs[s] = None
    failed = [s for s in seeds if refs[s] is None]
    passed = [s for s in seeds if refs[s] is not None]
    assert failed
    seen = _chunk_by(monkeypatch, base, steps)
    for s, got in zip(passed, _members(base, passed, tol=tol)):
        _assert_bitwise(got, refs[s])
    assert set(seen) == {steps or base.num_factors}
    with pytest.raises(GenerationError, match=f"no {target.value} product"):
        _members(base, seeds, tol=tol)  # a stack that holds a failing member


def test_generate_holds_no_more_than_one_product_step():
    # the product, the factor and their product: 3x the member's bytes, as
    # the one-matrix loop holds; a stack copy more would give about 4x
    cfg = GeneratorConfig(half_dim=50, target=GroupKind.COMPLEX_SYMPLECTIC, seed=3)
    a = generate(cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        generate(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / a.nbytes < 3.5
