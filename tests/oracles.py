"""Independent oracles for the test suite.

Everything here is deliberately naive and separate from the library code
paths it checks: a pure-Python LU with partial pivoting (the reference for
``sympdet.log_det``, which runs LAPACK through numpy), a cofactor-expansion
determinant, an inversion-counting permutation sign, ``np.block``
assemblies of the structured 2N x 2N matrices (the bitwise reference for the
library's in-place block fills), the two-GEMM membership residual (the
bitwise reference for the library's one-GEMM form), group sampling one
matrix and one factor at a time (the bitwise reference for the generators'
stacked sampling), and the lemma and generator-sanity suites' checks one
trial at a time (the bitwise references for their stacked judges).  Every
reference draws from numpy's own ``default_rng`` and ``SeedSequence``, so
none shares the library's vectorized seed derivation.  Three helpers the
tests share come first: a fresh square copy of a matrix, a Gaussian matrix,
and the Frobenius norm of one matrix as a Python float (the bitwise
reference for the library's stacked norms).

The last section is the scalar determinant arithmetic the library judged
with before its determinants became columns: a frozen ``ScalarLogDet`` per
matrix, its products and relative differences in Python's complex
arithmetic, and every suite's trial judged one determinant at a time.  It
is the bitwise reference for the column functions and the per-round
residual functions, which must give each trial the same residual names, in
the same order, with the same bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from sympdet.generators import GenerationError, GeneratorConfig, generate
from sympdet.linalg import LogDet, _square
from sympdet.symplectic import (DEFAULT_TOLERANCES, GroupKind, MembershipError,
                                membership_residual, symplectic_form)


def as_square(a) -> np.ndarray:
    """a as a square float64/complex128 array, always a fresh copy."""
    m = _square(a)
    return np.array(m) if m is a else m


def random_gaussian(rng, n, dtype=np.float64):
    """n x n matrix of i.i.d. standard normals per real component, float64
    or complex128 (any other dtype raises ValueError).  A complex one is one
    draw, of its real then its imaginary parts: the stream the lemma suite
    draws its blocks from."""
    if np.dtype(np.complex128) == dtype:
        z = rng.standard_normal((2, n, n))
        return z[0] + 1j * z[1]
    if np.dtype(np.float64) != dtype:
        raise ValueError(f"unsupported dtype {dtype!r}")
    return rng.standard_normal((n, n))


def frobenius(a) -> float:
    """||a||_F as a Python float, from np.linalg.norm of the one matrix."""
    return float(np.linalg.norm(a))


class SingularMatrixError(ArithmeticError):
    """The LU oracle was asked to solve with a singular factorization."""


@dataclass(frozen=True)
class LuFactorization:
    """Packed LU with partial pivoting: a[perm] == lower @ upper.

    ``packed`` holds the strict unit-lower multipliers below the diagonal and
    the upper factor on and above it.  ``swap_count`` tracks the parity of the
    row permutation.  A factorization of a singular matrix is kept (with zero
    pivots left in place) and flagged rather than raising, so determinants of
    singular inputs come out as log-magnitude -inf.
    """

    packed: np.ndarray
    perm: np.ndarray
    swap_count: int
    singular: bool

    @property
    def lower(self) -> np.ndarray:
        n = self.packed.shape[0]
        return np.tril(self.packed, -1) + np.eye(n, dtype=self.packed.dtype)

    @property
    def upper(self) -> np.ndarray:
        return np.triu(self.packed)

    def log_det(self) -> LogDet:
        d = np.diagonal(self.packed)
        mags = np.abs(d)
        if np.any(mags == 0.0):
            return LogDet(-math.inf, 1 + 0j)
        lm = float(np.sum(np.log(mags)))
        p = complex(-1.0 if self.swap_count % 2 else 1.0)
        for u, m in zip(d, mags):
            p *= complex(u) / float(m)
            p /= abs(p)
        return LogDet(lm, p)


def lu_decompose(a) -> LuFactorization:
    """LU with partial pivoting by largest modulus, ties to the lowest row.

    Reconstruction satisfies ||a[perm] - lower @ upper||_F <= 8 n eps ||a||_F
    (the constant 8n is what the test suite enforces).  Singular inputs are
    allowed: an exactly-zero pivot column marks the factorization singular and
    elimination continues on later columns.
    """
    m = as_square(a)
    n = m.shape[0]
    perm = np.arange(n)
    swaps = 0
    singular = False
    for k in range(n):
        col = np.abs(m[k:, k])
        p = k + int(np.argmax(col))  # argmax takes the first of tied maxima
        if col[p - k] == 0.0:
            singular = True
            continue
        if p != k:
            m[[k, p]] = m[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            swaps += 1
        m[k + 1:, k] /= m[k, k]
        m[k + 1:, k + 1:] -= np.outer(m[k + 1:, k], m[k, k + 1:])
    return LuFactorization(packed=m, perm=perm, swap_count=swaps, singular=singular)


def solve(fac: LuFactorization, rhs) -> np.ndarray:
    """Solve A @ X = RHS from an LU factorization of A (square RHS).

    The residual satisfies ||A X - RHS||_F <= 8 n eps ||A||_F ||X||_F.
    """
    if fac.singular:
        raise SingularMatrixError("cannot solve with a singular factorization")
    b = as_square(rhs)
    n = fac.packed.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"dimension mismatch: {n} vs {b.shape[0]}")
    lu = fac.packed
    x = b[fac.perm].astype(np.result_type(lu, b))
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        x[i] -= lu[i, i + 1:] @ x[i + 1:]
        x[i] /= lu[i, i]
    return x


def cofactor_det(a):
    """Recursive cofactor expansion along the first row (small n only)."""
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * complex(a[0, j]) * cofactor_det(minor)
    return total


def permutation_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Seeds derived by numpy, one at a time: the reference for the library's
# split_seed and rng_from_seed
# ---------------------------------------------------------------------------

SEED_MASK = (1 << 64) - 1


def loop_rng(seed):
    return np.random.default_rng(int(seed) & SEED_MASK)


def loop_split_seed(seed, index):
    ss = np.random.SeedSequence([int(seed) & SEED_MASK, int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Structured block assembly by np.block: the bitwise reference for the
# in-place fills of the generators and the block machinery
# ---------------------------------------------------------------------------

def _symmetrized(s, hermitian):
    return (s + s.conj().T) / 2 if hermitian else (s + s.T) / 2


def block_shear_lower(s, hermitian=False):
    s = _symmetrized(as_square(s), hermitian)
    eye = np.eye(s.shape[0], dtype=s.dtype)
    return np.block([[eye, np.zeros_like(s)], [s, eye]])


def block_shear_upper(s, hermitian=False):
    s = _symmetrized(as_square(s), hermitian)
    eye = np.eye(s.shape[0], dtype=s.dtype)
    return np.block([[eye, s], [np.zeros_like(s), eye]])


def block_diag_block(p, conjugate=False):
    p = as_square(p)
    pinv = np.linalg.inv(p)
    br = pinv.conj().T if conjugate else pinv.T
    return np.block([[p, np.zeros_like(p)], [np.zeros_like(p), br.copy()]])


def block_embed_pair(c, d, conjugated=False):
    if conjugated:
        return np.block([[c, d], [-d.conj(), c.conj()]])
    return np.block([[c, d], [-d, c]])


def block_j_conjugate(a):
    a = as_square(a)
    n = a.shape[0] // 2
    return np.block([[a[n:, n:], -a[n:, :n]], [-a[:n, n:], a[:n, :n]]])


# ---------------------------------------------------------------------------
# Membership residual with J as a dense matrix: the bitwise reference for
# membership_residual, which applies J as a signed column swap and subtracts
# it in place
# ---------------------------------------------------------------------------

def dense_membership_residual(a, group):
    """||A^# J A - J||_F / (||J||_F ||A||_F^2) with both products as GEMMs,
    associated as (A^# J) A."""
    a = as_square(a)
    if group is GroupKind.REAL_SYMPLECTIC and np.iscomplexobj(a):
        raise ValueError("real symplectic membership needs a real matrix")
    j = symplectic_form(a.shape[0] // 2, a.dtype)
    adj = a.conj().T if group is GroupKind.CONJUGATE_SYMPLECTIC else a.T
    scale = float(np.linalg.norm(a)) ** 2
    if scale == 0.0:
        return math.inf
    return float(np.linalg.norm(adj @ j @ a - j)) / float(np.linalg.norm(j)) / scale


# ---------------------------------------------------------------------------
# Sampling one matrix at a time, one factor at a time: the bitwise reference
# for the generators, which build every factor kind, and the products, as
# stacks.  This is the per-factor loop generate ran before that.
# ---------------------------------------------------------------------------

_FACTOR_KINDS = ("shear_lower", "shear_upper", "diag_block", "form", "phase")
_MAX_ATTEMPTS = 5


def _loop_gaussian(rng, n, dtype):
    z = rng.standard_normal((n, n))
    if dtype == np.complex128:
        return z + 1j * rng.standard_normal((n, n))
    return z


def _norm_clamped(x, cap):
    f = frobenius(x)
    return x if f <= cap else x * (cap / f)


def _loop_shear(s, lower):
    n = s.shape[0]
    out = np.eye(2 * n, dtype=s.dtype)
    if lower:
        out[n:, :n] = s
    else:
        out[:n, n:] = s
    return out


def _loop_diag_block(p, target):
    n = p.shape[0]
    pinv = np.linalg.inv(p)
    out = np.zeros((2 * n, 2 * n), p.dtype)
    out[:n, :n] = p
    out[n:, n:] = pinv.conj().T if target is GroupKind.CONJUGATE_SYMPLECTIC else pinv.T
    return out


def loop_phase_factor(theta, n_half):
    return complex(math.cos(theta), math.sin(theta)) * np.eye(2 * n_half, dtype=np.complex128)


def loop_elementary_factor(name, config, rng):
    n = config.half_dim
    target = config.target
    dtype = np.float64 if target is GroupKind.REAL_SYMPLECTIC else np.complex128
    cap = config.condition_cap
    if name in ("shear_lower", "shear_upper"):
        s = config.factor_scale * _loop_gaussian(rng, n, dtype) / math.sqrt(n)
        s = _symmetrized(s, target is GroupKind.CONJUGATE_SYMPLECTIC)
        return _loop_shear(_norm_clamped(s, (cap - 1.0) / math.sqrt(cap)), name == "shear_lower")
    if name == "diag_block":
        g = config.factor_scale * _loop_gaussian(rng, n, dtype) / math.sqrt(n)
        g = _norm_clamped(g, 1.0 - 1.0 / math.sqrt(cap))
        return _loop_diag_block(np.eye(n, dtype=dtype) + g, target)
    if name == "form":
        return symplectic_form(n, dtype)
    if name == "phase":
        if target is not GroupKind.CONJUGATE_SYMPLECTIC:
            raise ValueError("phase factors exist only in the conjugate group")
        return loop_phase_factor(float(rng.uniform(-math.pi, math.pi)), n)
    raise ValueError(f"unknown factor kind {name!r}")


def loop_generate(config, factors=None, tol=DEFAULT_TOLERANCES):
    rng = loop_rng(config.seed)
    allowed = list(_FACTOR_KINDS[:4])
    if config.target is GroupKind.CONJUGATE_SYMPLECTIC:
        allowed.append("phase")
    dtype = np.float64 if config.target is GroupKind.REAL_SYMPLECTIC else np.complex128

    for _ in range(_MAX_ATTEMPTS):
        if factors is None:
            seq = [allowed[int(rng.integers(0, len(allowed)))]
                   for _ in range(config.num_factors)]
        else:
            seq = list(factors)
        a = np.eye(2 * config.half_dim, dtype=dtype)
        for name in seq:
            a = a @ loop_elementary_factor(name, config, rng)
        if membership_residual(a, config.target) <= tol.product_residual:
            return a
        if factors is not None:
            break
    raise GenerationError(
        f"no {config.target.value} product within residual after {_MAX_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# The lemma suite one trial at a time: the bitwise reference for its stacked
# draw, its stacked condition gate and the stacked block-elimination core.
# This is the per-trial check the suite ran before those were stacked.
# ---------------------------------------------------------------------------

def loop_lemma_inputs(n, seed):
    """(C, D, mode) of one lemma trial, drawn alone: mode 0 generic, 1 and 2
    a near-singular C."""
    rng = loop_rng(seed)
    mode = int(rng.integers(0, 3))
    c = random_gaussian(rng, n, np.complex128)
    d = random_gaussian(rng, n, np.complex128)
    if mode:
        eps = 1e-2 if mode == 1 else 1e-6
        if n == 1:
            rank_deficient = np.zeros((1, 1), np.complex128)
        else:
            rank_deficient = random_gaussian(rng, n, np.complex128)
            coeffs = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            rank_deficient[:, -1] = rank_deficient[:, :-1] @ coeffs
        c = eps * np.eye(n, dtype=np.complex128) + rank_deficient
    return c, d, mode


def loop_reduction_residuals(c, d, tol=DEFAULT_TOLERANCES):
    """conj_block_reduction's residuals for one pair of complex128 blocks,
    {} when LAPACK finds C singular."""
    try:
        e = np.linalg.solve(c, d)
    except np.linalg.LinAlgError:
        return {}
    n = c.shape[0]
    block = scalar_log_det(block_embed_pair(c, d, conjugated=True))
    ee = e.conj() @ e
    ee[np.diag_indices(n)] += 1.0
    pair = scalar_log_det(ee)
    embed = scalar_log_det(block_embed_pair(np.eye(n, dtype=np.complex128), e, conjugated=True))
    rhs = scalar_log_det(c) * scalar_log_det(c.conj()) * embed
    return {
        "solve": frobenius(c @ e - d) / (frobenius(c) * frobenius(e) + frobenius(d) + 1e-300),
        "reduction": block.rel_diff(rhs),
        "commuting": embed.rel_diff(pair),
        "eeNonneg": max(scalar_sign_slacks(pair, tol)),
    }


def loop_lemma_trial(c, d, tol=DEFAULT_TOLERANCES):
    """The lemma suite's residuals for one pair: the embedding's sign slacks,
    and the reduction's residuals when C passes the condition gate."""
    try:
        well_conditioned = frobenius(c) * frobenius(np.linalg.inv(c)) <= tol.condition_gate
    except np.linalg.LinAlgError:
        well_conditioned = False
    im_slack, re_slack = scalar_sign_slacks(scalar_log_det(block_embed_pair(c, d, conjugated=True)),
                                            tol)
    return {"imagSlack": im_slack, "realSlack": re_slack,
            **(loop_reduction_residuals(c, d, tol) if well_conditioned else {})}


# ---------------------------------------------------------------------------
# The generator-sanity suite one trial at a time: the bitwise reference for
# its stacked judge.  This is the per-trial check the suite ran before that.
# ---------------------------------------------------------------------------

def loop_generator_sanity_trial(n, seed, tol=DEFAULT_TOLERANCES):
    rng = loop_rng(seed)
    target = (GroupKind.REAL_SYMPLECTIC, GroupKind.COMPLEX_SYMPLECTIC,
              GroupKind.CONJUGATE_SYMPLECTIC)[int(rng.integers(0, 3))]
    cfg = GeneratorConfig(half_dim=n, target=target, seed=loop_split_seed(seed, 1))

    worst_factor = 0.0
    for name in _FACTOR_KINDS[:5 if target is GroupKind.CONJUGATE_SYMPLECTIC else 4]:
        f = loop_elementary_factor(name, cfg, rng)
        worst_factor = max(worst_factor, membership_residual(f, target))

    a = loop_generate(cfg, tol=tol)
    residuals = {
        "factorResidual": worst_factor,
        "productResidual": membership_residual(a, target),
    }
    dd = scalar_log_det(a)
    if target is GroupKind.CONJUGATE_SYMPLECTIC:
        residuals["detUnitModulus"] = abs(math.expm1(dd.log_magnitude))
    else:
        residuals["detOne"] = abs(dd.value - 1.0)
    b = loop_generate(cfg, tol=tol)
    same = b.dtype == a.dtype and b.shape == a.shape and b.tobytes() == a.tobytes()
    residuals["determinism"] = 0.0 if same else 1.0
    return residuals


# ---------------------------------------------------------------------------
# Scalar determinant arithmetic, one determinant at a time: the bitwise
# reference for the column functions of sympdet.linalg and
# sympdet.symplectic and for the suites' per-round residual functions.  This
# is the judging the library ran before its determinants became columns.
# ---------------------------------------------------------------------------

_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


@dataclass(frozen=True)
class ScalarLogDet:
    """det = exp(log_magnitude) * phase, in Python's float and complex
    arithmetic."""

    log_magnitude: float
    phase: complex

    @property
    def value(self) -> complex:
        if self.log_magnitude == -math.inf:
            return 0j
        if self.log_magnitude > _LOG_FLOAT_MAX:
            return complex(*(math.copysign(math.inf, x) if x else 0.0
                             for x in (self.phase.real, self.phase.imag)))
        return self.phase * math.exp(self.log_magnitude)

    def __mul__(self, other):
        if self.log_magnitude == -math.inf or other.log_magnitude == -math.inf:
            return ScalarLogDet(-math.inf, 1 + 0j)
        p = self.phase * other.phase
        p /= abs(p)
        return ScalarLogDet(self.log_magnitude + other.log_magnitude, p)

    def conjugated(self):
        return ScalarLogDet(self.log_magnitude, self.phase.conjugate())

    def abs_squared(self):
        if self.log_magnitude == -math.inf:
            return ScalarLogDet(-math.inf, 1 + 0j)
        return ScalarLogDet(2.0 * self.log_magnitude, 1 + 0j)

    def rel_diff(self, other) -> float:
        if self.log_magnitude == -math.inf and other.log_magnitude == -math.inf:
            return 0.0
        if self.log_magnitude == -math.inf or other.log_magnitude == -math.inf:
            return math.inf
        dl = self.log_magnitude - other.log_magnitude
        if dl > 700.0:
            return math.inf
        return abs(math.exp(dl) * self.phase * other.phase.conjugate() - 1.0)


def scalar_log_det(a) -> ScalarLogDet:
    """The determinant of one matrix from numpy's slogdet of it alone:
    (-inf, 1) if singular, (nan, nan + nanj) for a NaN or Inf entry."""
    a = _square(a)
    sign, la = np.linalg.slogdet(a)
    sign, la = complex(sign), float(la)
    if (sign == 0 or not math.isfinite(la)) and not np.isfinite(a).all():
        return ScalarLogDet(math.nan, complex(math.nan, math.nan))
    if sign == 0:
        return ScalarLogDet(-math.inf, 1 + 0j)
    return ScalarLogDet(la, sign / abs(sign))


def scalar_sign_slacks(dd, tol=DEFAULT_TOLERANCES):
    if dd.log_magnitude == -math.inf:
        return 0.0, 0.0
    allowance = tol.nonneg_abs * math.exp(min(-dd.log_magnitude, 700.0))
    im, re = abs(dd.phase.imag) - allowance, -dd.phase.real - allowance
    if math.isnan(im) or math.isnan(re):
        return math.nan, math.nan
    return max(0.0, im), max(0.0, re)


def scalar_phase_angle(p, q) -> float:
    r = complex(p) * complex(q).conjugate()
    return abs(math.atan2(r.imag, r.real))


def _scalar_split(c, d):
    """(det(C + iD), det(C - iD))."""
    jd = 1j * d
    return scalar_log_det(c + jd), scalar_log_det(c - jd)


def _blocks(a, group):
    """C and D of a 2N x 2N matrix under the group's convention."""
    n = a.shape[0] // 2
    a11, a12, a21, a22 = a[:n, :n], a[:n, n:], a[n:, :n], a[n:, n:]
    if group is GroupKind.COMPLEX_SYMPLECTIC:
        return a11 + a22.conj(), a12 - a21.conj()
    return a11 + a22, a12 - a21


def scalar_certificate_residuals(a, group, tol=DEFAULT_TOLERANCES):
    """certify_symplectic's residuals of one member, or its membership
    residual alone if the gate rejects it."""
    res_mem = membership_residual(a, group)
    if not res_mem <= tol.membership:
        return {"membership": res_mem}
    real = group is GroupKind.REAL_SYMPLECTIC
    d = scalar_log_det(a)
    gram = (a if real else a.conj()).T @ a
    gram[np.diag_indices(len(a))] += 1.0
    lh = scalar_log_det(gram)
    c, dd = _blocks(a, group)
    ax = scalar_log_det(block_embed_pair(c, dd, conjugated=not real))
    val = d.value
    residuals = {
        "membership": res_mem,
        "detPhaseSign": min(abs(val - 1.0), abs(val + 1.0)),
        "gramPositive": max(0.0, -lh.log_magnitude),
        "gramReal": abs(lh.phase - 1.0),
        "factorIdentity": lh.rel_diff((d if real else d.conjugated()) * ax),
        "blockNonneg": max(scalar_sign_slacks(ax, tol)),
    }
    if real:
        d_plus, d_minus = _scalar_split(c, dd)
        residuals["splitIdentity"] = lh.rel_diff(d * d_plus.abs_squared())
        residuals["splitConjugate"] = d_minus.rel_diff(d_plus.conjugated())
    residuals["detOne"] = abs(val - 1.0)
    return residuals


def scalar_conj_phase(a, res_mem, tol=DEFAULT_TOLERANCES):
    """conj_symplectic_det's phase of one matrix, given its membership
    residual, or a MembershipError where it raises one."""
    if not res_mem <= tol.membership:
        return MembershipError("rejected by the membership gate")
    d_plus, d_minus = _scalar_split(*_blocks(a, GroupKind.CONJUGATE_SYMPLECTIC))
    q = d_plus * d_minus
    log_bound = (a.shape[0] // 2) * math.log(4.0)
    shortfall = -math.expm1(min(q.log_magnitude - log_bound, 0.0))
    return q.phase if shortfall <= tol.det_one else MembershipError(f"short by {shortfall}")


def scalar_trial(suite_id, n, seed, tol=DEFAULT_TOLERANCES):
    """The residuals of one trial of a suite at half-dim n, drawn alone and
    judged with the scalar arithmetic."""
    if suite_id == "form-identities":
        j = symplectic_form(n)
        eye = np.eye(2 * n)
        return {"formSquare": frobenius(j @ j + eye), "formSkew": frobenius(j.T + j),
                "formInverse": frobenius(j.T @ j - eye),
                "detOne": abs(scalar_log_det(j).value - 1.0)}
    if suite_id in ("real-theorem", "complex-theorem"):
        group = GroupKind.COMPLEX_SYMPLECTIC if "complex" in suite_id else GroupKind.REAL_SYMPLECTIC
        a = generate(GeneratorConfig(half_dim=n, target=group, seed=seed), tol=tol)
        return scalar_certificate_residuals(a, group, tol)
    if suite_id == "lemma":
        c, d, _ = loop_lemma_inputs(n, seed)
        return loop_lemma_trial(c, d, tol)
    if suite_id == "ineq-real":
        c, d = loop_rng(seed).standard_normal((2, n, n))
        dd = scalar_log_det(block_embed_pair(c, d))
        d_plus, d_minus = _scalar_split(c, d)
        im_slack, re_slack = scalar_sign_slacks(dd, tol)
        return {"imagSlack": im_slack, "realSlack": re_slack,
                "splitAgreement": dd.rel_diff(d_plus.abs_squared()),
                "splitConjugate": d_minus.rel_diff(d_plus.conjugated())}
    if suite_id == "conj-formula":
        target = GroupKind.CONJUGATE_SYMPLECTIC
        a = generate(GeneratorConfig(half_dim=n, target=target, seed=seed), tol=tol)
        res_mem = membership_residual(a, target)
        phase, oracle = scalar_conj_phase(a, res_mem, tol), scalar_log_det(a)
        return {"membership": res_mem,
                "detModulusOne": abs(math.expm1(oracle.log_magnitude)),
                "phaseAgreement": (math.inf if isinstance(phase, Exception)
                                   else scalar_phase_angle(phase, oracle.phase))}
    if suite_id == "generator-sanity":
        return loop_generator_sanity_trial(n, seed, tol)
    raise ValueError(f"unknown suite {suite_id!r}")
