"""Independent oracles for the test suite.

Everything here is deliberately naive and separate from the library code
paths it checks: a pure-Python LU with partial pivoting (the reference for
``sympdet.log_det``, which runs LAPACK through numpy), a cofactor-expansion
determinant, an inversion-counting permutation sign, ``np.block``
assemblies of the structured 2N x 2N matrices (the bitwise reference for the
library's in-place block fills), the two-GEMM membership residual (the
bitwise reference for the library's one-GEMM form), group sampling one
matrix and one factor at a time (the bitwise reference for the generators'
stacked sampling), and the lemma suite's draw and block-elimination check
one trial at a time (the bitwise reference for its stacked judge).
"""

import math
from dataclasses import dataclass

import numpy as np

from sympdet.generators import GenerationError
from sympdet.linalg import (LogDet, SingularMatrixError, as_square, frobenius, log_det,
                            random_gaussian, rng_from_seed)
from sympdet.symplectic import (DEFAULT_TOLERANCES, GroupKind, membership_residual,
                                sign_slacks, symplectic_form)


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


def _loop_phase_factor(theta, n_half):
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
        return _loop_phase_factor(float(rng.uniform(-math.pi, math.pi)), n)
    raise ValueError(f"unknown factor kind {name!r}")


def loop_generate(config, factors=None, tol=DEFAULT_TOLERANCES):
    rng = rng_from_seed(config.seed)
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
    rng = rng_from_seed(seed)
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
    block = log_det(block_embed_pair(c, d, conjugated=True))
    ee = e.conj() @ e
    ee[np.diag_indices(n)] += 1.0
    pair = log_det(ee)
    embed = log_det(block_embed_pair(np.eye(n, dtype=np.complex128), e, conjugated=True))
    rhs = log_det(c) * log_det(c.conj()) * embed
    return {
        "solve": frobenius(c @ e - d) / (frobenius(c) * frobenius(e) + frobenius(d) + 1e-300),
        "reduction": block.rel_diff(rhs),
        "commuting": embed.rel_diff(pair),
        "eeNonneg": max(sign_slacks(pair, tol)),
    }


def loop_lemma_trial(c, d, tol=DEFAULT_TOLERANCES):
    """The lemma suite's residuals for one pair: the embedding's sign slacks,
    and the reduction's residuals when C passes the condition gate."""
    try:
        well_conditioned = frobenius(c) * frobenius(np.linalg.inv(c)) <= tol.condition_gate
    except np.linalg.LinAlgError:
        well_conditioned = False
    im_slack, re_slack = sign_slacks(log_det(block_embed_pair(c, d, conjugated=True)), tol)
    return {"imagSlack": im_slack, "realSlack": re_slack,
            **(loop_reduction_residuals(c, d, tol) if well_conditioned else {})}
