"""Symplectic structure: the standard skew form, the membership residual, the
residual bound table, block machinery, determinant certificates, and the
conjugate-symplectic determinant formula.

A 2N x 2N matrix A is symplectic when A^T J A = J for the standard form
J = [[0, I], [-I, 0]], and conjugate symplectic when A^* J A = J.  Symplectic
matrices (real or complex) have determinant exactly one; conjugate symplectic
matrices have |det| = 1 with the phase determined by the four N x N subblocks.
This module turns those facts into checkable numerical certificates, with all
determinants evaluated by LAPACK's LU through numpy (:mod:`sympdet.linalg`).

The membership residual, the certificate, the phase formula and the block
reduction each have one core that judges a stack at once, one matrix product
or LAPACK call per step; the public functions are its stack of one.  numpy
treats each matrix of a stack as it would alone, and each norm is summed as
it is alone, so a matrix gets the same bits in any stack.  A core returns,
for each matrix, what its public function returns or the error it raises.

Everything here is a pure function over immutable values; certificates are
built locally and returned by value, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import LogDet, _frobeniuses, _log_dets, _square, log_det


class GroupKind(Enum):
    """Which bilinear-form identity a matrix is measured against."""

    REAL_SYMPLECTIC = "real"            # A^T J A = J, real entries
    COMPLEX_SYMPLECTIC = "complex"      # A^T J A = J, complex entries
    CONJUGATE_SYMPLECTIC = "conjugate"  # A^* J A = J

    @property
    def dtype(self) -> np.dtype:
        """The storage dtype of the group's matrices: float64 for the real
        group, complex128 for the other two."""
        return np.dtype(np.float64 if self is GroupKind.REAL_SYMPLECTIC else np.complex128)


class MembershipError(ValueError):
    """Input failed the residual test for the requested matrix group."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Residual and comparison thresholds shared by predicates, certificates,
    and suites.

    ``membership``, ``factor_residual`` and ``product_residual`` bound
    :func:`membership_residual`, which is already scaled by ||A||_F^2.
    Nonnegativity slacks are relative to |det| with an absolute floor
    ``nonneg_abs`` so exact zeros pass.  ``det_one`` also bounds the relative
    shortfall of the phase formula's |det| below 4^N, which rejects an input
    as not conjugate symplectic.  :data:`RESIDUAL_BOUNDS` says which field
    bounds each reported residual.
    """

    membership: float = 1e-8        # membership_residual bound for checked input
    identity_rel: float = 1e-9      # relative bound on determinant identities
    phase: float = 1e-8             # angular bound for unit-circle comparisons
    det_one: float = 1e-8           # |det(A) - 1| bound for certified matrices
    nonneg: float = 1e-9            # sign slack, scaled by |det|
    nonneg_abs: float = 1e-12       # absolute sign slack near det = 0
    ineq_real: float = 1e-10        # slack for the real paired-block inequality
    exact_residual: float = 1e-12   # bound for identities exact up to representation
    factor_residual: float = 1e-12  # membership bound for elementary factors
    product_residual: float = 1e-9  # membership bound for generated products
    condition_gate: float = 1e3     # Frobenius condition estimate beyond which
                                    # a block counts as near-singular


DEFAULT_TOLERANCES = ToleranceConfig()

# Each check family's residual names, mapped to the ToleranceConfig field that
# bounds them or to a fixed bound.  The real-theorem and complex-theorem
# suites report certificate residuals.
RESIDUAL_BOUNDS = {
    "certificate": {
        "membership": "membership",
        "detPhaseSign": "det_one",
        "gramPositive": 0.0,
        "gramReal": "phase",
        "factorIdentity": "identity_rel",
        "blockNonneg": "nonneg",
        "splitIdentity": "identity_rel",
        "splitConjugate": "identity_rel",
        "detOne": "det_one",
    },
    "form-identities": {
        "formSquare": "exact_residual",
        "formSkew": "exact_residual",
        "formInverse": "exact_residual",
        "detOne": "exact_residual",
    },
    "lemma": {
        "imagSlack": "nonneg",
        "realSlack": "nonneg",
        "solve": "identity_rel",
        "reduction": "identity_rel",
        "commuting": "identity_rel",
        "eeNonneg": "nonneg",
    },
    "ineq-real": {
        "imagSlack": "ineq_real",
        "realSlack": "ineq_real",
        "splitAgreement": "ineq_real",
        "splitConjugate": "identity_rel",
    },
    "conj-formula": {
        "membership": "membership",
        "detModulusOne": "det_one",
        "phaseAgreement": "phase",
    },
    "generator-sanity": {
        "factorResidual": "factor_residual",
        "productResidual": "product_residual",
        "detOne": "det_one",
        "detUnitModulus": "det_one",
        "determinism": 0.0,
    },
}


def within_bounds(family: str, residuals: dict,
                  tol: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True when each residual is <= its bound in RESIDUAL_BOUNDS[family]
    (so a NaN residual never passes)."""
    bounds = RESIDUAL_BOUNDS[family]
    return all(v <= (getattr(tol, bounds[k]) if isinstance(bounds[k], str) else bounds[k])
               for k, v in residuals.items())


def half_dim(a: np.ndarray) -> int:
    n = a.shape[0]
    if n % 2:
        raise ValueError(f"expected an even dimension, got {n}")
    return n // 2


def symplectic_form(n_half: int, dtype=np.float64) -> np.ndarray:
    """The 2N x 2N form [[0, I], [-I, 0]] of the given dtype (float64 or
    complex128)."""
    return _forms(1, n_half, dtype)[0]


def _forms(k: int, n_half: int, dtype) -> np.ndarray:
    """k copies of the form as one (k, 2N, 2N) stack, each block filled in
    place (the generators draw the form for many members at once)."""
    if n_half < 1:
        raise ValueError("half dimension must be >= 1")
    j = np.zeros((k, 2 * n_half, 2 * n_half), dtype)
    eye = np.eye(n_half, dtype=dtype)  # -eye has signed zeros, which are bits of J
    j[:, :n_half, n_half:] = eye
    j[:, n_half:, :n_half] = -eye
    return j


def membership_residual(a, group: GroupKind) -> float:
    """Scaled membership defect ||A^# J A - J||_F / (||J||_F ||A||_F^2).

    A^# is A^T for the real and complex groups and A^* for the conjugate
    group.  Gates compare the result against a ToleranceConfig field
    (membership, factor_residual, product_residual).  An all-zero matrix
    gives inf; a NaN or Inf entry gives nan, which fails every gate.

    One GEMM, and J is never formed: multiplying by J on the right swaps the
    two column blocks and negates one, A^# J = [-A^#[:, N:], A^#[:, :N]], so
    that product is filled exactly without BLAS (conjugating, for A^*, as it
    copies) and only (A^# J) A is multiplied.  Each entry of A^# J is a single
    +-1 product, so the fill equals the dense product up to the sign of a
    zero, which the norm squares away.  The fill goes into a fresh C-ordered
    array, the layout a GEMM result has: BLAS picks its kernel by operand
    layout, and an F-ordered left operand rounds some sums differently.  The
    association (A^# J) A is kept for the same reason; A^# (J A) sums in
    another order.  Subtracting J touches only its 2N nonzero entries, in
    place, and ||J||_F = sqrt(2N) exactly.
    """
    a = _square(a)
    if group is GroupKind.REAL_SYMPLECTIC and np.iscomplexobj(a):
        raise ValueError("real symplectic membership needs a real matrix")
    half_dim(a)
    return _membership_residuals(a[None], group)[0]


def _membership_residuals(a: np.ndarray, group: GroupKind) -> list[float]:
    """membership_residual of each matrix of a (k, 2N, 2N) stack: one stacked
    GEMM, then each matrix's norms from one stacked dot."""
    k, m, _ = a.shape
    n = m // 2
    adjoint = np.conjugate if group is GroupKind.CONJUGATE_SYMPLECTIC else np.positive
    adj_j = np.empty(a.shape, a.dtype)  # C order, as adj @ j would be
    left, right = adj_j[:, :, :n], adj_j[:, :, n:]
    adjoint(a[:, n:, :].swapaxes(1, 2), out=left)  # A^#[:, N:], conjugated as it is copied
    np.negative(left, out=left)
    adjoint(a[:, :n, :].swapaxes(1, 2), out=right)  # A^#[:, :N]
    p = adj_j @ a
    r = p.reshape(k, m * m)  # a view: the GEMM result is C-ordered
    r[:, n:2 * n * n:m + 1] -= 1.0  # entries (i, N + i), where J is +1
    r[:, 2 * n * n::m + 1] += 1.0   # entries (N + i, i), where J is -1
    scales = [f ** 2 for f in _frobeniuses(a)]
    return [math.inf if s == 0.0 else f / math.sqrt(m) / s
            for s, f in zip(scales, _frobeniuses(p))]


# ---------------------------------------------------------------------------
# Block machinery
# ---------------------------------------------------------------------------

def _quadrants(tl, tr, bl, br, out=None) -> np.ndarray:
    """[[tl, tr], [bl, br]] for four equal-shape blocks (or for each matrix
    of four equal-shape stacks), copied into one fresh array of their common
    numpy result type (the dtype concatenation gives), or into ``out``, a
    C-ordered array of that shape and type."""
    if not tl.shape == tr.shape == bl.shape == br.shape:
        raise ValueError(f"block dimension mismatch: {tl.shape}, {tr.shape}, "
                         f"{bl.shape}, {br.shape}")
    *k, r, c = tl.shape
    if out is None:
        out = np.empty((*k, 2 * r, 2 * c), dtype=np.result_type(tl, tr, bl, br))
    out[..., :r, :c] = tl
    out[..., :r, c:] = tr
    out[..., r:, :c] = bl
    out[..., r:, c:] = br
    return out


@dataclass(frozen=True)
class BlockPair:
    """The (C, D) block combination of A + J A J^{-1} (or its conjugated
    variant), tagged with the group convention that produced it."""

    c: np.ndarray
    d: np.ndarray
    group: GroupKind


def block_pair(a, group: GroupKind) -> BlockPair:
    """C and D from the subblocks of A, per the group convention.

    Real/conjugate symplectic: C = A11 + A22, D = A12 - A21 (so that
    A + J A J^{-1} = [[C, D], [-D, C]]).  Complex symplectic: C = A11 +
    conj(A22), D = A12 - conj(A21) (so that A + conj(J A J^{-1}) =
    [[C, D], [-conj(D), conj(C)]]).
    """
    a = _square(a)
    half_dim(a)
    if group is GroupKind.COMPLEX_SYMPLECTIC and not np.iscomplexobj(a):
        raise ValueError("the conjugated block pair needs a complex matrix")
    return _pair(a, group)


def _pair(a: np.ndarray, group: GroupKind) -> BlockPair:
    """block_pair of a matrix, or of each matrix of a stack at once."""
    n = a.shape[-1] // 2
    a11, a12, a21, a22 = a[..., :n, :n], a[..., :n, n:], a[..., n:, :n], a[..., n:, n:]
    if group is GroupKind.COMPLEX_SYMPLECTIC:
        return BlockPair(c=a11 + a22.conj(), d=a12 - a21.conj(), group=group)
    return BlockPair(c=a11 + a22, d=a12 - a21, group=group)


def embed_pair(p: BlockPair) -> np.ndarray:
    """Reassemble the 2N x 2N matrix a block pair came from."""
    return _embedded(p)


def _embedded(p: BlockPair, out=None) -> np.ndarray:
    """embed_pair, written into ``out`` when one is given."""
    if p.group is GroupKind.COMPLEX_SYMPLECTIC:
        return _quadrants(p.c, p.d, -p.d.conj(), p.c.conj(), out)
    return _quadrants(p.c, p.d, -p.d, p.c, out)


def unitary_split_det(p: BlockPair) -> tuple[LogDet, LogDet]:
    """(det(C + iD), det(C - iD)) for a plain [[C, D], [-D, C]] pair.

    A unitary change of basis block-diagonalizes [[C, D], [-D, C]] into
    diag(C + iD, C - iD), so the two determinants multiply to the embedded
    pair's determinant.  Real input promotes to complex.
    """
    if p.group is GroupKind.COMPLEX_SYMPLECTIC:
        raise ValueError("the unitary split applies to unconjugated pairs only")
    d_plus, d_minus = _split_dets(p.c[None], p.d[None])
    return d_plus[0], d_minus[0]


def _split_dets(c: np.ndarray, d: np.ndarray) -> tuple[list[LogDet], list[LogDet]]:
    """unitary_split_det of each pair of a (k, N, N) stack of C and of D."""
    jd = 1j * d
    return _log_dets(c + jd), _log_dets(c - jd)


# ---------------------------------------------------------------------------
# Conjugate-paired block determinants
# ---------------------------------------------------------------------------

def _conj_pair(c, d) -> BlockPair:
    """C and D as the complex128 blocks of one conjugated pair, checked to be
    square and of one size."""
    c = _square(c).astype(np.complex128, copy=False)
    d = _square(d).astype(np.complex128, copy=False)
    if c.shape != d.shape:
        raise ValueError(f"dimension mismatch: {c.shape[0]} vs {d.shape[0]}")
    return BlockPair(c, d, GroupKind.COMPLEX_SYMPLECTIC)


def conj_block_det(c, d) -> LogDet:
    """Determinant of [[C, D], [-conj(D), conj(C)]] for complex C, D.

    These embeddings are exactly the complex images of quaternionic matrices;
    their determinant is always real and nonnegative.
    """
    return log_det(_embedded(_conj_pair(c, d)))


@dataclass(frozen=True)
class ReductionProbe:
    """Outcome of reducing [[C, D], [-conj(D), conj(C)]] by block elimination.

    With E = C^{-1} D the embedded determinant factors through
    det(C) * det(conj(C)) * det([[I, E], [-conj(E), I]]), and the last factor
    collapses to det(conj(E) E + I), which is nonnegative.  ``e`` and
    ``pair_det`` are None, and ``residuals`` empty, when LAPACK finds C
    exactly singular.
    """

    e: np.ndarray | None
    block_det: LogDet
    pair_det: LogDet | None     # det(conj(E) E + I)
    residuals: dict = field(default_factory=dict)


def conj_block_reduction(c, d, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ReductionProbe:
    """Check the block-elimination identities behind conj_block_det >= 0.

    Residuals recorded (all independent dense determinants):
      solve       relative defect of C @ E = D
      reduction   det(block) vs det(C) det(conj(C)) det([[I, E], [-conj(E), I]])
      commuting   det([[I, E], [-conj(E), I]]) vs det(conj(E) E + I)
      eeNonneg    sign slack of det(conj(E) E + I)
    """
    p = _conj_pair(c, d)
    return _reductions(p.c[None], p.d[None], tol)[0]


def _reductions(c: np.ndarray, d: np.ndarray, tol: ToleranceConfig,
                gated: bool = False) -> list[ReductionProbe]:
    """conj_block_reduction of each pair of (k, N, N) complex128 stacks C and
    D, one LAPACK call or matrix product per step for the whole stack.  A
    pair is reduced only if LAPACK finds C nonsingular (a slogdet sign of 0
    is the zero pivot on which inv and solve raise for the whole stack) and,
    if ``gated``, ||C||_F ||C^-1||_F is within tol.condition_gate; any other
    pair's probe holds its block determinant alone."""
    k, n, _ = c.shape
    block = _log_dets(_embedded(BlockPair(c, d, GroupKind.COMPLEX_SYMPLECTIC)))
    out = [ReductionProbe(e=None, block_det=b, pair_det=None) for b in block]
    slogdet_c = np.linalg.slogdet(c)
    det_c = _log_dets(c, slogdet_c)
    norm_c = _frobeniuses(c)
    keep = np.flatnonzero(slogdet_c[0])
    if gated and len(keep):
        cond = zip(keep, _frobeniuses(np.linalg.inv(c[keep])))
        keep = [i for i, f in cond if norm_c[i] * f <= tol.condition_gate]
    if not len(keep):
        return out
    if len(keep) < k:
        c, d = c[keep], d[keep]
    e = np.linalg.solve(c, d)
    ee = e.conj() @ e
    ee.reshape(len(e), n * n)[:, ::n + 1] += 1.0  # + I, in the fresh C-ordered product
    pair = _log_dets(ee)
    eye = np.broadcast_to(np.eye(n, dtype=np.complex128), e.shape)
    embed = _log_dets(_embedded(BlockPair(eye, e, GroupKind.COMPLEX_SYMPLECTIC)))
    det_cc = _log_dets(c.conj())
    norms = zip(_frobeniuses(e), _frobeniuses(d), _frobeniuses(c @ e - d))
    for j, (i, ej, (fe, fd, fr)) in enumerate(zip(keep, e, norms)):
        rhs = det_c[i] * det_cc[j] * embed[j]
        out[i] = ReductionProbe(e=ej, block_det=block[i], pair_det=pair[j], residuals={
            "solve": fr / (norm_c[i] * fe + fd + 1e-300),
            "reduction": block[i].rel_diff(rhs),
            "commuting": embed[j].rel_diff(pair[j]),
            "eeNonneg": max(sign_slacks(pair[j], tol)),
        })
    return out


def sign_slacks(dd: LogDet, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[float, float]:
    """(imag, real) violations of det >= 0, each max(0, violation).

    The violations are measured on the unit phase: |Im det| and -Re det must
    each stay under tol.nonneg * |det| + tol.nonneg_abs.  A NaN magnitude or
    phase makes both slacks NaN, so neither they nor their max pass a bound.
    """
    if dd.log_magnitude == -math.inf:
        return 0.0, 0.0
    allowance = tol.nonneg_abs * math.exp(min(-dd.log_magnitude, 700.0))
    im, re = abs(dd.phase.imag) - allowance, -dd.phase.real - allowance
    if math.isnan(im) or math.isnan(re):  # max(0.0, nan) would be 0.0
        return math.nan, math.nan
    return max(0.0, im), max(0.0, re)


# ---------------------------------------------------------------------------
# Determinant certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    label: str
    lhs: str
    rhs: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class Certificate:
    """Numerical transcript of the det = 1 argument for one matrix.

    ``narrative`` lists every identity in the order checked, with both sides
    rendered and the residual that was compared against its bound; it is
    rendered from the determinants each time it is read, not when the
    certificate is made.  The verdict is "pass" only if every check passed.
    """

    group: GroupKind
    det_a: LogDet
    lhs_det: LogDet        # det(A^T A + I) or det(A^* A + I)
    auxiliary_det: LogDet  # det of the embedded block pair
    residuals: dict
    verdict: str
    split_dets: tuple[LogDet, LogDet] | None  # (det(C + iD), det(C - iD)), real group only
    tolerances: ToleranceConfig

    @property
    def narrative(self) -> tuple[IdentityCheck, ...]:
        real = self.group is GroupKind.REAL_SYMPLECTIC
        gram = "det(A^T A + I)" if real else "det(A^* A + I)"
        det_a, lhs, aux, f = self.det_a, self.lhs_det, self.auxiliary_det, _fmt_logdet
        adj_det = det_a if real else det_a.conjugated()  # det(A^T) or det(A^*)
        rows = [("det(A) is +-1", f(det_a), "+-1", "detPhaseSign"),
                (f"{gram} > 1", f(lhs), "> 1", "gramPositive", "gramReal"),
                (f"{gram} = det(A^adj) * det(block pair embedding)",
                 f(lhs), f(adj_det * aux), "factorIdentity"),
                ("block pair determinant >= 0", f(aux), ">= 0", "blockNonneg")]
        if self.split_dets is not None:
            d_plus, d_minus = self.split_dets
            rows += [("det(A^T A + I) = det(A) * |det(C + iD)|^2",
                      f(lhs), f(det_a * d_plus.abs_squared()), "splitIdentity"),
                     ("det(C - iD) = conj(det(C + iD))",
                      f(d_minus), f(d_plus.conjugated()), "splitConjugate")]
        rows.append(("det(A) = 1", f(det_a), "1", "detOne"))
        # each check shows its first residual and passes when all of its own do
        return tuple(IdentityCheck(label, lhs_text, rhs_text, self.residuals[names[0]],
                                   within_bounds("certificate",
                                                 {k: self.residuals[k] for k in names},
                                                 self.tolerances))
                     for label, lhs_text, rhs_text, *names in rows)


def _fmt_logdet(dd: LogDet) -> str:
    if dd.log_magnitude == -math.inf:
        return "0"
    if abs(dd.log_magnitude) < 36.0:
        v = dd.value
        if abs(v.imag) < 1e-13 * max(1.0, abs(v.real)):
            return f"{v.real:.12g}"
        return f"{v.real:.12g}{v.imag:+.12g}j"
    return f"exp({dd.log_magnitude:.9g})*({dd.phase.real:.9g}{dd.phase.imag:+.9g}j)"


def _one(result):
    """A core's result for a stack of one: raised if it is an error."""
    if isinstance(result, Exception):
        raise result
    return result


def _gate(a: np.ndarray, res_mem: list[float], tol: ToleranceConfig, group_name: str):
    """A core's membership gate: (results, kept indices, kept matrices), the
    results holding a MembershipError for each rejected matrix."""
    out: list = [None if r <= tol.membership else MembershipError(  # NaN must not pass
        f"not {group_name}: scaled residual {r:.3e} exceeds {tol.membership:.3e}")
        for r in res_mem]
    keep = [i for i, x in enumerate(out) if x is None]
    return out, keep, (a if len(keep) == len(a) else a[keep])


def certify_symplectic(a, group: GroupKind = GroupKind.REAL_SYMPLECTIC,
                       tol: ToleranceConfig = DEFAULT_TOLERANCES) -> Certificate:
    """Certify det(A) = 1 for a real or complex symplectic matrix.

    Follows the Gram-matrix argument end to end: det(A) = +-1 from the form
    identity; det(A^T A + I) (resp. A^* A + I) exceeds one; that determinant
    factors through A times its J-conjugate, whose block pair embeds with a
    nonnegative determinant; hence det(A) is the positive sign.  Each step is
    recorded with its residual; the sign conclusion rests on the factorization
    identities, not on the positivity check alone.

    Each check passes when its residuals are within their bounds in
    ``RESIDUAL_BOUNDS["certificate"]``; the verdict is "pass" when all are.
    Raises MembershipError if A fails the group residual test (an all-zero A
    included), ValueError if the group/dtype combination is invalid.
    """
    a = _square(a)
    if group is GroupKind.CONJUGATE_SYMPLECTIC:
        raise ValueError("certificates cover the determinant-one groups; "
                         "use conj_symplectic_det for the conjugate group")
    if a.dtype != group.dtype:
        raise ValueError(f"{group.value} certification needs a "
                         f"{'R' if group is GroupKind.REAL_SYMPLECTIC else 'C'}-kind matrix")
    half_dim(a)
    return _one(_certificates(a[None], group, tol)[0])


def _certificates(a: np.ndarray, group: GroupKind,
                  tol: ToleranceConfig) -> list[Certificate | MembershipError]:
    """certify_symplectic of each matrix of a (k, 2N, 2N) stack of the
    group's dtype: its Certificate, or the MembershipError it raises."""
    res_mem = _membership_residuals(a, group)
    out, keep, a = _gate(a, res_mem, tol, "symplectic")
    if not keep:
        return out
    real = group is GroupKind.REAL_SYMPLECTIC
    det_a = _log_dets(a)
    gram = (a if real else a.conj()).swapaxes(1, 2) @ a  # A^T A (A^* A)
    diag = np.arange(a.shape[1])
    gram[:, diag, diag] += 1.0  # + I, in the fresh product
    lhs = _log_dets(gram)
    pair = _pair(a, group)
    # The embeddings take the place of the Gram matrices, which are no longer
    # read: one stack fewer at once, and none allocated anew.
    aux = _log_dets(_embedded(pair, gram))
    del gram  # freed before the unitary split allocates
    splits = zip(*_split_dets(pair.c, pair.d)) if real else [None] * len(keep)

    for i, d, lh, ax, split in zip(keep, det_a, lhs, aux, splits):
        val = d.value
        residuals = {
            "membership": res_mem[i],
            "detPhaseSign": min(abs(val - 1.0), abs(val + 1.0)),
            "gramPositive": max(0.0, -lh.log_magnitude),
            "gramReal": abs(lh.phase - 1.0),
            "factorIdentity": lh.rel_diff((d if real else d.conjugated()) * ax),
            "blockNonneg": max(sign_slacks(ax, tol)),
        }
        if real:
            d_plus, d_minus = split
            residuals["splitIdentity"] = lh.rel_diff(d * d_plus.abs_squared())
            residuals["splitConjugate"] = d_minus.rel_diff(d_plus.conjugated())
        residuals["detOne"] = abs(val - 1.0)
        verdict = "pass" if within_bounds("certificate", residuals, tol) else "fail"
        out[i] = Certificate(group=group, det_a=d, lhs_det=lh, auxiliary_det=ax,
                             residuals=residuals, verdict=verdict, split_dets=split,
                             tolerances=tol)
    return out


def conj_symplectic_det(a, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> complex:
    """det(A) of a conjugate symplectic matrix from its subblocks.

    With C = A11 + A22 and D = A12 - A21, the determinant equals the unit
    phase of det(C^2 + D^2 - i(CD - DC)).  Since
    C^2 + D^2 - i(CD - DC) = (C + iD)(C - iD), that determinant is the
    product of the two factors of :func:`unitary_split_det`, so no N x N
    product is formed.  Real symplectic inputs are accepted (they satisfy the
    conjugate identity too) and return 1.

    Raises MembershipError when A^* J A = J fails the residual test, or when
    |det| of the formula matrix falls short of 4^N by more than tol.det_one
    (relative).  That |det| is det(A^* A + I), and a member's singular values
    pair as sigma, 1/sigma, each pair giving (1 + sigma^2)(1 + sigma^-2) >= 4,
    so no member falls short; a unitary member meets the bound with equality.
    """
    a = _square(a)
    res_mem = membership_residual(a, GroupKind.CONJUGATE_SYMPLECTIC)
    return _one(_conj_phases(a[None], [res_mem], tol)[0])


def _conj_phases(a: np.ndarray, res_mem: list[float], tol: ToleranceConfig
                 ) -> list[complex | MembershipError]:
    """conj_symplectic_det of each matrix of a (k, 2N, 2N) stack, given their
    conjugate membership residuals (for a caller that reports them too and
    must not compute them twice): the phase, or the error it raises."""
    out, keep, a = _gate(a, res_mem, tol, "conjugate symplectic")
    if not keep:  # no determinant for a rejected stack
        return out
    log_bound = (a.shape[1] // 2) * math.log(4.0)
    pair = _pair(a, GroupKind.CONJUGATE_SYMPLECTIC)
    for i, d_plus, d_minus in zip(keep, *_split_dets(pair.c, pair.d)):
        q = d_plus * d_minus
        # relative, as unitary members meet 4^N only up to rounding; the
        # clamp keeps expm1 from overflowing far above the bound; NaN fails
        shortfall = -math.expm1(min(q.log_magnitude - log_bound, 0.0))
        out[i] = q.phase if shortfall <= tol.det_one else MembershipError(
            f"not conjugate symplectic: formula |det| falls short of 4^N by "
            f"{shortfall:.3e}, over {tol.det_one:.3e}")
    return out
