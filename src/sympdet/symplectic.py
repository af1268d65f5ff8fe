"""Symplectic structure: the standard skew form, the membership residual, the
residual bound table, block machinery, determinant certificates, and the
conjugate-symplectic determinant formula.

A 2N x 2N matrix A is symplectic when A^T J A = J for the standard form
J = [[0, I], [-I, 0]], and conjugate symplectic when A^* J A = J.  Symplectic
matrices (real or complex) have determinant exactly one; conjugate symplectic
matrices have |det| = 1 with the phase determined by the four N x N subblocks.
This module turns those facts into checkable numerical certificates, with all
determinants evaluated by :func:`sympdet.linalg.log_det` (LAPACK via numpy).

Everything here is a pure function over immutable values; certificates are
built locally and returned by value, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import (
    LogDet,
    _square,
    frobenius,
    identity,
    kind_of,
    log_det,
)


class GroupKind(Enum):
    """Which bilinear-form identity a matrix is measured against."""

    REAL_SYMPLECTIC = "real"            # A^T J A = J, real entries
    COMPLEX_SYMPLECTIC = "complex"      # A^T J A = J, complex entries
    CONJUGATE_SYMPLECTIC = "conjugate"  # A^* J A = J


class MembershipError(ValueError):
    """Input failed the residual test for the requested matrix group."""


class FormulaInconclusiveError(ArithmeticError):
    """The subblock phase formula hit a numerically vanishing determinant.

    Distinct from :class:`MembershipError`: the input passed the group test,
    but the formula's denominator is too close to zero to trust the phase.
    For exact group members this cannot happen (the relevant determinant is
    provably nonzero); it guards rounding on borderline inputs.
    """


@dataclass(frozen=True)
class ToleranceConfig:
    """Residual and comparison thresholds shared by predicates, certificates,
    and suites.

    ``membership``, ``factor_residual`` and ``product_residual`` bound
    :func:`membership_residual`, which is already scaled by ||A||_F^2.
    Nonnegativity slacks are relative to |det| with an absolute floor
    ``nonneg_abs`` so exact zeros pass.  :data:`RESIDUAL_BOUNDS` says which
    field bounds each reported residual.
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
    formula_floor: float = math.log(1e-200)  # log|det| under which the phase
                                             # formula reports inconclusive


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


def symplectic_form(n_half: int, kind: str = "R") -> np.ndarray:
    """The 2N x 2N form [[0, I], [-I, 0]]."""
    return _forms(1, n_half, kind)[0]


def _forms(k: int, n_half: int, kind: str = "R") -> np.ndarray:
    """k copies of the form as one (k, 2N, 2N) stack, each block filled in
    place (the generators draw the form for many members at once)."""
    if n_half < 1:
        raise ValueError("half dimension must be >= 1")
    j = np.zeros((k, 2 * n_half, 2 * n_half), np.complex128 if kind == "C" else np.float64)
    eye = identity(n_half, kind)
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
    if group is GroupKind.REAL_SYMPLECTIC and kind_of(a) != "R":
        raise ValueError("real symplectic membership needs a real matrix")
    n = half_dim(a)
    scale = frobenius(a) ** 2
    if scale == 0.0:
        return math.inf
    adjoint = np.conjugate if group is GroupKind.CONJUGATE_SYMPLECTIC else np.positive
    adj_j = np.empty(a.shape, a.dtype)  # C order, as adj @ j would be
    left, right = adj_j[:, :n], adj_j[:, n:]
    adjoint(a[n:, :].T, out=left)  # A^#[:, N:], conjugated as it is copied
    np.negative(left, out=left)
    adjoint(a[:n, :].T, out=right)  # A^#[:, :N]
    r = (adj_j @ a).ravel()  # a view: the GEMM result is C-ordered
    r[n:2 * n * n:2 * n + 1] -= 1.0  # entries (i, N + i), where J is +1
    r[2 * n * n::2 * n + 1] += 1.0   # entries (N + i, i), where J is -1
    return frobenius(r) / math.sqrt(2 * n) / scale


# ---------------------------------------------------------------------------
# Block machinery
# ---------------------------------------------------------------------------

def _quadrants(tl, tr, bl, br, out=None) -> np.ndarray:
    """[[tl, tr], [bl, br]] for four equal-shape blocks, copied into one fresh
    array of their common numpy result type (the dtype concatenation gives),
    or into ``out``, a C-ordered array of that shape and type."""
    if not tl.shape == tr.shape == bl.shape == br.shape:
        raise ValueError(f"block dimension mismatch: {tl.shape}, {tr.shape}, "
                         f"{bl.shape}, {br.shape}")
    r, c = tl.shape
    if out is None:
        out = np.empty((2 * r, 2 * c), dtype=np.result_type(tl, tr, bl, br))
    out[:r, :c] = tl
    out[:r, c:] = tr
    out[r:, :c] = bl
    out[r:, c:] = br
    return out


def j_conjugate(a) -> np.ndarray:
    """J A J^{-1}, computed blockwise as [[A22, -A21], [-A12, A11]]."""
    a = _square(a)
    n = half_dim(a)
    return _quadrants(a[n:, n:], -a[n:, :n], -a[:n, n:], a[:n, :n])


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
    n = half_dim(a)
    a11, a12, a21, a22 = a[:n, :n], a[:n, n:], a[n:, :n], a[n:, n:]
    if group is GroupKind.COMPLEX_SYMPLECTIC:
        if kind_of(a) != "C":
            raise ValueError("the conjugated block pair needs a complex matrix")
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
    jd = 1j * p.d
    return log_det(p.c + jd), log_det(p.c - jd)


# ---------------------------------------------------------------------------
# Conjugate-paired block determinants
# ---------------------------------------------------------------------------

def conj_block_det(c, d) -> LogDet:
    """Determinant of [[C, D], [-conj(D), conj(C)]] for complex C, D.

    These embeddings are exactly the complex images of quaternionic matrices;
    their determinant is always real and nonnegative.
    """
    c = _square(c).astype(np.complex128, copy=False)
    d = _square(d).astype(np.complex128, copy=False)
    if c.shape != d.shape:
        raise ValueError(f"dimension mismatch: {c.shape[0]} vs {d.shape[0]}")
    return log_det(embed_pair(BlockPair(c, d, GroupKind.COMPLEX_SYMPLECTIC)))


@dataclass(frozen=True)
class ReductionProbe:
    """Outcome of reducing [[C, D], [-conj(D), conj(C)]] by block elimination.

    With E = C^{-1} D the embedded determinant factors through
    det(C) * det(conj(C)) * det([[I, E], [-conj(E), I]]), and the last factor
    collapses to det(conj(E) E + I), which is nonnegative.  ``e`` is absent
    and ``singular_c`` set when LAPACK finds C exactly singular.
    """

    c: np.ndarray
    d: np.ndarray
    e: np.ndarray | None
    block_det: LogDet
    pair_det: LogDet | None     # det(conj(E) E + I)
    embed_det: LogDet | None    # det([[I, E], [-conj(E), I]])
    residuals: dict = field(default_factory=dict)
    singular_c: bool = False


def conj_block_reduction(c, d, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ReductionProbe:
    """Check the block-elimination identities behind conj_block_det >= 0.

    Residuals recorded (all independent dense determinants):
      solve       relative defect of C @ E = D
      reduction   det(block) vs det(C) det(conj(C)) det([[I, E], [-conj(E), I]])
      commuting   det([[I, E], [-conj(E), I]]) vs det(conj(E) E + I)
      eeNonneg    sign slack of det(conj(E) E + I)
    """
    c = _square(c).astype(np.complex128)  # a copy: the probe keeps C and D
    d = _square(d).astype(np.complex128)
    if c.shape != d.shape:
        raise ValueError(f"dimension mismatch: {c.shape[0]} vs {d.shape[0]}")
    n = c.shape[0]
    block = conj_block_det(c, d)
    try:
        e = np.linalg.solve(c, d)
    except np.linalg.LinAlgError:
        return ReductionProbe(c=c, d=d, e=None, block_det=block,
                              pair_det=None, embed_det=None, singular_c=True)
    ee = e.conj() @ e
    ee[np.diag_indices(n)] += 1.0  # + I, in the fresh product
    pair = log_det(ee)
    embed = log_det(embed_pair(BlockPair(identity(n, "C"), e, GroupKind.COMPLEX_SYMPLECTIC)))
    rhs = log_det(c) * log_det(c.conj()) * embed
    residuals = {
        "solve": frobenius(c @ e - d) / (frobenius(c) * frobenius(e) + frobenius(d) + 1e-300),
        "reduction": block.rel_diff(rhs),
        "commuting": embed.rel_diff(pair),
        "eeNonneg": nonneg_slack(pair, tol),
    }
    return ReductionProbe(c=c, d=d, e=e, block_det=block,
                          pair_det=pair, embed_det=embed, residuals=residuals)


def sign_slacks(dd: LogDet, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[float, float]:
    """(imag, real) violations of det >= 0, each max(0, violation).

    The violations are measured on the unit phase: |Im det| and -Re det must
    each stay under tol.nonneg * |det| + tol.nonneg_abs.
    """
    if dd.log_magnitude == -math.inf:
        return 0.0, 0.0
    allowance = tol.nonneg_abs * math.exp(min(-dd.log_magnitude, 700.0))
    return (max(0.0, abs(dd.phase.imag) - allowance),
            max(0.0, -dd.phase.real - allowance))


def nonneg_slack(dd: LogDet, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """How far a determinant sits from the closed right half-axis: the larger
    of the two :func:`sign_slacks`.  Compare the result against tol.nonneg."""
    return max(sign_slacks(dd, tol))


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
    rendered and the residual that was compared against its bound.  The
    verdict is "pass" only if every check passed.
    """

    group: GroupKind
    det_a: LogDet
    lhs_det: LogDet        # det(A^T A + I) or det(A^* A + I)
    auxiliary_det: LogDet  # det of the embedded block pair
    residuals: dict
    verdict: str
    narrative: tuple[IdentityCheck, ...]


def _fmt_logdet(dd: LogDet) -> str:
    if dd.log_magnitude == -math.inf:
        return "0"
    if abs(dd.log_magnitude) < 36.0:
        v = dd.value
        if abs(v.imag) < 1e-13 * max(1.0, abs(v.real)):
            return f"{v.real:.12g}"
        return f"{v.real:.12g}{v.imag:+.12g}j"
    return f"exp({dd.log_magnitude:.9g})*({dd.phase.real:.9g}{dd.phase.imag:+.9g}j)"


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
    included), ValueError if the group/kind combination is invalid.
    """
    a = _square(a)
    if group is GroupKind.CONJUGATE_SYMPLECTIC:
        raise ValueError("certificates cover the determinant-one groups; "
                         "use conj_symplectic_det for the conjugate group")
    want_kind = "R" if group is GroupKind.REAL_SYMPLECTIC else "C"
    if kind_of(a) != want_kind:
        raise ValueError(f"{group.value} certification needs a {want_kind}-kind matrix")

    res_mem = membership_residual(a, group)
    if not res_mem <= tol.membership:  # a NaN residual must not pass
        raise MembershipError(
            f"not symplectic: scaled residual {res_mem:.3e} exceeds {tol.membership:.3e}")

    n2 = a.shape[0]
    det_a = log_det(a)
    if group is GroupKind.REAL_SYMPLECTIC:
        gram = a.T @ a
        adj_det = det_a                  # det(A^T) = det(A)
        gram_label = "det(A^T A + I)"
    else:
        gram = a.conj().T @ a
        adj_det = det_a.conjugated()     # det(A^*) = conj(det(A))
        gram_label = "det(A^* A + I)"
    gram[np.diag_indices(n2)] += 1.0     # + I, in the fresh product
    lhs = log_det(gram)
    pair = block_pair(a, group)
    # The embedding takes the place of the Gram matrix, which is no longer
    # read: one 2N x 2N array fewer at once, and none allocated anew.
    aux = log_det(_embedded(pair, gram))
    del gram  # freed before the unitary split allocates

    checks: list[IdentityCheck] = []
    residuals: dict = {"membership": res_mem}

    def check(label: str, lhs_text: str, rhs_text: str, **res: float) -> None:
        """Record one identity; its first residual is the one shown."""
        residuals.update(res)
        checks.append(IdentityCheck(label, lhs_text, rhs_text, next(iter(res.values())),
                                    within_bounds("certificate", res, tol)))

    val = det_a.value
    check("det(A) is +-1", _fmt_logdet(det_a), "+-1",
          detPhaseSign=min(abs(val - 1.0), abs(val + 1.0)))
    check(f"{gram_label} > 1", _fmt_logdet(lhs), "> 1",
          gramPositive=max(0.0, -lhs.log_magnitude), gramReal=abs(lhs.phase - 1.0))
    factor_rhs = adj_det * aux
    check(f"{gram_label} = det(A^adj) * det(block pair embedding)",
          _fmt_logdet(lhs), _fmt_logdet(factor_rhs), factorIdentity=lhs.rel_diff(factor_rhs))
    check("block pair determinant >= 0", _fmt_logdet(aux), ">= 0",
          blockNonneg=nonneg_slack(aux, tol))
    if group is GroupKind.REAL_SYMPLECTIC:
        d_plus, d_minus = unitary_split_det(pair)
        split_rhs = det_a * d_plus.abs_squared()
        check("det(A^T A + I) = det(A) * |det(C + iD)|^2",
              _fmt_logdet(lhs), _fmt_logdet(split_rhs), splitIdentity=lhs.rel_diff(split_rhs))
        check("det(C - iD) = conj(det(C + iD))",
              _fmt_logdet(d_minus), _fmt_logdet(d_plus.conjugated()),
              splitConjugate=d_minus.rel_diff(d_plus.conjugated()))
    check("det(A) = 1", _fmt_logdet(det_a), "1", detOne=abs(val - 1.0))

    verdict = "pass" if within_bounds("certificate", residuals, tol) else "fail"
    return Certificate(group=group, det_a=det_a, lhs_det=lhs, auxiliary_det=aux,
                       residuals=residuals, verdict=verdict, narrative=tuple(checks))


def conj_symplectic_det(a, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> complex:
    """det(A) of a conjugate symplectic matrix from its subblocks.

    With C = A11 + A22 and D = A12 - A21, the determinant equals the unit
    phase of det(C^2 + D^2 - i(CD - DC)).  Since
    C^2 + D^2 - i(CD - DC) = (C + iD)(C - iD), that determinant is the
    product of the two factors of :func:`unitary_split_det`, so no N x N
    product is formed.  Real symplectic inputs are accepted (they satisfy the
    conjugate identity too) and return 1.

    Raises MembershipError when A^* J A = J fails the residual test, and
    FormulaInconclusiveError when |det| of the formula matrix falls below
    the configured floor.
    """
    a = _square(a)
    return _gated_conj_det(a, membership_residual(a, GroupKind.CONJUGATE_SYMPLECTIC), tol)


def _gated_conj_det(a, res_mem: float, tol: ToleranceConfig) -> complex:
    """conj_symplectic_det given A's conjugate membership residual, for a
    caller that reports that residual too and must not compute it twice."""
    if not res_mem <= tol.membership:  # a NaN residual must not pass
        raise MembershipError(
            f"not conjugate symplectic: scaled residual {res_mem:.3e} "
            f"exceeds {tol.membership:.3e}")
    d_plus, d_minus = unitary_split_det(block_pair(a, GroupKind.CONJUGATE_SYMPLECTIC))
    dm = d_plus * d_minus
    if dm.log_magnitude < tol.formula_floor:
        raise FormulaInconclusiveError(
            f"formula determinant magnitude underflows the floor "
            f"(log|det| = {dm.log_magnitude:.3g})")
    return dm.phase
