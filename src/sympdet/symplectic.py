"""Symplectic structure: the standard skew form, the membership residual, the
residual bound table and its judge, block machinery, determinant
certificates, and the conjugate-symplectic determinant formula.

Each check has one core that measures a stack of matrices at once and
returns a dict of columns, one entry per matrix on the last axis (a
determinant as three rows, see :mod:`sympdet.linalg`); each norm is summed
as it is alone, so a matrix gets the same bits in any stack.  A public
function runs its family's residual function and the judge on the one entry
of its matrix, as Python floats, as the suites run them on a round's
columns.  Everything here is a pure function over immutable values, so
concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import (
    LogDet,
    _abs_squared,
    _any,
    _det_columns,
    _diagonals,
    _frobeniuses,
    _hypot,
    _log_det_at,
    _map,
    _phase_angles,
    _products,
    _rel_diffs,
    _square,
    _values,
    _where,
)

__all__ = ["BlockPair", "Certificate", "DEFAULT_TOLERANCES", "GroupKind", "IdentityCheck",
           "MembershipError", "ReductionProbe", "ToleranceConfig", "certify_symplectic",
           "conj_block_reduction", "conj_symplectic_det", "embed_pair", "half_dim",
           "membership_residual", "sign_slacks", "symplectic_form", "unitary_split_det"]


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

# The half-dim from which the membership residual and the sampler's product
# steps (generators._block_steps) work on blocks, not on full 2N x 2N
# products.  Here every block path beats its full product (a stack of one,
# one BLAS thread): each product step kind by 1.3x or more real and 1.6x
# complex, the residual by 1.3x real and 1.5x or more complex.  Below it the
# full products keep the bits of earlier versions, so every recorded failure
# seed there still replays, though the residual's blocks already gain from
# N = 48 (real) and 32 (complex), and the real block diagonal 1.1x at 48.
_BLOCK_PATHS_FROM = 64

_SQRT_MAX = math.sqrt(np.finfo(np.float64).max)  # the largest ||A||_F whose square is finite

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
    return _within(residuals, _bounds(family, tol))


def _within(residuals: dict, bounds: dict, present: dict | None = None):
    """Whether residuals are all within their bounds: a bool for one entry
    of Python floats, a bool column for a round's columns (with the presence
    mask of each column some trials never reach).  A NaN residual never is;
    a residual not reached, absent or masked off, passes."""
    ok = True
    for name, r in residuals.items():  # a loop: all() over a generator costs twice as much
        within = r <= bounds[name]
        if present and name in present:
            within = within | ~present[name]
        ok = ok & within
    return ok


def _bounds(family: str, tol: ToleranceConfig) -> dict:
    """Each residual name of the family mapped to its bound under tol."""
    return {k: getattr(tol, b) if isinstance(b, str) else b
            for k, b in RESIDUAL_BOUNDS[family].items()}


def half_dim(a) -> int:
    """N for a square 2N x 2N matrix; ValueError for any other shape."""
    n = _square(a).shape[0]
    if n % 2:
        raise ValueError(f"expected an even dimension, got {n}")
    return n // 2


def symplectic_form(n_half: int, dtype=np.float64) -> np.ndarray:
    """The 2N x 2N form [[0, I], [-I, 0]] of the given dtype (float64 or
    complex128)."""
    if n_half < 1:
        raise ValueError("half dimension must be >= 1")
    return _forms(np.zeros((1, 2 * n_half, 2 * n_half), dtype), 0)[0]


def _forms(out: np.ndarray, slots) -> np.ndarray:
    """The form written into the zeroed matrices ``slots`` (an index array or
    a slice) of a (k, 2N, 2N) stack, a block at a time (the generators fill
    the form factors of many members at once)."""
    n = out.shape[-1] // 2
    eye = np.eye(n, dtype=out.dtype)  # -eye has signed zeros, which are bits of J
    out[slots, :n, n:] = eye
    out[slots, n:, :n] = -eye
    return out


def membership_residual(a, group: GroupKind) -> float:
    """Scaled membership defect ||A^# J A - J||_F / (||J||_F ||A||_F^2).

    A^# is A^T for the real and complex groups and A^* for the conjugate
    group.  Gates compare the result against a ToleranceConfig field
    (membership, factor_residual, product_residual).  An all-zero matrix
    gives inf; a NaN or Inf entry gives nan, which fails every gate.

    Below half-dim N = 64 (_BLOCK_PATHS_FROM), one GEMM, and J is never
    formed: multiplying by J on the right swaps the two column blocks and
    negates one, A^# J = [-A^#[:, N:], A^#[:, :N]], so that product is filled
    exactly without BLAS (conjugating, for A^*, as it copies) and only
    (A^# J) A is multiplied.  Each entry of A^# J is a single +-1 product, so
    the fill equals the dense product up to the sign of a zero, which the
    norm squares away.  The fill goes into a fresh C-ordered array, the
    layout a GEMM result has: BLAS picks its kernel by operand layout, and an
    F-ordered left operand rounds some sums differently.  The association
    (A^# J) A is kept for the same reason; A^# (J A) sums in another order.
    Subtracting J touches only its 2N nonzero entries, in place.

    From N = 64 on, half the flops: with A1 and A2 the row halves of A,
    A^# J A = P - P^# for P = A1^# A2 = [[X, W], [V, Y]], one GEMM of inner
    dimension N.  So A^# J A is skew (skew-Hermitian for A^*) for every A,
    and with Z = W - V^#, ||A^# J A - J||_F^2 = ||X - X^#||_F^2 +
    ||Y - Y^#||_F^2 + 2 ||Z - I||_F^2 exactly; math.hypot combines the three
    norms without squaring them in float.  This rounds otherwise than the
    full product, so a residual from N = 64 on is not bitwise the one earlier
    versions gave; it agrees with it to within 2N eps in scaled units.
    Either way ||J||_F = sqrt(2N) exactly.
    """
    a = _square(a)
    if group is GroupKind.REAL_SYMPLECTIC and np.iscomplexobj(a):
        raise ValueError("real symplectic membership needs a real matrix")
    half_dim(a)
    with np.errstate(all="ignore"):  # entries near float's ends give inf or NaN, unwarned
        return float(_membership_residuals(a[None], group)[0])


def _membership_residuals(a: np.ndarray, group: GroupKind) -> np.ndarray:
    """membership_residual of each matrix of a (k, 2N, 2N) stack, as a
    column: one stacked GEMM (of A^# J and A below _BLOCK_PATHS_FROM, of the
    row halves from there on), then each matrix's norms from stacked dots.
    The defect is divided by ||A||_F twice where ||A||_F^2 would overflow."""
    k, m, _ = a.shape
    n = m // 2
    conjugate = group is GroupKind.CONJUGATE_SYMPLECTIC
    adjoint = np.conjugate if conjugate else np.positive
    if n < _BLOCK_PATHS_FROM:
        adj_j = np.empty(a.shape, a.dtype)  # C order, as adj @ j would be
        left, right = adj_j[:, :, :n], adj_j[:, :, n:]
        adjoint(a[:, n:, :].swapaxes(1, 2), out=left)  # A^#[:, N:], conjugated as it is copied
        np.negative(left, out=left)
        adjoint(a[:, :n, :].swapaxes(1, 2), out=right)  # A^#[:, :N]
        p = adj_j @ a
        r = p.reshape(k, m * m)  # a view: the GEMM result is C-ordered
        r[:, n:2 * n * n:m + 1] -= 1.0  # entries (i, N + i), where J is +1
        r[:, 2 * n * n::m + 1] += 1.0   # entries (N + i, i), where J is -1
        defects = _frobeniuses(p)
    else:
        top = a[:, :n, :]
        p = (top.conj() if conjugate else top).swapaxes(1, 2) @ a[:, n:, :]
        x, w, v, y = p[:, :n, :n], p[:, :n, n:], p[:, n:, :n], p[:, n:, n:]
        t = np.empty((k, n, n), a.dtype)
        norms = []
        for block, mirror in ((x, x), (y, y), (w, v)):  # X - X^#, Y - Y^#, W - V^#
            np.subtract(block, adjoint(mirror.swapaxes(1, 2), out=t), out=t)
            if block is w:
                _diagonals(t)[:] -= 1.0  # Z - I
            norms.append(_frobeniuses(t))
        defects = [math.hypot(fx, fy, fz, fz) for fx, fy, fz in zip(*norms)]
    return np.array([math.inf if s == 0.0 else f / math.sqrt(m) / s ** 2 if s <= _SQRT_MAX
                     else f / math.sqrt(m) / s / s  # ||A||_F^2 overflows, ||A||_F need not
                     for s, f in zip(_frobeniuses(a), defects)], np.float64)


# ---------------------------------------------------------------------------
# Block machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockPair:
    """The (C, D) block combination of A + J A J^{-1} (or its conjugated
    variant), tagged with the group convention that produced it."""

    c: np.ndarray
    d: np.ndarray
    group: GroupKind


def _pair(a: np.ndarray, group: GroupKind) -> BlockPair:
    """C and D from the subblocks of a 2N x 2N matrix, or of each matrix of a
    stack at once, per the group convention.

    Real/conjugate symplectic: C = A11 + A22, D = A12 - A21 (so that
    A + J A J^{-1} = [[C, D], [-D, C]]).  Complex symplectic: C = A11 +
    conj(A22), D = A12 - conj(A21) (so that A + conj(J A J^{-1}) =
    [[C, D], [-conj(D), conj(C)]]).
    """
    n = a.shape[-1] // 2
    a11, a12, a21, a22 = a[..., :n, :n], a[..., :n, n:], a[..., n:, :n], a[..., n:, n:]
    if group is GroupKind.COMPLEX_SYMPLECTIC:
        return BlockPair(c=a11 + a22.conj(), d=a12 - a21.conj(), group=group)
    return BlockPair(c=a11 + a22, d=a12 - a21, group=group)


def embed_pair(p: BlockPair) -> np.ndarray:
    """Reassemble the 2N x 2N matrix a block pair came from."""
    return _embedded(p)


def _embedded(p: BlockPair, out=None) -> np.ndarray:
    """embed_pair of a pair (or of each pair of two equal-shape stacks), in a
    fresh array of the blocks' numpy result type (the dtype concatenation
    gives) or in ``out``, a C-ordered array of that shape and type."""
    c, d = p.c, p.d
    if c.shape != d.shape:
        raise ValueError(f"block dimension mismatch: {c.shape}, {d.shape}")
    *k, r, s = c.shape
    if out is None:
        out = np.empty((*k, 2 * r, 2 * s), dtype=np.result_type(c, d))
    out[..., :r, :s] = c
    out[..., :r, s:] = d
    if p.group is GroupKind.COMPLEX_SYMPLECTIC:
        out[..., r:, :s] = -d.conj()
        out[..., r:, s:] = c.conj()
    else:
        out[..., r:, :s] = -d
        out[..., r:, s:] = c
    return out


def unitary_split_det(p: BlockPair) -> tuple[LogDet, LogDet]:
    """(det(C + iD), det(C - iD)) for a plain [[C, D], [-D, C]] pair.

    A unitary change of basis block-diagonalizes [[C, D], [-D, C]] into
    diag(C + iD, C - iD), so the two determinants multiply to the embedded
    pair's determinant.  Real input promotes to complex.
    """
    if p.group is GroupKind.COMPLEX_SYMPLECTIC:
        raise ValueError("the unitary split applies to unconjugated pairs only")
    with np.errstate(all="ignore"):  # a NaN or Inf entry gives NaN, unwarned
        d_plus, d_minus = _split_dets(p.c[None], p.d[None])
    return _log_det_at(d_plus, 0), _log_det_at(d_minus, 0)


def _split_dets(c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The determinant columns of C + iD and of C - iD for each pair of a
    (k, N, N) stack of C and of D, from one slogdet call."""
    k = len(c)
    split = np.empty((2, *c.shape), np.complex128)
    jd = np.multiply(1j, d, out=split[1])
    np.add(c, jd, out=split[0])
    np.subtract(c, jd, out=split[1])  # in place of iD, which it no longer needs
    dets = _det_columns(split.reshape(2 * k, *c.shape[1:]))
    return dets[:, :k], dets[:, k:]


# ---------------------------------------------------------------------------
# Columns of the stacked cores
# ---------------------------------------------------------------------------

def _placed(dets: np.ndarray | None, kept: np.ndarray) -> np.ndarray:
    """Determinant columns with an entry for each entry of the mask kept:
    dets (of the kept matrices, in order) where it holds, and the
    determinant 1 elsewhere (a matrix a gate held back from its LU gets a
    finite stand-in, which presence masks hide)."""
    if dets is not None and dets.shape[1] == len(kept):
        return dets
    out = np.zeros((3, len(kept)))
    out[1] = 1.0
    if dets is not None:
        out[:, kept] = dets
    return out


def _gated(a: np.ndarray, res_mem: np.ndarray, tol: ToleranceConfig) -> tuple:
    """The membership gate of a core: whether it admits each matrix of the
    stack a, whose residuals are res_mem, and the stack of those it admits."""
    kept = res_mem <= tol.membership  # NaN must not pass
    return kept, (a if np.count_nonzero(kept) == len(a) else a[kept])


def _entries(measured: dict, i: int) -> dict:
    """Entry i of each column a core measured, as Python scalars (a
    determinant as a triple): one matrix, for its public function."""
    return {name: column.T[i].tolist() for name, column in measured.items()}


def _admitted(entry: dict, what: str, tol: ToleranceConfig) -> None:
    """Raise the MembershipError of the membership gate if it rejected the
    matrix of the entry."""
    if not entry["kept"]:
        raise MembershipError(f"not {what}: scaled residual {entry['membership']:.3e} "
                              f"exceeds {tol.membership:.3e}")


def _sign_slacks(dets, tol: ToleranceConfig) -> tuple:
    """sign_slacks of each determinant, as (imag, real)."""
    lm, re, im = dets
    allowance = tol.nonneg_abs * _map(math.exp, _where(-lm > 700.0, 700.0, -lm))
    imag, real = abs(im) - allowance, -re - allowance
    nan, zero = (imag != imag) | (real != real), lm == -math.inf
    imag, real = _where(imag > 0.0, imag, 0.0), _where(real > 0.0, real, 0.0)  # max(0.0, x)
    if not _any(nan | zero):
        return imag, real
    # NaN in either makes both NaN, and a zero determinant has no slack
    return tuple(_where(zero, 0.0, _where(nan, math.nan, x)) for x in (imag, real))


def sign_slacks(dd: LogDet, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[float, float]:
    """(imag, real) violations of det >= 0, each max(0, violation).

    The violations are measured on the unit phase: |Im det| and -Re det must
    each stay under tol.nonneg * |det| + tol.nonneg_abs.  A NaN magnitude or
    phase makes both slacks NaN, so neither they nor their max pass a bound.
    A zero determinant has no violation.
    """
    imag, real = _sign_slacks(dd._entry(), tol)
    return float(imag), float(real)


def _max(x, y):
    """max(x, y) of each pair of entries, as Python takes it."""
    return _where(y > x, y, x)


def _off_one(dets):
    """|det - 1| of each determinant, as abs(LogDet.value - 1.0)."""
    vr, vi = _values(dets)
    return _hypot(vr - 1.0, vi - 0.0)


# ---------------------------------------------------------------------------
# Conjugate-paired block determinants
# ---------------------------------------------------------------------------

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
    """Check the block-elimination identities behind block_det >= 0, the
    determinant of [[C, D], [-conj(D), conj(C)]] for complex C, D (the complex
    image of a quaternionic matrix, so always real and nonnegative).

    Residuals recorded (all independent dense determinants):
      solve       relative defect of C @ E = D
      reduction   det(block) vs det(C) det(conj(C)) det([[I, E], [-conj(E), I]])
      commuting   det([[I, E], [-conj(E), I]]) vs det(conj(E) E + I)
      eeNonneg    sign slack of det(conj(E) E + I)
    """
    c = _square(c).astype(np.complex128, copy=False)
    d = _square(d).astype(np.complex128, copy=False)
    if c.shape != d.shape:
        raise ValueError(f"dimension mismatch: {c.shape[0]} vs {d.shape[0]}")
    with np.errstate(all="ignore"):  # entries near float's ends give inf or NaN, unwarned
        measured, e = _reductions(c[None], d[None], tol)
        block_det = _log_det_at(measured["block"], 0)
        if not measured["reduced"][0]:
            return ReductionProbe(None, block_det, None)
        residuals, present = _lemma_residuals(_entries(measured, 0), tol)
    return ReductionProbe(e[0], block_det, _log_det_at(measured["pair"], 0),
                          {name: residuals[name] for name in present})


def _reductions(c: np.ndarray, d: np.ndarray, tol: ToleranceConfig,
                gated: bool = False) -> tuple[dict, np.ndarray | None]:
    """What conj_block_reduction measures of each pair of (k, N, N) complex128
    stacks C and D, one LAPACK call or matrix product per step for the whole
    stack, and E = C^-1 D of the reduced pairs.  The columns: ``block`` (the
    block determinants), ``reduced``, ``det_c`` and ``norm_c`` of every
    pair, and ``det_cc``, ``embed``, ``pair`` and ``norms`` (||E||_F,
    ||D||_F, ||C E - D||_F) of the reduced ones.  A pair is reduced only if
    LAPACK finds C nonsingular (a slogdet sign of 0 is the zero pivot on
    which inv and solve raise for the whole stack) and, if ``gated``,
    ||C||_F ||C^-1||_F is within tol.condition_gate."""
    n = c.shape[-1]
    block = _det_columns(_embedded(BlockPair(c, d, GroupKind.COMPLEX_SYMPLECTIC)))
    slogdet_c = np.linalg.slogdet(c)
    measured = {"block": block, "det_c": _det_columns(c, slogdet_c),
                "norm_c": np.array(_frobeniuses(c))}
    reduced = slogdet_c[0] != 0
    if gated and reduced.any():
        cond = measured["norm_c"][reduced] * np.array(_frobeniuses(np.linalg.inv(c[reduced])))
        reduced[reduced] = cond <= tol.condition_gate
    measured["reduced"] = reduced
    e = None
    dets = dict.fromkeys(("det_cc", "embed", "pair", "norms"))
    if reduced.any():
        if not reduced.all():
            c, d = c[reduced], d[reduced]
        e = np.linalg.solve(c, d)
        ee = e.conj() @ e
        _diagonals(ee)[:] += 1.0  # + I, in the fresh product
        dets["pair"] = _det_columns(ee)
        eye = np.broadcast_to(np.eye(n, dtype=np.complex128), e.shape)
        dets["embed"] = _det_columns(_embedded(BlockPair(eye, e, GroupKind.COMPLEX_SYMPLECTIC)))
        dets["det_cc"] = _det_columns(c.conj())
        dets["norms"] = np.array([_frobeniuses(e), _frobeniuses(d), _frobeniuses(c @ e - d)])
    measured.update((name, _placed(v, reduced)) for name, v in dets.items())
    return measured, e


def _lemma_residuals(m: dict, tol: ToleranceConfig) -> tuple[dict, dict]:
    """The lemma family's residuals: each block determinant's sign slacks,
    and the reduction's residuals (conj_block_reduction's) of the reduced
    pairs."""
    imag, real = _sign_slacks(m["block"], tol)
    fe, fd, fr = m["norms"]
    columns = {
        "imagSlack": imag,
        "realSlack": real,
        "solve": fr / (m["norm_c"] * fe + fd + 1e-300),
        "reduction": _rel_diffs(m["block"],
                                _products(_products(m["det_c"], m["det_cc"]), m["embed"])),
        "commuting": _rel_diffs(m["embed"], m["pair"]),
        "eeNonneg": _max(*_sign_slacks(m["pair"], tol)),
    }
    return columns, dict.fromkeys(("solve", "reduction", "commuting", "eeNonneg"), m["reduced"])


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
    """Numerical transcript of the det = 1 argument for one matrix, or of the
    subblock phase formula for a conjugate symplectic one.

    ``narrative`` lists every identity in the order checked, with both sides
    rendered and the residual that was compared against its bound; it is
    rendered from the determinants each time it is read, not when the
    certificate is made.  The verdict is "pass" only if every check passed.
    """

    group: GroupKind
    det_a: LogDet
    lhs_det: LogDet | None  # det(A^T A + I) or det(A^* A + I); None for the conjugate group
    auxiliary_det: LogDet  # det of the embedded block pair, det(C + iD) det(C - iD) if conjugate
    residuals: dict
    verdict: str
    split_dets: tuple[LogDet, LogDet] | None  # (det(C + iD), det(C - iD)), not complex group
    tolerances: ToleranceConfig

    @property
    def narrative(self) -> tuple[IdentityCheck, ...]:
        det_a, lhs, aux, f = self.det_a, self.lhs_det, self.auxiliary_det, _fmt_logdet
        if self.group is GroupKind.CONJUGATE_SYMPLECTIC:
            family = "conj-formula"
            rows = [("phase of det(C + iD) * det(C - iD) = phase of det(A)",
                     f(LogDet(0.0, aux.phase)), f(LogDet(0.0, det_a.phase)), "phaseAgreement"),
                    ("|det(A)| = 1", f(LogDet(det_a.log_magnitude, 1 + 0j)), "1",
                     "detModulusOne")]
        else:
            family = "certificate"
            real = self.group is GroupKind.REAL_SYMPLECTIC
            gram = "det(A^T A + I)" if real else "det(A^* A + I)"
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
        # each check shows its first residual and passes when the judge passes all of its own
        bounds, res = _bounds(family, self.tolerances), self.residuals
        return tuple(IdentityCheck(label, lhs_text, rhs_text, res[names[0]],
                                   _within({k: res[k] for k in names if k in res}, bounds))
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


def certify_symplectic(a, group: GroupKind = GroupKind.REAL_SYMPLECTIC,
                       tol: ToleranceConfig = DEFAULT_TOLERANCES) -> Certificate:
    """Certify det(A) = 1 for a real or complex symplectic matrix, or the
    subblock phase formula for a conjugate symplectic one.

    Follows the Gram-matrix argument end to end: det(A) = +-1 from the form
    identity; det(A^T A + I) (resp. A^* A + I) exceeds one; that determinant
    factors through A times its J-conjugate, whose block pair embeds with a
    nonnegative determinant; hence det(A) is the positive sign.  Each step is
    recorded with its residual; the sign conclusion rests on the factorization
    identities, not on the positivity check alone.

    For the conjugate group the certificate compares the phase of the block
    pair's determinant det(C + iD) det(C - iD), conj_symplectic_det's, with
    that of LU's det(A), and checks |det(A)| = 1; R-kind input is accepted.

    Each check passes when its residuals are within their bounds in
    ``RESIDUAL_BOUNDS["certificate"]`` (``["conj-formula"]`` for the
    conjugate group); the verdict is "pass" when all are.  Raises
    MembershipError if A fails the group residual test (an all-zero A
    included) or as conj_symplectic_det does, ValueError if the group/dtype
    combination is invalid.
    """
    a = _square(a)
    conjugate = group is GroupKind.CONJUGATE_SYMPLECTIC
    if not conjugate and a.dtype != group.dtype:
        raise ValueError(f"{group.value} certification needs a "
                         f"{'R' if group is GroupKind.REAL_SYMPLECTIC else 'C'}-kind matrix")
    half_dim(a)
    family = "conj-formula" if conjugate else "certificate"
    with np.errstate(all="ignore"):  # entries near float's ends give inf or NaN, unwarned
        res_mem = _membership_residuals(a[None], group)
        if conjugate:
            entry = _entries(_conj_phases(a[None], res_mem, tol), 0)
            formula = _formula_phase(entry, tol)  # gated and given before A's LU
            entry["oracle"] = _det_columns(a[None])[:, 0].tolist()
            residuals = _conj_formula_residuals(entry, tol, formula)[0]
            dets = entry["oracle"], None, formula[0], entry["d_plus"], entry["d_minus"]
        else:
            entry = _entries(_certificates(a[None], res_mem, group, tol), 0)
            _admitted(entry, "symplectic", tol)
            residuals = _certificate_residuals(entry, tol)[0]  # an entry's residuals are floats
            dets = list(entry.values())[2:]
    det_a, lhs, aux, *split = (None if d is None else LogDet(d[0], complex(d[1], d[2]))
                               for d in dets)
    return Certificate(group=group, det_a=det_a, lhs_det=lhs, auxiliary_det=aux,
                       residuals=residuals,
                       verdict="pass" if within_bounds(family, residuals, tol) else "fail",
                       split_dets=tuple(split) or None, tolerances=tol)


def _certificates(a: np.ndarray, res_mem: np.ndarray, group: GroupKind,
                  tol: ToleranceConfig) -> dict:
    """What certify_symplectic measures of each matrix of a (k, 2N, 2N) stack
    of the group's dtype, given their membership residuals (for a caller
    that reports them too): ``membership``, ``kept`` (whether the membership
    gate admitted it) and the determinant columns det_a, lhs (of A^T A + I,
    or A^* A + I), aux (of the embedded block pair) and, for the real group,
    d_plus and d_minus (of the unitary split).  No LU is run for a rejected
    matrix."""
    kept, a = _gated(a, res_mem, tol)
    real = group is GroupKind.REAL_SYMPLECTIC
    dets = dict.fromkeys(("det_a", "lhs", "aux", "d_plus", "d_minus")[:5 if real else 3])
    if len(a):
        dets["det_a"] = _det_columns(a)
        gram = (a if real else a.conj()).swapaxes(1, 2) @ a  # A^T A (A^* A)
        _diagonals(gram)[:] += 1.0  # + I, in the fresh product
        dets["lhs"] = _det_columns(gram)
        pair = _pair(a, group)
        # The embeddings take the place of the Gram matrices, which are no
        # longer read: one stack fewer at once, and none allocated anew.
        dets["aux"] = _det_columns(_embedded(pair, gram))
        del gram  # freed before the unitary split allocates
        if real:
            dets["d_plus"], dets["d_minus"] = _split_dets(pair.c, pair.d)
    return {"membership": res_mem, "kept": kept,
            **{name: _placed(v, kept) for name, v in dets.items()}}


def _certificate_residuals(m: dict, tol: ToleranceConfig) -> tuple[dict, dict]:
    """The certificate family's residuals; a member the gate rejected
    reaches only its membership residual."""
    det_a, lhs, aux = m["det_a"], m["lhs"], m["aux"]
    real = "d_plus" in m
    vr, vi = _values(det_a)
    det_one, det_minus_one = _hypot(vr - 1.0, vi - 0.0), _hypot(vr + 1.0, vi + 0.0)
    lm, re, im = lhs
    adjoint = det_a if real else (det_a[0], det_a[1], -det_a[2])  # det(A^T), det(A^*)
    columns = {
        "membership": m["membership"],
        "detPhaseSign": _where(det_minus_one < det_one, det_minus_one, det_one),  # min()
        "gramPositive": _where(-lm <= 0.0, 0.0, -lm),  # max(0.0, -lm), but NaN wins
        "gramReal": _hypot(re - 1.0, im - 0.0),
        "factorIdentity": _rel_diffs(lhs, _products(adjoint, aux)),
        "blockNonneg": _max(*_sign_slacks(aux, tol)),
    }
    if real:
        d_plus, d_minus = m["d_plus"], m["d_minus"]
        columns["splitIdentity"] = _rel_diffs(lhs, _products(det_a, _abs_squared(d_plus)))
        columns["splitConjugate"] = _rel_diffs(d_minus, (d_plus[0], d_plus[1], -d_plus[2]))
    columns["detOne"] = det_one
    return columns, dict.fromkeys(list(columns)[1:], m["kept"])


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
    half_dim(a)
    with np.errstate(all="ignore"):  # entries near float's ends give inf or NaN, unwarned
        res_mem = _membership_residuals(a[None], GroupKind.CONJUGATE_SYMPLECTIC)
        entry = _entries(_conj_phases(a[None], res_mem, tol), 0)
        (_, re, im), _, _ = _formula_phase(entry, tol)
    return complex(re, im)


def _conj_phases(a: np.ndarray, res_mem: np.ndarray, tol: ToleranceConfig) -> dict:
    """What conj_symplectic_det measures of each matrix of a (k, 2N, 2N)
    stack, given their conjugate membership residuals (for a caller that
    reports them too and must not compute them twice): ``membership``,
    ``kept`` (whether the gate admitted it), ``log_bound`` (log 4^N) and the
    determinant columns d_plus and d_minus of its unitary split.  No LU is
    run for a rejected matrix."""
    kept, admitted = _gated(a, res_mem, tol)
    split = [None, None]
    if len(admitted):
        pair = _pair(admitted, GroupKind.CONJUGATE_SYMPLECTIC)
        split = _split_dets(pair.c, pair.d)
    d_plus, d_minus = (_placed(v, kept) for v in split)
    return {"membership": res_mem, "kept": kept, "d_plus": d_plus, "d_minus": d_minus,
            "log_bound": np.full(len(a), (a.shape[1] // 2) * math.log(4.0))}


def _formula_phases(m: dict, tol: ToleranceConfig) -> tuple:
    """The formula matrix's determinant det(C + iD) det(C - iD) of each
    matrix _conj_phases measured, as a determinant whose phase is the
    formula's, whether the formula gives that phase (it refuses a matrix the
    gate rejected, or whose formula matrix's |det| falls short of 4^N by
    more than tol.det_one), and that relative shortfall."""
    q = _products(m["d_plus"], m["d_minus"])
    # relative, as unitary members meet 4^N only up to rounding; the clamp
    # keeps expm1 from overflowing far above the bound; NaN fails
    gap = q[0] - m["log_bound"]
    shortfall = -_map(math.expm1, _where(0.0 < gap, 0.0, gap))
    return q, m["kept"] & (shortfall <= tol.det_one), shortfall


def _formula_phase(entry: dict, tol: ToleranceConfig) -> tuple:
    """_formula_phases of a matrix from the entry _conj_phases measured of
    it, or the MembershipError conj_symplectic_det raises where the formula
    gives no phase."""
    _admitted(entry, "conjugate symplectic", tol)
    formula = _formula_phases(entry, tol)
    if not formula[1]:
        raise MembershipError(
            f"not conjugate symplectic: formula |det| falls short of 4^N by "
            f"{formula[2]:.3e}, over {tol.det_one:.3e}")
    return formula


def _conj_formula_residuals(m: dict, tol: ToleranceConfig, formula: tuple | None = None
                            ) -> tuple[dict, dict]:
    """The conj-formula residuals, from the caller's _formula_phases if it has
    them; a phase the formula refused to give (a MembershipError) disagrees
    by inf."""
    (_, re, im), given, _ = formula or _formula_phases(m, tol)
    lm, *phase = m["oracle"]
    return {"membership": m["membership"],
            "detModulusOne": abs(_map(math.expm1, lm)),
            "phaseAgreement": _where(given, _phase_angles((re, im), phase), math.inf)}, {}
