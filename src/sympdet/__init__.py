"""sympdet: numerical certificates for symplectic determinant identities.

Real and complex symplectic matrices (A^T J A = J) have determinant exactly
one; conjugate symplectic matrices (A^* J A = J) have unit-modulus
determinant whose phase is an explicit function of the four square subblocks.
This package verifies both facts numerically: LAPACK's LU (through numpy)
supplies overflow-safe log-determinants, block factorization identities are
replayed step by step into certificates, structured random generators supply
group members, and property suites aggregate everything into reproducible
reports (see :mod:`sympdet.cli` for the command-line harness).

Quick start::

    import sympdet as sd

    a = sd.generate(sd.GeneratorConfig(half_dim=4, seed=7))
    cert = sd.certify_symplectic(a)
    assert cert.verdict == "pass"          # det(a) = 1, with the full chain
    print(sd.log_det(a).value)             # 1.0 from LAPACK's LU
"""

from ._version import __version__
from .linalg import (
    LogDet,
    SingularMatrixError,
    as_square,
    frobenius,
    identity,
    kind_of,
    log_det,
    phase_angle,
    random_gaussian,
    rng_from_seed,
    split_seed,
    zeros,
)
from .matio import format_matrix, parse_matrix, read_matrix, write_matrix
from .symplectic import (
    BlockPair,
    BlockQuad,
    Certificate,
    DEFAULT_TOLERANCES,
    FormulaInconclusiveError,
    GroupKind,
    IdentityCheck,
    MembershipError,
    ReductionProbe,
    ToleranceConfig,
    assemble_blocks,
    block_pair,
    certify_symplectic,
    conj_block_det,
    conj_block_reduction,
    conj_symplectic_det,
    conj_symplectic_residual,
    embed_pair,
    half_dim,
    j_conjugate,
    membership_residual,
    nonneg_slack,
    passes_membership,
    sign_slacks,
    split_blocks,
    symplectic_form,
    symplectic_residual,
    unitary_split_det,
)
from .generators import (
    FACTOR_KINDS,
    GenerationError,
    GeneratorConfig,
    diag_block,
    elementary_factor,
    embed_orthogonal_pair,
    generate,
    phase_factor,
    shear_lower,
    shear_upper,
)
from .report import Report, emit_report, render_json, render_text
from .suites import (SUITE_IDS, SuiteSpec, TrialResult, conj_formula_check,
                     default_suite_spec, run_suite, run_trial)

__all__ = [
    "__version__",
    # linalg
    "LogDet", "SingularMatrixError", "as_square", "frobenius", "identity",
    "kind_of", "log_det", "phase_angle", "random_gaussian", "rng_from_seed",
    "split_seed", "zeros",
    # matio
    "format_matrix", "parse_matrix", "read_matrix", "write_matrix",
    # symplectic
    "BlockPair", "BlockQuad", "Certificate", "DEFAULT_TOLERANCES",
    "FormulaInconclusiveError", "GroupKind", "IdentityCheck", "MembershipError",
    "ReductionProbe", "ToleranceConfig", "assemble_blocks", "block_pair",
    "certify_symplectic", "conj_block_det", "conj_block_reduction",
    "conj_symplectic_det", "conj_symplectic_residual", "embed_pair", "half_dim",
    "j_conjugate", "membership_residual", "nonneg_slack", "passes_membership",
    "sign_slacks", "split_blocks", "symplectic_form", "symplectic_residual", "unitary_split_det",
    # generators
    "FACTOR_KINDS", "GenerationError", "GeneratorConfig", "diag_block",
    "elementary_factor", "embed_orthogonal_pair", "generate", "phase_factor",
    "shear_lower", "shear_upper",
    # report + suites
    "Report", "emit_report", "render_json", "render_text",
    "SUITE_IDS", "SuiteSpec", "TrialResult", "conj_formula_check",
    "default_suite_spec", "run_suite", "run_trial",
]
