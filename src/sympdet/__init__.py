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
    log_det,
    phase_angle,
    rng_from_seed,
    split_seed,
)
from .matio import format_matrix, parse_matrix, read_matrix, write_matrix
from .symplectic import (
    BlockPair,
    Certificate,
    DEFAULT_TOLERANCES,
    GroupKind,
    IdentityCheck,
    MembershipError,
    ReductionProbe,
    ToleranceConfig,
    block_pair,
    certify_symplectic,
    conj_block_det,
    conj_block_reduction,
    conj_symplectic_det,
    embed_pair,
    half_dim,
    membership_residual,
    sign_slacks,
    symplectic_form,
    unitary_split_det,
)
from .generators import (
    GenerationError,
    GeneratorConfig,
    diag_block,
    elementary_factor,
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
    "LogDet", "SingularMatrixError", "log_det",
    "phase_angle", "rng_from_seed", "split_seed",
    # matio
    "format_matrix", "parse_matrix", "read_matrix", "write_matrix",
    # symplectic
    "BlockPair", "Certificate", "DEFAULT_TOLERANCES",
    "GroupKind", "IdentityCheck", "MembershipError",
    "ReductionProbe", "ToleranceConfig", "block_pair",
    "certify_symplectic", "conj_block_det", "conj_block_reduction",
    "conj_symplectic_det", "embed_pair", "half_dim",
    "membership_residual", "sign_slacks", "symplectic_form",
    "unitary_split_det",
    # generators
    "GenerationError", "GeneratorConfig", "diag_block",
    "elementary_factor", "generate", "phase_factor",
    "shear_lower", "shear_upper",
    # report + suites
    "Report", "emit_report", "render_json", "render_text",
    "SUITE_IDS", "SuiteSpec", "TrialResult", "conj_formula_check",
    "default_suite_spec", "run_suite", "run_trial",
]
