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

from . import generators, linalg, matio, report, suites, symplectic
from ._version import __version__
from .linalg import *
from .matio import *
from .symplectic import *
from .generators import *
from .report import *
from .suites import *

# A name is public when src/ reads it or a demo calls it as the handle of a
# step of the paper; run_trial, the replay entry point, is the one exception.
__all__ = ["__version__", *linalg.__all__, *matio.__all__, *symplectic.__all__,
           *generators.__all__, *report.__all__, *suites.__all__]
