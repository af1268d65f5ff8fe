"""Command-line verification harness.

Subcommands:
  suite    run one or more property suites and report pass/fail
  certify  certify a matrix file as (conjugate) symplectic with determinant detail
  formula  evaluate the subblock determinant-phase formula for a matrix file

certify and formula share one path; formula is the conjugate mode reported
under the suite name "formula".  Exit status is 0 only when every requested
check passed; 1 on failed checks, non-membership, unreadable input, an
unwritable --out, or a run that needs more memory than it can allocate
(an ``error:`` line on stderr, as for the others); 2 on usage errors.

main builds its argument parser once per process, on first use, and reuses it
for every later call.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import asdict, replace

from ._version import __version__
from .matio import read_matrix
from .report import Report, emit_report
from .suites import SUITE_IDS, conj_formula_check, default_suite_spec, run_suite
from .symplectic import (
    DEFAULT_TOLERANCES,
    GroupKind,
    MembershipError,
    ToleranceConfig,
    certify_symplectic,
)

def _parse_half_dims(text: str) -> tuple[int, ...]:
    """Accept "8", "1:8", or "1,2,4,8,10" as half-dimension selections."""
    lo, colon, hi = text.partition(":")
    try:
        dims = tuple(range(int(lo), int(hi) + 1) if colon else (int(t) for t in text.split(",")))
    except ValueError:
        dims = ()
    if not dims or min(dims) < 1:
        raise argparse.ArgumentTypeError(
            f"bad half-dimension spec {text!r}; use N, LO:HI, or N1,N2,...")
    return dims


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as a usage error
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _nonnegative_float(text: str) -> ToleranceConfig:
    """The tolerances of --tol: the defaults, with membership the number >= 0 given."""
    value = float(text)
    if not value >= 0.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return replace(DEFAULT_TOLERANCES, membership=value)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sympdet",
        description="Verify symplectic determinant identities and evaluate the "
                    "conjugate-symplectic determinant phase formula.")
    parser.add_argument("--version", action="version", version=f"sympdet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=_nonnegative_float, default=DEFAULT_TOLERANCES,
                       help="membership residual tolerance, scaled by ||A||_F^2 "
                            f"(default {DEFAULT_TOLERANCES.membership:g})")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="report rendering (default text)")
        p.add_argument("--out", default=None, help="write the report to this path")

    p_suite = sub.add_parser("suite", help="run property suites")
    p_suite.add_argument("suites", nargs="+", choices=(*SUITE_IDS, "all"),
                         metavar="SUITE",
                         help=f"one or more of: {', '.join(SUITE_IDS)}, all")
    p_suite.add_argument("--n", type=_parse_half_dims, default=None,
                         help="half-dimensions, e.g. 8 or 1:8 or 1,2,4,8,10")
    p_suite.add_argument("--trials", type=_positive_int, default=None,
                         help="trial count (default depends on the suite)")
    p_suite.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common(p_suite)

    p_cert = sub.add_parser("certify", help="certify a matrix file")
    p_cert.add_argument("path", help="matrix file ('n kind' header, then rows)")
    p_cert.add_argument("--mode", choices=tuple(g.value for g in GroupKind), default="real",
                        help="group to certify against (default real)")
    common(p_cert)

    p_formula = sub.add_parser("formula",
                               help="determinant phase of a conjugate symplectic matrix file")
    p_formula.add_argument("path", help="matrix file ('n kind' header, then rows)")
    p_formula.set_defaults(mode=GroupKind.CONJUGATE_SYMPLECTIC.value)
    common(p_formula)
    return parser


def _emit(reports, args, human: str | None) -> bool:
    """Human detail to one stream, the schema report to --out or stdout.
    False, with the error on stderr, when --out cannot be written."""
    if human:
        stream = sys.stderr if (args.format == "json" and args.out is None) else sys.stdout
        print(human, file=stream)
    try:
        text = emit_report(reports, args.format, args.out)
    except OSError as e:
        print(f"error: cannot write report: {e}", file=sys.stderr)
        return False
    if args.out is not None:
        print(f"wrote {args.out}")
    elif args.format == "json" or human is None:
        print(text, end="")
    return True


def _cmd_suite(args) -> int:
    ids = list(SUITE_IDS) if "all" in args.suites else list(dict.fromkeys(args.suites))
    reports = []
    for sid in ids:
        spec = default_suite_spec(sid, seed=args.seed, trials=args.trials,
                                  half_dims=args.n, tolerances=args.tol)
        reports.append(run_suite(spec))
    if not _emit(reports[0] if len(reports) == 1 else reports, args, human=None):
        return 1
    if args.out is not None:
        for r in reports:
            print(f"{r.suite}: {r.passes}/{r.trials} passed")
    return 0 if all(r.all_passed for r in reports) else 1


def _run_check(a, mode: GroupKind, tol) -> tuple[dict, bool, str]:
    """(residuals, passed, human text) of the certificate, or for the
    conjugate group of the phase formula; raises as those checks do."""
    if mode is not GroupKind.CONJUGATE_SYMPLECTIC:
        cert = certify_symplectic(a, mode, tol)
        lines = [f"certificate: {cert.group.value} symplectic"]
        for chk in cert.narrative:
            mark = "pass" if chk.passed else "FAIL"
            lines.append(f"  [{mark}] {chk.label}")
            lines.append(f"         lhs={chk.lhs}  rhs={chk.rhs}  residual={chk.residual:.3e}")
        lines.append(f"verdict: {cert.verdict}")
        return cert.residuals, cert.verdict == "pass", "\n".join(lines)
    result, formula_phase, oracle_phase = conj_formula_check(a, tol)
    residuals = result.residuals
    return residuals, result.passed, "\n".join([
        "conjugate symplectic determinant phase",
        f"  subblock formula: {formula_phase.real:.12f}{formula_phase.imag:+.12f}j",
        f"  lu oracle:        {oracle_phase.real:.12f}{oracle_phase.imag:+.12f}j",
        f"  angular gap:      {residuals['phaseAgreement']:.3e}",
        f"  | |det| - 1 |:    {residuals['detModulusOne']:.3e}",
        f"verdict: {'pass' if result.passed else 'fail'}",
    ])


def _cmd_check(args) -> int:
    """certify and formula: read the matrix file, run the check for
    args.mode, map errors to messages, and report."""
    t0 = time.perf_counter()
    try:
        a = read_matrix(args.path)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        residuals, passed, human = _run_check(a, GroupKind(args.mode), args.tol)
    except MembershipError as e:
        print(f"rejected: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.command == "certify":
        suite = f"certify-{args.mode}"
        config = {"path": args.path, "mode": args.mode, "tolerances": asdict(args.tol)}
    else:
        suite = "formula"
        config = {"path": args.path, "tolerances": asdict(args.tol)}
    failures = [] if passed else [{"seed": 0, "halfDim": a.shape[0] // 2, "residuals": residuals}]
    written = _emit(Report(tool=f"sympdet {__version__}", suite=suite, config=config,
                           trials=1, passes=int(passed), failures=failures,
                           worst_residuals=residuals,
                           elapsed_seconds=time.perf_counter() - t0), args, human)
    return 0 if passed and written else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _cmd_suite(args) if args.command == "suite" else _cmd_check(args)
    except MemoryError as e:  # numpy's names the array it could not allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
