"""Digests of everything a refactor of sympdet must keep bit for bit.

For the sympdet tree on PYTHONPATH, prints one ``digest name`` line (sha256)
per artifact:

- ``suite all --format json`` at each of ``SEEDS``: the bytes the command
  line prints, with the values of ``TIMING_KEYS`` masked.  Each seed runs
  twice in this process; the script exits non-zero if the two runs differ or
  the command fails;
- ``suite all --seed 0 --tol 1e-22 --trials 600 --format json``, whose
  membership bound is below rounding: its exit status and output, with
  failure records no default report has (gated-out theorem members, phases
  the conj-formula suite refused), across a boundary of the rounds trials
  are judged in;
- the members ``generate`` samples: each group at half-dims that take many
  factors a chunk (1, 2, 5, 16) and one (33), seeds 0-4;
- ``run_trial`` replays: every suite at the first three of its default
  half-dims, seeds 0-2, each trial's residuals and verdict (as repr);
- member files ``write_matrix`` writes, and the exit status, report and
  messages of ``certify`` in each mode and of ``formula`` on each, with the
  default tolerances and with ``--tol 1e-22`` (a membership bound below
  rounding).  The files are named by relative paths in a temporary
  directory, so reports name the same file in every tree;
- the exit status, stdout and stderr of each ``demos/*.py`` of the checkout
  this script is in, run in a fresh process on the same tree, with the
  values of ``TIMING_KEYS`` masked (in JSON and in the text report form).

A command run in this process gives two lines: its exit status and stdout,
then its stderr (named ``... stderr``), so a diff shows whether a change
moved a JSON report or only the human text beside it.  Two trees keep every
artifact when their outputs are equal, and a fresh run must give the same
output again:

    PYTHONPATH=src python tests/tree_digests.py > digests-new.txt
    PYTHONPATH=base/src python tests/tree_digests.py > digests-base.txt
    diff digests-base.txt digests-new.txt

The script uses only public names of sympdet.  pytest does not collect it.
"""

import contextlib
import hashlib
import io
import itertools
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import sympdet as sd
from sympdet import cli

# 4294967296 is a two-word master seed, and -1 one masked to 2**64 - 1
SEEDS = ("0", "7", "42", "4294967296", "-1")
TIMING_KEYS = ("elapsedSeconds",)  # report fields that differ from run to run
# a timing value, after its key in JSON ("key": value) or in a text report (key: value)
TIMING = re.compile(rf'\b({"|".join(TIMING_KEYS)})("?): [^\s,]+')
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def digest(text: str) -> str:
    """sha256 of rendered reports, with the values of their timing fields masked."""
    return hashlib.sha256(TIMING.sub(r"\1\2: <timing>", text).encode()).hexdigest()


def run(argv) -> tuple[int, list[tuple[str, str]]]:
    """The exit status of one command run in this process, and its digest
    lines: its exit status and stdout, then its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    name = " ".join(argv)
    return code, [(digest(f"exit {code}\n{out.getvalue()}"), name),
                  (digest(err.getvalue()), f"{name} stderr")]


def suite_reports():
    for seed in SEEDS:
        argv = ["suite", "all", "--seed", seed, "--format", "json"]
        (code, first), (_, second) = (run(argv) for _ in range(2))
        if code != 0:
            sys.exit(f"suite all --seed {seed} failed")
        if first != second:
            sys.exit(f"suite all --seed {seed}: a second run in one process differs")
        yield from first
    yield from run(["suite", "all", "--seed", "0", "--tol", "1e-22", "--trials", "600",
                    "--format", "json"])[1]


def members():
    for group, n in itertools.product(sd.GroupKind, (1, 2, 5, 16, 33)):
        h = hashlib.sha256()
        for seed in range(5):
            h.update(sd.generate(sd.GeneratorConfig(half_dim=n, target=group, seed=seed)).tobytes())
        yield h.hexdigest(), f"generate {group.value} N={n} seeds 0-4"


def replays():
    for sid in sd.SUITE_IDS:
        h = hashlib.sha256()
        for s, n in itertools.product(range(3), sd.default_suite_spec(sid).half_dims[:3]):
            r = sd.run_trial(sid, n, sd.split_seed(s, n))
            h.update(repr((list(r.residuals.items()), r.passed)).encode())
        yield h.hexdigest(), f"run_trial {sid} seeds 0-2"


def file_reports():
    """Writes its member files into the working directory."""
    for group, n in itertools.product(sd.GroupKind, (3, 8)):
        path = f"{group.value}-{n}.txt"
        sd.write_matrix(sd.generate(sd.GeneratorConfig(half_dim=n, target=group, seed=n)), path)
        with open(path, "rb") as f:
            yield hashlib.sha256(f.read()).hexdigest(), f"write_matrix {path}"
        for command in (*(["certify", path, "--mode", g.value] for g in sd.GroupKind),
                        ["formula", path]):
            for strict in ([], ["--tol", "1e-22"]):
                yield from run([*command, "--format", "json", *strict])[1]


def demos():
    env = {**os.environ, "PYTHONPATH": str(Path(sd.__file__).resolve().parents[1])}
    for script in DEMOS:
        proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                              text=True)
        yield (digest(f"exit {proc.returncode}\n{proc.stdout}--- stderr\n{proc.stderr}"),
               f"demos/{script.name}")


def main() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for line in itertools.chain(suite_reports(), members(), replays(), file_reports(),
                                        demos()):
                print(*line)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
