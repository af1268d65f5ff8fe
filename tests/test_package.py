"""The package namespace, what importing and running it loads, and the
script that digests a tree's reports (tests/tree_digests.py)."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import sympdet
import tree_digests


def test_all_names_resolve_once():
    assert len(sympdet.__all__) == len(set(sympdet.__all__))
    missing = [name for name in sympdet.__all__ if not hasattr(sympdet, name)]
    assert missing == []


PUBLIC_NAMES = [
    "__version__",
    "LogDet", "log_det", "phase_angle", "rng_from_seed", "split_seed",
    "format_matrix", "parse_matrix", "read_matrix", "write_matrix",
    "BlockPair", "Certificate", "DEFAULT_TOLERANCES", "GroupKind", "IdentityCheck",
    "MembershipError", "ReductionProbe", "ToleranceConfig", "certify_symplectic",
    "conj_block_reduction", "conj_symplectic_det", "embed_pair", "half_dim",
    "membership_residual", "sign_slacks", "symplectic_form", "unitary_split_det",
    "GenerationError", "GeneratorConfig", "elementary_factor", "generate",
    "Report", "emit_report", "render_json", "render_text",
    "SUITE_IDS", "SuiteSpec", "TrialResult", "default_suite_spec", "run_suite", "run_trial",
]


def test_package_names_are_the_module_name_lists():
    # each public name is declared once, in its module's __all__, and bound
    # at that module's top level; the package exports those lists in order
    assert sympdet.__all__ == PUBLIC_NAMES
    for module in ("linalg", "matio", "symplectic", "generators", "report", "suites"):
        tree = ast.parse((Path(sympdet.__file__).parent / f"{module}.py").read_text())
        bound = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        declared = getattr(sympdet, module).__all__
        assert declared and set(declared) <= bound, (module, set(declared) - bound)


def _loaded_names(paths) -> set[str]:
    """Every name the files read: a bare name or an attribute (sd.generate)."""
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(Path(path).read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_public_name_is_used_by_the_library_or_a_demo():
    # a public name earns its place when src/ reads it or a demo calls it as
    # the handle of a step of the paper; run_trial is the one exception, as
    # the replay entry point of a failing trial's seed (README, tree_digests)
    package = Path(sympdet.__file__).parent
    demos = Path(__file__).resolve().parent.parent / "demos"
    loaded = _loaded_names([*package.glob("*.py"), *demos.glob("*.py")])
    unused = [name for name in sympdet.__all__ if name not in loaded]
    assert unused == ["run_trial"]


def test_cli_imports_public_names_only():
    # the command line is a client of the library's public interface
    tree = ast.parse((Path(sympdet.__file__).parent / "cli.py").read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def test_tree_digests_use_public_names_only():
    # the script compares trees through what every tree exports
    tree = ast.parse(Path(tree_digests.__file__).read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names += [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    private = [name for name in names
               if any(p.startswith("_") and not p.endswith("__") for p in name.split("."))]
    assert private == []


def test_tree_digest_reads_key_order_but_not_timing():
    spec = sympdet.default_suite_spec("form-identities", trials=1, half_dims=(1,))
    reports = [sympdet.run_suite(spec)] * 2  # the list suite all prints
    text = sympdet.render_json(reports)
    payload = json.loads(text)
    assert json.dumps(payload, indent=2) + "\n" == text  # rendered again byte for byte
    first = payload[0]
    keys = list(first["worstResiduals"])
    keys[0], keys[1] = keys[1], keys[0]
    swapped = dict(first, worstResiduals={k: first["worstResiduals"][k] for k in keys})
    retimed = dict(first, elapsedSeconds=first["elapsedSeconds"] + 1.0)
    digest = tree_digests.digest(text)
    assert tree_digests.digest(json.dumps([swapped, payload[1]], indent=2) + "\n") != digest
    assert tree_digests.digest(json.dumps([retimed, payload[1]], indent=2) + "\n") == digest


def test_tree_digest_masks_timing_in_text_reports():
    # demos print text reports, whose timing sits inside a line of counts
    spec = sympdet.default_suite_spec("form-identities", trials=1, half_dims=(1,))
    report = sympdet.run_suite(spec)
    digest = tree_digests.digest(sympdet.render_text(report))
    retimed = dataclasses.replace(report, elapsed_seconds=report.elapsed_seconds + 1.0)
    recounted = dataclasses.replace(report, passes=report.passes + 1)
    assert tree_digests.digest(sympdet.render_text(retimed)) == digest
    assert tree_digests.digest(sympdet.render_text(recounted)) != digest
    # and the script finds every demo of its own checkout
    demos = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
    assert demos and tree_digests.DEMOS == demos


_NO_MASKED_ARRAYS = """
import sys, tempfile
from pathlib import Path
import sympdet as sd
from sympdet.cli import main
for suite_id in sd.SUITE_IDS:
    sd.run_suite(sd.default_suite_spec(suite_id, trials=4))
with tempfile.TemporaryDirectory() as tmp:
    for group in sd.GroupKind:
        for n in (3, 40):
            a = sd.generate(sd.GeneratorConfig(half_dim=n, target=group, seed=n))
        path = str(Path(tmp, group.value + ".txt"))
        sd.write_matrix(a, path)
        assert main(["certify", path, "--mode", group.value, "--out", path + ".json"]) == 0
        if group is sd.GroupKind.CONJUGATE_SYMPLECTIC:
            assert main(["formula", path, "--format", "json", "--out", path + ".json"]) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_no_library_path_loads_masked_arrays():
    # numpy.ma is imported lazily by a few numpy functions (np.unique among
    # them on numpy 2.4); loading it adds about 1.7 MB to the resident set
    env = {**os.environ, "PYTHONPATH": str(Path(sympdet.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
