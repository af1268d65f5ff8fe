"""The package namespace, and what importing and running it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import sympdet


def test_all_names_resolve_once():
    assert len(sympdet.__all__) == len(set(sympdet.__all__))
    missing = [name for name in sympdet.__all__ if not hasattr(sympdet, name)]
    assert missing == []


def test_cli_imports_public_names_only():
    # the command line is a client of the library's public interface
    tree = ast.parse((Path(sympdet.__file__).parent / "cli.py").read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


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
