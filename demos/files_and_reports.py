"""
Matrix files, suites, and machine-readable reports
==================================================

Round-trips a matrix through the text format, runs two property suites, and
renders one report in both text and JSON.  The same flows are exposed on the
command line:

    sympdet suite real-theorem lemma --seed 42
    sympdet certify matrix.txt --mode real
    sympdet formula matrix.txt --format json --out report.json
"""

import json
import tempfile
from pathlib import Path

import numpy as np

import sympdet as sd

# the text format: "n kind" header, rows of entries, complex as re,im
a = sd.generate(sd.GeneratorConfig(half_dim=1, seed=3,
                                   target=sd.GroupKind.CONJUGATE_SYMPLECTIC))
with tempfile.TemporaryDirectory() as workdir:
    path = Path(workdir) / "member.txt"
    sd.write_matrix(a, path)
    print(path.read_text())
    assert np.array_equal(sd.read_matrix(path), a)   # exact round trip

# run two suites at reduced trial counts
for sid in ("form-identities", "conj-formula"):
    spec = sd.default_suite_spec(sid, seed=42, trials=20, half_dims=(1, 2, 3))
    report = sd.run_suite(spec)
    print(sd.render_text(report))

# JSON rendering carries the same numbers under a stable schema
spec = sd.default_suite_spec("ineq-real", seed=42, trials=10, half_dims=(2,))
report = sd.run_suite(spec)
payload = json.loads(sd.render_json(report))
print("JSON keys:", sorted(payload))
print("worst residuals:", payload["worstResiduals"])
