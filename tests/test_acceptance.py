"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single pass/fail line (visible with pytest -s; the -v test
status carries the same verdict).  Seeds are fixed so the whole module is
deterministic; total runtime is a few seconds.
"""

import json
import math

import numpy as np

import sympdet as sd
from sympdet.linalg import frobenius, log_det, random_gaussian, rng_from_seed, split_seed
from sympdet.suites import SuiteSpec, _lemma_inputs, run_suite, run_trial
from sympdet.symplectic import DEFAULT_TOLERANCES, GroupKind, ToleranceConfig

from oracles import cofactor_det


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_form_identities():
    worst = 0.0
    for n in range(1, 9):
        j = sd.symplectic_form(n)
        eye = np.eye(2 * n)
        worst = max(worst,
                    frobenius(j @ j + eye),
                    frobenius(j.T + j),
                    abs(log_det(j).value - 1.0))
    _verdict("criterion 1 (form identities, N=1..8)", worst <= 1e-12,
             f"worst residual {worst:.3e} <= 1e-12")


def _theorem_criterion(name, suite_id):
    spec = SuiteSpec(suite_id, trials=200, half_dims=(1, 2, 4, 8, 10), seed=42)
    rep = run_suite(spec)
    w = rep.worst_residuals
    ok = (rep.passes == 200
          and w["detOne"] <= 1e-8
          and w["gramPositive"] == 0.0
          and w["factorIdentity"] <= 1e-9
          and w.get("splitIdentity", 0.0) <= 1e-9)
    _verdict(name, ok,
             f"{rep.passes}/200 certified, |det-1| worst {w['detOne']:.3e} <= 1e-8, "
             f"chain worst {max(w['factorIdentity'], w.get('splitIdentity', 0.0)):.3e} <= 1e-9")


def test_criterion_2_real_theorem():
    _theorem_criterion("criterion 2 (real symplectic determinant)", "real-theorem")


def test_criterion_3_complex_theorem():
    _theorem_criterion("criterion 3 (complex symplectic determinant)", "complex-theorem")


def test_criterion_4_lemma_suite():
    spec = SuiteSpec("lemma", trials=500, half_dims=tuple(range(1, 9)), seed=42)
    rep = run_suite(spec)
    w = rep.worst_residuals
    # confirm the deterministic seed schedule really covered both
    # near-singular classes and ran the well-conditioned reduction
    modes = set()
    reductions = 0
    for t in range(spec.trials):
        n = spec.half_dims[t % len(spec.half_dims)]
        child = split_seed(spec.seed, t)
        modes.update(_lemma_inputs(n, [child])[2])
        if "reduction" in run_trial("lemma", n, child).residuals:
            reductions += 1
    ok = (rep.passes == 500
          and modes == {0, 1, 2}
          and reductions > 100
          and w["imagSlack"] <= 1e-9 and w["realSlack"] <= 1e-9
          and w["reduction"] <= 1e-9 and w["commuting"] <= 1e-9
          and w["eeNonneg"] <= 1e-9)
    _verdict("criterion 4 (paired-block determinant nonnegativity)", ok,
             f"{rep.passes}/500, sign slack {max(w['imagSlack'], w['realSlack']):.3e} <= 1e-9, "
             f"reduction worst {max(w['reduction'], w['commuting'], w['eeNonneg']):.3e} <= 1e-9 "
             f"({reductions} reductions, near-singular modes covered)")


def test_criterion_5_real_pair_inequality():
    spec = SuiteSpec("ineq-real", trials=500, half_dims=tuple(range(1, 9)), seed=42)
    rep = run_suite(spec)
    w = rep.worst_residuals
    ok = (rep.passes == 500
          and w["imagSlack"] <= 1e-10 and w["realSlack"] <= 1e-10
          and w["splitAgreement"] <= 1e-10)
    _verdict("criterion 5 (real paired-block determinant >= 0)", ok,
             f"{rep.passes}/500, sign slack {max(w['imagSlack'], w['realSlack']):.3e} <= 1e-10, "
             f"|det(C+iD)|^2 agreement {w['splitAgreement']:.3e} <= 1e-10")


def test_criterion_6_conjugate_formula():
    spec = SuiteSpec("conj-formula", trials=200, half_dims=tuple(range(1, 17)), seed=42)
    rep = run_suite(spec)
    w = rep.worst_residuals
    # unit-circle coverage: 50 seeds whose factor draws include scalar phases
    away_from_one = 0
    for t in range(50):
        cfg = sd.GeneratorConfig(half_dim=3, target=GroupKind.CONJUGATE_SYMPLECTIC,
                                 seed=split_seed(7, t))
        a = sd.generate(cfg) @ sd.phase_factor(
            float(rng_from_seed(split_seed(8, t)).uniform(-math.pi, math.pi)), 3)
        if abs(log_det(a).value - 1.0) > 1e-3:
            away_from_one += 1
    ok = (rep.passes == 200
          and w["detModulusOne"] <= 1e-8
          and w["phaseAgreement"] <= 1e-8
          and away_from_one >= 45)
    _verdict("criterion 6 (conjugate symplectic phase formula)", ok,
             f"{rep.passes}/200, ||det|-1| worst {w['detModulusOne']:.3e} <= 1e-8, "
             f"angular gap worst {w['phaseAgreement']:.3e} <= 1e-8, "
             f"{away_from_one}/50 phase-factor seeds with |det-1| > 1e-3")


def test_criterion_7_oracle_integrity():
    rng = rng_from_seed(1234)
    worst_cof = 0.0
    for i in range(100):
        a = random_gaussian(rng, 4, np.float64 if i % 2 else np.complex128)
        expected = cofactor_det(a)
        worst_cof = max(worst_cof, abs(log_det(a).value - expected) / abs(expected))
    worst_mul = 0.0
    worst_tr = 0.0
    for i in range(100):
        dtype = np.float64 if i % 2 else np.complex128
        a = random_gaussian(rng, 6, dtype)
        b = random_gaussian(rng, 6, dtype)
        worst_mul = max(worst_mul, log_det(a @ b).rel_diff(log_det(a) * log_det(b)))
        worst_tr = max(worst_tr, log_det(a.T.copy()).rel_diff(log_det(a)))
    ok = worst_cof <= 1e-12 and worst_mul <= 1e-10 and worst_tr <= 1e-10
    _verdict("criterion 7 (LU determinant oracle integrity)", ok,
             f"cofactor 4x4 gap {worst_cof:.3e} <= 1e-12 (100 matrices), "
             f"multiplicativity {worst_mul:.3e} / transpose {worst_tr:.3e} <= 1e-10 (100 pairs)")


def test_criterion_8_reproducibility():
    # (a) two full runs of a suite are field-identical up to wall-clock
    spec = SuiteSpec("real-theorem", trials=40, half_dims=(1, 2, 4), seed=11)
    d1 = run_suite(spec).to_json_dict()
    d2 = run_suite(spec).to_json_dict()
    d1.pop("elapsedSeconds"), d2.pop("elapsedSeconds")
    deterministic = d1 == d2
    # (b) recorded failure seeds replay to identical residuals
    impossible = ToleranceConfig(identity_rel=0.0, det_one=0.0)
    failing = run_suite(SuiteSpec("real-theorem", trials=6, half_dims=(2,),
                                  seed=11, tolerances=impossible))
    replayed = all(
        run_trial("real-theorem", f["halfDim"], f["seed"], impossible).residuals
        == f["residuals"]
        for f in failing.failures)
    # (c) merging is by trial index: a reversed-order manual run agrees
    lemma = SuiteSpec("lemma", trials=24, half_dims=(1, 2, 3), seed=13)
    rep = run_suite(lemma)
    manual_passes = sum(
        run_trial("lemma", lemma.half_dims[t % 3], split_seed(13, t)).passed
        for t in reversed(range(24)))
    order_free = manual_passes == rep.passes
    ok = deterministic and failing.failures and replayed and order_free
    _verdict("criterion 8 (reproducibility)", bool(ok),
             f"suite rerun identical: {deterministic}; "
             f"{len(failing.failures)} failure seeds replayed exactly: {replayed}; "
             f"index-merged rerun matches: {order_free}")


def test_acceptance_reports_serialize(tmp_path):
    # the acceptance path users run from the CLI: one JSON artifact, all green
    rep = run_suite(SuiteSpec("form-identities", trials=8,
                              half_dims=tuple(range(1, 9)), seed=0))
    out = tmp_path / "acc.json"
    sd.emit_report(rep, "json", out)
    payload = json.loads(out.read_text())
    assert payload["passes"] == payload["trials"] == 8
