"""Suite runner, report schema/rendering, and the command-line harness."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import sympdet as sd
from sympdet import cli, generators, linalg, suites, symplectic
from sympdet.cli import main
from sympdet.report import Report, emit_report, render_json, render_text
from sympdet.suites import (SUITE_IDS, SuiteSpec, _SUITES, default_suite_spec, run_suite,
                            run_trial)
from sympdet.symplectic import (DEFAULT_TOLERANCES, RESIDUAL_BOUNDS, GroupKind,
                                MembershipError, ToleranceConfig, conj_symplectic_det,
                                membership_residual)

from oracles import (loop_generate, loop_generator_sanity_trial, loop_lemma_inputs,
                     loop_lemma_trial, loop_rng)

CONJ = GroupKind.CONJUGATE_SYMPLECTIC


def _small_spec(suite_id, seed=5, trials=6):
    return default_suite_spec(suite_id, seed=seed, trials=trials,
                              half_dims=(1, 2, 3))


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_every_suite_passes_small(suite_id):
    rep = run_suite(_small_spec(suite_id))
    assert rep.passes == rep.trials
    assert rep.failures == []
    assert rep.suite == suite_id
    assert rep.all_passed


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_every_trial_residual_has_a_table_bound(suite_id):
    # on a round of one trial, the row's residual function gives a column for
    # each of its family's names, in the family's order
    row = _SUITES[suite_id]
    bounds = RESIDUAL_BOUNDS[row.family]
    names = list(bounds)
    if suite_id == "complex-theorem":  # the unitary split is the real group's alone
        names = [k for k in names if k not in ("splitIdentity", "splitConjugate")]
    for n in row.half_dims:
        seed = sd.split_seed(3, n)
        columns, _ = suites._round(row, (n,), 0, [seed], [sd.rng_from_seed(seed)],
                                   DEFAULT_TOLERANCES)
        assert list(columns) == names, (suite_id, n)
        result = run_trial(suite_id, n, seed)
        assert set(result.residuals) <= set(bounds), (suite_id, n)
        assert result.passed


# a bound no residual meets, for each field that bounds a trial's residuals
# but not membership or generation
_FAIL_ALL = dataclasses.replace(DEFAULT_TOLERANCES, identity_rel=-1.0, det_one=-1.0, phase=-1.0,
                                nonneg=-1.0, ineq_real=-1.0, exact_residual=-1.0,
                                factor_residual=-1.0)


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_every_report_residual_is_a_plain_float(suite_id):
    # a numpy scalar's repr is np.float64(x), which a text report would print
    reports = [run_suite(default_suite_spec(suite_id)),
               run_suite(default_suite_spec(suite_id, trials=6, half_dims=(1, 2, 3),
                                            tolerances=_FAIL_ALL))]
    assert reports[1].failures
    values = [v for r in reports for v in r.worst_residuals.values()]
    values += [v for r in reports for f in r.failures for v in f["residuals"].values()]
    assert all(type(v) is float for v in values), {type(v) for v in values}


@pytest.mark.parametrize("n", [1, 3, 8])
def test_certificate_and_formula_residuals_are_plain_floats(n):
    for group in GroupKind:
        a = sd.generate(sd.GeneratorConfig(half_dim=n, target=group, seed=n))
        certs = [sd.certify_symplectic(a, group)]
        if group is GroupKind.REAL_SYMPLECTIC:  # a real member is conjugate symplectic too
            certs.append(sd.certify_symplectic(a, CONJ))
        values = [v for cert in certs
                  for v in (*cert.residuals.values(), *(c.residual for c in cert.narrative))]
        assert all(type(v) is float for v in values), (group, values)


def test_suite_defaults():
    # default trials sum to 1668, the trial count of `sympdet suite all`
    defaults = {
        "form-identities": (8, tuple(range(1, 9))),
        "real-theorem": (200, (1, 2, 4, 8, 10)),
        "complex-theorem": (200, (1, 2, 4, 8, 10)),
        "lemma": (500, tuple(range(1, 9))),
        "ineq-real": (500, tuple(range(1, 9))),
        "conj-formula": (200, tuple(range(1, 17))),
        "generator-sanity": (60, (1, 2, 3, 4, 6, 8)),
    }
    assert SUITE_IDS == tuple(defaults)
    for sid, (trials, half_dims) in defaults.items():
        spec = default_suite_spec(sid, seed=4)
        assert (spec.suite_id, spec.trials, spec.half_dims, spec.seed) == (sid, trials, half_dims, 4)
    assert sum(default_suite_spec(sid).trials for sid in SUITE_IDS) == 1668


def test_bound_table_names_tolerance_fields():
    fields = {f.name for f in dataclasses.fields(ToleranceConfig)}
    for family, bounds in RESIDUAL_BOUNDS.items():
        for name, bound in bounds.items():
            assert bound in fields if isinstance(bound, str) else bound == 0.0, (family, name)


def test_suite_spec_validation():
    with pytest.raises(ValueError, match="unknown suite"):
        default_suite_spec("no-such-suite")
    with pytest.raises(ValueError, match="trials"):
        SuiteSpec("lemma", trials=0, half_dims=(1,))
    with pytest.raises(ValueError, match="half_dims"):
        SuiteSpec("lemma", trials=1, half_dims=())
    with pytest.raises(ValueError, match="unknown suite"):
        run_trial("bogus", 1, 0)
    with pytest.raises(ValueError, match="unknown suite"):
        SuiteSpec("bogus", trials=1, half_dims=(1,))


def test_suite_spec_integer_fields_take_integers_only():
    # a numpy integer is the int it holds, so the report's JSON is the same
    # bytes; anything else names its field when the spec is made, where a
    # float trials or seed used to fail only once the suite ran
    spec = SuiteSpec("lemma", trials=np.int64(3), half_dims=(np.int32(1), 2), seed=np.uint64(4))
    assert (spec.trials, spec.half_dims, spec.seed) == (3, (1, 2), 4)
    assert all(type(v) is int for v in (spec.trials, *spec.half_dims, spec.seed))
    ref = run_suite(SuiteSpec("lemma", trials=3, half_dims=(1, 2), seed=4))
    assert _without_elapsed(render_json(run_suite(spec))) == _without_elapsed(render_json(ref))
    for field, bad in (("trials", 2.0), ("half_dims", (1, 2.0)), ("seed", 0.5), ("seed", "4")):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SuiteSpec("lemma", **{"trials": 1, "half_dims": (1,), field: bad})
    with pytest.raises(ValueError, match="half_dims must be integers"):
        SuiteSpec("lemma", trials=1, half_dims=2)
    for bad in (2.0, np.float64(2)):
        with pytest.raises(ValueError, match="n_half must be an integer"):
            run_trial("lemma", bad, 3)
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_trial("lemma", 2, 3.0)
    assert run_trial("lemma", np.int64(2), np.int64(3)) == run_trial("lemma", 2, 3)


@pytest.mark.parametrize("n_half", [0, -1])
@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_run_trial_rejects_a_bad_half_dim(monkeypatch, suite_id, n_half):
    # one ValueError, raised before the judge draws or cuts anything
    def judge(*args):
        raise AssertionError("the judge ran")

    monkeypatch.setitem(_SUITES, suite_id, _SUITES[suite_id]._replace(judge=judge))
    with pytest.raises(ValueError, match="half_dim must be >= 1"):
        run_trial(suite_id, n_half, 3)


def test_json_schema_field_names():
    rep = run_suite(_small_spec("form-identities"))
    d = rep.to_json_dict()
    assert list(d.keys()) == ["tool", "suite", "config", "trials", "passes",
                              "failures", "worstResiduals", "elapsedSeconds"]
    assert d["tool"].startswith("sympdet ")
    assert isinstance(d["trials"], int) and isinstance(d["passes"], int)
    assert isinstance(d["worstResiduals"], dict)
    assert isinstance(d["elapsedSeconds"], float)


def test_json_round_trip_field_equal():
    rep = run_suite(_small_spec("ineq-real"))
    parsed = json.loads(render_json(rep))
    again = Report.from_json_dict(parsed)
    assert again.to_json_dict() == rep.to_json_dict()


def test_json_reads_reports_with_retired_tolerances():
    # older reports carry tolerances this version no longer has
    d = run_suite(_small_spec("conj-formula")).to_json_dict()
    d["config"]["tolerances"]["formula_floor"] = math.log(1e-200)
    again = Report.from_json_dict(json.loads(json.dumps(d)))
    assert again.to_json_dict() == d
    assert "formula_floor=" in render_text(again)


def test_text_and_json_numeric_content_match():
    rep = run_suite(_small_spec("lemma"))
    text = render_text(rep)
    for name, value in rep.worst_residuals.items():
        assert f"{name}" in text
        assert repr(value) in text
    assert repr(rep.elapsed_seconds) in text
    assert f"trials: {rep.trials}" in text


# the group whose members each sampling suite draws and judges
SAMPLED_GROUPS = {"real-theorem": GroupKind.REAL_SYMPLECTIC,
                  "complex-theorem": GroupKind.COMPLEX_SYMPLECTIC, "conj-formula": CONJ}
SAMPLING_SUITES = tuple(SAMPLED_GROUPS)


def _bits(residuals):
    return {k: float(v).hex() for k, v in residuals.items()}


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_failures_carry_seed_and_reproduce(suite_id):
    # negative det_one, ineq_real, nonneg and exact_residual bounds fail
    # every trial without changing what it computes (sign slacks read
    # nonneg_abs only); run_trial, which judges a stack of one, must replay
    # each failure of the stacked run bit for bit
    impossible = ToleranceConfig(det_one=-1.0, ineq_real=-1.0, nonneg=-1.0,
                                 exact_residual=-1.0)
    spec = SuiteSpec(suite_id, trials=12, half_dims=(1, 2, 5), seed=9,
                     tolerances=impossible)
    rep = run_suite(spec)
    assert rep.passes == 0
    assert [f["seed"] for f in rep.failures] == [sd.split_seed(9, t) for t in range(12)]
    for f in rep.failures:
        assert set(f) == {"seed", "halfDim", "residuals"}
        replay = run_trial(suite_id, f["halfDim"], f["seed"], impossible)
        assert _bits(replay.residuals) == _bits(f["residuals"])
        assert not replay.passed


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_reports_do_not_depend_on_the_stack_size(monkeypatch, suite_id):
    # stacks a few matrices small split each half-dim into several stacks of
    # mixed sizes (and mixed conditioning, for lemma; mixed groups, for
    # generator-sanity); every trial keeps its bits
    spec = default_suite_spec(suite_id, seed=8, trials=36, half_dims=(1, 2, 3))
    whole = run_suite(spec).to_json_dict()
    monkeypatch.setattr(generators, "_STACK_BYTES", 256)
    sizes = set()
    row = _SUITES[suite_id]

    def judge(n, seeds, *args):
        sizes.add(len(seeds))
        return row.judge(n, seeds, *args)

    monkeypatch.setitem(_SUITES, suite_id, row._replace(judge=judge))
    split = run_suite(spec).to_json_dict()
    whole.pop("elapsedSeconds"), split.pop("elapsedSeconds")
    assert split == whole
    assert len(sizes) > 1  # the small budget did split


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_reports_do_not_depend_on_the_round_size(monkeypatch, suite_id):
    # rounds of 5 trials, not a multiple of the 3 half-dims, start each round
    # at another half-dim; failures keep their seeds and order
    impossible = ToleranceConfig(det_one=-1.0, ineq_real=-1.0, nonneg=-1.0,
                                 exact_residual=-1.0)
    for tol in (DEFAULT_TOLERANCES, impossible):
        spec = default_suite_spec(suite_id, seed=8, trials=17, half_dims=(1, 2, 3),
                                  tolerances=tol)
        whole = run_suite(spec).to_json_dict()
        with monkeypatch.context() as m:
            m.setattr(suites, "_ROUND", 5)
            split = run_suite(spec).to_json_dict()
        whole.pop("elapsedSeconds"), split.pop("elapsedSeconds")
        assert split == whole


def _items_bits(residuals):
    return list(_bits(residuals).items())  # in order: reports keep the residuals' order


def _judged(suite_id, n, seeds, tol=DEFAULT_TOLERANCES):
    """Each trial's residuals, in order, as a suite judges them: its judge
    measures the trials at half-dim n as stacks, and its family's residual
    function judges them as one round."""
    columns, present = suites._round(_SUITES[suite_id], (n,), 0, seeds,
                                     [sd.rng_from_seed(s) for s in seeds], tol)
    return [suites._residuals_of(columns, present, t) for t in range(len(seeds))]


def test_lemma_judge_matches_the_loop():
    # the stacked draw, condition gate and reduction give each trial the bits
    # (and the residual names, in order) it gets when drawn and judged alone,
    # over generic, near-singular and ill-conditioned C
    seen = set()
    for n in range(1, 9):
        seeds = [sd.split_seed(13, 100 * n + t) for t in range(30)]
        c, d, modes = suites._lemma_inputs(n, [sd.rng_from_seed(s) for s in seeds])
        judged = _judged("lemma", n, seeds)
        for i, seed in enumerate(seeds):
            ci, di, mode = loop_lemma_inputs(n, seed)
            assert (modes[i], c[i].tobytes(), d[i].tobytes()) == (mode, ci.tobytes(),
                                                                  di.tobytes()), (n, i)
            ref = loop_lemma_trial(ci, di)
            assert _items_bits(judged[i]) == _items_bits(ref), (n, i)
            seen.add((mode, "reduction" in ref))
    # generic C are reduced; near-singular ones too at N = 1 (C = eps), and
    # gated out at larger N
    assert seen >= {(0, True), (1, True), (1, False), (2, True), (2, False)}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # NaN pivots in slogdet
def test_lemma_judge_isolates_singular_and_nan_blocks(monkeypatch):
    # an exactly singular C (the stacked inv and solve would raise for the
    # whole stack) gets its sign slacks and no reduction, as alone; a NaN C
    # gets NaN slacks and fails; every other trial keeps its bits
    n, seeds = 4, [sd.split_seed(17, t) for t in range(8)]
    draw = suites._lemma_inputs
    clean = _judged("lemma", n, seeds)

    def inputs(n, rngs):
        c, d, modes = draw(n, rngs)
        c[2] = 0.0
        c[5, 1, 3] = math.nan
        return c, d, modes

    monkeypatch.setattr(suites, "_lemma_inputs", inputs)
    judged = _judged("lemma", n, seeds)
    c, d, _ = inputs(n, [sd.rng_from_seed(s) for s in seeds])
    assert _items_bits(judged[2]) == _items_bits(loop_lemma_trial(c[2], d[2]))
    assert set(judged[2]) == {"imagSlack", "realSlack"}
    assert symplectic.within_bounds("lemma", judged[2])
    assert math.isnan(judged[5]["imagSlack"]) and math.isnan(judged[5]["realSlack"])
    assert not symplectic.within_bounds("lemma", judged[5])
    for i in (0, 1, 3, 4, 6, 7):
        assert _items_bits(judged[i]) == _items_bits(clean[i]), i
    assert any("reduction" in judged[i] for i in (0, 1, 3, 4, 6, 7))


@pytest.mark.parametrize("suite_id", SAMPLING_SUITES)
def test_suite_members_match_the_loop(monkeypatch, suite_id):
    # the members a suite samples and judges as stacks are the one-matrix
    # loop's bits; each half-dim's stacks hold its trials in order
    members = {}

    def capture(config, *args, **kwargs):
        stack, res_mem = generators._sample(config, *args, **kwargs)
        members.setdefault(config.half_dim, []).extend(np.array(a) for a in stack)
        return stack, res_mem

    monkeypatch.setattr(suites, "_sample", capture)
    dims = (*range(1, 17), 32, 50)
    spec = default_suite_spec(suite_id, seed=6, trials=3 * len(dims), half_dims=dims)
    assert run_suite(spec).all_passed
    assert {n: len(m) for n, m in members.items()} == {n: 3 for n in dims}
    for t in range(spec.trials):
        n = dims[t % len(dims)]
        a = members[n][t // len(dims)]
        ref = loop_generate(sd.GeneratorConfig(half_dim=n, target=SAMPLED_GROUPS[suite_id],
                                               seed=sd.split_seed(6, t)))
        assert a.dtype == ref.dtype and a.tobytes() == ref.tobytes(), t


@pytest.mark.parametrize("suite_id", ["real-theorem", "complex-theorem"])
def test_theorem_trials_report_their_certificates_residuals(monkeypatch, suite_id):
    # every trial of a default run: the residuals its round's columns give
    # it, with no Certificate built, are by repr those of certify_symplectic
    # on the member it sampled
    group, row = SAMPLED_GROUPS[suite_id], _SUITES[suite_id]
    members, rounds = {}, []

    def sample(config, *args, **kwargs):
        stack, res_mem = generators._sample(config, *args, **kwargs)
        members.setdefault(config.half_dim, []).extend(np.array(a) for a in stack)
        return stack, res_mem

    def residuals(*args):
        rounds.append(symplectic._certificate_residuals(*args))
        return rounds[-1]

    monkeypatch.setattr(suites, "_sample", sample)
    monkeypatch.setitem(_SUITES, suite_id, row._replace(residuals=residuals))
    report = run_suite(default_suite_spec(suite_id, seed=3))
    assert report.all_passed and len(rounds) == 1 and report.trials == 200
    columns, present = rounds[0]
    for t in range(report.trials):
        a = members[row.half_dims[t % 5]][t // 5]
        got = suites._residuals_of(columns, present, t)
        assert repr(got) == repr(sd.certify_symplectic(a, group).residuals), t


def test_suite_memory_does_not_grow_with_trials():
    # members are held a stack (about 1 MiB) at a time, whatever the count
    def peak(trials):
        spec = default_suite_spec("real-theorem", seed=1, trials=trials, half_dims=(40,))
        tracemalloc.start()
        try:
            run_suite(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(40), peak(100)  # 4 and 10 stacks of 10 members
    assert large < 1.25 * small


def test_suite_memory_does_not_grow_with_trials_when_chunks_span_steps(monkeypatch):
    # stacks of 16 members (a round each) at 64 KiB build their 12 product
    # steps 4 at a time; memory still holds one stack and its chunk
    monkeypatch.setattr(generators, "_STACK_BYTES", 64 << 10)
    monkeypatch.setattr(suites, "_ROUND", 16)
    seen = []

    def factors(config, rngs, codes):
        seen.append(codes.shape)
        return fill(config, rngs, codes)

    fill = generators._factors
    monkeypatch.setattr(generators, "_factors", factors)

    def peak(trials):
        spec = default_suite_spec("conj-formula", seed=1, trials=trials, half_dims=(4,))
        tracemalloc.start()
        try:
            run_suite(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(16), peak(64)  # 1 and 4 stacks of 16 members
    assert set(seen) == {(16, 4)}
    assert large < 1.25 * small


@pytest.mark.parametrize("suite_id", SAMPLING_SUITES)
def test_default_suite_memory_stays_within_two_stack_budgets(suite_id):
    # a stack is built beside at most one budget of its factors, so a default
    # suite peaks below two budgets (chunks of all 12 steps reach 4.2 MiB)
    tracemalloc.start()
    try:
        run_suite(default_suite_spec(suite_id, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * generators._STACK_BYTES


def test_suite_rerun_is_identical():
    a = run_suite(_small_spec("conj-formula"))
    b = run_suite(_small_spec("conj-formula"))
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("elapsedSeconds"), db.pop("elapsedSeconds")
    assert da == db


def test_trial_merge_is_by_index_not_by_execution_order():
    # running trials individually (any order) rebuilds the suite's counters
    spec = _small_spec("lemma", trials=9)
    rep = run_suite(spec)
    residuals = {}
    for t in reversed(range(spec.trials)):
        n = spec.half_dims[t % len(spec.half_dims)]
        child = sd.split_seed(spec.seed, t)
        residuals[t] = run_trial("lemma", n, child, spec.tolerances)
    assert sum(r.passed for r in residuals.values()) == rep.passes
    worst = {}
    for r in residuals.values():
        for k, v in r.residuals.items():
            worst[k] = max(worst.get(k, 0.0), v)
    assert worst == rep.worst_residuals


@pytest.mark.parametrize("nan_at", [0, 1, 2])
def test_nan_residual_wins_worst_residuals(monkeypatch, nan_at):
    # max(0.0, nan) is 0.0, so a plain max merge would hide the NaN
    row = _SUITES["ineq-real"]

    def patched(measured, tol):
        columns, present = row.residuals(measured, tol)
        columns["splitAgreement"] = np.full(len(columns["splitAgreement"]), 1e-30)
        columns["splitAgreement"][nan_at] = math.nan
        return columns, present

    monkeypatch.setitem(_SUITES, "ineq-real", row._replace(residuals=patched))
    spec = _small_spec("ineq-real", trials=3)
    rep = run_suite(spec)
    assert [f["seed"] for f in rep.failures] == [sd.split_seed(spec.seed, nan_at)]
    assert math.isnan(rep.worst_residuals["splitAgreement"])
    assert not rep.all_passed


@pytest.mark.parametrize("reached", [True, False])
def test_one_judge_fails_nan_and_passes_unreached(monkeypatch, reached):
    # a NaN residual fails and one never reached passes, alike for one entry
    # (within_bounds, a certificate's narrative row) and for a round (run_trial)
    res = {"gramPositive": 0.0, "gramReal": math.nan}
    if not reached:
        del res["gramReal"]
    assert symplectic.within_bounds("certificate", res) is not reached
    cert = sd.certify_symplectic(sd.generate(sd.GeneratorConfig(half_dim=2, seed=1)))
    residuals = {k: v for k, v in cert.residuals.items() if k != "gramReal"}
    if reached:
        residuals["gramReal"] = math.nan
    gram = dataclasses.replace(cert, residuals=residuals).narrative[1]
    assert gram.label == "det(A^T A + I) > 1" and gram.passed is not reached
    row = _SUITES["ineq-real"]

    def patched(measured, tol):
        columns, present = row.residuals(measured, tol)
        columns["splitAgreement"] = np.full(len(columns["splitAgreement"]), math.nan)
        return columns, {"splitAgreement": np.full(len(columns["splitAgreement"]), reached)}

    monkeypatch.setitem(_SUITES, "ineq-real", row._replace(residuals=patched))
    result = run_trial("ineq-real", 2, 7)
    assert result.passed is not reached
    assert ("splitAgreement" in result.residuals) is reached


def test_conjugate_certificate_computes_membership_once(monkeypatch):
    calls = []
    membership_residuals = symplectic._membership_residuals

    def counting(a, group):
        calls.append(group)
        return membership_residuals(a, group)

    monkeypatch.setattr(symplectic, "_membership_residuals", counting)
    a = sd.generate(sd.GeneratorConfig(half_dim=3, target=CONJ, seed=5))
    cert = sd.certify_symplectic(a, CONJ)
    assert calls == [CONJ]
    assert list(cert.residuals) == ["membership", "detModulusOne", "phaseAgreement"]
    assert cert.residuals["membership"] == membership_residual(a, CONJ)
    assert cert.verdict == "pass"


def test_conjugate_certificate_computes_the_formula_phase_once(monkeypatch, tmp_path):
    # once per certify_symplectic call, per `sympdet formula` run and per
    # conj_symplectic_det call
    calls = []
    formula_phases = symplectic._formula_phases

    def counting(m, tol):
        calls.append(m)
        return formula_phases(m, tol)

    monkeypatch.setattr(symplectic, "_formula_phases", counting)
    a = sd.generate(sd.GeneratorConfig(half_dim=3, target=CONJ, seed=5))
    path = _write(tmp_path, "c.txt", a)
    for call in (lambda: sd.certify_symplectic(a, CONJ), lambda: main(["formula", path]),
                 lambda: sd.conj_symplectic_det(a)):
        calls.clear()
        call()
        assert len(calls) == 1


def test_conjugate_certificate_gates_before_any_determinant(monkeypatch, tmp_path, capsys):
    # a rejected matrix pays for no LU, in certify_symplectic and in
    # `sympdet formula`; a member still gets its three
    factored = []
    slogdet = np.linalg.slogdet

    def counting(a):
        factored.append(len(a))  # _det_columns passes stacks
        return slogdet(a)

    monkeypatch.setattr(np.linalg, "slogdet", counting)
    a = sd.generate(sd.GeneratorConfig(half_dim=4, target=CONJ, seed=5))
    sd.certify_symplectic(a, CONJ)
    assert sum(factored) == 3  # A, C + iD, C - iD
    factored.clear()
    a[0, 0] += 1e-3
    with pytest.raises(MembershipError, match="not conjugate symplectic"):
        sd.certify_symplectic(a, CONJ)
    path = tmp_path / "near.txt"
    sd.write_matrix(a, path)
    assert main(["formula", str(path)]) == 1
    assert "rejected: not conjugate symplectic" in capsys.readouterr().err
    assert factored == []


def test_conjugate_certificate_raises_as_conj_symplectic_det():
    # the third input passes a loosened gate, but its formula |det| is 0,
    # short of the 4^N every member reaches
    loose = ToleranceConfig(membership=1e9)
    for a, tol, match in ((np.diag([2.0 + 0j, 2.0]), DEFAULT_TOLERANCES, "residual"),
                          (np.zeros((4, 4)), DEFAULT_TOLERANCES, "residual"),
                          (np.array([[1.0 + 0j, 1j], [0j, 0j]]), loose, r"4\^N")):
        with pytest.raises(MembershipError, match=match) as direct:
            conj_symplectic_det(a, tol)
        with pytest.raises(MembershipError) as check:
            sd.certify_symplectic(a, CONJ, tol)
        assert str(check.value) == str(direct.value)


def test_conjugate_certificate_fails_a_non_member_only_lu_catches(tmp_path, capsys):
    # A = diag(s, s, 2/s, 2/s) has A^T J A = 2J and det 4, yet its residual,
    # scaled by ||A||_F^2, passes the membership gate, and its formula |det|
    # (about s^4) is far above 4^N, so conj_symplectic_det gives it a phase.
    # Only |det(A)| from LU shows that it is no member.  A gate that scales
    # out the defect is still open; this pins what each path says until then.
    s = 1e153
    a = np.diag([s, s, 2 / s, 2 / s])
    assert membership_residual(a, CONJ) == pytest.approx(5.0e-307, rel=1e-12)
    assert conj_symplectic_det(a) == 1 + 0j
    cert = sd.certify_symplectic(a, CONJ)
    assert cert.verdict == "fail"
    assert cert.residuals["detModulusOne"] == 3.000000000000015
    assert [c.passed for c in cert.narrative] == [True, False]
    assert main(["formula", _write(tmp_path, "item.txt", a)]) == 1
    assert "verdict: fail" in capsys.readouterr().out


def test_entries_near_float_ends_are_judged_without_warnings(tmp_path, capsys):
    # A = diag(1e160, 1e160, 1e-160, 1e-160) is exactly real symplectic, but
    # ||A||_F^2 and the Gram matrix A^T A overflow: the certificate fails on
    # NaN residuals (gramPositive too, not max(0.0, nan) = 0.0), and the
    # formula still gives det(A) = 1, with no warning (which is an error
    # under python -W error); the exit codes stay
    a = np.diag([1e160, 1e160, 1e-160, 1e-160])
    path = _write(tmp_path, "edge.txt", a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert membership_residual(a, GroupKind.REAL_SYMPLECTIC) == 0.0
        cert = sd.certify_symplectic(a)
        assert conj_symplectic_det(a) == 1 + 0j
        assert sd.certify_symplectic(a, CONJ).verdict == "pass"
        codes = [main(argv) for argv in (["certify", path], ["formula", path],
                                         ["certify", path, "--mode", "conjugate"])]
    assert cert.verdict == "fail"
    assert all(math.isnan(cert.residuals[name])
               for name in ("gramPositive", "gramReal", "factorIdentity", "splitIdentity"))
    assert codes == [1, 0, 0]
    assert capsys.readouterr().err == ""


def _nan_log_det(d):
    return math.isnan(d.log_magnitude) and math.isnan(d.phase.real)


# public calls on entries that are NaN, Inf or near float's ends, each with
# what it returns: a NaN determinant where LAPACK meets NaN or Inf, and a
# plain sum of squares that overflows (summed again scaled) in a member's
# and a factor's clamp
_EDGE_CALLS = {
    "log_det": (lambda: sd.log_det(np.array([[math.nan, 0.0], [0.0, 1.0]])), _nan_log_det),
    "unitary_split_det": (
        lambda: sd.unitary_split_det(sd.BlockPair(np.array([[math.inf]]), np.array([[1.0]]),
                                                  GroupKind.REAL_SYMPLECTIC)),
        lambda dets: all(map(_nan_log_det, dets))),
    "conj_block_reduction": (
        lambda: sd.conj_block_reduction(np.array([[1e-200]]), np.array([[1e200]])),
        lambda p: p.block_det.log_magnitude == 400 * math.log(10) and _nan_log_det(p.pair_det)
        and all(map(math.isnan, p.residuals.values()))),
    "generate": (lambda: sd.generate(sd.GeneratorConfig(half_dim=3, factor_scale=1e154, seed=1)),
                 lambda a: membership_residual(a, GroupKind.REAL_SYMPLECTIC) <= 1e-9),
    "elementary_factor": (
        lambda: generators.elementary_factor("shear_lower",
                                             sd.GeneratorConfig(half_dim=2, factor_scale=1e300),
                                             sd.rng_from_seed(0)),
        lambda f: np.isfinite(f).all() and (f[2:, :2] == f[2:, :2].T).all()),
}


@pytest.mark.parametrize("name", _EDGE_CALLS)
def test_public_calls_at_float_edges_leave_no_warning(name):
    call, holds = _EDGE_CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert holds(call())


def test_conj_formula_trial_records_inf_phase_on_rejection():
    # a zero membership bound rejects the generated member; the trial keeps
    # its oracle residuals and records the missing phase as inf
    tol = ToleranceConfig(membership=0.0)
    result = run_trial("conj-formula", 2, 13, tol)
    a = sd.generate(sd.GeneratorConfig(half_dim=2, target=CONJ, seed=13), tol=tol)
    assert list(result.residuals) == ["membership", "detModulusOne", "phaseAgreement"]
    assert result.residuals["membership"] == membership_residual(a, CONJ) > 0.0
    assert result.residuals["phaseAgreement"] == math.inf
    assert not result.passed


@pytest.mark.parametrize("suite_id", ["real-theorem", "complex-theorem"])
def test_theorem_trial_records_the_residual_its_gate_rejected(suite_id):
    # a membership bound below rounding gates out every member; the trial
    # records the residual the gate compared, as conj-formula does, not inf
    tol = ToleranceConfig(membership=1e-22)
    group = SAMPLED_GROUPS[suite_id]
    for n, seed in ((1, 3), (2, 13), (4, 21), (8, 5)):
        result = run_trial(suite_id, n, seed, tol)
        a = sd.generate(sd.GeneratorConfig(half_dim=n, target=group, seed=seed))
        assert list(result.residuals) == ["membership"]
        assert repr(result.residuals["membership"]) == repr(membership_residual(a, group))
        assert not result.passed
    report = run_suite(default_suite_spec(suite_id, trials=4, half_dims=(2,), tolerances=tol))
    assert report.passes == 0 and 0.0 < report.worst_residuals["membership"] < 1e-12


def _count_cores(monkeypatch) -> dict:
    """Count the matrices the stacked membership and log_det cores judge,
    the sampler's product gate included."""
    calls = {"membership": 0, "log_det": 0}

    def counting(name, f):
        def wrapped(a, *args):
            calls[name] += len(a)
            return f(a, *args)
        return wrapped

    for module in (generators, suites, symplectic):
        monkeypatch.setattr(module, "_membership_residuals",
                            counting("membership", module._membership_residuals))
    for module in (linalg, suites, symplectic):
        monkeypatch.setattr(module, "_det_columns", counting("log_det", module._det_columns))
    return calls


@pytest.mark.parametrize("tol, log_dets", [
    (ToleranceConfig(membership=0.0), 1),  # rejected: log_det(A) only
    (DEFAULT_TOLERANCES, 3),               # accepted: A, C + iD, C - iD
])
def test_conj_formula_trial_computes_each_residual_once(monkeypatch, tol, log_dets):
    # every residual and determinant goes through a stacked core, so the
    # cores count the matrices they judge; the membership residual the
    # trial reports is the one its member's product gate computed
    calls = _count_cores(monkeypatch)
    result = run_trial("conj-formula", 2, 13, tol)
    assert calls == {"membership": 1, "log_det": log_dets}
    assert list(result.residuals) == ["membership", "detModulusOne", "phaseAgreement"]
    assert result.passed == (tol is DEFAULT_TOLERANCES)


@pytest.mark.parametrize("suite_id", SAMPLING_SUITES)
def test_sampled_trials_compute_one_membership_residual_each(monkeypatch, suite_id):
    # the judges take their members' residuals from the sampler's gate
    calls = _count_cores(monkeypatch)
    spec = default_suite_spec(suite_id, seed=3, trials=12, half_dims=(1, 2, 3))
    assert run_suite(spec).all_passed
    assert calls["membership"] == spec.trials
    calls["membership"] = 0
    assert run_trial(suite_id, 3, 17).passed
    assert calls["membership"] == 1


@pytest.mark.parametrize("copy", [0, 1])
def test_generator_sanity_determinism_compares_bytes(monkeypatch, copy):
    # one _sample call samples a group's members twice, the first copies then
    # the second; one ulp of drift in one entry of one copy's member must fail
    # that member's trial, and no other
    seeds = [sd.split_seed(11, t) for t in range(9)]
    clean = _judged("generator-sanity", 2, seeds)
    assert [r["determinism"] for r in clean] == [0.0] * 9
    calls, drift = [], {"call": 1, "member": 0}

    def drifting(config, rngs, *args, **kwargs):
        calls.append(len(rngs))
        stack, res_mem = generators._sample(config, rngs, *args, **kwargs)
        if len(calls) == drift["call"]:
            x = stack.real[copy * len(stack) // 2 + drift["member"]]
            x[0, 0] = np.nextafter(x[0, 0], math.inf)
        return stack, res_mem

    monkeypatch.setattr(suites, "_sample", drifting)
    result = run_trial("generator-sanity", 2, 11)
    assert calls == [2]  # both copies in one call
    assert result.residuals["determinism"] == 1.0
    assert not result.passed
    # in a 9-trial stack, drift the second member of the second group sampled
    # (groups are sampled in GroupKind order)
    codes = [int(loop_rng(s).integers(0, 3)) for s in seeds]
    group = sorted(set(codes))[1]
    trials = [t for t, code in enumerate(codes) if code == group]
    assert len(set(codes)) == 3 and len(trials) > 2
    calls.clear()
    drift.update(call=2, member=1)
    judged = _judged("generator-sanity", 2, seeds)
    assert calls[1] == 2 * len(trials)
    assert judged[trials[1]] == {**clean[trials[1]], "determinism": 1.0}
    assert [r for t, r in enumerate(judged) if t != trials[1]] == [
        r for t, r in enumerate(clean) if t != trials[1]]


def test_generator_sanity_judge_matches_the_loop():
    # the stacked judge gives each trial the bits (and the residual names, in
    # order) it gets when checked alone, over all three groups
    groups = set()
    for n in (1, 2, 3, 4, 6, 8):
        seeds = [sd.split_seed(19, 100 * n + t) for t in range(12)]
        judged = _judged("generator-sanity", n, seeds)
        for seed, got in zip(seeds, judged):
            assert _items_bits(got) == _items_bits(loop_generator_sanity_trial(n, seed)), (n, seed)
            groups.add(int(loop_rng(seed).integers(0, 3)))
    assert groups == {0, 1, 2}


def test_emit_report_writes_file(tmp_path):
    rep = run_suite(_small_spec("form-identities"))
    out = tmp_path / "rep.json"
    emit_report(rep, "json", out)
    assert json.loads(out.read_text())["suite"] == "form-identities"
    with pytest.raises(ValueError, match="format"):
        emit_report(rep, "yaml")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write(tmp_path, name, a):
    p = tmp_path / name
    sd.write_matrix(a, p)
    return str(p)


def test_cli_suite_pass_and_exit_zero(capsys):
    rc = main(["suite", "form-identities", "--n", "1:4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: pass" in out


def test_cli_suite_json_out(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["suite", "ineq-real", "lemma", "--trials", "4", "--n", "1,2",
               "--seed", "3", "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert [r["suite"] for r in payload] == ["ineq-real", "lemma"]
    assert all(r["passes"] == r["trials"] == 4 for r in payload)
    assert "wrote" in capsys.readouterr().out


def test_cli_suite_all_and_dim_specs(capsys):
    rc = main(["suite", "all", "--trials", "2", "--n", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    for sid in SUITE_IDS:
        assert f"suite: {sid}" in text


def test_cli_suite_failure_exit_code(capsys):
    rc = main(["suite", "real-theorem", "--trials", "2", "--n", "2",
               "--tol", "1e-22"])  # membership gate below machine precision
    assert rc == 1


def test_cli_suite_out_of_memory_is_an_error(capsys):
    # the lemma's first array at N = 10^8 (4 N^2 doubles, about 3e17 bytes)
    # is beyond any address space, so it fails at once and allocates nothing
    assert main(["suite", "lemma", "--n", "100000000", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: ") and captured.err.count("\n") == 1


def test_cli_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["suite", "not-a-suite"])
    assert exc.value.code == 2


def test_cli_bad_dim_spec():
    with pytest.raises(SystemExit) as exc:
        main(["suite", "lemma", "--n", "0:4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["suite", "lemma", "--trials", "0"],
                                  ["suite", "lemma", "--tol", "-0.001"],
                                  ["certify", "m.txt", "--tol", "nan"]])
def test_cli_bad_trials_and_tol_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_cli_seed_belongs_to_suite_only(tmp_path, capsys):
    # certify and formula draw nothing, so a seed given to them is a usage error
    path = _write(tmp_path, "j.txt", sd.symplectic_form(2))
    for command in (["certify", path], ["formula", path]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(["suite", "form-identities", "--trials", "1", "--n", "1", "--seed", "1",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 1


def test_cli_certify_form(tmp_path, capsys):
    path = _write(tmp_path, "j.txt", sd.symplectic_form(2))
    rc = main(["certify", path, "--mode", "real"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: pass" in out
    assert "det(A) = 1" in out


def test_cli_certify_rejects_non_symplectic(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", np.diag([3.0, 3.0]))
    rc = main(["certify", path, "--mode", "real"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "rejected" in err and "residual" in err


def test_cli_certify_conjugate_scalar_phase(tmp_path, capsys):
    theta = 0.3
    a = np.exp(1j * theta) * np.eye(4, dtype=np.complex128)
    path = _write(tmp_path, "p.txt", a)
    rc = main(["certify", path, "--mode", "conjugate"])
    out = capsys.readouterr().out
    assert rc == 0
    expected = np.exp(2j * 2 * theta)   # e^{1.2 i}
    m = re.search(r"\] phase of det\(C \+ iD\) \* det\(C - iD\) = phase of det\(A\)\n"
                  r"\s*lhs=(\S+)j  rhs=(\S+)j", out)
    assert m, out
    for side in m.groups():  # the formula's phase, then LU's
        assert abs(complex(side + "j") - expected) <= 1e-9
    assert out.startswith("certificate: conjugate symplectic") and "verdict: pass" in out


def test_cli_certify_json_report(tmp_path, capsys):
    path = _write(tmp_path, "j.txt", sd.symplectic_form(1))
    rc = main(["certify", path, "--mode", "real", "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert payload["suite"] == "certify-real"
    assert payload["passes"] == 1
    assert "certificate" in captured.err   # human narrative on stderr


def test_cli_certify_parse_failure(tmp_path, capsys):
    p = tmp_path / "garbage.txt"
    p.write_text("2 R\n1.0\n")
    rc = main(["certify", str(p)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_certify_non_finite_entry(tmp_path, capsys):
    p = tmp_path / "nan.txt"
    p.write_text("2 R\n0.0 1.0\n-1.0 nan\n")
    rc = main(["certify", str(p)])
    assert rc == 1
    assert "line 3: non-finite entry" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["suite", "certify"])
def test_cli_unwritable_out_is_an_error(command, tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "dir" / "x.json")
    if command == "suite":
        argv = ["suite", "lemma", "--trials", "2", "--out", out]
    else:
        argv = ["certify", _write(tmp_path, "j.txt", sd.symplectic_form(2)), "--out", out]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: cannot write report:")
    assert "Traceback" not in err


def test_cli_certify_missing_file(capsys):
    rc = main(["certify", "/nonexistent/m.txt"])
    assert rc == 1


def test_cli_formula_matches_certify_conjugate(tmp_path, capsys):
    a = sd.generate(sd.GeneratorConfig(half_dim=2, target=sd.GroupKind.CONJUGATE_SYMPLECTIC,
                                       seed=21))
    path = _write(tmp_path, "c.txt", a)
    rc = main(["formula", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "|det(A)| = 1" in out and "verdict: pass" in out
    assert main(["certify", path, "--mode", "conjugate"]) == 0
    assert capsys.readouterr().out == out


def test_cli_formula_rejects_non_member(tmp_path, capsys):
    path = _write(tmp_path, "g.txt", np.diag([2.0 + 0j, 2.0]))
    rc = main(["formula", path])
    assert rc == 1
    assert "rejected" in capsys.readouterr().err
    # past a loosened gate, a formula |det| short of 4^N is a rejection too
    path = _write(tmp_path, "short.txt", np.array([[1.0 + 0j, 1j], [0j, 0j]]))
    assert main(["formula", path, "--tol", "1e9"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rejected: not conjugate symplectic") and "4^N" in err


@pytest.mark.parametrize("argv", [["certify", "--mode", "real"],
                                  ["certify", "--mode", "complex"],
                                  ["certify", "--mode", "conjugate"],
                                  ["formula"]])
def test_cli_rejects_all_zero_matrix(argv, tmp_path, capsys):
    dtype = np.float64 if argv[-1] == "real" else np.complex128
    path = _write(tmp_path, "z.txt", np.zeros((4, 4), dtype))
    rc = main([argv[0], path, *argv[1:]])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("rejected:") and "inf" in err


def test_cli_formula_odd_dimension_is_an_error(tmp_path, capsys):
    path = _write(tmp_path, "odd.txt", np.eye(3, dtype=np.complex128))
    rc = main(["formula", path])
    assert rc == 1
    assert capsys.readouterr().err == "error: expected an even dimension, got 3\n"


def test_cli_seed_changes_draws_but_not_verdict(capsys):
    rc1 = main(["suite", "generator-sanity", "--trials", "3", "--n", "2", "--seed", "1"])
    out1 = capsys.readouterr().out
    rc2 = main(["suite", "generator-sanity", "--trials", "3", "--n", "2", "--seed", "2"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 != out2   # residuals differ by seed


def _without_elapsed(text: str) -> str:
    text = re.sub(r'"elapsedSeconds": \S+', '"elapsedSeconds": _', text)
    return re.sub(r"elapsedSeconds: \S+", "elapsedSeconds: _", text)


def test_cli_reuses_one_parser_with_fresh_process_results(tmp_path, capsys, monkeypatch):
    # main keeps one parser for the process; every call through it must give
    # the exit code and output of the same call made first in a fresh process
    monkeypatch.setenv("COLUMNS", "80")  # the same usage wrapping on both sides
    paths = {g: _write(tmp_path, f"{g.value}.txt",
                       sd.generate(sd.GeneratorConfig(half_dim=2, target=g, seed=17)))
             for g in GroupKind}
    certify_real = ["certify", paths[GroupKind.REAL_SYMPLECTIC], "--mode", "real"]
    calls = [certify_real,
             ["certify", paths[GroupKind.COMPLEX_SYMPLECTIC], "--mode", "complex",
              "--format", "json"],
             ["certify", paths[CONJ], "--mode", "conjugate"],
             ["formula", paths[CONJ], "--format", "json"],
             ["suite", "lemma", "--trials", "2", "--n", "1"],
             ["certify", paths[CONJ], "--mode", "bogus"],  # usage error, exit 2
             certify_real]
    env = {**os.environ, "PYTHONPATH": str(Path(sd.__file__).parents[1])}
    fresh = {tuple(argv): subprocess.Popen([sys.executable, "-m", "sympdet", *argv], env=env,
                                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                           text=True)
             for argv in dict.fromkeys(map(tuple, calls))}
    for key, proc in fresh.items():
        out, err = proc.communicate(timeout=120)
        fresh[key] = (proc.returncode, _without_elapsed(out), _without_elapsed(err))
    assert fresh[tuple(calls[-2])][0] == 2

    parser = cli._parser()
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        got = capsys.readouterr()
        assert (code, _without_elapsed(got.out), _without_elapsed(got.err)) == fresh[tuple(argv)], argv
    assert cli._parser() is parser
