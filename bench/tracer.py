"""Outside-in span tracer for sympdet's public functions.

The tracer wraps each listed public function by rebinding its name in every
loaded ``sympdet`` module that holds it.  Rebinding only the defining module
would miss callers: ``from .linalg import log_det`` copies the binding into
the importing module.  Each call becomes a span (function, parent span,
start, end); spans stay in memory until the run ends.  Self time is derived
from the spans: a span's duration minus the time its child spans cover.

A listed function a later version of sympdet no longer has is reported in
``absent`` and its counters read 0.  Cheap helpers (``frobenius``,
``as_square``, ``identity``, ...) are not wrapped: a wrapper costs about as
much as they do, so their time counts toward their caller.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

import numpy as np

LAYERS = {
    "linalg": ("log_det", "lu_decompose", "solve", "inverse", "random_gaussian",
               "rng_from_seed", "split_seed"),
    "generators": ("generate", "elementary_factor", "diag_block", "shear_lower",
                   "shear_upper", "phase_factor", "embed_orthogonal_pair"),
    "symplectic": ("certify_symplectic", "conj_symplectic_det", "symplectic_residual",
                   "conj_symplectic_residual", "membership_residual", "passes_membership",
                   "block_pair", "embed_pair", "unitary_split_det", "conj_block_det",
                   "conj_block_reduction"),
    "suites": ("run_suite", "run_trial"),
    "matio": ("format_matrix", "parse_matrix", "read_matrix", "write_matrix"),
    "report": ("emit_report", "render_json", "render_text"),
    "cli": ("main",),
}

SUITE_IDS = ("form-identities", "real-theorem", "complex-theorem", "lemma",
             "ineq-real", "conj-formula", "generator-sanity")

# Function groups reported as one self time.
GROUPS = {
    "membership": ("symplectic_residual", "conj_symplectic_residual",
                   "membership_residual", "passes_membership"),
    "blocks": ("block_pair", "embed_pair", "unitary_split_det"),
    "conj_block": ("conj_block_det", "conj_block_reduction"),
}

# Calls whose arguments and result the metrics need.  They are held until
# the next drain(), never longer than one pass.
_KEEP = frozenset({"log_det", "lu_decompose", "generate", "certify_symplectic",
                   "conj_symplectic_det", "run_trial", "parse_matrix", "format_matrix",
                   "emit_report"})

# Unit of each per-layer metric, by name suffix (first match wins).  Counts,
# times, bytes and flops are totals per pass over the workload's inputs, so
# that a run which completes more passes does not read as more work.
_UNITS = ((".calls", "count/pass"), (".ms_per_call", "ms"), (".ms_per_trial", "ms"),
          ("_ms", "ms/pass"), ("bytes", "B/pass"), ("bytes_out", "B/pass"),
          ("gflop_computed", "GFLOP/pass"), ("gflops_achieved", "GFLOP/s"),
          (".share", "1"), (".vs_slogdet", "x"), ("_mb_per_s", "MB/s"), ("_s", "s"),
          ("", "1"))


def unit_of(name: str) -> str:
    return next(u for suffix, u in _UNITS if name.endswith(suffix))


_RAISED = object()
_GAP_FLOOR = 1e-18


def lu_flops(n: int, is_complex: bool) -> float:
    """Computed flops of one n x n LU: 2/3 n^3, four times that for complex."""
    return (2.0 / 3.0) * n ** 3 * (4.0 if is_complex else 1.0)


def logdet_gap(ld, sign, logabs) -> float:
    """|det_sympdet / det_numpy - 1| from a sympdet LogDet and numpy's slogdet."""
    lm = ld.log_magnitude
    if lm == -math.inf and logabs == -math.inf:
        return 0.0
    if lm == -math.inf or logabs == -math.inf or lm - logabs > 700.0:
        return math.inf
    return abs(math.exp(lm - logabs) * complex(ld.phase) * complex(sign).conjugate() - 1.0)


def log10_gap(gap: float) -> float:
    """log10 of a gap, floored at 1e-18 and kept finite for JSON."""
    if not gap < math.inf:
        return 308.0
    return math.log10(max(gap, _GAP_FLOOR))


class Tracer:
    """Records spans of calls into sympdet; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []          # function id -> name
        self.layer_of: list[str] = []       # function id -> layer
        self.absent: list[str] = []
        self._patched: list[tuple] = []     # (module, attribute, original)
        self._fid: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._stack = [-1]
        self._kept: list[tuple] = []
        # Counters filled by drain() from the kept calls.
        self.lu_calls: list[tuple[int, float, bool]] = []  # (span, flops, is log_det)
        self.slogdet_ref_s = 0.0
        self.logdet_gap_max = 0.0
        self.num_factors_requested = 0
        self.cert_calls = 0
        self.cert_passes = 0
        self.trial_suite: list[tuple[int, str]] = []      # (span, suite id)
        self.parse_bytes = 0
        self.format_bytes = 0
        self.report_bytes = 0

    # -- wrapping ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "sympdet" or k.startswith("sympdet."))]
        for layer, funcs in LAYERS.items():
            try:
                home = importlib.import_module(f"sympdet.{layer}")
            except ImportError:
                home = None
            for name in funcs:
                fn = getattr(home, name, None)
                if not callable(fn):
                    self.absent.append(f"{layer}.{name}")
                    continue
                fid = len(self.names)
                self.names.append(name)
                self.layer_of.append(layer)
                wrapper = self._wrap(fid, fn, name in _KEEP)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, fid: int, fn, keep: bool):
        fids, parents, starts, ends = self._fid, self._parent, self._start, self._end
        stack, kept, clock = self._stack, self._kept, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
                if keep:
                    kept.append((i, args, kwargs, _RAISED))
                raise
            ends[i] = clock()
            starts[i] = t0
            stack.pop()
            if keep:
                kept.append((i, args, kwargs, out))
            return out

        return wrapper

    # -- counters ----------------------------------------------------------

    def drain(self) -> None:
        """Turn the kept calls into counters and release their arguments.

        Runs between passes, outside every span.  ``slogdet_ref_s`` times
        numpy's LAPACK slogdet once on each traced ``log_det`` input.
        """
        kept = list(self._kept)
        self._kept.clear()  # the wrappers append to this very list
        fids = self._fid
        for i, args, kwargs, out in kept:
            name = self.names[fids[i]]
            if name in ("certify_symplectic", "conj_symplectic_det"):
                self.cert_calls += 1
                if out is not _RAISED and (name == "conj_symplectic_det"
                                           or out.verdict == "pass"):
                    self.cert_passes += 1
            elif out is _RAISED:
                continue
            elif name in ("log_det", "lu_decompose"):
                a = np.asarray(args[0] if args else kwargs["a"])
                self.lu_calls.append((i, lu_flops(a.shape[0], np.iscomplexobj(a)),
                                      name == "log_det"))
                if name == "log_det":
                    t0 = time.perf_counter()
                    sign, logabs = np.linalg.slogdet(a)
                    self.slogdet_ref_s += time.perf_counter() - t0
                    self.logdet_gap_max = max(self.logdet_gap_max,
                                              logdet_gap(out, sign, float(logabs)))
            elif name == "generate":
                factors = kwargs.get("factors", args[2] if len(args) > 2 else None)
                config = kwargs.get("config", args[0] if args else None)
                self.num_factors_requested += (len(factors) if factors is not None
                                               else config.num_factors)
            elif name == "run_trial":
                self.trial_suite.append((i, kwargs.get("suite_id", args[0] if args else "")))
            elif name == "parse_matrix":
                self.parse_bytes += len(args[0] if args else kwargs["text"])
            elif name == "format_matrix":
                self.format_bytes += len(out)
            elif name == "emit_report":
                self.report_bytes += len(out)

    # -- spans ---------------------------------------------------------------

    def span_arrays(self):
        """(function id, parent, duration s, self s) as numpy arrays."""
        fid = np.asarray(self._fid, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        dur = np.asarray(self._end) - np.asarray(self._start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return fid, parent, dur, dur - covered

    def write_spans(self, path) -> None:
        """One line per span: id, parent id, function, start and end in us."""
        t_base = self._start[0] if self._start else 0.0
        with open(path, "w", encoding="ascii") as f:
            f.write("span\tparent\tfunction\tstart_us\tend_us\n")
            for i, (fid, p, s, e) in enumerate(zip(self._fid, self._parent,
                                                   self._start, self._end)):
                f.write(f"{i}\t{p}\t{self.layer_of[fid]}.{self.names[fid]}\t"
                        f"{(s - t_base) * 1e6:.1f}\t{(e - t_base) * 1e6:.1f}\n")

    @property
    def span_count(self) -> int:
        return len(self._fid)

    def metrics(self, traced_wall_s: float, passes: int) -> dict:
        """Per-layer metrics from the spans and counters: name -> (value, unit).
        ``traced_wall_s`` is the wall time of the ``passes`` traced passes."""
        self.drain()
        fid, parent, dur, self_s = self.span_arrays()
        n_funcs = len(self.names)
        calls = np.bincount(fid, minlength=n_funcs)
        self_by_fn = np.bincount(fid, weights=self_s, minlength=n_funcs)
        incl_by_fn = np.bincount(fid, weights=dur, minlength=n_funcs)
        ids = {name: k for k, name in enumerate(self.names)}

        def count(name):
            return int(calls[ids[name]]) if name in ids else 0

        def self_ms(*names):
            return float(sum(self_by_fn[ids[n]] for n in names if n in ids)) * 1e3

        def incl_s(name):
            return float(incl_by_fn[ids[name]]) if name in ids else 0.0

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        m = {}
        # linalg
        for name in ("log_det", "lu_decompose", "solve"):
            m[f"{name}.calls"] = count(name)
            m[f"{name}.self_ms"] = self_ms(name)
        m["log_det.ms_per_call"] = ratio(incl_s("log_det") * 1e3, count("log_det"))
        # One LU per log_det call, plus each lu_decompose call made outside
        # a log_det span (solves, inverses, block eliminations).
        ld = ids.get("log_det", -1)
        flops = lu_s = 0.0
        for i, f, is_log_det in self.lu_calls:
            p = parent[i]
            if is_log_det or p < 0 or fid[p] != ld:
                flops += f
                lu_s += dur[i]
        m["gflop_computed"] = flops / 1e9
        m["gflops_achieved"] = ratio(flops / 1e9, lu_s)
        m["slogdet_ref_ms"] = self.slogdet_ref_s * 1e3
        m["log_det.vs_slogdet"] = ratio(incl_s("log_det"), self.slogdet_ref_s)

        # generators: factor draws under generate / factors requested
        for name in ("generate", "elementary_factor"):
            m[f"{name}.calls"] = count(name)
            m[f"{name}.self_ms"] = self_ms(name)
        m["diag_block.self_ms"] = self_ms("diag_block")
        draws = 0
        if "elementary_factor" in ids and "generate" in ids:
            ef = fid == ids["elementary_factor"]
            draws = int(np.count_nonzero(fid[parent[ef & (parent >= 0)]] == ids["generate"]))
        m["attempts_per_sample"] = ratio(draws, self.num_factors_requested)

        # symplectic
        for name in ("certify_symplectic", "conj_symplectic_det"):
            m[f"{name}.calls"] = count(name)
            m[f"{name}.self_ms"] = self_ms(name)
        for group, names in GROUPS.items():
            m[f"{group}.self_ms"] = self_ms(*names)
        m["pass_ratio"] = ratio(self.cert_passes, self.cert_calls)

        # suites
        m["run_trial.calls"] = count("run_trial")
        m["run_trial.self_ms"] = self_ms("run_trial")
        m["run_suite.self_ms"] = self_ms("run_suite")
        per_suite: dict[str, list[float]] = {sid: [] for sid in SUITE_IDS}
        for i, sid in self.trial_suite:
            per_suite.setdefault(sid, []).append(dur[i])
        for sid in SUITE_IDS:
            m[f"{sid}.ms_per_trial"] = (float(np.mean(per_suite[sid])) * 1e3
                                        if per_suite[sid] else 0.0)

        # matio
        for name, nbytes in (("parse_matrix", self.parse_bytes),
                             ("format_matrix", self.format_bytes)):
            m[f"{name}.calls"] = count(name)
            m[f"{name}.self_ms"] = self_ms(name)
            m[f"{name}.bytes"] = nbytes
        m["parse_mb_per_s"] = ratio(self.parse_bytes / 1e6, incl_s("parse_matrix"))
        m["format_mb_per_s"] = ratio(self.format_bytes / 1e6, incl_s("format_matrix"))

        # report and cli
        m["emit_report.calls"] = count("emit_report")
        m["emit_report.self_ms"] = self_ms("emit_report")
        m["render_json.self_ms"] = self_ms("render_json")
        m["bytes_out"] = self.report_bytes
        m["main.calls"] = count("main")
        m["main.self_ms"] = self_ms("main")

        # layers
        layer_arr = np.asarray(self.layer_of)
        for layer in LAYERS:
            s = float(self_by_fn[layer_arr == layer].sum()) if n_funcs else 0.0
            m[f"{layer}.self_ms"] = s * 1e3
            m[f"{layer}.share"] = ratio(s, traced_wall_s)
        out = {}
        for name, value in m.items():
            unit = unit_of(name)
            out[name] = (float(value / passes if unit.endswith("/pass") else value), unit)
        return out
