"""Verification reports: pass/fail aggregation with reproducible failure seeds.

A report renders either as JSON with a stable schema::

    { "tool": str, "suite": str, "config": {...}, "trials": int,
      "passes": int,
      "failures": [ {"seed": int, "halfDim": int, "residuals": {name: float}} ],
      "worstResiduals": {name: float}, "elapsedSeconds": float }

or as a text table carrying the same numbers (floats printed with repr in
both renderings, so the numeric content is identical).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

__all__ = ["Report", "emit_report", "render_json", "render_text"]


@dataclass
class Report:
    tool: str
    suite: str
    config: dict
    trials: int
    passes: int
    failures: list = field(default_factory=list)
    worst_residuals: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def all_passed(self) -> bool:
        return self.passes == self.trials

    def to_json_dict(self) -> dict:
        return {key: getattr(self, name) for name, key in _KEYS.items()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Report":
        return cls(**{name: d[key] for name, key in _KEYS.items()})


# the JSON schema key of each Report field, in field order: its name in camelCase
_KEYS = {f.name: re.sub(r"_(\w)", lambda m: m[1].upper(), f.name) for f in fields(Report)}


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _config_lines(config: dict, indent: str) -> list[str]:
    lines = []
    for k, v in config.items():
        if isinstance(v, dict):
            inner = " ".join(f"{ik}={_fmt(iv)}" for ik, iv in v.items())
            lines.append(f"{indent}{k}: {inner}")
        else:
            lines.append(f"{indent}{k}: {_fmt(v)}")
    return lines


def render_text(report: Report) -> str:
    lines = [
        f"suite: {report.suite}",
        f"tool: {report.tool}",
        f"trials: {report.trials}  passes: {report.passes}  "
        f"elapsedSeconds: {report.elapsed_seconds!r}",
        "config:",
        *_config_lines(report.config, "  "),
        "worst residuals:",
    ]
    if report.worst_residuals:
        width = max(len(k) for k in report.worst_residuals)
        for k, v in report.worst_residuals.items():
            lines.append(f"  {k:<{width}}  {_fmt(v)}")
    else:
        lines.append("  (none)")
    if report.failures:
        lines.append(f"failures ({len(report.failures)}):")
        for f in report.failures:
            res = " ".join(f"{k}={_fmt(v)}" for k, v in f["residuals"].items())
            lines.append(f"  seed={f['seed']} halfDim={f['halfDim']} {res}")
    else:
        lines.append("failures: none")
    lines.append(f"verdict: {'pass' if report.all_passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render_json(reports: Report | list[Report]) -> str:
    if isinstance(reports, Report):
        payload = reports.to_json_dict()
    else:
        payload = [r.to_json_dict() for r in reports]
    return json.dumps(payload, indent=2) + "\n"


def emit_report(reports: Report | list[Report], fmt: str = "text",
                path=None) -> str:
    """Render one or more reports; write to path when given.  Returns the text."""
    if fmt == "json":
        text = render_json(reports)
    elif fmt == "text":
        rs = [reports] if isinstance(reports, Report) else list(reports)
        text = "\n".join(render_text(r) for r in rs)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
