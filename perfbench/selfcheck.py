"""Validation of ``BENCHMARK.json`` against the benchmark's own spec.

``spec.json`` holds what ``BENCHMARK.json`` has no room for: the loop type
and client count of each workload, and for each per-layer metric the
end-to-end metric and workload it should move (``trace.*`` metrics describe
the tracer itself and carry a note instead).
"""

from __future__ import annotations

import re

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25


def _metric_problems(kind: str, metrics: list, keys: set[str], limit: int) -> list[str]:
    out = []
    if not 1 <= len(metrics) <= limit:
        out.append(f"{kind}: {len(metrics)} metrics, allowed 1 to {limit}")
    for m in metrics:
        if set(m) != keys:
            out.append(f"{kind} {m.get('name')!r}: keys {sorted(m)}, expected {sorted(keys)}")
            continue
        if not NAME.match(m["name"]):
            out.append(f"{kind}: bad name {m['name']!r}")
        if not UNIT.match(m["unit"]):
            out.append(f"{kind} {m['name']}: bad unit {m['unit']!r}")
        if m["better"] not in ("lower", "higher"):
            out.append(f"{kind} {m['name']}: better must be lower or higher")
        if "bound" in m and not (isinstance(m["bound"], (int, float)) and 0 < m["bound"] <= MAX_BOUND):
            out.append(f"{kind} {m['name']}: bound must be in (0, {MAX_BOUND}]")
    return out


def problems(bench: dict, spec: dict, end_to_end: dict[str, str], per_layer: set[str]) -> list[str]:
    """Everything wrong with ``bench``; ``end_to_end`` and ``per_layer`` are what run.py reports."""
    out = []
    expected_keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != expected_keys:
        return [f"BENCHMARK.json keys {sorted(bench)}, expected {sorted(expected_keys)}"]
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        out.append("run_seconds must be a whole number from 1 to 60")
    for p in bench["paths"]:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            out.append(f"bad path {p!r}")
    for arg in bench["command"]:
        if len(arg) > 200 or arg.startswith("/") or ".." in arg.split("/"):
            out.append(f"bad command argument {arg!r}")

    names = [w.get("name") for w in bench["workloads"]]
    if not 2 <= len(names) <= 8:
        out.append(f"{len(names)} workloads, allowed 2 to 8")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"}:
            out.append(f"workload {w.get('name')!r}: keys must be name and why")
            continue
        info = spec["workloads"].get(w["name"])
        if not NAME.match(w["name"]) or info is None:
            out.append(f"workload {w['name']!r} is badly named or missing from spec.json")
            continue
        if info.get("loop") not in ("closed", "open") or not isinstance(info.get("clients"), int) or info["clients"] < 1:
            out.append(f"workload {w['name']}: spec.json must state loop (closed/open) and clients")
            continue
        stated = f"{info['loop'].capitalize()} loop, {info['clients']} client"
        if not w["why"].startswith(stated) or "\n" in w["why"] or len(w["why"]) > 200:
            out.append(f"workload {w['name']}: why must be one line of at most 200 characters starting {stated!r}")

    out += _metric_problems("end_to_end", bench["end_to_end"], {"name", "unit", "better", "bound"}, MAX_END_TO_END)
    out += _metric_problems("per_layer", bench["per_layer"], {"name", "unit", "better"}, MAX_PER_LAYER)
    all_names = names + [m.get("name") for m in bench["end_to_end"] + bench["per_layer"]]
    for dup in sorted({n for n in all_names if all_names.count(n) > 1}):
        out.append(f"name {dup!r} is used more than once")

    e2e = {m.get("name"): m for m in bench["end_to_end"]}
    if {n: m.get("unit") for n, m in e2e.items()} != end_to_end:
        out.append(f"end_to_end must be exactly {end_to_end}")
    setup = e2e.get("setup_s", {})
    bounds = [m.get("bound", 0) for m in e2e.values()]
    if setup.get("unit") != "s" or setup.get("better") != "lower" or setup.get("bound") != max(bounds):
        out.append("setup_s must be in seconds, lower is better, with the largest bound")

    layers = {m.get("name") for m in bench["per_layer"]}
    if layers != per_layer:
        out.append(f"per_layer must be exactly what the traced run reports: {sorted(per_layer ^ layers)} differ")
    for name in sorted(layers):
        moves = spec["per_layer"].get(name)
        if moves is None:
            out.append(f"per-layer metric {name} is missing from spec.json")
        elif name.startswith("trace."):
            if not moves.get("note"):
                out.append(f"per-layer metric {name} needs a note in spec.json")
        elif moves.get("moves") not in e2e or moves.get("workload") not in names:
            out.append(f"per-layer metric {name} must name the end-to-end metric and workload it moves")
    return out
