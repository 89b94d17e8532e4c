"""Benchmark of the pseudometric package: one workload per run.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root; the program is imported from ``src/``.
Every run first validates ``BENCHMARK.json`` (``--self-check`` does only
that), builds the workload's inputs and reference answers from the seed,
then runs whole passes of the same 100 or more requests, closed loop with
one client, at least two passes and about ``--seconds`` in all. Six
set-up rounds (a fresh import, and parsing for ``search``) are timed,
three before each of the first two passes. Every answer is checked against
the reference. ``--trace 0`` reports the end-to-end metrics, with each
request's latency taken as its median over the passes; ``--trace 1`` runs
one untraced pass and then the same requests traced, and reports the
per-layer metrics. The last line of stdout is the result as JSON; the line
before it is the full run record, including a machine-speed reading taken
before and after the timed phase. The exit code is 0 only if every answer
was right.

End-to-end times are reported at reference machine speed. On a shared
virtual machine the CPU speed can change by up to 2x, in phases from a
fraction of a second to minutes, and every timing follows it. So a short
fixed loop of stdlib ``Fraction`` and ``int`` arithmetic (the probe,
which uses nothing of the program) is timed before and after each request
and each set-up round, and a tenth of it every 50 ms in between (from a
timer signal, so that a long request is scaled by the speed during it).
Each timing, less the probe time inside it, is scaled by the probe's
reference time over its measured time per iteration. The record keeps the
unscaled values under ``raw``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction

import selfcheck
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE_ITERATIONS = 1500
TICK_ITERATIONS = 150
TICK_S = 0.05
# Sets the unit only: about the probe's time in the fast phases of the
# 2-vCPU VM on which the first trajectory point was measured (Python 3.11).
PROBE_REFERENCE_S = 0.0022
SETUP_ROUNDS = 6
SETUP_PASSES = 2
MIN_PASSES = 2
END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "checks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SUITES = tuple(suite for suite, _ in workloads.Fuzz.COUNTS)


def load_json(name: str, where: str) -> dict:
    with open(os.path.join(where, name), encoding="utf-8") as fh:
        return json.load(fh)


def reference_loop(iterations: int) -> float:
    """Seconds for a fixed Fraction and int loop that uses nothing of the program."""
    t0 = time.perf_counter()
    acc, step, total = Fraction(0), Fraction(1, 7), 0
    for i in range(iterations):
        acc += step
        total += i * i % 7
    return time.perf_counter() - t0


class _Ticks:
    """Signal handler that times a short probe on every timer tick."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.iterations = 0

    def __call__(self, signum, frame) -> None:
        self.seconds += reference_loop(TICK_ITERATIONS)
        self.iterations += TICK_ITERATIONS


def timed(fn, ticking: bool = True):
    """Call ``fn``; return its result, its seconds less probe ticks, and those at reference speed.

    A traced pass runs without ticks, so that no probe time lands in a span.
    """
    before = reference_loop(PROBE_ITERATIONS)
    ticks = _Ticks()
    previous = signal.signal(signal.SIGALRM, ticks)
    signal.setitimer(signal.ITIMER_REAL, TICK_S if ticking else 0, TICK_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    seconds = elapsed - ticks.seconds
    probed = before + reference_loop(PROBE_ITERATIONS) + ticks.seconds
    per_iteration = probed / (2 * PROBE_ITERATIONS + ticks.iterations)
    return result, seconds, seconds * PROBE_REFERENCE_S / (PROBE_ITERATIONS * per_iteration)


def machine_ms() -> float:
    """Median of five long reference loops in ms: the machine-speed reading of the run record."""
    return statistics.median(reference_loop(20000) for _ in range(5)) * 1000


def import_program(workload) -> tuple[float, float]:
    """Import the package afresh and do the workload's set-up; returns raw and scaled seconds."""
    for name in [n for n in sys.modules if n == "pseudometric" or n.startswith("pseudometric.")]:
        del sys.modules[name]

    def setup() -> None:
        importlib.import_module("pseudometric")
        importlib.import_module("pseudometric.cli")
        workload.setup()

    _, seconds, scaled = timed(setup)
    return seconds, scaled


def _attempt(req):
    try:
        return req.run()
    except Exception as e:  # a raising request is a failed request, and the run goes on
        return e


def run_pass(requests, tracer: tracing.Tracer | None = None) -> dict:
    """Run each request once, in order; latencies and checks are kept per request."""
    latencies, scaled, checks, problems, out_bytes = [], [], [], [], 0
    for k, req in enumerate(requests):
        if tracer is not None:
            tracer.begin_request(k)
        outcome, seconds, at_reference = timed(lambda: _attempt(req), ticking=tracer is None)
        latencies.append(seconds)
        scaled.append(at_reference)
        if isinstance(outcome, Exception):
            problem, n = f"raised {type(outcome).__name__}: {outcome}", 0
        else:
            if isinstance(outcome, workloads.CliResult):
                out_bytes += len(outcome.out.encode()) + len(outcome.err.encode())
            try:
                problem, n = req.check(outcome)
            except (ValueError, KeyError, TypeError, IndexError) as e:
                problem, n = f"unreadable output ({type(e).__name__}: {e})", 0
        if problem:
            problems.append(f"{req.family}: {problem}")
        checks.append(n)
    return {
        "families": [req.family for req in requests],
        "latencies": latencies,
        "scaled": scaled,
        "busy": sum(latencies),
        "slowdown": sum(latencies) / sum(scaled),
        "checks": checks,
        "problems": problems,
        "out_bytes": out_bytes,
    }


def request_latencies(passes: list[dict], key: str = "scaled") -> list[float]:
    """Each request's median latency over the passes."""
    return [statistics.median(t) for t in zip(*(p[key] for p in passes))]


def end_to_end(passes: list[dict], setup_times: list[float], key: str = "scaled") -> dict[str, tuple[float, int]]:
    """Each end-to-end metric as (value, sample count); ``key`` picks scaled or raw latencies."""
    latencies = request_latencies(passes, key)
    deciles = statistics.quantiles(latencies, n=10)
    checks = sum(passes[0]["checks"])
    return {
        "throughput_rps": (len(latencies) / sum(latencies), len(latencies)),
        "latency_p50_ms": (deciles[4] * 1000, len(latencies)),
        "latency_p90_ms": (deciles[8] * 1000, len(latencies)),
        "checks_per_s": (checks / sum(latencies), checks),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def per_layer(tracer: tracing.Tracer, run: dict, untraced: dict) -> dict[str, float]:
    seconds, calls = tracer.layer_times()
    c = tracer.totals()
    requests = len(run["latencies"])
    out = {
        "core.validate_s": seconds["core.validate"],
        "core.validate_calls": calls["core.validate"],
        "core.triangle_triples": c["core.triangle_triples"],
        "core.violations": c["core.violations"],
        "core.space_new_s": seconds["core.space_new"],
        "core.space_new_calls": calls["core.space_new"],
        "core.zero_classes_s": seconds["core.zero_classes"],
        "core.zero_classes_calls": calls["core.zero_classes"],
        "core.zero_classes_per_request": calls["core.zero_classes"] / requests,
        "topology.query_s": seconds["topology.query"],
        "topology.query_calls": calls["topology.query"],
        "document.parse_s": seconds["document.parse"],
        "document.parse_calls": calls["document.parse"],
        "document.in_bytes": c["document.in_bytes"],
        "document.emit_s": seconds["document.emit"],
        "document.emit_calls": calls["document.emit"],
        "cli.self_s": seconds["cli.main"],
        "cli.out_bytes": run["out_bytes"],
        "reflection.reflect_s": seconds["reflection.reflect"],
        "reflection.reflect_calls": calls["reflection.reflect"],
        "reflection.well_defined_s": seconds["reflection.well_defined"],
        "morphisms.search_s": seconds["morphisms.search"],
        "morphisms.search_calls": calls["morphisms.search"],
        "morphisms.nodes": c["morphisms.nodes"],
        "morphisms.distance_checks": c["morphisms.distance_checks"],
        "morphisms.signature_prunes": c["morphisms.signature_prunes"],
        "morphisms.witness_node_ratio": (
            c["morphisms.witness_points"] / c["morphisms.witness_nodes"] if c["morphisms.witness_nodes"] else 0.0
        ),
        "morphisms.pseudo_s": seconds["morphisms.pseudo"],
        "morphisms.oracle_s": seconds["morphisms.oracle"],
        "morphisms.oracle_calls": calls["morphisms.oracle"],
        "morphisms.check_s": seconds["morphisms.check"],
        "constructions.generate_s": seconds["constructions.generate"],
        "constructions.glue_s": seconds["constructions.glue"],
        "constructions.cec_s": seconds["constructions.cec"],
        "trace.overhead_frac": sum(run["scaled"]) / sum(untraced["scaled"]) - 1,
        "trace.coverage_frac": tracer.covered() / run["busy"],
    }
    for suite in SUITES:
        out[f"fuzz.{suite}_s"] = seconds[f"fuzz.{suite}"]
        out[f"fuzz.{suite}_checks"] = sum(n for f, n in zip(run["families"], run["checks"]) if f == suite)
    return out


def family_summary(run: dict, latencies: list[float], tracer: tracing.Tracer | None = None) -> dict:
    """Requests, median latency and (traced) search nodes per request family."""
    out: dict[str, dict] = {}
    for k, family in enumerate(run["families"]):
        entry = out.setdefault(family, {"requests": 0, "latencies": [], "nodes": 0})
        entry["requests"] += 1
        entry["latencies"].append(latencies[k])
        if tracer is not None:
            entry["nodes"] += tracer.counts[k]["morphisms.nodes"]
    for entry in out.values():
        entry["median_ms"] = round(statistics.median(entry.pop("latencies")) * 1000, 3)
        if tracer is None:
            del entry["nodes"]
    return dict(sorted(out.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="validate BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    try:
        bench, spec = load_json("BENCHMARK.json", ROOT), load_json("spec.json", HERE)
    except (OSError, ValueError) as e:
        print(f"error: cannot read the benchmark definition: {e}", file=sys.stderr)
        return 2
    found = selfcheck.problems(bench, spec, END_TO_END, set(spec.get("per_layer", {})))
    if found:
        for p in found:
            print(f"self-check: {p}", file=sys.stderr)
        return 2
    if args.self_check:
        print("self-check: BENCHMARK.json is consistent with spec.json and run.py")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "pseudometric", "__init__.py")):
        print(f"error: no program to measure: {SRC}/pseudometric is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        return measure(args, bench, workdir)
    finally:
        shutil.rmtree(workdir)


def measure(args, bench: dict, workdir: str) -> int:
    machine_before = machine_ms()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}

    # Set-up rounds are spread over the first passes, so that their median
    # does not hang on the machine's speed at one moment.
    setup_rounds: list[tuple[float, float]] = []
    passes: list[dict] = []
    while True:
        if len(passes) < SETUP_PASSES:
            setup_rounds += [import_program(workload) for _ in range(SETUP_ROUNDS // SETUP_PASSES)]
            origin = os.path.abspath(sys.modules["pseudometric"].__file__)
            if not origin.startswith(SRC + os.sep):
                print(f"error: imported {origin}, not the program under {SRC}", file=sys.stderr)
                return 2
        passes.append(run_pass(workload.requests()))
        busy = sum(p["busy"] for p in passes)
        if args.trace or (len(passes) >= MIN_PASSES and busy * (1 + 0.5 / len(passes)) >= args.seconds):
            break
    record["passes"] = len(passes)
    record["slowdown"] = round(statistics.median(p["slowdown"] for p in passes), 4)
    problems = [p for run in passes for p in run["problems"]]
    attempted = sum(len(run["latencies"]) for run in passes)

    if args.trace:
        requests = workload.requests()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(requests, tracer)
        finally:
            tracer.remove()
        layers = per_layer(tracer, traced, passes[-1])
        if set(layers) != {m["name"] for m in bench["per_layer"]}:
            raise RuntimeError("the traced run reports other metrics than BENCHMARK.json lists")
        metrics = {name: (value, len(requests)) for name, value in layers.items()}
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        spans_path = os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write(spans_path)
        record["spans"] = {"count": len(tracer.layer), "file": os.path.relpath(spans_path, ROOT)}
        record["families"] = family_summary(traced, traced["latencies"], tracer)
        record["traced_slowdown"] = round(traced["slowdown"], 4)
        problems += traced["problems"]
        attempted += len(traced["latencies"])
    else:
        metrics = end_to_end(passes, [scaled for _, scaled in setup_rounds])
        raw = end_to_end(passes, [seconds for seconds, _ in setup_rounds], key="latencies")
        record["raw"] = {name: value for name, (value, _) in raw.items()}
        record["families"] = family_summary(passes[0], request_latencies(passes))
    record["machine_ms"] = {"before": round(machine_before, 3), "after": round(machine_ms(), 3)}
    record["failed_frac"] = len(problems) / attempted
    record["python"] = sys.version.split()[0]

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, (value, samples) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]} (samples {samples})")
    print(f"{args.workload} failed_frac = {record['failed_frac']:.6g} (samples {attempted})")
    for p in problems[:10]:
        print(f"failed: {p}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
