"""Command-line front end.

Subcommands cover the whole library: axiom validation, metric reflection,
topology queries, isometry and pseudoisometry search, superspace class
membership, both gluing constructions, and the randomized invariant suites.

Exit codes: 0 success / predicate true / witness found; 1 predicate false /
no witness / property refuted; 2 invalid input; 3 resource cap exceeded or out
of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .constructions import Embedding, completion_glue, glue_zero_point, in_cec, is_superspace
from .core import PointMap, Space, _violation_text, format_dist, is_metric
from .document import DocumentError, document_payload, emit_document, load_space, render_document
from .fuzz import SUITES, run_fuzz
from .morphisms import (
    ResourceLimitError,
    are_pseudoisometric,
    brute_force_pseudoisometry,
    find_isometry,
)
from .reflection import metric_reflection
from .topology import boundary, closure, interior, is_closed, is_open


def _load_valid(*paths: str, require: tuple | None = None) -> list[Space]:
    """Parse every file, then check each in turn is a pseudometric space.

    ``require`` is an optional ``(predicate, message)`` pair checked on each
    space right after its own validation.
    """
    spaces = [load_space(path) for path in paths]
    for space, path in zip(spaces, paths):
        report = space.validate()
        if not report.ok:
            first = _violation_text(report.violations[0], space.labels.__getitem__)
            raise DocumentError(f"not a pseudometric space ({first})", path)
        if require is not None and not require[0](space):
            raise DocumentError(require[1], path)
    return spaces


def _parse_labels(space: Space, text: str) -> frozenset[int]:
    if not text:
        return frozenset()
    return frozenset(space.index(lab.strip()) for lab in text.split(","))


def _parse_embedding(sub: Space, sup: Space, text: str | None) -> PointMap:
    if text is None:
        return PointMap(sub, sup, tuple(sup.index(lab) for lab in sub.labels))
    images = [-1] * sub.n
    for piece in text.split(","):
        if "=" not in piece:
            raise DocumentError(f"embedding entry {piece!r} is not 'from=to'", "--embedding")
        src, dst = piece.split("=", 1)
        images[sub.index(src.strip())] = sup.index(dst.strip())
    missing = [sub.labels[i] for i in range(sub.n) if images[i] < 0]
    if missing:
        raise DocumentError(f"embedding misses points: {', '.join(missing)}", "--embedding")
    return PointMap(sub, sup, tuple(images))


def _map_payload(m: PointMap) -> dict:
    return {
        m.domain.labels[i]: m.codomain.labels[m.images[i]] for i in range(m.domain.n)
    }


# Each command returns (exit code, structured payload, plain lines); a payload
# of None means the plain lines are printed in both formats.
Result = tuple[int, dict | None, list[str]]


def _cmd_validate(args) -> Result:
    space = load_space(args.file)
    report = space.validate()
    violations = [
        {
            "rule": v.rule,
            "points": [space.labels[i] for i in v.points],
            "values": [format_dist(x) for x in v.values],
        }
        for v in report.violations
    ]
    payload = {"ok": report.ok, "violations": violations}
    if report.ok:
        payload["metric"] = is_metric(space)
        lines = ["ok" + (" (metric)" if payload["metric"] else " (pseudometric, not metric)")]
    else:
        lines = [f"not a pseudometric: {len(violations)} violation(s)"]
        lines += [_violation_text(v, space.labels.__getitem__) for v in report.violations]
    return (0 if report.ok else 1), payload, lines


def _cmd_reflect(args) -> Result:
    (space,) = _load_valid(
        args.file, require=(lambda s: s.n > 0, "metric reflection requires a nonempty space")
    )
    refl = metric_reflection(space)
    payload = {
        "quotient": document_payload(refl.quotient),
        "projection": _map_payload(refl.projection),
    }
    lines = [render_document(payload["quotient"]).rstrip("\n"), "", "projection:"]
    lines += [f"  {a} -> {b}" for a, b in payload["projection"].items()]
    return 0, payload, lines


# Lambdas look the functions up at call time, so a caller that rebinds this
# module's names (the per-layer tracer in perfbench) still sees every call.
_TOPOLOGY_OPS = {
    "closure": lambda s, a: closure(s, a).members,
    "interior": lambda s, a: interior(s, a).members,
    "boundary": lambda s, a: boundary(s, a).members,
    "is-open": lambda s, a: is_open(s, a),
    "is-closed": lambda s, a: is_closed(s, a),
}


def _cmd_topology(args) -> Result:
    (space,) = _load_valid(args.file)
    members = _parse_labels(space, args.set)
    ops = [args.op] if args.op else list(_TOPOLOGY_OPS)
    results = {op: _TOPOLOGY_OPS[op](space, members) for op in ops}
    payload: dict[str, object] = {}
    lines = []
    for op, val in results.items():
        if isinstance(val, frozenset):
            payload[op] = sorted(space.labels[i] for i in val)
            text = "{" + ", ".join(space.labels[i] for i in sorted(val)) + "}"
        else:
            payload[op] = val
            text = "true" if val else "false"
        lines.append(f"{op}: {text}")
    return (1 if results.get(args.op) is False else 0), payload, lines


def _witness(m: PointMap | None, **extra) -> Result:
    if m is None:
        return 1, {"found": False, "map": None, **extra}, ["none"]
    mapping = _map_payload(m)
    lines = [f"{a} -> {b}" for a, b in mapping.items()]
    return 0, {"found": True, "map": mapping, **extra}, lines


def _cmd_isometric(args) -> Result:
    s1, s2 = _load_valid(
        args.file1, args.file2, require=(is_metric, "isometry search requires a metric space")
    )
    witness, stats = find_isometry(s1, s2)
    return _witness(witness, stats=dataclasses.asdict(stats))


def _cmd_pseudoisometric(args) -> Result:
    s1, s2 = _load_valid(
        args.file1,
        args.file2,
        require=(lambda s: s.n > 0, "pseudoisometry requires nonempty spaces"),
    )
    search = brute_force_pseudoisometry if args.oracle else are_pseudoisometric
    return _witness(search(s1, s2))


def _cmd_cec(args) -> Result:
    sub, sup = _load_valid(args.subfile, args.superfile)
    e = Embedding(sub, sup, _parse_embedding(sub, sup, args.embedding))
    if not is_superspace(e):
        raise DocumentError("embedding is not distance-preserving and injective", args.superfile)
    member = in_cec(e)
    lines = ["in CEC" if member else "not in CEC"]
    return (0 if member else 1), {"superspace": True, "in_cec": member}, lines


def _cmd_glue_zero(args) -> Result:
    (space,) = _load_valid(args.file)
    glued = glue_zero_point(space, space.index(args.center), args.label)
    return 0, None, [emit_document(glued.sup).rstrip("\n")]


def _cmd_complete_glue(args) -> Result:
    y, ystar = _load_valid(args.yfile, args.ystarfile)
    if y.n == 0:
        raise DocumentError("completion gluing requires a nonempty space", args.yfile)
    quotient = metric_reflection(y).quotient
    embedding = _parse_embedding(quotient, ystar, args.embedding)
    glued = completion_glue(y, ystar, embedding)
    return 0, None, [emit_document(glued.sup).rstrip("\n")]


def _cmd_fuzz(args) -> Result:
    suites = SUITES if args.suite == "all" else (args.suite,)
    report = run_fuzz(args.seed, args.count, max_n=args.max_n, suites=suites)
    payload = {
        "seed": report.seed,
        "count": report.count,
        "max_n": report.max_n,
        "suites": report.suites,
        "ok": report.ok,
    }
    if report.failure is not None:
        payload["counterexample"] = {
            "suite": report.failure.suite,
            "check": report.failure.check,
            "detail": report.failure.detail,
            "documents": report.failure.documents,
        }
    return (0 if report.ok else 1), payload, [report.summary()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudometric",
        description="Finite pseudometric spaces with exact rational distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument(
            "--format", choices=("plain", "structured"), default="plain",
            help="plain text or machine-readable JSON output",
        )
        return p

    p = add("validate", _cmd_validate, "check the pseudometric axioms of a space document")
    p.add_argument("file")

    p = add("reflect", _cmd_reflect, "emit the metric reflection and the projection table")
    p.add_argument("file")

    p = add("topology", _cmd_topology, "closure/interior/boundary and open/closed predicates")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated point labels (empty for the empty set)")
    p.add_argument("--op", choices=_TOPOLOGY_OPS, help="single operation (default: all)")

    p = add("isometric", _cmd_isometric, "search for an isometry between two metric spaces")
    p.add_argument("file1")
    p.add_argument("file2")

    p = add("pseudoisometric", _cmd_pseudoisometric, "search for a pseudoisometry between two spaces")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument(
        "--oracle", action="store_true",
        help="use exhaustive map enumeration instead of the reflection-based search",
    )

    p = add("cec", _cmd_cec, "check membership of a superspace in the positive-distance class")
    p.add_argument("subfile")
    p.add_argument("superfile")
    p.add_argument("--embedding", help="comma-separated label pairs sub=super (default: match labels)")

    p = add("glue-zero", _cmd_glue_zero, "extend a space by a zero-distance twin of a point")
    p.add_argument("file")
    p.add_argument("--center", required=True, help="label of the point to twin")
    p.add_argument("--label", required=True, help="label for the new point")

    p = add("complete-glue", _cmd_complete_glue, "glue a metric superspace of the reflection onto a space")
    p.add_argument("yfile")
    p.add_argument("ystarfile")
    p.add_argument(
        "--embedding",
        help="comma-separated label pairs quotient=ystar (default: match labels)",
    )

    p = add("fuzz", _cmd_fuzz, "run the randomized invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        code, payload, lines = args.func(args)
    except (ResourceLimitError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if payload is not None and args.format == "structured":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
