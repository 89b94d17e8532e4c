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
import functools
import json
import os
import sys

from .constructions import completion_glue, glue_zero_point, in_cec, is_superspace
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


def _point(space: Space, label: str, source: str) -> int:
    # Every label a command line names resolves here, and an unknown one
    # names its source: the option, or the file a default embedding reads.
    try:
        return space.index(label)
    except ValueError as e:
        raise DocumentError(str(e), source) from None


def _parse_embedding(sub: Space, sup: Space, text: str | None, sup_path: str) -> PointMap:
    if text is None:
        return PointMap(sub, sup, tuple(_point(sup, lab, sup_path) for lab in sub.labels))
    images = [-1] * sub.n
    for piece in text.split(","):
        if "=" not in piece:
            raise DocumentError(f"embedding entry {piece!r} is not 'from=to'", "--embedding")
        src, dst = (lab.strip() for lab in piece.split("=", 1))
        i = _point(sub, src, "--embedding")
        if images[i] >= 0:
            raise DocumentError(f"point {src!r} is mapped twice", "--embedding")
        images[i] = _point(sup, dst, "--embedding")
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


# Each op calls the function of its name, looked up per call as main looks up handlers.
_TOPOLOGY_OPS = ("closure", "interior", "boundary", "is-open", "is-closed")


def _cmd_topology(args) -> Result:
    (space,) = _load_valid(args.file)
    members = frozenset()
    if args.set:  # the empty string names the empty set
        members = frozenset(_point(space, lab.strip(), "--set") for lab in args.set.split(","))
    payload: dict[str, object] = {}
    lines = []
    for op in [args.op] if args.op else _TOPOLOGY_OPS:
        val = globals()[op.replace("-", "_")](space, members)
        if isinstance(val, frozenset):
            labels = [space.labels[i] for i in sorted(val)]
            payload[op] = sorted(labels)
            text = "{" + ", ".join(labels) + "}"
        else:
            payload[op] = val
            text = "true" if val else "false"
        lines.append(f"{op}: {text}")
    return (1 if payload.get(args.op) is False else 0), payload, lines


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
    e = _parse_embedding(sub, sup, args.embedding, args.superfile)
    if not is_superspace(e):
        raise DocumentError("embedding is not distance-preserving and injective", args.superfile)
    member = in_cec(e)
    lines = ["in CEC" if member else "not in CEC"]
    return (0 if member else 1), {"superspace": True, "in_cec": member}, lines


def _cmd_glue_zero(args) -> Result:
    (space,) = _load_valid(args.file)
    glued = glue_zero_point(space, _point(space, args.center, "--center"), args.label)
    return 0, None, [emit_document(glued.codomain).rstrip("\n")]


def _cmd_complete_glue(args) -> Result:
    y, ystar = _load_valid(args.yfile, args.ystarfile)
    if y.n == 0:
        raise DocumentError("completion gluing requires a nonempty space", args.yfile)
    quotient = metric_reflection(y).quotient
    embedding = _parse_embedding(quotient, ystar, args.embedding, args.ystarfile)
    try:
        glued = completion_glue(y, embedding)
    except ValueError as e:
        # y is valid and nonempty, so the fault is in ystar or the map.
        raise DocumentError(str(e), args.ystarfile) from None
    return 0, None, [emit_document(glued.codomain).rstrip("\n")]


def _cmd_fuzz(args) -> Result:
    suites = SUITES if args.suite == "all" else (args.suite,)
    report = run_fuzz(args.seed, args.count, max_n=args.max_n, suites=suites)
    payload = {**dataclasses.asdict(report), "ok": report.ok}
    if (failure := payload.pop("failure")) is not None:
        payload["counterexample"] = failure
    return (0 if report.ok else 1), payload, [report.summary()]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process. The parser keeps no handler: ``main`` finds
    # ``_cmd_<name>`` from the command's name at call time, so a rebound
    # ``_cmd_*`` is still the one that runs.
    parser = argparse.ArgumentParser(
        prog="pseudometric",
        description="Finite pseudometric spaces with exact rational distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *files):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format", choices=("plain", "structured"), default="plain",
            help="plain text or machine-readable JSON output",
        )
        for file in files:
            p.add_argument(file)
        return p

    add("validate", "check the pseudometric axioms of a space document", "file")
    add("reflect", "emit the metric reflection and the projection table", "file")

    p = add("topology", "closure/interior/boundary and open/closed predicates", "file")
    p.add_argument("--set", required=True, help="comma-separated point labels (empty for the empty set)")
    p.add_argument("--op", choices=_TOPOLOGY_OPS, help="single operation (default: all)")

    add("isometric", "search for an isometry between two metric spaces", "file1", "file2")

    p = add("pseudoisometric", "search for a pseudoisometry between two spaces", "file1", "file2")
    p.add_argument(
        "--oracle", action="store_true",
        help="use exhaustive map enumeration instead of the reflection-based search",
    )

    p = add(
        "cec", "check membership of a superspace in the positive-distance class",
        "subfile", "superfile",
    )
    p.add_argument("--embedding", help="comma-separated label pairs sub=super (default: match labels)")

    p = add("glue-zero", "extend a space by a zero-distance twin of a point", "file")
    p.add_argument("--center", required=True, help="label of the point to twin")
    p.add_argument("--label", required=True, help="label for the new point")

    p = add(
        "complete-glue", "glue a metric superspace of the reflection onto a space",
        "yfile", "ystarfile",
    )
    p.add_argument(
        "--embedding",
        help="comma-separated label pairs quotient=ystar (default: match labels)",
    )

    p = add("fuzz", "run the randomized invariant suites")
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
        code, payload, lines = globals()["_cmd_" + args.command.replace("-", "_")](args)
    except (ResourceLimitError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if payload is not None and args.format == "structured":
        lines = [json.dumps(payload, indent=2, sort_keys=True)]
    try:
        # One write: a text stream encodes the whole string before it
        # writes any of it, so output it cannot encode leaves stdout empty.
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: send the rest, and the final flush, to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except UnicodeEncodeError as e:
        print(f"error: stdout cannot encode the output ({e.encoding}: {e.reason})", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
