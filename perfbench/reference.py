"""Independent reference answers, computed with integer arithmetic.

Nothing here imports ``pseudometric``. Every space is an ``IntSpace`` from
``inputs`` (labels plus an integer matrix over a common denominator), and
every answer is derived from the definitions: the axioms for validation,
zero-distance classes for the reflection and the topology, and direct
distance comparison for witnesses. The ``check_*`` functions take what the
program printed (a result with ``code``, ``out`` and ``err``) or returned,
and give ``None`` when it is right, or a short reason when it is not.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from inputs import IntSpace

_VIOLATION_LINE = re.compile(r"^(\w+) at \(([^)]*)\)(?:: (.*))?$")


@dataclass(frozen=True)
class Axioms:
    """Every axiom violation of a matrix, as the rendered set the CLI reports."""

    violations: frozenset[tuple[str, tuple[str, ...], tuple[str, ...]]]
    metric: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def axioms(s: IntSpace) -> Axioms:
    """Diagonal, symmetry and every ordered triangle violation ``d(i,j) > d(i,k) + d(k,j)``."""
    m, lab, lit = s.m, s.labels, s.literal
    n = s.n
    found = set()
    for i in range(n):
        if m[i][i] != 0:
            found.add(("diagonal", (lab[i],), (lit(m[i][i]),)))
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                found.add(("symmetry", (lab[i], lab[j]), (lit(m[i][j]), lit(m[j][i]))))
    cols = [tuple(m[i][j] for i in range(n)) for j in range(n)]
    for i in range(n):
        ri = m[i]
        for j in range(n):
            dij = ri[j]
            cj = cols[j]
            if any(a + b < dij for a, b in zip(ri, cj)):
                for k in range(n):
                    if ri[k] + cj[k] < dij:
                        found.add(
                            ("triangle", (lab[i], lab[k], lab[j]), (lit(dij), lit(ri[k]), lit(cj[k])))
                        )
    metric = all(m[i][j] != 0 for i in range(n) for j in range(n) if i != j)
    return Axioms(frozenset(found), metric)


def classes(s: IntSpace) -> list[int]:
    """For each point, the least index at distance 0 from it (valid spaces only)."""
    return [next(j for j in range(s.n) if s.m[i][j] == 0) for i in range(s.n)]


def quotient(s: IntSpace) -> tuple[dict, dict]:
    """The metric reflection as a document payload, and the projection by label."""
    rep = classes(s)
    reps = sorted(set(rep))
    doc = {
        "points": [s.labels[r] for r in reps],
        "d": [[s.literal(s.m[a][b]) for b in reps] for a in reps],
    }
    projection = {s.labels[i]: s.labels[rep[i]] for i in range(s.n)}
    return doc, projection


def topology(s: IntSpace, members: frozenset[int]) -> dict[str, object]:
    """Closure, interior, boundary and the open/closed predicates of a subset."""
    rep = classes(s)

    def closure(a: frozenset[int]) -> frozenset[int]:
        hit = {rep[i] for i in a}
        return frozenset(i for i in range(s.n) if rep[i] in hit)

    everything = frozenset(range(s.n))
    cl = closure(members)
    cl_rest = closure(everything - members)
    saturated = cl == members
    return {
        "closure": cl,
        "interior": everything - cl_rest,
        "boundary": cl & cl_rest,
        "is-open": saturated,
        "is-closed": saturated,
    }


def glue_zero(s: IntSpace, center: int, label: str) -> dict:
    """The document of ``s`` extended by a zero-distance twin of ``center``."""
    rows = [list(r) + [r[center]] for r in s.m]
    rows.append(list(s.m[center]) + [0])
    return {
        "points": list(s.labels) + [label],
        "d": [[s.literal(v) for v in r] for r in rows],
    }


def separated(a: IntSpace, b: IntSpace) -> bool:
    """True when the multisets of distances differ, which rules out any isometry."""
    return sorted(v for r in a.m for v in r) != sorted(v for r in b.m for v in r)


def check_isometry(x: IntSpace, y: IntSpace, images) -> str | None:
    """An isometry is a distance-preserving bijection."""
    if len(images) != x.n or sorted(images) != list(range(y.n)):
        return "witness is not a bijection"
    return check_pseudoisometry(x, y, images)


def check_pseudoisometry(x: IntSpace, y: IntSpace, images) -> str | None:
    """Distances preserved (in lowest terms) and every zero class of ``y`` hit."""
    if len(images) != x.n:
        return "witness has the wrong number of images"
    for i in range(x.n):
        for j in range(i + 1, x.n):
            if x.literal(x.m[i][j]) != y.literal(y.m[images[i]][images[j]]):
                return f"witness changes d({x.labels[i]},{x.labels[j]})"
    rep = classes(y)
    if {rep[j] for j in images} != set(rep):
        return "witness misses a zero-distance class"
    return None


# --- checks of CLI output -------------------------------------------------


def _clean(result, expected_code: int) -> str | None:
    if "Traceback" in result.err:
        return "traceback on stderr"
    if result.code != expected_code:
        return f"exit {result.code}, expected {expected_code}"
    return None


def check_rejected(result) -> str | None:
    """An invalid document must be refused with exit 2 and one error line."""
    problem = _clean(result, 2)
    if problem:
        return problem
    if result.out or not result.err.startswith("error: ") or "not a pseudometric space" not in result.err:
        return "invalid document not reported as such"
    if result.err.count("\n") != 1:
        return "error report is not one line"
    return None


def check_validate(ax: Axioms, structured: bool, result) -> str | None:
    problem = _clean(result, 0 if ax.ok else 1)
    if problem:
        return problem
    if structured:
        payload = json.loads(result.out)
        got = {(v["rule"], tuple(v["points"]), tuple(v["values"])) for v in payload["violations"]}
        if payload["ok"] != ax.ok or len(payload["violations"]) != len(ax.violations):
            return "wrong verdict or violation count"
        if ax.ok and payload.get("metric") != ax.metric:
            return "wrong metric flag"
    else:
        lines = result.out.splitlines()
        if ax.ok:
            expected = "ok (metric)" if ax.metric else "ok (pseudometric, not metric)"
            return None if lines == [expected] else "wrong verdict line"
        if lines[0] != f"not a pseudometric: {len(ax.violations)} violation(s)":
            return "wrong violation count"
        got = set()
        for line in lines[1:]:
            m = _VIOLATION_LINE.match(line)
            if not m:
                return f"unreadable violation line {line!r}"
            values = tuple(m.group(3).split(", ")) if m.group(3) else ()
            got.add((m.group(1), tuple(m.group(2).split(",")), values))
        if len(lines) - 1 != len(ax.violations):
            return "wrong number of violation lines"
    return None if got == ax.violations else "reported violations differ from the reference"


def check_reflect(expected: tuple[dict, dict], structured: bool, result) -> str | None:
    problem = _clean(result, 0)
    if problem:
        return problem
    doc, projection = expected
    if structured:
        payload = json.loads(result.out)
        got_doc, got_proj = payload["quotient"], payload["projection"]
    else:
        head, sep, tail = result.out.partition("\nprojection:\n")
        if not sep:
            return "no projection table"
        got_doc = json.loads(head)
        got_proj = {}
        for line in tail.splitlines():
            src, arrow, dst = line.strip().partition(" -> ")
            if not arrow:
                return f"unreadable projection line {line!r}"
            got_proj[src] = dst
    if got_doc != doc:
        return "wrong quotient"
    return None if got_proj == projection else "wrong projection"


def check_topology(s: IntSpace, expected: dict, structured: bool, result) -> str | None:
    problem = _clean(result, 0)
    if problem:
        return problem
    want = {
        op: (sorted(s.labels[i] for i in v) if isinstance(v, frozenset) else v)
        for op, v in expected.items()
    }
    if structured:
        return None if json.loads(result.out) == want else "wrong topology answer"
    got: dict[str, object] = {}
    for line in result.out.splitlines():
        op, _, value = line.partition(": ")
        if value in ("true", "false"):
            got[op] = value == "true"
        else:
            inner = value.strip("{}")
            got[op] = sorted(inner.split(", ")) if inner else []
    want = {op: (sorted(v) if isinstance(v, list) else v) for op, v in want.items()}
    return None if got == want else "wrong topology answer"


def check_glue(expected: dict, result) -> str | None:
    problem = _clean(result, 0)
    if problem:
        return problem
    return None if json.loads(result.out) == expected else "wrong glued document"


_SUITE_LINE = re.compile(r"^(\w+): (\d+) checks, ok$")


def check_fuzz(suite: str, structured: bool, result) -> tuple[str | None, int]:
    """A fuzz request must pass; returns the problem (or None) and the checks run."""
    problem = _clean(result, 0)
    if problem:
        return problem, 0
    if structured:
        payload = json.loads(result.out)
        if payload["ok"] is not True or list(payload["suites"]) != [suite]:
            return "fuzz did not pass", 0
        checks = payload["suites"][suite]
    else:
        lines = result.out.splitlines()
        m = _SUITE_LINE.match(lines[1]) if len(lines) == 3 else None
        if not m or m.group(1) != suite or lines[2] != f"result: PASS ({m.group(2)} checks)":
            return "fuzz did not pass", 0
        checks = int(m.group(2))
    return (None, checks) if checks > 0 else ("fuzz ran no checks", 0)
