"""The canonical space interchange format.

A space document is a JSON object with exactly two members, each given once:

    {
      "points": ["a", "b"],
      "d": [
        ["0", "1"],
        ["1", "0"]
      ]
    }

``points`` lists distinct nonempty labels; ``d`` is the square distance
matrix with every entry a string, either a decimal integer or ``"p/q"``
with ``p >= 0`` and ``q >= 1``. Any valid fraction is accepted on input;
output is always canonical (lowest terms, integer entries bare, two-space
indent, one matrix row per line, trailing newline), so parsing and
re-emitting a canonical document is the identity, byte for byte.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction

from .core import Dist, Space, _is_utf8, format_dist

_LITERAL = re.compile(r"(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?")


class DocumentError(ValueError):
    """A malformed space document, with a position for the offending part."""

    def __init__(self, message: str, where: str | None = None):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


def parse_dist_literal(text: str, where: str = "value") -> Dist:
    """Parse a distance literal: a decimal integer or ``p/q``."""
    if not isinstance(text, str):
        raise DocumentError(f"expected a distance string, got {type(text).__name__}", where)
    m = _LITERAL.fullmatch(text)
    if not m:
        raise DocumentError(f"invalid distance literal {text!r}", where)
    try:
        return Fraction(int(m.group(1)), int(m.group(2) or 1))
    except ValueError:  # the interpreter's limit on digits per integer
        raise DocumentError(f"distance literal too long ({len(text)} characters)", where) from None


def _unique_members(pairs: list[tuple[str, object]]) -> dict:
    # A JSON object whose keys all differ; json.loads would keep the last.
    data = dict(pairs)
    if len(data) < len(pairs):
        repeated = sorted(k for k, c in Counter(k for k, _ in pairs).items() if c > 1)
        raise DocumentError(f"repeated members: {repeated}", "$")
    return data


def parse_document(text: str) -> Space:
    """Parse a space document; structural problems raise :class:`DocumentError`.

    The pseudometric axioms are deliberately not checked here, so that the
    validation report can be produced for broken matrices.
    """
    try:
        data = json.loads(text, object_pairs_hook=_unique_members)
    except json.JSONDecodeError as e:
        raise DocumentError(e.msg, f"line {e.lineno}, column {e.colno}") from None
    except RecursionError:
        raise DocumentError("document nests too deeply", "$") from None
    except DocumentError:  # repeated members
        raise
    except ValueError:  # the interpreter's limit on digits per integer
        raise DocumentError("JSON number too long", "$") from None
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object", "$")
    extra = set(data) - {"points", "d"}
    if extra:
        raise DocumentError(f"unknown members: {sorted(extra)}", "$")
    if "points" not in data or "d" not in data:
        raise DocumentError('document needs both "points" and "d"', "$")

    points = data["points"]
    if not isinstance(points, list):
        raise DocumentError('"points" must be an array', "points")
    labels: list[str] = []
    seen: set[str] = set()
    for i, lab in enumerate(points):
        if not isinstance(lab, str) or not lab:
            raise DocumentError("labels must be nonempty strings", f"points[{i}]")
        if not _is_utf8(lab):
            raise DocumentError(f"label {lab!r} is not encodable as UTF-8", f"points[{i}]")
        if lab in seen:
            raise DocumentError(f"duplicate label {lab!r}", f"points[{i}]")
        seen.add(lab)
        labels.append(lab)

    d = data["d"]
    if not isinstance(d, list):
        raise DocumentError('"d" must be an array of arrays', "d")
    if len(d) != len(labels):
        raise DocumentError(f'"d" has {len(d)} rows, expected {len(labels)}', "d")
    rows: list[tuple[Fraction, ...]] = []
    # Each distinct literal is parsed once. Only successful parses are kept,
    # so a bad literal still fails at its first position; only strings
    # parse, so an unhashable entry never reaches the memo.
    memo: dict[str, Fraction] = {}
    for i, row in enumerate(d):
        if not isinstance(row, list):
            raise DocumentError("matrix row must be an array", f"d[{i}]")
        if len(row) != len(labels):
            raise DocumentError(
                f"row has {len(row)} entries, expected {len(labels)}", f"d[{i}]"
            )
        entries = []
        for j, v in enumerate(row):
            x = memo.get(v) if type(v) is str else None
            if x is None:
                x = memo[v] = parse_dist_literal(v, f"d[{i}][{j}]")
            entries.append(x)
        rows.append(tuple(entries))
    return Space(tuple(labels), tuple(rows))


def document_payload(space: Space) -> dict:
    """The members of a space's document as JSON values: labels and literals."""
    return {
        "points": list(space.labels),
        "d": [[format_dist(v) for v in row] for row in space.matrix],
    }


def render_document(payload: dict) -> str:
    """Render a :func:`document_payload` in canonical document form."""
    out = ["{"]
    out.append(f'  "points": {json.dumps(payload["points"])},')
    rows = payload["d"]
    if not rows:
        out.append('  "d": []')
    else:
        out.append('  "d": [')
        for i, row in enumerate(rows):
            comma = "," if i + 1 < len(rows) else ""
            out.append(f"    {json.dumps(row)}{comma}")
        out.append("  ]")
    out.append("}")
    return "\n".join(out) + "\n"


def emit_document(space: Space) -> str:
    """Render a space in canonical document form."""
    return render_document(document_payload(space))


def load_space(path: str) -> Space:
    """Read and parse a space document from a file; every error names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return parse_document(text)
    except (OSError, UnicodeDecodeError, DocumentError) as e:
        raise DocumentError(str(e), path) from None
