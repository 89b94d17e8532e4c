"""Seeded input generation for the benchmark, independent of the program.

Every input is built here from a seed with stdlib ``random`` and integer
arithmetic: a space is a label list plus an integer matrix over a common
denominator ``scale``, and metrics come from integer shortest-path closure.
Nothing is taken from ``pseudometric`` (in particular not its
``random_space``), so a change to the program cannot change a workload.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

# Denominators of gate distances are drawn from 1..4, so every entry is an
# integer multiple of 1/12.
GATE_SCALE = 12
MAX_ENTRY = 6


@dataclass(frozen=True)
class IntSpace:
    """A space with distances ``m[i][j] / scale``."""

    labels: tuple[str, ...]
    m: tuple[tuple[int, ...], ...]
    scale: int = 1

    @property
    def n(self) -> int:
        return len(self.labels)

    def literal(self, v: int) -> str:
        g = math.gcd(v, self.scale)
        p, q = v // g, self.scale // g
        return str(p) if q == 1 else f"{p}/{q}"

    def document(self) -> str:
        """The space in canonical document form."""
        out = ["{", f'  "points": {json.dumps(list(self.labels))},']
        if not self.labels:
            out.append('  "d": []')
        else:
            out.append('  "d": [')
            for i, row in enumerate(self.m):
                comma = "," if i + 1 < self.n else ""
                out.append(f"    {json.dumps([self.literal(v) for v in row])}{comma}")
            out.append("  ]")
        out.append("}")
        return "\n".join(out) + "\n"


def _freeze(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(r) for r in rows)


def shortest_path_closure(rows: list[list[int]]) -> None:
    """Integer Floyd-Warshall in place: the largest metric below ``rows``."""
    n = len(rows)
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            ri = rows[i]
            dik = ri[k]
            for j in range(n):
                via = dik + rk[j]
                if via < ri[j]:
                    ri[j] = via


def graph_metric(n: int, adjacent) -> list[list[int]]:
    """Path metric of the graph on ``range(n)`` with edge predicate ``adjacent``."""
    inf = n + 1
    rows = [[0 if i == j else (1 if adjacent(i, j) else inf) for j in range(n)] for i in range(n)]
    shortest_path_closure(rows)
    return rows


def hypercube(dim: int) -> IntSpace:
    n = 1 << dim
    rows = graph_metric(n, lambda a, b: bin(a ^ b).count("1") == 1)
    return IntSpace(tuple(f"q{i}" for i in range(n)), _freeze(rows))


def rook(k: int) -> IntSpace:
    """The k x k rook's graph: cells adjacent when they share a row or column."""
    cells = [(r, c) for r in range(k) for c in range(k)]
    rows = graph_metric(
        k * k, lambda a, b: (cells[a][0] == cells[b][0]) != (cells[a][1] == cells[b][1])
    )
    return IntSpace(tuple(f"r{i}" for i in range(k * k)), _freeze(rows))


def shrikhande() -> IntSpace:
    """Cayley graph of Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    cells = [(a, b) for a in range(4) for b in range(4)]
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}

    def adjacent(x: int, y: int) -> bool:
        (a, b), (c, d) = cells[x], cells[y]
        return ((c - a) % 4, (d - b) % 4) in steps

    rows = graph_metric(16, adjacent)
    return IntSpace(tuple(f"s{i}" for i in range(16)), _freeze(rows))


def latin_square(k: int) -> IntSpace:
    """Latin-square graph of the Cayley table of Z_k: cells sharing a row, column or symbol."""
    cells = [(r, c, (r + c) % k) for r in range(k) for c in range(k)]

    def adjacent(x: int, y: int) -> bool:
        return x != y and any(u == v for u, v in zip(cells[x], cells[y]))

    rows = graph_metric(k * k, adjacent)
    return IntSpace(tuple(f"l{i}" for i in range(k * k)), _freeze(rows))


def box_k2(g: IntSpace, prefix: str) -> IntSpace:
    """Cartesian product with K2: point (v, e) is index ``2 * v + e``."""
    n = g.n
    rows = [
        [g.m[a >> 1][b >> 1] + ((a ^ b) & 1) for b in range(2 * n)] for a in range(2 * n)
    ]
    return IntSpace(tuple(f"{prefix}{i}" for i in range(2 * n)), _freeze(rows), g.scale)


def permuted(space: IntSpace, rng: random.Random, prefix: str = "t") -> tuple[IntSpace, list[int]]:
    """A relabeled copy with rows reordered by ``rng.shuffle``.

    Returns the twin and ``images``, the isometry onto it as an index list.
    """
    sigma = list(range(space.n))
    rng.shuffle(sigma)
    rows = [[space.m[sigma[i]][sigma[j]] for j in range(space.n)] for i in range(space.n)]
    images = [0] * space.n
    for new, old in enumerate(sigma):
        images[old] = new
    twin = IntSpace(tuple(f"{prefix}{i}" for i in range(space.n)), _freeze(rows), space.scale)
    return twin, images


def with_clones(space: IntSpace, clones: int, rng: random.Random, prefix: str = "c") -> IntSpace:
    """Append ``clones`` zero-distance copies of randomly chosen points."""
    rows = [list(r) for r in space.m]
    for i in range(space.n, space.n + clones):
        src = rng.randrange(i)
        for row in rows:
            row.append(row[src])
        rows.append([rows[j][src] for j in range(i)] + [0])
    labels = space.labels + tuple(f"{prefix}{i}" for i in range(space.n, space.n + clones))
    return IntSpace(labels, _freeze(rows), space.scale)


def random_metric(rng: random.Random, n: int, prefix: str = "p") -> IntSpace:
    """Positive entries p/q with q in 1..4 and value at most 6, closed to a metric."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.randint(1, 4)
            num = rng.randint(1, MAX_ENTRY * den)
            rows[i][j] = rows[j][i] = num * (GATE_SCALE // den)
    shortest_path_closure(rows)
    return IntSpace(tuple(f"{prefix}{i}" for i in range(n)), _freeze(rows), GATE_SCALE)


def gate_space(rng: random.Random, n: int) -> IntSpace:
    """A valid pseudometric on ``n`` points, about one sixth of them zero clones."""
    clones = n // 6
    base = random_metric(rng, n - clones)
    padded = with_clones(base, clones, rng, prefix="p")
    # Shuffle so that clones are not all at the end.
    twin, _ = permuted(padded, rng, prefix="p")
    return twin


def plant_violations(space: IntSpace, rng: random.Random) -> IntSpace:
    """Break the axioms: raise a few symmetric pairs, and make one pair asymmetric.

    A raised pair ``d(i, j) = d(j, i)`` exceeds the length of some path
    through a third point, which breaks the triangle inequality; the
    asymmetric pair breaks symmetry. The exact violation count is left to
    the reference checker.
    """
    rows = [list(r) for r in space.m]
    n = space.n
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        detour = max(rows[i][k] + rows[k][j] for k in range(n) if k not in (i, j))
        rows[i][j] = rows[j][i] = rows[i][j] + rng.randint(1, max(1, detour - rows[i][j]))
    i, j = rng.sample(range(n), 2)
    rows[i][j] += rng.randint(1, space.scale)
    return IntSpace(space.labels, _freeze(rows), space.scale)
