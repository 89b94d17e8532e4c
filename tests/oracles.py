"""Independent brute-force oracles used to cross-check the library.

Everything here is written with straight loops against the raw definitions,
on purpose: these are the second route of every dual-route test, so they
must not share code with the implementations they check. The seeded map
generator at the end is an input source, not an oracle: it is built from
the library's public API, and the tests that read it check every map.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from pseudometric import (
    GenParams,
    PointMap,
    Report,
    Space,
    Violation,
    are_pseudoisometric,
    compose,
    metric_reflection,
    random_space,
)


def validate_by_definition(labels, matrix):
    """The axiom report by straight ``Fraction`` loops over the raw matrix.

    Same rules, order and witnesses as ``validate_pseudometric``, which
    compares scaled integers instead; the two reports must be equal.
    """
    rows = [[Fraction(v) for v in row] for row in matrix]
    n = len(labels)
    violations = []
    for i in range(n):
        for j in range(n):
            if rows[i][j] < 0:
                violations.append(Violation("negative", (i, j), (rows[i][j],)))
    for i in range(n):
        if rows[i][i] != 0:
            violations.append(Violation("diagonal", (i,), (rows[i][i],)))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                violations.append(Violation("symmetry", (i, j), (rows[i][j], rows[j][i])))
    for i in range(n):
        for j in range(n):
            dij = rows[i][j]
            for k in range(n):
                if dij > rows[i][k] + rows[k][j]:
                    violations.append(
                        Violation("triangle", (i, k, j), (dij, rows[i][k], rows[k][j]))
                    )
    return Report.from_violations(violations)


def scan_axioms(rows):
    """Naive axiom scan over a raw matrix; returns witness lists per rule."""
    n = len(rows)
    out = {"negative": [], "diagonal": [], "symmetry": [], "triangle": []}
    for i in range(n):
        for j in range(n):
            if rows[i][j] < 0:
                out["negative"].append((i, j))
    for i in range(n):
        if rows[i][i] != 0:
            out["diagonal"].append((i,))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                out["symmetry"].append((i, j))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j]:
                    out["triangle"].append((i, k, j))
    return out


def triangle_ok(rows):
    n = len(rows)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j]:
                    return False
    return True


_LETTERS = "abcdefgh"


@lru_cache(maxsize=None)
def small_spaces(max_n: int, values: tuple[int, ...] = (0, 1, 2)) -> tuple[Space, ...]:
    """Every valid space on up to ``max_n`` points with entries from ``values``.

    Enumerates all symmetric zero-diagonal assignments of the off-diagonal
    entries and keeps those passing an independent triangle scan; every
    zero pattern on the points appears among the survivors.
    """
    spaces = []
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for combo in itertools.product(values, repeat=len(pairs)):
            rows = [[Fraction(0)] * n for _ in range(n)]
            for (i, j), v in zip(pairs, combo):
                rows[i][j] = rows[j][i] = Fraction(v)
            if triangle_ok(rows):
                spaces.append(Space(tuple(_LETTERS[:n]), tuple(tuple(r) for r in rows)))
    return tuple(spaces)


def all_subsets(n: int):
    for mask in range(1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


def open_by_definition(space: Space, members: frozenset[int]) -> bool:
    """A set is open iff around every member some open ball stays inside it."""
    radii = sorted({d for row in space.matrix for d in row if d > 0})
    radii.append((radii[-1] if radii else Fraction(1)) + 1)
    for a in members:
        if not any(
            frozenset(
                x for x in range(space.n) if space.matrix[a][x] < r
            ) <= members
            for r in radii
        ):
            return False
    return True


def closed_by_definition(space: Space, members: frozenset[int]) -> bool:
    return open_by_definition(space, frozenset(range(space.n)) - members)


def closure_by_definition(space: Space, members: frozenset[int]) -> frozenset[int]:
    """Smallest closed superset, by enumerating all closed supersets."""
    best = frozenset(range(space.n))
    for candidate in all_subsets(space.n):
        if members <= candidate and closed_by_definition(space, candidate):
            best &= candidate
    return best


def factorial_isometry(s1: Space, s2: Space) -> tuple[int, ...] | None:
    """First distance-preserving bijection found by trying all permutations."""
    if s1.n != s2.n:
        return None
    for perm in itertools.permutations(range(s2.n)):
        ok = True
        for i in range(s1.n):
            for j in range(i + 1, s1.n):
                if s1.matrix[i][j] != s2.matrix[perm[i]][perm[j]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return perm
    return None


def pseudoisometry_by_definition(m: PointMap) -> bool:
    """Literal check of the two defining conditions of a pseudoisometry."""
    x, y = m.domain, m.codomain
    for i in range(x.n):
        for j in range(x.n):
            if y.matrix[m.images[i]][m.images[j]] != x.matrix[i][j]:
                return False
    for u in range(y.n):
        if not any(y.matrix[m.images[v]][u] == 0 for v in range(x.n)):
            return False
    return True


def iter_pseudoisometries(seed: int, count: int):
    """Yield ``count`` pseudoisometries of varied shapes, reproducibly from ``seed``.

    In turn: identities, permutation isometries of metric spaces,
    projections onto and sections from metric reflections,
    reflection-search witnesses onto a space padded with zero-distance
    clones, and projection-then-section composites, so that domains and
    codomains cover every metric/non-metric combination.
    """
    rng = random.Random(seed)
    for produced in range(count):
        n = rng.randint(1, 5)
        x = random_space(GenParams(seed=rng.getrandbits(63), n=n, zero_merge_prob=Fraction(1, 3)))
        refl = metric_reflection(x)
        q = refl.quotient
        kind = produced % 6
        if kind == 0:
            yield PointMap.identity(x)
        elif kind == 1:
            # A relabeled, reordered copy of the quotient: twin point k is
            # quotient point sigma[k].
            sigma = list(range(q.n))
            rng.shuffle(sigma)
            twin = Space(
                tuple(f"t{k}" for k in range(q.n)),
                tuple(tuple(q.matrix[a][b] for b in sigma) for a in sigma),
            )
            yield PointMap(q, twin, tuple(sigma.index(i) for i in range(q.n)))
        elif kind == 2:
            yield refl.projection
        elif kind == 3:
            yield refl.section
        elif kind == 4:
            # The quotient padded with zero-distance clones of earlier points.
            points = list(range(q.n))
            for i in range(q.n, rng.randint(q.n, 5)):
                points.append(points[rng.randrange(i)])
            clones = Space(
                q.labels + tuple(f"c{i}" for i in range(q.n, len(points))),
                tuple(tuple(q.matrix[a][b] for b in points) for a in points),
            )
            m = are_pseudoisometric(x, clones)
            if m is None:
                raise AssertionError("a space padded with clones must stay pseudoisometric")
            yield m
        else:
            yield compose(refl.projection, refl.section)
