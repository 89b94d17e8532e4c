"""Independent brute-force oracles used to cross-check the library.

Everything here is written with straight loops against the raw definitions,
on purpose: these are the second route of every dual-route test, so they
must not share code with the implementations they check. The seeded map
generator at the end is an input source, not an oracle: it is built from
the library's public API, and the tests that read it check every map.
"""

from __future__ import annotations

import itertools
import math
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
    return Report(tuple(violations))


def zero_classes_by_definition(matrix):
    """The classes of a zero pattern that is an equivalence, by definition.

    Point ``i``'s class is every ``j`` with ``d(i, j) = 0``; the distinct
    classes come ordered by least member.
    """
    n = len(matrix)
    classes = {frozenset(j for j in range(n) if matrix[i][j] == 0) for i in range(n)}
    return tuple(sorted(classes, key=min))


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


def one_point_extensions(space: Space, values: tuple[int, ...]):
    """Every valid space that adds a point ``z`` to ``space``, with entries from ``values``.

    The new point comes last; every assignment of its distances is tried
    and kept when an independent triangle scan passes. ``space`` must not
    use the label ``z``.
    """
    for row in itertools.product(map(Fraction, values), repeat=space.n):
        rows = [[*r, v] for r, v in zip(space.matrix, row)] + [[*row, Fraction(0)]]
        if triangle_ok(rows):
            yield Space(space.labels + ("z",), tuple(map(tuple, rows)))


def reflection_key(space: Space) -> tuple[Fraction, ...]:
    """The isometry class of a space's metric reflection, from the definition.

    The reflection keeps one point per class of distance 0, here its least
    member; the key is the least row-major distance matrix of those members
    over all their orders. Built without ``metric_reflection``.
    """
    reps = [i for i in range(space.n) if all(space.matrix[i][j] != 0 for j in range(i))]
    return min(
        tuple(space.matrix[a][b] for a in order for b in order)
        for order in itertools.permutations(reps)
    )


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


def joint_refinement(d1, d2):
    """Joint colors of the points of two int matrices, refined until stable.

    The colors start from the sorted rows; each round sorts the pairs
    ``(d[i][j], color of j)`` over the other points ``j`` of the same
    matrix, and numbers the distinct profiles of both matrices together.
    Stops when the number of colors stops changing.
    """

    def canon(profiles1, profiles2):
        table = {p: c for c, p in enumerate(sorted(set(profiles1) | set(profiles2)))}
        return [table[p] for p in profiles1], [table[p] for p in profiles2], len(table)

    def refine(d, c):
        n = len(d)
        return [
            (c[i], tuple(sorted((d[i][j], c[j]) for j in range(n) if j != i))) for i in range(n)
        ]

    c1, c2, classes = canon(*([tuple(sorted(row)) for row in d] for d in (d1, d2)))
    while True:
        c1, c2, new_classes = canon(refine(d1, c1), refine(d2, c2))
        if new_classes == classes:
            break
        classes = new_classes
    return c1, c2


def backtracking_isometry(s1: Space, s2: Space):
    """Isometry search by plain backtracking: ``(images or None, nodes, prunes, checks)``.

    The search whose steps ``find_isometry`` counts: one candidate and one
    distance comparison at a time. Candidates are refined by sorted
    ``(distance, color)`` pairs over the other points, jointly in both
    spaces; points are placed most-constrained first, ties toward the least
    index, and each candidate is compared with the placed points in
    placement order, as ``d1[i][prev]`` against ``d2[j][image of prev]``.
    Both spaces must be metric.
    """
    n = s1.n
    if n != s2.n:
        return None, 0, 0, 0
    if n == 0:
        return (), 0, 0, 0
    scale = math.lcm(*(v.denominator for s in (s1, s2) for row in s.matrix for v in row))
    d1, d2 = (
        [[v.numerator * (scale // v.denominator) for v in row] for row in s.matrix]
        for s in (s1, s2)
    )
    c1, c2 = joint_refinement(d1, d2)

    candidates = [[j for j in range(n) if c2[j] == c1[i]] for i in range(n)]
    prunes = sum(n - len(c) for c in candidates)
    if sorted(c1) != sorted(c2):
        return None, 0, prunes, 0

    order = sorted(range(n), key=lambda i: (len(candidates[i]), i))
    assigned = [order[:k] for k in range(n)]
    images = [-1] * n
    used = [False] * n
    nodes = checks = 0
    stack = [iter(candidates[order[0]])]
    while stack:
        k = len(stack) - 1
        i = order[k]
        if images[i] >= 0:
            used[images[i]] = False
            images[i] = -1
        for j in stack[k]:
            if used[j]:
                continue
            nodes += 1
            for prev in assigned[k]:
                checks += 1
                if d1[i][prev] != d2[j][images[prev]]:
                    break
            else:
                images[i] = j
                used[j] = True
                break
        else:
            stack.pop()
            continue
        if k + 1 == n:
            break
        stack.append(iter(candidates[order[k + 1]]))
    return (tuple(images) if stack else None), nodes, prunes, checks


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
