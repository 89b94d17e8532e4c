"""Distance-preserving maps, pseudoisometries, and isometry search.

A pseudoisometry is a map that preserves all distances and whose image
meets every zero-distance class of the codomain. Two spaces admit one
exactly when their metric reflections are isometric, which reduces the
search problem to metric isometry on the quotients; `find_isometry` solves
that by signature-pruned backtracking, and `brute_force_pseudoisometry`
provides the independent enumeration oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import (
    Dist,
    PointMap,
    Report,
    Space,
    Violation,
    _scaled,
    is_metric,
    zero_classes,
)
from .reflection import metric_reflection


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration would exceed its cap."""


# The most maps `brute_force_pseudoisometry` enumerates.
_MAP_CAP = 10**6


@dataclass(frozen=True)
class IsoSearchStats:
    """Counters from one isometry search.

    ``nodes``: partial assignments tried; ``signature_prunes``: candidate
    pairs excluded up front by the signature refinement; ``distance_checks``:
    exact distance comparisons performed during backtracking.
    """

    nodes: int = 0
    signature_prunes: int = 0
    distance_checks: int = 0

    def __post_init__(self) -> None:
        if min(self.nodes, self.signature_prunes, self.distance_checks) < 0:
            raise ValueError("stats counters must be non-negative")


def _distance_mismatches(m: PointMap) -> Iterator[tuple[int, int, Dist, Dist]]:
    # Every domain pair i < j whose distance the map changes, in row-major
    # order, as (i, j, domain distance, codomain distance of the images).
    dm, cm, images = m.domain.matrix, m.codomain.matrix, m.images
    for i in range(m.domain.n):
        for j in range(i + 1, m.domain.n):
            got = cm[images[i]][images[j]]
            if got != dm[i][j]:
                yield i, j, dm[i][j], got


def is_distance_preserving(m: PointMap) -> bool:
    """True iff codomain distances of image pairs equal the domain distances."""
    return next(_distance_mismatches(m), None) is None


def is_pseudoisometry(m: PointMap) -> Report:
    """Check both pseudoisometry conditions, reporting every violation.

    Condition one: every pair of points keeps its distance. Condition two:
    every zero-distance class of the codomain contains an image point
    (equivalently, every codomain point is at distance 0 from some image).
    Distance violations carry the domain pair and both values; coverage
    violations carry the least index of the missed class.
    """
    violations = [
        Violation("distance_mismatch", (i, j), (want, got))
        for i, j, want, got in _distance_mismatches(m)
    ]
    image = set(m.images)
    for block in zero_classes(m.codomain):
        if not block & image:
            violations.append(Violation("unreached_class", (min(block),)))
    return Report.from_violations(violations)


def compose(f: PointMap, g: PointMap) -> PointMap:
    """Apply ``f`` then ``g``; the codomain of ``f`` must be the domain of ``g``.

    Composition of two pseudoisometries is again a pseudoisometry.
    """
    if f.codomain != g.domain:
        raise ValueError("codomain of the first map must equal domain of the second")
    return PointMap(f.domain, g.codomain, tuple(g.images[f.images[i]] for i in range(f.domain.n)))


def induced_reflection_map(phi: PointMap) -> PointMap:
    """The isometry between metric reflections induced by a pseudoisometry.

    Zero-distance classes map to zero-distance classes, so sending the class
    of ``x`` to the class of ``phi(x)`` is well defined: the map is the
    composite of the domain's section, ``phi`` and the codomain's
    projection. It makes the projection square commute and is always a
    metric isometry; the fuzz morphisms suite and the acceptance tests check
    both facts independently of this construction.
    """
    report = is_pseudoisometry(phi)
    if not report.ok:
        raise ValueError(f"map is not a pseudoisometry: {report.violations[0]}")
    rx = metric_reflection(phi.domain)
    ry = metric_reflection(phi.codomain)
    return compose(compose(rx.section, phi), ry.projection)


def _joint_signatures(d1: list[list[int]], d2: list[list[int]]) -> tuple[list[int], list[int]]:
    # Iterated signature refinement over both matrices at once (ints over
    # one common scale), so equal colors are comparable across them.
    # Initial color: sorted multiset of distances to all points; refinement
    # folds in the colors at each distance. Stops when the number of joint
    # color classes stabilizes.
    def canon(profiles1, profiles2):
        # Joint colors, numbered in profile order, and how many there are.
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
            return c1, c2
        classes = new_classes


def find_isometry(m1: Space, m2: Space) -> tuple[PointMap | None, IsoSearchStats]:
    """Search for a distance-preserving bijection between two metric spaces.

    Complete backtracking over partial assignments: candidate targets for
    each point are restricted to points with the same refined signature
    (signatures are invariant under isometry, so no witness is ever lost),
    points are assigned most-constrained first, and ties break toward the
    least index, which makes the returned witness deterministic. The search
    keeps its own stack of candidate iterators, one per assigned point, so
    its depth is not bounded by the interpreter's recursion limit. Returns
    the witness (or ``None``) together with search statistics.
    """
    if not is_metric(m1) or not is_metric(m2):
        raise ValueError("isometry search requires metric spaces")
    n = m1.n
    if n != m2.n:
        return None, IsoSearchStats()
    if n == 0:
        return PointMap(m1, m2, ()), IsoSearchStats()

    # One scale for both spaces: scaling each by its own LCM would equate
    # {1, 2} with {1/2, 1}.
    _, (d1, d2) = _scaled(m1.matrix, m2.matrix)
    c1, c2 = _joint_signatures(d1, d2)
    candidates = [[j for j in range(n) if c2[j] == c1[i]] for i in range(n)]
    prunes = sum(n - len(c) for c in candidates)
    if sorted(c1) != sorted(c2):
        return None, IsoSearchStats(signature_prunes=prunes)

    order = sorted(range(n), key=lambda i: (len(candidates[i]), i))
    assigned = [order[:k] for k in range(n)]  # the points placed before depth k
    images = [-1] * n
    used = [False] * n
    nodes = checks = 0
    # stack[k] iterates the candidates of order[k]; the search succeeds when
    # all n points are assigned and fails when the stack empties.
    stack = [iter(candidates[order[0]])]
    while stack:
        k = len(stack) - 1
        i = order[k]
        if images[i] >= 0:
            # Back from a dead end deeper down: free this point's image.
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
            else:  # j agrees with every assigned point: take it
                images[i] = j
                used[j] = True
                break
        else:  # no candidate left at this depth: backtrack
            stack.pop()
            continue
        if k + 1 == n:
            break
        stack.append(iter(candidates[order[k + 1]]))

    result = PointMap(m1, m2, tuple(images)) if stack else None
    return result, IsoSearchStats(nodes=nodes, signature_prunes=prunes, distance_checks=checks)


def are_pseudoisometric(x: Space, y: Space) -> PointMap | None:
    """Find a pseudoisometry between two nonempty spaces, if one exists.

    Reflects both spaces, searches for an isometry of the quotients, and on
    success routes each point through projection, quotient isometry and
    section. The composite preserves distances and hits the class of every
    codomain point; absence of a quotient isometry rules a witness out
    entirely.
    """
    if x.n == 0 or y.n == 0:
        raise ValueError("pseudoisometry is defined for nonempty spaces only")
    rx = metric_reflection(x)
    ry = metric_reflection(y)
    quotient_iso, _ = find_isometry(rx.quotient, ry.quotient)
    if quotient_iso is None:
        return None
    return compose(compose(rx.projection, quotient_iso), ry.section)


def brute_force_pseudoisometry(x: Space, y: Space) -> PointMap | None:
    """Enumerate every total map from ``x`` to ``y`` and return the first pseudoisometry.

    Maps are tried in lexicographic image order, so the witness is
    deterministic. Coverage is checked by the definition, without zero
    classes: every point of ``y`` must be at distance 0 from some image.
    The enumeration size ``|y| ** |x|`` must stay within 10**6 maps; beyond
    that a :class:`ResourceLimitError` is raised. This is the independent
    oracle against the reflection-based search.
    """
    total = y.n**x.n
    if total > _MAP_CAP:
        raise ResourceLimitError(
            f"enumerating {y.n}^{x.n} = {total} maps exceeds the cap of {_MAP_CAP}"
        )
    dm, cm = x.matrix, y.matrix
    for images in itertools.product(range(y.n), repeat=x.n):
        ok = True
        for i in range(x.n):
            for j in range(i + 1, x.n):
                if cm[images[i]][images[j]] != dm[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        hit = set(images)
        if all(any(cm[u][v] == 0 for v in hit) for u in range(y.n)):
            return PointMap(x, y, images)
    return None
