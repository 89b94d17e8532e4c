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
from collections.abc import Iterable
from dataclasses import dataclass
from operator import add

from .core import (
    PointMap,
    Report,
    Space,
    Violation,
    _distance_mismatches,
    _scaled,
    is_metric,
    zero_classes,
)
from .reflection import _reflection_tables


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration or a search would exceed its cap."""


# The most maps `brute_force_pseudoisometry` enumerates.
_MAP_CAP = 10**6
# The most nodes `find_isometry` charges: above every test and benchmark
# pair (2,241,280 nodes at most), and below rook vs Shrikhande times K2^4.
_NODE_CAP = 10**8


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
    return Report(tuple(violations))


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
    projection, read from the tables both reflections keep. It makes the
    projection square commute and is always a metric isometry; the fuzz
    morphisms suite and the acceptance tests check both facts independently
    of this construction.
    """
    report = is_pseudoisometry(phi)
    if not report.ok:
        raise ValueError(f"map is not a pseudoisometry: {report.violations[0]}")
    qx, _, reps_x = _reflection_tables(phi.domain)
    qy, proj_y, _ = _reflection_tables(phi.codomain)
    return PointMap(qx, qy, tuple(proj_y[phi.images[r]] for r in reps_x))


def _joint_signatures(d1: list[list[int]], d2: list[list[int]]) -> tuple[list[int], list[int]]:
    # Color refinement over both matrices at once (ints over one common
    # scale), so equal colors are comparable across them. Every point
    # starts in color 0, and a round gives each point the profile (its
    # color, the sorted codes d(i, j) * C + color of j over its own
    # space), with C colors in all: the code is one-to-one and sorts as the
    # pairs do. The distinct profiles of both spaces are numbered together,
    # in sorted order. From one color the codes are the distances, so round
    # one colors by sorted rows. The point's own code is shared by its
    # whole color class, so it splits nothing. Stops when the number of
    # colors stops changing.
    n1 = len(d1)
    colors, classes = [0] * (n1 + len(d2)), 1
    while True:
        profiles = [
            (ci, tuple(sorted(map(add, map(classes.__mul__, row), c))))
            for d, c in ((d1, colors[:n1]), (d2, colors[n1:]))
            for ci, row in zip(c, d)
        ]
        table = {p: k for k, p in enumerate(sorted(set(profiles)))}
        colors = [table[p] for p in profiles]
        if len(table) == classes:
            return colors[:n1], colors[n1:]
        classes = len(table)


def _bitmasks(keys: Iterable[int]) -> dict[int, int]:
    # {key: the mask of the positions holding it}.
    masks: dict[int, int] = {}
    for j, key in enumerate(keys):
        masks[key] = masks.get(key, 0) | 1 << j
    return masks


def find_isometry(m1: Space, m2: Space) -> tuple[PointMap | None, IsoSearchStats]:
    """Search for a distance-preserving bijection between two metric spaces.

    Complete backtracking over partial assignments: candidate targets for
    each point are restricted to points with the same refined signature
    (signatures are invariant under isometry, so no witness is ever lost),
    points are assigned most-constrained first, and ties break toward the
    least index, which makes the returned witness deterministic. The search
    keeps its own stack of depths, so its depth is not bounded by the
    interpreter's recursion limit. Returns the witness (or ``None``)
    together with search statistics.

    Candidate sets are bitmasks of target indices. On entering a depth, one
    chain of masks finds at once which candidates agree with every placed
    point, and where each other candidate first disagrees. The statistics
    are those of plain backtracking, which tries the candidates one at a
    time in index order and compares one placed point at a time: they are
    read off the chain, and on success the candidates that backtracking
    would never reach, those past each depth's witness target, are taken
    off again.

    The search charges each depth's candidates on entering it and raises
    :class:`ResourceLimitError` once more than 10**8 nodes are charged. For
    a search that runs to exhaustion that is its node count; one that finds
    a witness can be charged more than it reports, by the candidates past
    the witness.
    """
    if not is_metric(m1) or not is_metric(m2):
        raise ValueError("isometry search requires metric spaces")
    n = m1.n
    if n != m2.n:
        return None, IsoSearchStats()

    # One scale for both spaces: scaling each by its own LCM would equate
    # {1, 2} with {1/2, 1}.
    d1, d2 = _scaled(m1.matrix, m2.matrix)
    c1, c2 = _joint_signatures(d1, d2)
    by_color = _bitmasks(c2)
    masks = [by_color.get(c, 0) for c in c1]  # masks[i]: the candidate targets of i
    sizes = [mask.bit_count() for mask in masks]
    prunes = n * n - sum(sizes)
    if sorted(c1) != sorted(c2):
        return None, IsoSearchStats(signature_prunes=prunes)

    order = sorted(range(n), key=sizes.__getitem__)
    # cols[v][x]: the mask of the targets j with d2[j][v] == x.
    cols = list(map(_bitmasks, zip(*d2)))
    placed: list[dict[int, int]] = []  # the column of each placed point's image, in depth order

    def walk(x: int, k: int) -> tuple[int, int, int]:
        # Plain backtracking over the candidates x of depth k, with the
        # points of depths 0 to k - 1 placed: its nodes, its checks and the
        # candidates that agree with every placed point. With chain[0] = x,
        # chain[t + 1] is the part of chain[t] at the right distance from
        # the image of depth t. A candidate in chain[t] but not in
        # chain[t + 1] fails at check t + 1, and one in chain[k] passes all
        # k checks, so the checks are the sum over t < k of |chain[t]|.
        nodes, checks = x.bit_count(), 0
        for col, dist in zip(placed, map(d1[order[k]].__getitem__, order)):
            if not x:
                break
            checks += x.bit_count()
            x &= col.get(dist, 0)
        return nodes, checks, x

    images = [-1] * n
    takes = [0] * n  # takes[k]: the agreeing candidates of depth k not tried yet
    used = nodes = checks = k = 0
    while k < n:
        more_nodes, more_checks, x = walk(masks[order[k]] & ~used, k)
        nodes += more_nodes
        checks += more_checks
        if nodes > _NODE_CAP:
            raise ResourceLimitError(f"isometry search exceeds the cap of {_NODE_CAP} nodes")
        while not x and k:  # no candidate left at this depth: backtrack
            k -= 1
            placed.pop()
            used ^= 1 << images[order[k]]
            x = takes[k]
        if not x:
            return None, IsoSearchStats(
                nodes=nodes, signature_prunes=prunes, distance_checks=checks
            )
        low = x & -x  # the least agreeing candidate: take it
        takes[k] = x ^ low
        images[order[k]] = j = low.bit_length() - 1
        used |= low
        placed.append(cols[j])
        k += 1

    # Each depth charged all its candidates, but backtracking stops at the
    # witness: walk back up the path and take off, at each depth, the
    # candidates past its image (-2 << j: every index above j).
    while k:
        k -= 1
        placed.pop()
        j = images[order[k]]
        used ^= 1 << j
        x = masks[order[k]] & ~used & (-2 << j)
        if x:
            fewer_nodes, fewer_checks, _ = walk(x, k)
            nodes -= fewer_nodes
            checks -= fewer_checks
    result = PointMap(m1, m2, tuple(images))
    return result, IsoSearchStats(nodes=nodes, signature_prunes=prunes, distance_checks=checks)


def are_pseudoisometric(x: Space, y: Space) -> PointMap | None:
    """Find a pseudoisometry between two nonempty spaces, if one exists.

    Reflects both spaces, searches for an isometry of the quotients, and on
    success routes each point through projection, quotient isometry and
    section, read from the tables both reflections keep. The composite
    preserves distances and hits the class of every codomain point; absence
    of a quotient isometry rules a witness out entirely.
    """
    if x.n == 0 or y.n == 0:
        raise ValueError("pseudoisometry is defined for nonempty spaces only")
    qx, proj_x, _ = _reflection_tables(x)
    qy, _, reps_y = _reflection_tables(y)
    quotient_iso, _ = find_isometry(qx, qy)
    if quotient_iso is None:
        return None
    return PointMap(x, y, tuple(reps_y[quotient_iso.images[c]] for c in proj_x))


def brute_force_pseudoisometry(x: Space, y: Space) -> PointMap | None:
    """Enumerate every total map from ``x`` to ``y`` and return the first pseudoisometry.

    Maps are tried in lexicographic image order, so the witness is
    deterministic. Coverage is checked by the definition, without zero
    classes: every point of ``y`` must be at distance 0 from some image.
    The enumeration size ``|y| ** |x|`` must stay within 10**6 maps; beyond
    that a :class:`ResourceLimitError` is raised. This is the independent
    oracle against the reflection-based search.
    """
    if y.n**x.n > _MAP_CAP:
        raise ResourceLimitError(f"enumerating {y.n}^{x.n} maps exceeds the cap of {_MAP_CAP}")
    dm, cm = x.matrix, y.matrix
    pairs = tuple(itertools.combinations(range(x.n), 2))
    for images in itertools.product(range(y.n), repeat=x.n):
        if all(cm[images[i]][images[j]] == dm[i][j] for i, j in pairs):
            hit = set(images)
            if all(any(cm[u][v] == 0 for v in hit) for u in range(y.n)):
                return PointMap(x, y, images)
    return None
