"""Superspace constructions and seeded instance generators.

A superspace extends a space with new points while keeping all original
distances. Two constructions matter here: gluing a zero-distance twin onto
any chosen point (which produces a superspace in which the original point
set is never closed), and gluing a metric superspace of the reflection back
onto the original space (which produces a superspace where every new point
keeps positive distance to the original set, and the original set is
closed). A superspace is handed around as its inclusion: an injective,
distance-preserving ``PointMap`` whose codomain is the larger space. The
generators at the bottom produce reproducible random instances for fuzzing
both constructions and everything else in the package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Dist,
    PointMap,
    Space,
    _pullback,
    is_metric,
    members_of,
)
from .morphisms import is_distance_preserving
from .reflection import metric_reflection
from .topology import is_closed


@dataclass(frozen=True)
class GenParams:
    """Parameters of the seeded generators.

    ``n`` is the number of points to generate (points to add, for
    superspace generation, where 0 is allowed). ``zero_merge_prob`` controls
    how often points are glued at distance 0: an exact rational in [0, 1],
    given as an int, str or ``Fraction``. A float raises ``TypeError``; a
    bool, or anything else ``Fraction`` cannot read, raises ``ValueError``.
    Same params, same output, bit for bit.
    """

    seed: int
    n: int
    zero_merge_prob: Fraction = Fraction(1, 4)

    def __post_init__(self) -> None:
        for name in ("seed", "n"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n < 0:
            raise ValueError("n must be non-negative")
        value = self.zero_merge_prob
        if isinstance(value, float):
            raise TypeError("float zero_merge_prob is not allowed; pass int, str or Fraction")
        try:
            p = Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            p = None
        if p is None or isinstance(value, bool):
            raise ValueError(f"zero_merge_prob must be a rational number, got {value!r}")
        if not 0 <= p <= 1:
            raise ValueError("zero_merge_prob must lie in [0, 1]")
        object.__setattr__(self, "zero_merge_prob", p)


def is_superspace(e: PointMap) -> bool:
    """True iff the inclusion is injective and preserves every distance."""
    if len(set(e.images)) != e.domain.n:
        return False
    return is_distance_preserving(e)


def in_cec(e: PointMap) -> bool:
    """True iff every point outside the image of the inclusion keeps positive distance to it.

    Membership in this class is what makes "complete iff closed" transfer
    from the subspace to the superspace.
    """
    if not is_superspace(e):
        raise ValueError("embedding is not a superspace inclusion")
    image = frozenset(e.images)
    outside = [u for u in range(e.codomain.n) if u not in image]
    return all(e.codomain.matrix[u][i] > 0 for u in outside for i in image)


def _inclusion(sub: Space, sup: Space) -> PointMap:
    # A superspace that lists the points of ``sub`` first, in order.
    return PointMap(sub, sup, tuple(range(sub.n)))


def glue_zero_point(x: Space, x0: int, label: str) -> PointMap:
    """Extend a nonempty space by a zero-distance twin of point ``x0``.

    The new point sits at distance 0 from ``x0`` and copies all its other
    distances, so the result is always a valid pseudometric superspace. The
    original point set is never closed in it (the new point lies in the
    closure), which is exactly why no nonempty space can be closed in all of
    its superspaces.
    """
    if x.n == 0:
        raise ValueError("gluing a zero-distance twin requires a nonempty space")
    members_of(x, (x0,))
    if label in x.labels:
        raise ValueError(f"label {label!r} already used")
    return _inclusion(x, _pullback(x, [*range(x.n), x0], x.labels + (label,)))


def _extend_labels(labels: tuple[str, ...], bases: list[str]) -> tuple[str, ...]:
    # Append each base label, suffixed with "*" until it is unused.
    out, used = list(labels), set(labels)
    for label in bases:
        while label in used:
            label += "*"
        used.add(label)
        out.append(label)
    return tuple(out)


def completion_glue(y: Space, refl_embedding: PointMap) -> PointMap:
    """Glue a metric superspace of the reflection back onto the original space.

    ``refl_embedding`` must embed the metric reflection of ``y``
    distance-preservingly into a metric space ``ystar``, its codomain. The
    result is the inclusion of ``y`` into the glued superspace, which keeps
    every point of ``y`` plus one point for each ``ystar`` point outside the
    embedded image; distances are pulled back through the map that sends an
    original point to the image of its zero-distance class and keeps new
    points in place. Consequences: original distances are unchanged, every
    new point is at positive distance from all of ``y`` (so the embedding
    lands in the positive-distance superspace class), and ``y`` is closed in
    the result. If ``ystar`` is exactly the reflection, the glued superspace
    is ``y`` itself.

    Labels for new points are taken from ``ystar`` and suffixed with ``*``
    until they avoid the labels of ``y``.
    """
    ystar = refl_embedding.codomain
    if not is_metric(ystar):
        raise ValueError("the glued superspace must be a metric space")
    refl = metric_reflection(y)
    if refl_embedding.domain != refl.quotient:
        raise ValueError(
            "embedding must map the metric reflection of the space into the superspace"
        )
    if not is_superspace(refl_embedding):
        raise ValueError("embedding of the reflection does not preserve distances")

    image = set(refl_embedding.images)
    new_points = [q for q in range(ystar.n) if q not in image]

    # Route every result point to its proxy in the glued metric space.
    proxy = [refl_embedding.images[refl.projection.images[i]] for i in range(y.n)]
    proxy += new_points

    labels = _extend_labels(y.labels, [ystar.labels[q] for q in new_points])
    return _inclusion(y, _pullback(ystar, proxy, labels))


def check_cec_minimality(e: PointMap) -> bool:
    """Evaluate "closed in the superspace implies positive-distance class" on one instance.

    Any superspace class in which the embedded set is closed must consist of
    positive-distance superspaces, so this implication can never be false
    for a valid embedding; the predicate makes that claim falsifiable.
    :func:`in_cec` refuses a map that is not a superspace inclusion.
    """
    return in_cec(e) or not is_closed(e.codomain, frozenset(e.images))


def _draw_entry(rng: random.Random) -> int:
    # A positive rational in (0, 6] with a denominator from 1 to 4, as a
    # whole number of twelfths (every such denominator divides 12).
    den = rng.randint(1, 4)
    return rng.randint(1, 6 * den) * (12 // den)


def _clone_points(n: int, total: int, rng: random.Random) -> list[int]:
    # Index list that grows n points to ``total``; each new point is a
    # zero-distance clone of a uniformly drawn earlier point (one randrange
    # per new point, in order, so seeded outputs stay fixed).
    points = list(range(n))
    for i in range(n, total):
        points.append(points[rng.randrange(i)])
    return points


def random_space(p: GenParams) -> Space:
    """Generate a reproducible valid pseudometric space.

    Draws a symmetric positive matrix of whole twelfths over a base set of
    ``ceil(n * (1 - zero_merge_prob))`` points, repairs it in place into a
    metric by all-pairs shortest paths (entries only decrease), then pads
    up to ``n`` points with zero-distance clones of random earlier points,
    read from the repaired matrix as the one ``Space`` is built. The result
    always validates; with ``zero_merge_prob`` 0 it is a metric space. The
    Mersenne Twister makes outputs identical across platforms for a seed.
    """
    return _random_space(p, tuple(f"p{i}" for i in range(p.n)))


def _random_space(p: GenParams, labels: tuple[str, ...]) -> Space:
    # random_space(p) under the given labels, built as one Space.
    if p.n < 1:
        raise ValueError("random_space requires n >= 1")
    rng = random.Random(p.seed)
    base = max(1, math.ceil(p.n * (1 - p.zero_merge_prob)))
    ints = [[0] * base for _ in range(base)]
    for i in range(base):
        for j in range(i + 1, base):
            ints[i][j] = ints[j][i] = _draw_entry(rng)
    for k, rk in enumerate(ints):
        for ri in ints:
            dik = ri[k]
            for j, dkj in enumerate(rk):
                via = dik + dkj
                if via < ri[j]:
                    ri[j] = via
    rows = [[Fraction(v, 12) for v in row] for row in ints]
    points = _clone_points(base, p.n, rng)
    return Space(labels, [[rows[a][b] for b in points] for a in points])


def random_superspace(y: Space, p: GenParams, force_cec: bool = False) -> PointMap:
    """Extend ``y`` by ``p.n`` generated points, preserving all original distances.

    Each new point is anchored to a random existing point at a random radius
    and placed so that its distances run through the anchor; this keeps the
    triangle inequality valid by construction without touching the original
    matrix. With ``force_cec`` all radii are positive, so every new point
    keeps positive distance to ``y``; otherwise a radius collapses to 0 with
    probability ``zero_merge_prob``, gluing the new point onto its anchor's
    zero-distance class. ``p.n`` 0 draws nothing and returns a copy of ``y``
    under the identity inclusion.
    """
    rng = random.Random(p.seed)
    labels = _extend_labels(y.labels, [f"q{u}" for u in range(p.n)])
    if y.n == 0 and p.n:
        # Superspace of the empty space: a standalone generated block.
        block = _random_space(
            GenParams(seed=rng.getrandbits(63), n=p.n, zero_merge_prob=p.zero_merge_prob), labels
        )
        return _inclusion(y, block)

    anchors = []
    radii: list[Dist] = []
    q = p.zero_merge_prob
    for _ in range(p.n):
        anchors.append(rng.randrange(y.n))
        # An exact integer draw with probability q; no float comparison involved.
        if not force_cec and rng.randrange(q.denominator) < q.numerator:
            radii.append(Fraction(0))
        else:
            radii.append(Fraction(_draw_entry(rng), 12))
    return _inclusion(y, _pullback(y, [*range(y.n), *anchors], labels, radii))
