"""Metric reflection: the quotient of a space by its zero-distance classes.

Collapsing every zero-distance class to a single point turns a pseudometric
space into a metric space without disturbing any distance; the projection
onto the quotient and the section picking class representatives are the two
canonical maps attached to the construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    PointMap,
    Report,
    Space,
    Violation,
    _distance_mismatches,
)


@dataclass(frozen=True)
class Reflection:
    """A quotient metric space with its projection and section maps.

    The quotient has one point per zero-distance class, labeled by the
    least-index representative of the class. ``projection`` sends each
    original point to its class, so its domain is the original space;
    ``section`` picks the least-index representative, so ``projection``
    after ``section`` is the identity on the quotient, and ``section`` after
    ``projection`` lands inside the original point's class.
    """

    quotient: Space
    projection: PointMap
    section: PointMap


def _reflection_tables(space: Space) -> tuple[Space, tuple[int, ...], tuple[int, ...]]:
    # The (quotient, projection images, representatives) that a nonempty
    # space keeps: what metric_reflection and the witness builders read.
    if space.n == 0:
        raise ValueError("metric reflection requires a nonempty space")
    return space._reflection


def metric_reflection(space: Space) -> Reflection:
    """Collapse each zero-distance class of a nonempty space to one point.

    The quotient distance between two classes is the distance between any
    pair of representatives; for a valid pseudometric the choice does not
    matter (see :func:`check_well_defined`), and least-index representatives
    make the output canonical.

    The reflection is computed once per space and kept with it, like its
    zero classes: every later call returns the same quotient object, with
    new, equal projection and section maps. The quotient arrives with its
    zero table, one class per point, so :func:`~pseudometric.core.is_metric`
    reads no row of it.
    """
    quotient, images, reps = _reflection_tables(space)
    return Reflection(quotient, PointMap(space, quotient, images), PointMap(quotient, space, reps))


def check_well_defined(space: Space) -> Report:
    """Verify that class-to-class distances are representative-independent.

    They are exactly when the retraction ``r`` onto least class members
    preserves distances. Each pair ``i < j``, in row-major order, with
    ``d(i, j) != d(r(i), r(j))`` is reported as ``(r(i), r(j), i, j)`` with
    values ``(d(r(i), r(j)), d(i, j))``; only a matrix that breaks the
    triangle inequality or symmetry has one. A zero pattern that is not an
    equivalence raises ``ValueError``, as in :func:`~pseudometric.core.zero_classes`.
    """
    _, classes, reps = space._reflection
    r = PointMap(space, space, tuple(map(reps.__getitem__, classes)))
    return Report(tuple(
        Violation("class_distance", (r.images[i], r.images[j], i, j), (got, want))
        for i, j, want, got in _distance_mismatches(r)
    ))


def projection_as_pseudoisometry(space: Space) -> PointMap:
    """The projection onto the metric reflection, as a plain point map.

    It preserves all distances and its image meets every zero-distance
    class of the quotient (trivially, since the quotient is metric), so it
    passes the pseudoisometry check.
    """
    return metric_reflection(space).projection
