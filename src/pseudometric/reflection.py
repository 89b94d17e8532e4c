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
    _pullback,
    zero_blocks_unchecked,
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


def metric_reflection(space: Space) -> Reflection:
    """Collapse each zero-distance class of a nonempty space to one point.

    The quotient distance between two classes is the distance between any
    pair of representatives; for a valid pseudometric the choice does not
    matter (see :func:`check_well_defined`), and least-index representatives
    make the output canonical.
    """
    if space.n == 0:
        raise ValueError("metric reflection requires a nonempty space")
    blocks, class_of_point = space._zero_partition
    reps = [min(b) for b in blocks]
    quotient = _pullback(space, reps, [space.labels[r] for r in reps])
    number = {b: k for k, b in enumerate(blocks)}
    projection = PointMap(space, quotient, tuple(number[b] for b in class_of_point))
    section = PointMap(quotient, space, tuple(reps))
    return Reflection(quotient, projection, section)


def check_well_defined(space: Space) -> Report:
    """Verify that class-to-class distances are representative-independent.

    For every pair of zero-distance blocks, the distance between members
    must not depend on which members are chosen. A valid pseudometric can
    never violate this; a matrix that breaks the triangle inequality can,
    and every violating quadruple ``(x, y, x', y')`` with
    ``d(x, y) != d(x', y')`` is reported.
    """
    blocks = zero_blocks_unchecked(space)
    violations = []
    for p, bp in enumerate(blocks):
        for q in range(p, len(blocks)):
            bq = blocks[q]
            x0, y0 = min(bp), min(bq)
            base = space.matrix[x0][y0]
            for x in sorted(bp):
                for y in sorted(bq):
                    if space.matrix[x][y] != base:
                        violations.append(
                            Violation(
                                "class_distance",
                                (x0, y0, x, y),
                                (base, space.matrix[x][y]),
                            )
                        )
    return Report.from_violations(violations)


def projection_as_pseudoisometry(space: Space) -> PointMap:
    """The projection onto the metric reflection, as a plain point map.

    It preserves all distances and its image meets every zero-distance
    class of the quotient (trivially, since the quotient is metric), so it
    passes the pseudoisometry check.
    """
    return metric_reflection(space).projection
