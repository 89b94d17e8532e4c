"""The open-ball topology of a finite pseudometric space.

On a finite space the topology degenerates pleasantly: a set is open iff it
is closed iff it is saturated (a union of zero-distance classes), and the
closure of ``A`` is exactly the saturation of ``A``. Every set operation and
predicate here, the sequence predicates included, is therefore a read of the
space's zero partition (:func:`~pseudometric.core.zero_classes`), computed
once per space. A matrix whose zero pattern is not an equivalence is
rejected with ``ValueError``.
The definitions these reads replace (least open balls, complements, points
at distance 0) stay as independent checks in the test oracles and the fuzz
topology suite.

Sequences are represented in eventually periodic form (finite prefix plus a
repeating cycle); that is enough to witness every convergence phenomenon a
finite space can exhibit while keeping all questions decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    DistLike,
    Space,
    _ordered,
    as_dist,
    class_of,
    members_of,
    saturate,
    zero_classes,
)


@dataclass(frozen=True)
class EPSequence:
    """An eventually periodic sequence of points: ``prefix`` then ``cycle`` forever."""

    space: Space
    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self) -> None:
        prefix, cycle = _ordered(self.prefix, "prefix"), _ordered(self.cycle, "cycle")
        if not cycle:
            raise ValueError("cycle must be nonempty")
        members_of(self.space, prefix + cycle)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)


def open_ball(space: Space, center: int, radius: DistLike) -> frozenset[int]:
    """All points at distance strictly less than ``radius`` from ``center``."""
    members_of(space, (center,))
    r = as_dist(radius)
    if r == 0:
        raise ValueError("ball radius must be positive")
    return frozenset(x for x in range(space.n) if space.matrix[center][x] < r)


def is_open(space: Space, A: Iterable[int]) -> bool:
    """True iff ``A`` is a union of open balls, i.e. a union of zero classes."""
    members = members_of(space, A)
    return all(b <= members for b in zero_classes(space) if b & members)


def is_closed(space: Space, A: Iterable[int]) -> bool:
    """True iff the complement is open; on a finite space, iff ``A`` is open."""
    return is_open(space, A)


def closure(space: Space, A: Iterable[int]) -> frozenset[int]:
    """Points at distance 0 from ``A``: the smallest closed superset.

    Finite-space form of the topological closure, which is the saturation
    of ``A``; empty for empty ``A``.
    """
    return saturate(space, A)


def interior(space: Space, A: Iterable[int]) -> frozenset[int]:
    """Complement of the closure of the complement: the zero classes inside ``A``."""
    members = members_of(space, A)
    return frozenset().union(*(b for b in zero_classes(space) if b <= members))


def boundary(space: Space, A: Iterable[int]) -> frozenset[int]:
    """Closure of ``A`` minus its interior: the zero classes ``A`` splits."""
    members = members_of(space, A)
    return frozenset().union(*(b for b in zero_classes(space) if b & members and not b <= members))


def is_cauchy(seq: EPSequence) -> bool:
    """True iff the tail of the sequence stays in arbitrarily small balls.

    For an eventually periodic sequence this holds exactly when all cycle
    points are pairwise at distance 0, that is, in one zero class: any
    positive distance between two cycle points recurs forever and refutes
    the condition at radius half that distance.
    """
    return saturate(seq.space, seq.cycle) == class_of(seq.space, seq.cycle[0])


def limit_points(seq: EPSequence) -> frozenset[int]:
    """All points the sequence converges to: a whole zero-distance class, or none.

    A point ``a`` is a limit iff the distance to the sequence tends to 0,
    which for an eventually periodic sequence means every cycle point is at
    distance 0 from ``a``.
    """
    if not is_cauchy(seq):
        return frozenset()
    return class_of(seq.space, seq.cycle[0])


def complete_via_boundary(space: Space, A: Iterable[int]) -> bool:
    """Boundary criterion for completeness of a subset.

    True iff every boundary point's zero-distance class meets ``A``. In a
    finite space every subset is complete, and the boundary is by its own
    definition a union of classes that meet ``A``, so this is true on every
    valid input: a check of it tests :func:`boundary`, not the criterion.
    """
    members = members_of(space, A)
    edge = boundary(space, members)
    return all(b & members for b in zero_classes(space) if b <= edge)


def closed_via_completeness(space: Space, A: Iterable[int]) -> bool:
    """Closedness via completeness plus saturation, for nonempty subsets.

    True iff ``A`` passes the boundary completeness criterion and equals its
    saturation; must agree with :func:`is_closed`.
    """
    members = members_of(space, A)
    if not members:
        raise ValueError("closed_via_completeness requires a nonempty subset")
    return complete_via_boundary(space, members) and is_open(space, members)
