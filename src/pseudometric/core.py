"""Finite pseudometric spaces over exact rational distances.

A space is a finite labeled point set together with a symmetric matrix of
non-negative rationals. Distinct points may sit at distance 0, which makes
the zero-distance relation (``d(x, y) = 0``) the central piece of machinery:
it is an equivalence relation whose classes drive the quotient construction,
the topology, and the morphism checks in the rest of the package.

All arithmetic is exact and no comparison ever rounds. Distances are
`fractions.Fraction`s at the boundaries (construction, parsing, emitted
documents, violation values, public getters), each built once. The hot
comparisons (the axiom scan, isometry search, shortest-path repair) run on
Python ``int``s: the matrices are scaled by one common multiple ``L`` of all
their denominators, and ``a/L <= b/L + c/L`` holds iff ``a <= b + c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Callable, Iterable, Sequence, Union

Dist = Fraction

DistLike = Union[Dist, int, str]


def as_dist(value: DistLike) -> Dist:
    """Coerce ``value`` to a non-negative exact rational distance.

    Floats are rejected outright: binary rounding would make exact
    zero-distance tests meaningless.
    """
    if isinstance(value, float):
        raise TypeError("float distances are not allowed; pass int, str or Fraction")
    d = value if type(value) is Fraction else Fraction(value)
    if d.numerator < 0:  # the denominator is always positive
        raise ValueError(f"distance must be non-negative, got {d}")
    return d


def format_dist(d: Dist) -> str:
    """Canonical text form of a distance: bare integer, else 'p/q' in lowest terms."""
    if d.denominator == 1:
        return str(d.numerator)
    return f"{d.numerator}/{d.denominator}"


def _is_utf8(label: str) -> bool:
    # A lone surrogate (legal in JSON and in undecodable command-line bytes)
    # has no UTF-8 form, so no output stream could print it.
    try:
        label.encode()
    except UnicodeEncodeError:
        return False
    return True


def _shaped(labels: Iterable[str], matrix: Iterable[Iterable]) -> tuple[tuple, list[tuple]]:
    # The shape rule of every matrix, checked before any entry is coerced:
    # distinct labels, and n rows of n entries each. Returns the labels and
    # the rows as tuples, entries untouched.
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels")
    n = len(labels)
    rows = [tuple(row) for row in matrix]
    if len(rows) != n:
        raise ValueError(f"matrix has {len(rows)} rows, expected {n}")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"matrix row {i} has length {len(row)}, expected {n}")
    return labels, rows


@dataclass(frozen=True)
class Violation:
    """One broken rule, with the witnessing point indices and offending values."""

    rule: str
    points: tuple[int, ...]
    values: tuple[Dist, ...] = ()

    def __str__(self) -> str:
        return _violation_text(self, str)


def _violation_text(v: Violation, name: Callable[[int], str]) -> str:
    # "rule at (p,q): v, w", each point written by ``name``: the index in
    # ``str(v)``, the label in the CLI's diagnostics.
    text = f"{v.rule} at ({','.join(map(name, v.points))})"
    return text + (f": {', '.join(map(format_dist, v.values))}" if v.values else "")


@dataclass(frozen=True)
class Report:
    """Outcome of a structural check: every violation found, none if ``ok``."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    @classmethod
    def from_violations(cls, violations: Iterable[Violation]) -> "Report":
        return cls(tuple(violations))


@dataclass(frozen=True)
class Space:
    """A finite labeled point set with a rational distance matrix.

    Construction performs structural checks only (square matrix, distinct
    nonempty labels that encode as UTF-8, non-negative rational entries).
    The pseudometric axioms are checked separately by
    :func:`validate_pseudometric` / :meth:`validate`, so deliberately broken
    matrices stay representable for diagnostics.
    Instances are immutable and hashable; every operation on them is pure.
    """

    labels: tuple[str, ...]
    matrix: tuple[tuple[Dist, ...], ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        for lab in labels:
            if not isinstance(lab, str) or not lab:
                raise ValueError(f"labels must be nonempty strings, got {lab!r}")
            if not _is_utf8(lab):
                raise ValueError(f"label {lab!r} is not encodable as UTF-8")
        labels, rows = _shaped(labels, self.matrix)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", tuple(tuple(map(as_dist, row)) for row in rows))

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no point labeled {label!r}") from None

    def validate(self) -> Report:
        return validate_pseudometric(self.labels, self.matrix)

    @cached_property
    def _zero_partition(self) -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
        # (blocks, class_of_point): the zero blocks ordered by least member,
        # and for each point the block that holds it. Not a field, so
        # equality, hashing and repr ignore it. A failed check caches
        # nothing: every later read raises again.
        blocks = tuple(zero_blocks_unchecked(self))
        owner = {i: b for b in blocks for i in b}
        class_of_point = tuple(owner[i] for i in range(self.n))
        for i, row in enumerate(self.matrix):
            for j, dij in enumerate(row):
                if (dij == 0) != (class_of_point[i] is class_of_point[j]):
                    rule = "symmetric" if dij == 0 else "transitive"
                    raise ValueError(
                        f"zero-distance relation is not {rule}: "
                        f"d({self.labels[i]},{self.labels[j]}) = "
                        f"{format_dist(dij)}; not a valid pseudometric"
                    )
        return blocks, class_of_point


def members_of(space: Space, A: Iterable[int]) -> frozenset[int]:
    """The points of ``A`` as a frozenset, each checked to be an index of ``space``.

    The one rule for every point-set and point-index argument: a member that
    is not an ``int`` in ``range(space.n)`` (a float, a string or a ``bool``
    included) raises ``ValueError``. Members are checked before duplicates
    merge, so ``1.0`` cannot hide behind an equal ``1``.
    """
    points = tuple(A)
    n = space.n
    for i in points:
        if not (isinstance(i, int) and not isinstance(i, bool) and 0 <= i < n):
            raise ValueError(f"point index {i!r} out of range")
    return frozenset(points)


@dataclass(frozen=True)
class PointMap:
    """A total map between the point sets of two spaces.

    ``images[i]`` is the codomain index of domain point ``i``. Carrier for
    projections, sections, embeddings, pseudoisometries and isometries.
    """

    domain: Space
    codomain: Space
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        if len(images) != self.domain.n:
            raise ValueError(f"map has {len(images)} images, expected {self.domain.n}")
        members_of(self.codomain, images)
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, space: Space) -> "PointMap":
        return cls(space, space, tuple(range(space.n)))


def _pullback(
    parent: Space, points: Sequence[int], labels: Sequence[str], radii: Sequence[Dist] = ()
) -> Space:
    # The space on ``labels`` read from ``parent`` through an index list:
    # entry (i, j) is d(points[i], points[j]). Quotients, twins, clones,
    # gluings and permuted copies are all of this form. Anchored points
    # also carry a radius: ``radii`` belongs to the last len(radii) points,
    # and radii[i] + radii[j] is added off the diagonal.
    m = parent.matrix
    rows = [[m[p][q] for q in points] for p in points]
    n = len(rows)
    for i, r in enumerate(radii, start=n - len(radii)):
        if r:
            for j in range(n):
                if j != i:
                    rows[i][j] += r
                    rows[j][i] += r
    return Space(labels, rows)


def _scaled(*matrices: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[list[int]]]]:
    # The matrices over one common denominator: (L, int matrices) with
    # ints[i][j] = L * matrix[i][j], where L is the least common multiple of
    # every denominator in all of them. Scaling by one L preserves order,
    # equality and sums, within a matrix and across matrices.
    scale = math.lcm(*{v.denominator for m in matrices for row in m for v in row})
    return scale, [
        [[v.numerator * (scale // v.denominator) for v in row] for row in m] for m in matrices
    ]


def _raw_rational(value: object, where: str) -> Fraction:
    if isinstance(value, float):
        raise ValueError(f"entry {where} is a float; distances must be exact rationals")
    if type(value) is Fraction:
        return value
    try:
        return Fraction(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"entry {where} is not a rational number: {value!r}") from None


def validate_pseudometric(labels: Sequence[str], matrix: Sequence[Sequence[object]]) -> Report:
    """Check the pseudometric axioms on raw input, reporting every violation.

    Structural problems (non-square matrix, dimension mismatch, duplicate
    labels, unparseable entries) raise ``ValueError``; they are input errors,
    not axiom violations. Axiom violations are collected exhaustively:
    negativity, nonzero diagonal, asymmetry, and every ordered triangle
    violation, each with a witness. The triangle witness ``(i, k, j)`` means
    ``d(i, j) > d(i, k) + d(k, j)``.
    """
    labels, raw = _shaped(labels, matrix)
    n = len(labels)
    rows = [
        tuple(_raw_rational(v, f"({i},{j})") for j, v in enumerate(r)) for i, r in enumerate(raw)
    ]

    _, (ints,) = _scaled(rows)
    violations: list[Violation] = []
    for i, ri in enumerate(ints):
        for j, dij in enumerate(ri):
            if dij < 0:
                violations.append(Violation("negative", (i, j), (rows[i][j],)))
    for i, ri in enumerate(ints):
        if ri[i] != 0:
            violations.append(Violation("diagonal", (i,), (rows[i][i],)))
    for i, ri in enumerate(ints):
        for j in range(i + 1, n):
            if ri[j] != ints[j][i]:
                violations.append(Violation("symmetry", (i, j), (rows[i][j], rows[j][i])))
    # One C-level pass per (i, j) finds the shortest two-step path; only a
    # pair that some k violates is walked again, in k order, for witnesses.
    cols = list(zip(*ints))
    for i, ri in enumerate(ints):
        for j, cj in enumerate(cols):
            dij = ri[j]
            if dij > min(map(add, ri, cj)):
                for k in range(n):
                    if dij > ri[k] + cj[k]:
                        violations.append(
                            Violation("triangle", (i, k, j), (rows[i][j], rows[i][k], rows[k][j]))
                        )
    return Report.from_violations(violations)


def is_metric(space: Space) -> bool:
    """True iff all distances between distinct points are positive.

    Read from the zero partition: every zero class is a single point.
    """
    return len(zero_classes(space)) == space.n


def zero_blocks_unchecked(space: Space) -> list[frozenset[int]]:
    """Connected components of the distance-0 relation, ordered by least member.

    Reads ``d(i, j)`` for ``i < j`` only and does not require the relation
    to be transitive; :func:`zero_classes` returns these blocks once every
    entry of the matrix has been checked against them.
    """
    m = space.matrix
    blocks: list[frozenset[int]] = []
    seen: set[int] = set()
    for root in range(space.n):
        if root in seen:
            continue
        block, stack = {root}, [root]
        while stack:
            i = stack.pop()
            for j in range(space.n):
                if j not in block and (m[i][j] if i < j else m[j][i]) == 0:
                    block.add(j)
                    stack.append(j)
        seen |= block
        blocks.append(frozenset(block))
    return blocks


def zero_classes(space: Space) -> tuple[frozenset[int], ...]:
    """The classes of pairwise distance 0, ordered by least member.

    The classes are computed on the first call for a space and kept with
    it; saturation, the topology, the reflection and the morphism checks
    all read them.

    For a valid pseudometric the zero-distance relation is an equivalence
    (reflexive and symmetric by the axioms, transitive by the triangle
    inequality). The check is exact: ``d(i, j) == 0`` must hold precisely
    when ``i`` and ``j`` share a block, and a ``ValueError`` is raised on the
    first pair where it does not.
    """
    return space._zero_partition[0]


def class_of(space: Space, a: int) -> frozenset[int]:
    """The set of points at distance 0 from point ``a``: its zero class."""
    members_of(space, (a,))
    return space._zero_partition[1][a]


def saturate(space: Space, A: Iterable[int]) -> frozenset[int]:
    """Union of the zero-distance classes of all members of ``A``.

    A closure operator: extensive, monotone, idempotent. Its fixed points
    are exactly the closed (equivalently, open) sets of the finite
    pseudometric topology.
    """
    members = members_of(space, A)
    return frozenset().union(*map(space._zero_partition[1].__getitem__, members))
