"""Finite pseudometric spaces over exact rational distances.

A space is a finite labeled point set together with a symmetric matrix of
non-negative rationals. Distinct points may sit at distance 0, which makes
the zero-distance relation (``d(x, y) = 0``) the central piece of machinery:
it is an equivalence relation whose classes drive the quotient construction,
the topology, and the morphism checks in the rest of the package.

All arithmetic is exact and no comparison ever rounds. Distances are
`fractions.Fraction`s at the boundaries (construction, parsing, emitted
documents, violation values, public getters), each built once. The hot
comparisons (the axiom scan, isometry search) run on Python ``int``s: the
matrices are scaled by one common multiple ``L`` of all their denominators,
and ``a/L <= b/L + c/L`` holds iff ``a <= b + c``. Each space keeps one
such ``L``, read on first use: the least common multiple of its
denominators, or, for a space derived from one whose ``L`` was already
read (a quotient, twin, clone, gluing or permuted copy), the least
common multiple of that ``L`` and its radii's denominators. Validation
and isometry search both scale through ``_ints``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, product
from operator import add, not_
from typing import Callable, Iterable, Iterator, Sequence, Union

Dist = Fraction

DistLike = Union[Dist, int, str]


def as_dist(value: DistLike) -> Dist:
    """Coerce ``value`` to a non-negative exact rational distance.

    Floats are rejected outright with ``TypeError``: binary rounding would
    make exact zero-distance tests meaningless. So are bools, which are
    flags, not distances. Anything else that ``Fraction`` cannot read, and
    an exponent or a ``Decimal`` coefficient past the interpreter's digit
    limit, raises ``ValueError``.
    """
    if type(value) is Fraction:
        d = value
    elif isinstance(value, float):
        raise TypeError("float distances are not allowed; pass int, str or Fraction")
    elif isinstance(value, bool):
        raise TypeError("bool distances are not allowed; pass int, str or Fraction")
    else:
        try:
            d = _fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"distance is not a rational number: {value!r}") from None
    if d.numerator < 0:  # the denominator is always positive
        raise ValueError(f"distance must be non-negative, got {d}")
    return d


def format_dist(d: Dist) -> str:
    """Canonical text form of a distance: bare integer, else 'p/q' in lowest terms."""
    return str(d)


def _fraction(value: object) -> Fraction:
    # Fraction builds 10 ** exponent for exponent notation, whatever the
    # exponent's size, and reads a Decimal's coefficient in quadratic time,
    # whatever its number of digits. So an exponent or a coefficient past
    # the interpreter's digit limit (0: no limit), the bound a document
    # literal obeys, is refused first.
    exponent = digits = 0
    if isinstance(value, str) and "e" in value.lower():
        exponent = int(value.lower().rpartition("e")[2])
    elif isinstance(value, Decimal) and value.is_finite():
        _, coefficient, exponent = value.as_tuple()
        digits = len(coefficient)
    if 0 < sys.get_int_max_str_digits() < max(abs(exponent), digits):
        raise ValueError("past the interpreter's digit limit")
    return Fraction(value)


def _int_arg(name: str, value: object, least: int | None = None) -> None:
    # The rule of every seed, size and count argument: an int that is not a
    # bool, and at least ``least`` when one is given.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _is_utf8(label: str) -> bool:
    # A lone surrogate (legal in JSON and in undecodable command-line bytes)
    # has no UTF-8 form, so no output stream could print it.
    try:
        label.encode()
    except UnicodeEncodeError:
        return False
    return True


def _ordered(items: Iterable, what: str) -> tuple:
    # The rule of every argument whose order means something (labels, map
    # images, sequence prefixes and cycles): the caller's order, so never a
    # set, which iterates in hash order, nor a dict, whose keys would be read.
    if isinstance(items, (set, frozenset, dict)):
        raise ValueError(f"{what} must be ordered, got a {type(items).__name__}")
    return tuple(items)


def _shaped(labels: Iterable[str], matrix: Sequence[Sequence]) -> tuple[tuple, list[tuple]]:
    # The shape rule of every matrix, checked before any entry is coerced:
    # distinct nonempty labels that encode as UTF-8, in an order of the
    # caller's, and n rows of n entries each, the matrix and each row a list
    # or a tuple (so never a string or a buffer). Returns the labels and the
    # rows as tuples, entries untouched.
    labels = _ordered(labels, "labels")
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise ValueError(f"labels must be nonempty strings, got {lab!r}")
        if not _is_utf8(lab):
            raise ValueError(f"label {lab!r} is not encodable as UTF-8")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels")
    n = len(labels)
    if not isinstance(matrix, (list, tuple)):
        raise ValueError(f"matrix must be a sequence of rows, got {matrix!r}")
    rows = []
    for i, row in enumerate(matrix):
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"matrix row {i} must be a sequence of entries, got {row!r}")
        rows.append(tuple(row))
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
        labels, rows = _shaped(self.labels, self.matrix)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", tuple(tuple(map(as_dist, row)) for row in rows))

    @cached_property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no point labeled {label!r}") from None

    def validate(self) -> Report:
        return validate_pseudometric(self.labels, self.matrix, _scale=self._scale)

    @cached_property
    def _scale(self) -> int:
        # A common multiple of every denominator in the matrix: the least
        # one, unless _pullback set an inherited one. Not a field, so
        # equality, hashing and repr ignore it.
        return math.lcm(*{v.denominator for row in self.matrix for v in row})

    @cached_property
    def _zero_partition(self) -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
        # (blocks, class_of_point): the distinct zero blocks in order of first
        # appearance, and each point's own block. Every point lies in its own
        # block, so the pattern is an equivalence iff the diagonal is zero and
        # the distinct blocks do not overlap (their sizes sum to n). A pattern
        # that fails is scanned against the first block holding each point,
        # where some entry must disagree, to name it and a rule it breaks. Not
        # a field, so equality, hashing and repr ignore it. A failed check
        # caches nothing: every later read raises again.
        first: dict[frozenset[int], frozenset[int]] = {}
        class_of_point = tuple(first.setdefault(b, b) for b in zero_blocks_unchecked(self))
        blocks = tuple(first)
        if sum(map(len, blocks)) != self.n or any(r[i] for i, r in enumerate(self.matrix)):
            owner = {i: b for b in reversed(blocks) for i in b}
            for i, j in product(range(self.n), repeat=2):
                dij = self.matrix[i][j]
                if (dij == 0) != (owner[i] is owner[j]):
                    mirrored = (dij == 0) == (self.matrix[j][i] == 0)
                    rule = "reflexive" if i == j else "transitive" if mirrored else "symmetric"
                    raise ValueError(
                        f"zero-distance relation is not {rule}: "
                        f"d({self.labels[i]},{self.labels[j]}) = "
                        f"{format_dist(dij)}; not a valid pseudometric"
                    )
        return blocks, class_of_point

    @cached_property
    def _reflection(self) -> tuple[Space, tuple[int, ...], tuple[int, ...]]:
        # (quotient, projection images, section images) of the metric
        # reflection: one point per zero class, at its least member. None of
        # the three refers back to this space, so keeping them makes no
        # reference cycle; metric_reflection builds the two maps per call,
        # and the witness builders read the tables. Distinct classes
        # are at nonzero distance both ways, so the quotient's zero table is
        # one singleton class per point and is set here, not read from its
        # rows. Not a field, and a failed zero check caches nothing.
        blocks, class_of_point = self._zero_partition
        reps = tuple(min(b) for b in blocks)
        quotient = _pullback(self, reps, [self.labels[r] for r in reps])
        singletons = tuple(frozenset((k,)) for k in range(len(reps)))
        quotient.__dict__["_zero_partition"] = (singletons, singletons)
        number = {b: k for k, b in enumerate(blocks)}
        return quotient, tuple(map(number.__getitem__, class_of_point)), reps


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
        images = _ordered(self.images, "images")
        if len(images) != self.domain.n:
            raise ValueError(f"map has {len(images)} images, expected {self.domain.n}")
        members_of(self.codomain, images)
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, space: Space) -> "PointMap":
        return cls(space, space, tuple(range(space.n)))


def _distance_mismatches(m: PointMap) -> Iterator[tuple[int, int, Dist, Dist]]:
    # Every domain pair i < j whose distance the map changes, in row-major
    # order, as (i, j, domain distance, codomain distance of the images).
    # One tuple comparison screens each row; only a row that differs is
    # walked again, in j order. Tuples compare identical entries without
    # calling Fraction.__eq__, and a pullback shares its parent's entries.
    cm, images = m.codomain.matrix, m.images
    for i, row in enumerate(m.domain.matrix):
        wants = row[i + 1 :]
        gots = tuple(map(cm[images[i]].__getitem__, images[i + 1 :]))
        if gots != wants:
            for j, want, got in zip(range(i + 1, len(row)), wants, gots):
                if got != want:
                    yield i, j, want, got


def _pullback(
    parent: Space, points: Sequence[int], labels: Sequence[str], radii: Sequence[Dist] = ()
) -> Space:
    # The space on ``labels`` read from ``parent`` through an index list:
    # entry (i, j) is d(points[i], points[j]). Quotients, twins, clones,
    # gluings and permuted copies are all of this form. Anchored points
    # also carry a radius: ``radii`` belongs to the last len(radii) points,
    # and radii[i] + radii[j] is added off the diagonal. Each sum is made
    # once, in an anchored point's row, and mirrored into its column.
    # Space.__init__ does not run: labels and shape still pass _shaped, and
    # each radius passes as_dist once, in place of the check that
    # Space.__init__ made on every sum; the parent's entries are not checked
    # again. A parent that has read its scale hands the child the lcm of
    # that scale and the radii's denominators; one that has not is not made
    # to scan its matrix for a child that may never read a scale.
    radii = list(map(as_dist, radii))
    m = parent.matrix
    rows = [[m[p][q] for q in points] for p in points]
    n = len(rows)
    for i, r in enumerate(radii, start=n - len(radii)):
        if r:
            for j in range(n):
                if j != i:
                    rows[i][j] = rows[j][i] = rows[i][j] + r
    labels, rows = _shaped(labels, rows)
    space = object.__new__(Space)
    space.__dict__.update(labels=labels, matrix=tuple(rows))
    if "_scale" in parent.__dict__:
        space.__dict__["_scale"] = math.lcm(parent._scale, *(r.denominator for r in radii))
    return space


def _ints(rows: Sequence[Sequence[Fraction]], scale: int) -> list[list[int]]:
    # The matrix at ``scale``, a common multiple of its denominators:
    # ints[i][j] = scale * rows[i][j]. Scaling by one L preserves order,
    # equality and sums, within a matrix and across matrices scaled alike.
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows]


def _raw_rational(value: object, where: str) -> Fraction:
    if isinstance(value, float):
        raise ValueError(f"entry {where} is a float; distances must be exact rationals")
    if isinstance(value, bool):
        raise ValueError(f"entry {where} is a bool; distances must be exact rationals")
    try:
        return _fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"entry {where} is not a rational number: {value!r}") from None


def validate_pseudometric(
    labels: Sequence[str], matrix: Sequence[Sequence[object]], *, _scale: int | None = None
) -> Report:
    """Check the pseudometric axioms on raw input, reporting every violation.

    Structural problems (non-square matrix, dimension mismatch, labels that
    no :class:`Space` could hold, unparseable entries) raise ``ValueError``;
    they are input errors, not axiom violations. Axiom violations are
    collected exhaustively: negativity, nonzero diagonal, asymmetry, and
    every ordered triangle violation, each with a witness. The triangle
    witness ``(i, k, j)`` means ``d(i, j) > d(i, k) + d(k, j)``.
    """
    rows = matrix  # Space.validate: checked Fractions and their scale
    if _scale is None:
        labels, raw = _shaped(labels, matrix)
        rows = [
            tuple(_raw_rational(v, f"({i},{j})") for j, v in enumerate(r))
            for i, r in enumerate(raw)
        ]
        _scale = math.lcm(*{v.denominator for r in rows for v in r})
    ints = _ints(rows, _scale)
    points = range(len(labels))
    negative = [
        Violation("negative", (i, j), (rows[i][j],))
        for i, ri in enumerate(ints)
        for j, dij in enumerate(ri)
        if dij < 0
    ]
    diagonal = [Violation("diagonal", (i,), (rows[i][i],)) for i in points if ints[i][i]]
    symmetry = [
        Violation("symmetry", (i, j), (rows[i][j], rows[j][i]))
        for i, j in combinations(points, 2)
        if ints[i][j] != ints[j][i]
    ]
    # One C-level pass per (i, j) finds the shortest two-step path; only a
    # pair that some k violates is walked again, in k order, for witnesses,
    # with its row and column bound once. On a symmetric matrix (an empty
    # symmetry list) (i, k, j) violates iff (j, k, i) does, so the pairs
    # with i <= j find them all. The diagonal stays in: with negative
    # entries d(i, i) > d(i, k) + d(k, i) can hold.
    cols = list(zip(*ints))
    pairs = [
        (i, j)
        for i, ri in enumerate(ints)
        for j in points[0 if symmetry else i :]
        if ri[j] > min(map(add, ri, cols[j]))
    ]
    if not symmetry:
        pairs = sorted(pairs + [(j, i) for i, j in pairs if i != j])
    triangle = [
        Violation("triangle", (i, k, j), (rows[i][j], rows[i][k], rows[k][j]))
        for i, j in pairs
        for ri, cj in [(ints[i], cols[j])]
        for k in points
        if ri[j] > ri[k] + cj[k]
    ]
    return Report(tuple(negative + diagonal + symmetry + triangle))


def is_metric(space: Space) -> bool:
    """True iff all distances between distinct points are positive.

    Read from the zero partition: every zero class is a single point.
    """
    return len(zero_classes(space)) == space.n


def zero_blocks_unchecked(space: Space) -> list[frozenset[int]]:
    """The zero block of each point, in point order: itself and every ``j`` with ``d(i, j) = 0``.

    Each row is read once. Nothing is checked; on a zero pattern that is not
    an equivalence the blocks may overlap. :func:`zero_classes` keeps the
    distinct blocks once it has checked that they partition the points and
    that the diagonal is zero.
    """
    points = range(space.n)
    return [frozenset(compress(points, map(not_, r))) | {i} for i, r in enumerate(space.matrix)]


def zero_classes(space: Space) -> tuple[frozenset[int], ...]:
    """The classes of pairwise distance 0, ordered by least member.

    The classes are computed on the first call for a space and kept with
    it; saturation, the topology, the reflection and the morphism checks
    all read them.

    For a valid pseudometric the zero-distance relation is an equivalence
    (reflexive and symmetric by the axioms, transitive by the triangle
    inequality). The check is exact: unless the zero rows partition the
    points and the diagonal is zero, a ``ValueError`` names an entry where
    ``d(i, j) == 0`` disagrees with the blocks, and a rule it breaks.
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
    return frozenset().union(*map(space._zero_partition[1].__getitem__, members_of(space, A)))
