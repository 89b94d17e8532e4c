"""Randomized invariant suites over the whole library.

Each suite draws one random instance and checks on it the properties the
library promises: the topology suite exercises the open/closed/saturated
equivalences and the completeness criteria, the morphisms suite compares the
reflection-based pseudoisometry search against exhaustive enumeration and
validates every witness, and the constructions suite checks the two gluing
constructions and the generators. ``run_fuzz`` repeats a suite ``count``
times on the suite's own seeded generator, so a fixed seed yields a
bit-identical summary on every run and platform. The first failing check is
recorded from its named inputs, in the order the check gives them: each
space as a canonical document, every other input as ``name=value`` in the
detail line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .constructions import (
    GenParams,
    _clone_points,
    check_cec_minimality,
    completion_glue,
    glue_zero_point,
    in_cec,
    is_superspace,
    random_space,
    random_superspace,
)
from .core import PointMap, Space, _pullback, class_of, is_metric, saturate
from .document import emit_document
from .morphisms import (
    are_pseudoisometric,
    brute_force_pseudoisometry,
    compose,
    induced_reflection_map,
    is_distance_preserving,
    is_pseudoisometry,
)
from .reflection import check_well_defined, metric_reflection
from .topology import (
    EPSequence,
    closed_via_completeness,
    closure,
    complete_via_boundary,
    is_cauchy,
    is_closed,
    is_open,
    limit_points,
    open_ball,
)


@dataclass
class CheckFailure(Exception):
    suite: str
    check: str
    detail: str
    documents: dict[str, str]


@dataclass
class FuzzReport:
    seed: int
    count: int
    max_n: int
    suites: dict[str, int] = field(default_factory=dict)
    failure: CheckFailure | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def summary(self) -> str:
        lines = [
            f"fuzz seed={self.seed} count={self.count} max-n={self.max_n} "
            f"suites={','.join(self.suites)}"
        ]
        for name, checks in self.suites.items():
            status = "ok"
            if self.failure is not None and self.failure.suite == name:
                status = f"FAILED at {self.failure.check}"
            lines.append(f"{name}: {checks} checks, {status}")
        total = sum(self.suites.values())
        if self.ok:
            lines.append(f"result: PASS ({total} checks)")
        else:
            lines.append(f"result: FAIL ({total} checks)")
            lines.append(
                f"counterexample ({self.failure.suite}/{self.failure.check}): "
                f"{self.failure.detail}"
            )
            for name, doc in self.failure.documents.items():
                lines.append(f"--- {name} ---")
                lines.append(doc.rstrip("\n"))
        return "\n".join(lines)


def _random_subset(rng: random.Random, n: int) -> frozenset[int]:
    mask = rng.getrandbits(n)
    return frozenset(i for i in range(n) if mask >> i & 1)


def _all_subsets(n: int) -> list[frozenset[int]]:
    return [frozenset(i for i in range(n) if m >> i & 1) for m in range(1 << n)]


def _space(rng: random.Random, max_n: int) -> Space:
    n = rng.randint(1, max_n)
    return random_space(
        GenParams(seed=rng.getrandbits(63), n=n, zero_merge_prob=Fraction(1, 3))
    )


def _run_topology(check, rng: random.Random, max_n: int) -> None:
    space = _space(rng, max_n)
    n = space.n
    check("quotient_distances_well_defined", check_well_defined(space).ok, space=space)
    # Up to five points every subset is tried, so metric_iff_all_subsets_closed
    # below may read them all; beyond, the two trivial ones and 30 drawn ones.
    exhaustive = n <= 5
    if exhaustive:
        subsets = _all_subsets(n)
    else:
        seen = {frozenset(), frozenset(range(n))}
        seen.update(_random_subset(rng, n) for _ in range(30))
        subsets = sorted(seen, key=lambda s: (len(s), sorted(s)))
    # The least open ball around each point, from the definition: its
    # radius is the least positive distance (any radius if there is none).
    balls = [
        open_ball(space, a, min((d for d in space.matrix[a] if d > 0), default=1))
        for a in range(n)
    ]
    everything = frozenset(range(n))
    all_closed = True
    for A in subsets:
        # Open and closed by definition, then the library's answers.
        rest = everything - A
        o = all(balls[a] <= A for a in A)
        c = all(balls[a] <= rest for a in rest)
        s = saturate(space, A) == A
        check(
            "open_iff_closed_iff_saturated",
            o == c == s == is_open(space, A) == is_closed(space, A),
            A=sorted(A), open=o, closed=c, saturated=s, space=space,
        )
        check(
            "closure_equals_saturate",
            closure(space, A)
            == frozenset(x for x in range(n) if any(space.matrix[x][a] == 0 for a in A)),
            A=sorted(A), space=space,
        )
        check(
            "boundary_completeness_criterion",
            complete_via_boundary(space, A),
            A=sorted(A), space=space,
        )
        if A:
            check(
                "closedness_via_completeness_matches",
                closed_via_completeness(space, A) == c,
                A=sorted(A), space=space,
            )
        all_closed = all_closed and c
    if exhaustive:
        check("metric_iff_all_subsets_closed", is_metric(space) == all_closed, space=space)

    refl = metric_reflection(space)
    for _ in range(3):
        prefix = tuple(rng.randrange(n) for _ in range(rng.randint(0, 2)))
        if rng.randrange(2):
            anchor = rng.randrange(n)
            cls = sorted(class_of(space, anchor))
            cycle = tuple(rng.choice(cls) for _ in range(rng.randint(1, 3)))
        else:
            cycle = tuple(rng.randrange(n) for _ in range(rng.randint(1, 3)))
        seq = EPSequence(space, prefix, cycle)
        # Cauchy by the definition: cycle points pairwise at distance 0.
        cauchy = all(space.matrix[a][b] == 0 for a in cycle for b in cycle)
        limits = limit_points(seq)
        check(
            "cauchy_limits_are_a_zero_class",
            is_cauchy(seq) == cauchy
            and limits == (class_of(space, cycle[0]) if cauchy else frozenset()),
            prefix=prefix, cycle=cycle, space=space,
        )
        check(
            "finite_spaces_are_complete", (not cauchy) or bool(limits), cycle=cycle, space=space
        )
        closed_set = saturate(space, _random_subset(rng, n) | set(cycle))
        check(
            "closed_subsets_are_complete",
            (not cauchy) or bool(limits & closed_set),
            cycle=cycle, A=sorted(closed_set), space=space,
        )
        proj = refl.projection.images
        qseq = EPSequence(
            refl.quotient,
            tuple(proj[i] for i in prefix),
            tuple(proj[i] for i in cycle),
        )
        check(
            "reflection_preserves_cauchy_and_limits",
            is_cauchy(qseq) == cauchy
            and bool(limit_points(qseq)) == bool(limits),
            cycle=cycle, space=space, quotient=refl.quotient,
        )


def _run_morphisms(check, rng: random.Random, max_n: int) -> None:
    size = min(4, max_n)
    x = _space(rng, size)
    kind = rng.randrange(3)
    if kind == 0:
        y = _space(rng, size)
    elif kind == 1:
        # The reflection padded with zero-distance clones: pseudoisometric to x.
        quotient = metric_reflection(x).quotient
        total = rng.randint(quotient.n, size)
        clones = [f"c{i}" for i in range(quotient.n, total)]
        y = _pullback(quotient, _clone_points(quotient.n, total, rng), [*quotient.labels, *clones])
    else:
        # A relabeled and reordered copy: isometric to x.
        sigma = list(range(x.n))
        rng.shuffle(sigma)
        y = _pullback(x, sigma, [f"t{i}" for i in range(x.n)])

    witness = are_pseudoisometric(x, y)
    oracle = brute_force_pseudoisometry(x, y)
    check(
        "search_agrees_with_enumeration",
        (witness is None) == (oracle is None),
        search="found" if witness else "none",
        enumeration="found" if oracle else "none",
        x=x, y=y,
    )
    back = are_pseudoisometric(y, x)
    check("pseudoisometric_is_symmetric", (witness is None) == (back is None), x=x, y=y)
    refl = metric_reflection(x)
    for name, m in (
        ("identity_is_pseudoisometry", PointMap.identity(x)),
        ("projection_is_pseudoisometry", refl.projection),
        ("section_is_pseudoisometry", refl.section),
        ("composites_stay_pseudoisometries", compose(refl.projection, refl.section)),
    ):
        check(name, is_pseudoisometry(m).ok, x=x)
    for m in (witness, oracle):
        if m is None:
            continue
        check("witness_is_pseudoisometry", is_pseudoisometry(m).ok, x=x, y=y)
        induced = induced_reflection_map(m)
        ry = metric_reflection(y)
        commutes = all(
            induced.images[refl.projection.images[i]] == ry.projection.images[m.images[i]]
            for i in range(x.n)
        )
        bijective = len(set(induced.images)) == ry.quotient.n == refl.quotient.n
        check(
            "induced_reflection_map_is_isometry",
            commutes and bijective and is_distance_preserving(induced),
            x=x, y=y,
        )
        injective = len(set(m.images)) == x.n
        surjective = len(set(m.images)) == y.n
        if is_metric(x):
            check("metric_domain_implies_injective", injective, x=x, y=y)
        if is_metric(y):
            check("metric_codomain_implies_surjective", surjective, x=x, y=y)
        if is_metric(x) and is_metric(y):
            check(
                "metric_to_metric_is_isometry",
                injective and surjective and is_distance_preserving(m),
                x=x, y=y,
            )
    if witness is not None and back is not None:
        loop = compose(witness, back)
        check("transitivity_composites_validate", is_pseudoisometry(loop).ok, x=x, y=y)
    if witness is not None and len(set(witness.images)) == y.n == x.n:
        check(
            "bijective_witness_is_homeomorphism",
            all(
                is_open(x, A) == is_open(y, {witness.images[i] for i in A})
                for A in _all_subsets(x.n)
            ),
            x=x, y=y,
        )


def _completion_glue_checked(check, y: Space, extension: PointMap) -> PointMap:
    completed = completion_glue(y, extension)
    z = completed.codomain
    check("completion_glue_validates", z.validate().ok, glued=z)
    check("completion_glue_is_superspace", is_superspace(completed), y=y)
    return completed


def _run_constructions(check, rng: random.Random, max_n: int) -> None:
    y = _space(rng, max_n)
    check("random_space_validates", y.validate().ok, y=y)

    glued = glue_zero_point(y, rng.randrange(y.n), "twin")
    z = glued.codomain
    check("zero_glue_validates", z.validate().ok, superspace=z)
    check("zero_glue_is_superspace", is_superspace(glued), y=y)
    check(
        "zero_glue_leaves_set_unclosed",
        not is_closed(z, frozenset(glued.images)),
        superspace=z,
    )
    check("zero_glue_never_in_cec", not in_cec(glued), superspace=z)
    check("cec_minimality_on_zero_glue", check_cec_minimality(glued), superspace=z)

    refl = metric_reflection(y)
    extension = random_superspace(
        refl.quotient,
        GenParams(seed=rng.getrandbits(63), n=rng.randint(0, 2)),
        force_cec=True,
    )
    ystar = extension.codomain
    check("reflection_extension_is_metric", is_metric(ystar), ystar=ystar)
    completed = _completion_glue_checked(check, y, extension)
    z = completed.codomain
    check("completion_glue_in_cec", in_cec(completed), glued=z)
    check(
        "completion_glue_leaves_set_closed", is_closed(z, frozenset(completed.images)), glued=z
    )
    identity_glue = _completion_glue_checked(check, y, PointMap.identity(refl.quotient))
    check(
        "completion_glue_identity_reproduces_space",
        identity_glue.codomain == y,
        y=y, glued=identity_glue.codomain,
    )

    extra = random_superspace(
        y,
        GenParams(
            seed=rng.getrandbits(63),
            n=rng.randint(0, 3),
            zero_merge_prob=Fraction(1, 2),
        ),
        force_cec=bool(rng.randrange(2)),
    )
    z = extra.codomain
    check("random_superspace_embeds", is_superspace(extra), y=y, superspace=z)
    check("random_superspace_validates", z.validate().ok, superspace=z)
    check("cec_minimality_on_random_superspace", check_cec_minimality(extra), superspace=z)
    forced = random_superspace(
        y, GenParams(seed=rng.getrandbits(63), n=rng.randint(0, 3)), force_cec=True
    )
    check("forced_superspace_in_cec", in_cec(forced), superspace=forced.codomain)


# Each runner draws one instance from ``rng`` and reports every property
# through ``check(name, ok, **inputs)``; run_fuzz owns the loop.
_RUNNERS = {
    "topology": _run_topology,
    "morphisms": _run_morphisms,
    "constructions": _run_constructions,
}
# run_fuzz seeds each suite with its index here.
SUITES = tuple(_RUNNERS)


def run_fuzz(
    seed: int, count: int, max_n: int = 6, suites: tuple[str, ...] = SUITES
) -> FuzzReport:
    """Run the named suites (a nonempty tuple from ``SUITES``) on ``count`` instances each."""
    if isinstance(suites, str) or not suites:
        raise ValueError(f"suites must be a nonempty tuple of suite names, got {suites!r}")
    for name in suites:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")
    for name, value, least in (("seed", seed, None), ("count", count, 0), ("max_n", max_n, 1)):
        if not isinstance(value, int) or isinstance(value, bool):  # the members_of rule
            raise ValueError(f"{name} must be an int, got {value!r}")
        if least is not None and value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    report = FuzzReport(seed=seed, count=count, max_n=max_n)

    def check(name: str, ok: bool, **inputs: object) -> None:
        report.suites[suite] += 1
        if not ok:
            raise CheckFailure(
                suite,
                name,
                " ".join(f"{k}={v}" for k, v in inputs.items() if not isinstance(v, Space)),
                {k: emit_document(v) for k, v in inputs.items() if isinstance(v, Space)},
            )

    for index, suite in enumerate(SUITES):
        if suite not in suites:
            continue
        report.suites[suite] = 0
        rng = random.Random(seed * 1_000_003 + index)
        try:
            for _ in range(count):
                _RUNNERS[suite](check, rng, max_n)
        except CheckFailure as failure:
            report.failure = failure
            break
    return report
