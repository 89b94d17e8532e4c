"""Randomized invariant suites over the whole library.

Each suite draws reproducible random instances and checks the properties
the library promises: the topology suite exercises the open/closed/saturated
equivalences and the completeness criteria, the morphisms suite compares the
reflection-based pseudoisometry search against exhaustive enumeration and
validates every witness, and the constructions suite checks the two gluing
constructions and the generators. A fixed seed yields a bit-identical
summary on every run and platform; the first failing check is captured as a
bundle of canonical space documents.
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

SUITES = ("topology", "morphisms", "constructions")


@dataclass
class CheckFailure:
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


class _SuiteFailed(Exception):
    pass


class _Recorder:
    def __init__(self, suite: str):
        self.suite = suite
        self.checks = 0
        self.failure: CheckFailure | None = None

    def check(self, name: str, ok: bool, detail: str = "", **spaces: Space) -> None:
        self.checks += 1
        if not ok:
            self.failure = CheckFailure(
                self.suite,
                name,
                detail,
                {k: emit_document(v) for k, v in spaces.items()},
            )
            raise _SuiteFailed


def _random_subset(rng: random.Random, n: int) -> frozenset[int]:
    mask = rng.getrandbits(n) if n else 0
    return frozenset(i for i in range(n) if mask >> i & 1)


def _subsets_to_try(rng: random.Random, n: int) -> list[frozenset[int]]:
    if n <= 5:
        return [frozenset(i for i in range(n) if m >> i & 1) for m in range(1 << n)]
    seen = {frozenset(), frozenset(range(n))}
    for _ in range(30):
        seen.add(_random_subset(rng, n))
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def _with_clones(base: Space, total: int, rng: random.Random) -> Space:
    """Pad a space with zero-distance clones of random points up to ``total``."""
    labels = base.labels + tuple(f"c{i}" for i in range(base.n, total))
    return _pullback(base, _clone_points(base.n, total, rng), labels)


def _permuted_twin(space: Space, rng: random.Random) -> tuple[Space, PointMap]:
    """A relabeled-and-reordered copy plus the isometry onto it."""
    sigma = list(range(space.n))
    rng.shuffle(sigma)
    twin = _pullback(space, sigma, [f"t{i}" for i in range(space.n)])
    images = [0] * space.n
    for new, old in enumerate(sigma):
        images[old] = new
    return twin, PointMap(space, twin, tuple(images))


def _space(rng: random.Random, max_n: int, zero_merge=Fraction(1, 3)) -> Space:
    n = rng.randint(1, max_n)
    return random_space(
        GenParams(seed=rng.getrandbits(63), n=n, zero_merge_prob=zero_merge)
    )


def _run_topology(rec: _Recorder, rng: random.Random, count: int, max_n: int) -> None:
    for _ in range(count):
        space = _space(rng, max_n)
        n = space.n
        rec.check(
            "quotient_distances_well_defined",
            check_well_defined(space).ok,
            "",
            space=space,
        )
        subsets = _subsets_to_try(rng, n)
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
            rec.check(
                "open_iff_closed_iff_saturated",
                o == c == s == is_open(space, A) == is_closed(space, A),
                f"A={sorted(A)} open={o} closed={c} saturated={s}",
                space=space,
            )
            rec.check(
                "closure_equals_saturate",
                closure(space, A)
                == frozenset(x for x in range(n) if any(space.matrix[x][a] == 0 for a in A)),
                f"A={sorted(A)}",
                space=space,
            )
            rec.check(
                "boundary_completeness_criterion",
                complete_via_boundary(space, A),
                f"A={sorted(A)}",
                space=space,
            )
            if A:
                rec.check(
                    "closedness_via_completeness_matches",
                    closed_via_completeness(space, A) == c,
                    f"A={sorted(A)}",
                    space=space,
                )
            all_closed = all_closed and c
        if n <= 5:
            rec.check(
                "metric_iff_all_subsets_closed",
                is_metric(space) == all_closed,
                "",
                space=space,
            )

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
            rec.check(
                "cauchy_limits_are_a_zero_class",
                is_cauchy(seq) == cauchy
                and limits == (class_of(space, cycle[0]) if cauchy else frozenset()),
                f"prefix={prefix} cycle={cycle}",
                space=space,
            )
            rec.check(
                "finite_spaces_are_complete",
                (not cauchy) or bool(limits),
                f"cycle={cycle}",
                space=space,
            )
            closed_set = saturate(space, _random_subset(rng, n) | set(cycle))
            rec.check(
                "closed_subsets_are_complete",
                (not cauchy) or bool(limits & closed_set),
                f"cycle={cycle} A={sorted(closed_set)}",
                space=space,
            )
            proj = refl.projection.images
            qseq = EPSequence(
                refl.quotient,
                tuple(proj[i] for i in prefix),
                tuple(proj[i] for i in cycle),
            )
            rec.check(
                "reflection_preserves_cauchy_and_limits",
                is_cauchy(qseq) == cauchy
                and bool(limit_points(qseq)) == bool(limits),
                f"cycle={cycle}",
                space=space,
                quotient=refl.quotient,
            )


def _reverify_induced(phi: PointMap) -> bool:
    induced = induced_reflection_map(phi)
    rx = metric_reflection(phi.domain)
    ry = metric_reflection(phi.codomain)
    commutes = all(
        induced.images[rx.projection.images[i]] == ry.projection.images[phi.images[i]]
        for i in range(phi.domain.n)
    )
    bijective = len(set(induced.images)) == ry.quotient.n == rx.quotient.n
    return commutes and bijective and is_distance_preserving(induced)


def _check_morphism_properties(rec: _Recorder, m: PointMap) -> None:
    injective = len(set(m.images)) == m.domain.n
    surjective = len(set(m.images)) == m.codomain.n
    if is_metric(m.domain):
        rec.check(
            "metric_domain_implies_injective", injective, "", x=m.domain, y=m.codomain
        )
    if is_metric(m.codomain):
        rec.check(
            "metric_codomain_implies_surjective", surjective, "", x=m.domain, y=m.codomain
        )
    if is_metric(m.domain) and is_metric(m.codomain):
        rec.check(
            "metric_to_metric_is_isometry",
            injective and surjective and is_distance_preserving(m),
            "",
            x=m.domain,
            y=m.codomain,
        )


def _run_morphisms(rec: _Recorder, rng: random.Random, count: int, max_n: int) -> None:
    size = min(4, max_n)
    for _ in range(count):
        x = _space(rng, size)
        kind = rng.randrange(3)
        if kind == 0:
            y = _space(rng, size)
        elif kind == 1:
            quotient = metric_reflection(x).quotient
            y = _with_clones(quotient, rng.randint(quotient.n, size), rng)
        else:
            y, _ = _permuted_twin(x, rng)

        witness = are_pseudoisometric(x, y)
        oracle = brute_force_pseudoisometry(x, y)
        rec.check(
            "search_agrees_with_enumeration",
            (witness is None) == (oracle is None),
            f"search={'found' if witness else 'none'} "
            f"enumeration={'found' if oracle else 'none'}",
            x=x,
            y=y,
        )
        back = are_pseudoisometric(y, x)
        rec.check(
            "pseudoisometric_is_symmetric",
            (witness is None) == (back is None),
            "",
            x=x,
            y=y,
        )
        rec.check(
            "identity_is_pseudoisometry",
            is_pseudoisometry(PointMap.identity(x)).ok,
            "",
            x=x,
        )
        refl = metric_reflection(x)
        rec.check(
            "projection_is_pseudoisometry",
            is_pseudoisometry(refl.projection).ok,
            "",
            x=x,
        )
        rec.check(
            "section_is_pseudoisometry", is_pseudoisometry(refl.section).ok, "", x=x
        )
        roundtrip = compose(refl.projection, refl.section)
        rec.check(
            "composites_stay_pseudoisometries",
            is_pseudoisometry(roundtrip).ok,
            "",
            x=x,
        )
        for m in (witness, oracle):
            if m is None:
                continue
            rec.check("witness_is_pseudoisometry", is_pseudoisometry(m).ok, "", x=x, y=y)
            rec.check(
                "induced_reflection_map_is_isometry", _reverify_induced(m), "", x=x, y=y
            )
            _check_morphism_properties(rec, m)
        if witness is not None and back is not None:
            loop = compose(witness, back)
            rec.check(
                "transitivity_composites_validate",
                is_pseudoisometry(loop).ok,
                "",
                x=x,
                y=y,
            )
        if witness is not None and len(set(witness.images)) == y.n == x.n:
            ok = True
            for mask in range(1 << x.n):
                A = frozenset(i for i in range(x.n) if mask >> i & 1)
                image = frozenset(witness.images[i] for i in A)
                if is_open(x, A) != is_open(y, image):
                    ok = False
                    break
            rec.check("bijective_witness_is_homeomorphism", ok, "", x=x, y=y)


def _completion_glue_checked(rec: _Recorder, y: Space, extension: PointMap) -> PointMap:
    completed = completion_glue(y, extension)
    rec.check(
        "completion_glue_validates",
        completed.codomain.validate().ok,
        "",
        glued=completed.codomain,
    )
    rec.check("completion_glue_is_superspace", is_superspace(completed), "", y=y)
    return completed


def _run_constructions(rec: _Recorder, rng: random.Random, count: int, max_n: int) -> None:
    for _ in range(count):
        y = _space(rng, max_n)
        rec.check(
            "random_space_validates",
            y.validate().ok,
            "",
            y=y,
        )

        glued = glue_zero_point(y, rng.randrange(y.n), "twin")
        rec.check(
            "zero_glue_validates",
            glued.codomain.validate().ok,
            "",
            superspace=glued.codomain,
        )
        rec.check("zero_glue_is_superspace", is_superspace(glued), "", y=y)
        rec.check(
            "zero_glue_leaves_set_unclosed",
            not is_closed(glued.codomain, frozenset(glued.images)),
            "",
            superspace=glued.codomain,
        )
        rec.check("zero_glue_never_in_cec", not in_cec(glued), "", superspace=glued.codomain)
        rec.check(
            "cec_minimality_on_zero_glue",
            check_cec_minimality(glued),
            "",
            superspace=glued.codomain,
        )

        refl = metric_reflection(y)
        extension = random_superspace(
            refl.quotient,
            GenParams(seed=rng.getrandbits(63), n=rng.randint(0, 2)),
            force_cec=True,
        )
        rec.check(
            "reflection_extension_is_metric",
            is_metric(extension.codomain),
            "",
            ystar=extension.codomain,
        )
        completed = _completion_glue_checked(rec, y, extension)
        rec.check(
            "completion_glue_in_cec", in_cec(completed), "", glued=completed.codomain
        )
        rec.check(
            "completion_glue_leaves_set_closed",
            is_closed(completed.codomain, frozenset(completed.images)),
            "",
            glued=completed.codomain,
        )
        identity_glue = _completion_glue_checked(rec, y, PointMap.identity(refl.quotient))
        rec.check(
            "completion_glue_identity_reproduces_space",
            identity_glue.codomain == y,
            "",
            y=y,
            glued=identity_glue.codomain,
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
        rec.check(
            "random_superspace_embeds", is_superspace(extra), "", y=y, superspace=extra.codomain
        )
        rec.check(
            "random_superspace_validates",
            extra.codomain.validate().ok,
            "",
            superspace=extra.codomain,
        )
        rec.check(
            "cec_minimality_on_random_superspace",
            check_cec_minimality(extra),
            "",
            superspace=extra.codomain,
        )
        forced = random_superspace(
            y, GenParams(seed=rng.getrandbits(63), n=rng.randint(0, 3)), force_cec=True
        )
        rec.check("forced_superspace_in_cec", in_cec(forced), "", superspace=forced.codomain)


_RUNNERS = {
    "topology": _run_topology,
    "morphisms": _run_morphisms,
    "constructions": _run_constructions,
}


def run_fuzz(
    seed: int, count: int, max_n: int = 6, suites: tuple[str, ...] = SUITES
) -> FuzzReport:
    """Run the named suites (a nonempty tuple from ``SUITES``) on ``count`` instances each."""
    if isinstance(suites, str) or not suites:
        raise ValueError(f"suites must be a nonempty tuple of suite names, got {suites!r}")
    for name in suites:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    report = FuzzReport(seed=seed, count=count, max_n=max_n)
    for name in SUITES:
        if name not in suites:
            continue
        rec = _Recorder(name)
        rng = random.Random(seed * 1_000_003 + SUITES.index(name))
        try:
            _RUNNERS[name](rec, rng, count, max_n)
        except _SuiteFailed:
            report.failure = rec.failure
        report.suites[name] = rec.checks
        if report.failure is not None:
            break
    return report
