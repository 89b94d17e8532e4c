"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact rational equalities; there are no tolerances to
tune anywhere in this module.
"""

import random
import time
from fractions import Fraction

from pseudometric import (
    GenParams,
    PointMap,
    Space,
    are_pseudoisometric,
    brute_force_pseudoisometry,
    check_cec_minimality,
    closed_via_completeness,
    complete_via_boundary,
    completion_glue,
    compose,
    closure,
    emit_document,
    find_isometry,
    glue_zero_point,
    in_cec,
    induced_reflection_map,
    is_closed,
    is_distance_preserving,
    is_metric,
    is_open,
    is_pseudoisometry,
    is_superspace,
    metric_reflection,
    parse_document,
    random_space,
    random_superspace,
    run_fuzz,
    saturate,
)

from oracles import all_subsets, factorial_isometry, iter_pseudoisometries, small_spaces


def _report(number: int, name: str, started: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {number} ({name}): PASS ({detail}, {elapsed:.2f}s)")


def _seeded_space(rng: random.Random, max_n: int, zmp=None) -> Space:
    if zmp is None:
        zmp = (Fraction(0), Fraction(1, 4), Fraction(1, 2))[rng.randrange(3)]
    return random_space(
        GenParams(seed=rng.getrandbits(63), n=rng.randint(1, max_n), zero_merge_prob=zmp)
    )


def _padded_with_clones(base: Space, total: int, rng: random.Random, prefix: str) -> Space:
    rows = [list(r) for r in base.matrix]
    for i in range(base.n, total):
        src = rng.randrange(i)
        for row in rows:
            row.append(row[src])
        rows.append([rows[j][src] for j in range(i)] + [Fraction(0)])
    return Space(tuple(f"{prefix}{i}" for i in range(total)), tuple(tuple(r) for r in rows))


def _permuted(base: Space, rng: random.Random, prefix: str) -> Space:
    sigma = list(range(base.n))
    rng.shuffle(sigma)
    return Space(
        tuple(f"{prefix}{i}" for i in range(base.n)),
        tuple(
            tuple(base.matrix[sigma[a]][sigma[b]] for b in range(base.n))
            for a in range(base.n)
        ),
    )


def test_criterion_01_quotient_correctness():
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(1000):
        space = _seeded_space(rng, 8)
        refl = metric_reflection(space)
        assert is_metric(refl.quotient)
        proj = refl.projection.images
        for i in range(space.n):
            for j in range(space.n):
                assert refl.quotient.matrix[proj[i]][proj[j]] == space.matrix[i][j]
    _report(1, "quotient correctness", started, "1000 spaces, n <= 8, exact")


def test_criterion_02_finite_topology_equivalences():
    started = time.perf_counter()
    spaces = small_spaces(4)
    checked = 0
    for space in spaces:
        for A in all_subsets(space.n):
            o = is_open(space, A)
            c = is_closed(space, A)
            s = saturate(space, A) == A
            assert o == c == s
            assert closure(space, A) == saturate(space, A)
            assert complete_via_boundary(space, A)
            if A:
                assert closed_via_completeness(space, A) == c
            checked += 1
    _report(
        2,
        "finite topology equivalences",
        started,
        f"{len(spaces)} spaces, {checked} subsets, zero violations",
    )


def test_criterion_03_metric_iff_all_subsets_closed():
    started = time.perf_counter()
    spaces = small_spaces(4)
    for space in spaces:
        every_closed = all(is_closed(space, A) for A in all_subsets(space.n))
        assert every_closed == is_metric(space)
    _report(3, "metric iff closed = complete", started, f"{len(spaces)} spaces")


def test_criterion_04_zero_glue_leaves_set_unclosed():
    started = time.perf_counter()
    rng = random.Random(404)
    for _ in range(500):
        space = _seeded_space(rng, 7)
        glued = glue_zero_point(space, rng.randrange(space.n), "twin")
        assert glued.codomain.validate().ok
        assert not is_closed(glued.codomain, frozenset(glued.images))
    _report(4, "zero-glue superspace", started, "500 spaces, zero violations")


def test_criterion_05_completion_glue_and_minimality():
    started = time.perf_counter()
    rng = random.Random(505)
    for _ in range(500):
        y = _seeded_space(rng, 6)
        refl = metric_reflection(y)
        extension = random_superspace(
            refl.quotient,
            GenParams(seed=rng.getrandbits(63), n=rng.randint(0, 2)),
            force_cec=True,
        )
        glued = completion_glue(y, extension)
        assert glued.codomain.validate().ok
        assert is_superspace(glued)
        assert in_cec(glued)
        assert is_closed(glued.codomain, frozenset(glued.images))
    for _ in range(500):
        y = _seeded_space(rng, 6)
        e = random_superspace(
            y,
            GenParams(
                seed=rng.getrandbits(63),
                n=rng.randint(0, 3),
                zero_merge_prob=Fraction(1, 2),
            ),
            force_cec=bool(rng.randrange(2)),
        )
        assert check_cec_minimality(e)
    _report(5, "completion glue + minimality", started, "500 + 500 instances")


def _reverify_induced(phi: PointMap) -> bool:
    rx = metric_reflection(phi.domain)
    ry = metric_reflection(phi.codomain)
    F = induced_reflection_map(phi)
    commutes = all(
        F.images[rx.projection.images[i]] == ry.projection.images[phi.images[i]]
        for i in range(phi.domain.n)
    )
    bijective = len(set(F.images)) == ry.quotient.n == rx.quotient.n
    return commutes and bijective and is_distance_preserving(F)


def test_criterion_06_search_matches_enumeration_oracle():
    started = time.perf_counter()
    rng = random.Random(606)
    found = 0
    for k in range(200):
        x = _seeded_space(rng, 5)
        kind = k % 3
        if kind == 0:
            y = _seeded_space(rng, 5)
        elif kind == 1:
            quotient = metric_reflection(x).quotient
            y = _padded_with_clones(quotient, rng.randint(quotient.n, 5), rng, "c")
        else:
            y = _permuted(x, rng, "t")
        witness = are_pseudoisometric(x, y)
        oracle = brute_force_pseudoisometry(x, y)
        assert (witness is None) == (oracle is None)
        for m in (witness, oracle):
            if m is not None:
                assert is_pseudoisometry(m).ok
                assert _reverify_induced(m)
                found += 1
    _report(6, "pseudoisometry oracle equivalence", started, f"200 pairs, {found} witnesses")


def test_criterion_07_isometry_search_completeness():
    started = time.perf_counter()
    rng = random.Random(707)
    pool = []
    for i in range(100):
        if i % 4 == 3 and pool:
            pool.append(_permuted(rng.choice(pool), rng, f"s{i}x"))
        else:
            pool.append(
                random_space(
                    GenParams(
                        seed=rng.getrandbits(63),
                        n=rng.randint(1, 6),
                        zero_merge_prob=Fraction(0),
                    )
                )
            )
    pairs = 0
    agreements_with_witness = 0
    for a in range(len(pool)):
        for b in range(a, len(pool)):
            witness, _ = find_isometry(pool[a], pool[b])
            oracle = factorial_isometry(pool[a], pool[b])
            assert (witness is None) == (oracle is None)
            if witness is not None:
                assert is_distance_preserving(witness)
                assert sorted(witness.images) == list(range(pool[b].n))
                agreements_with_witness += 1
            pairs += 1
    _report(
        7,
        "isometry search completeness",
        started,
        f"{pairs} pairs, {agreements_with_witness} isometric",
    )


def test_criterion_08_pseudoisometry_structure_properties():
    started = time.perf_counter()
    count = 0
    for m in iter_pseudoisometries(seed=808, count=1000):
        assert is_pseudoisometry(m).ok
        injective = len(set(m.images)) == m.domain.n
        surjective = len(set(m.images)) == m.codomain.n
        if is_metric(m.domain):
            assert injective
        if is_metric(m.codomain):
            assert surjective
        if is_metric(m.domain) and is_metric(m.codomain):
            assert injective and surjective and is_distance_preserving(m)
        count += 1
    _report(8, "pseudoisometry structure", started, f"{count} morphisms")


def test_criterion_09_pseudoisometric_is_an_equivalence():
    started = time.perf_counter()
    rng = random.Random(909)
    pool = []
    for _ in range(10):
        base = _seeded_space(rng, 6)
        pool.append(base)
        quotient = metric_reflection(base).quotient
        pool.append(quotient)
        pool.append(_padded_with_clones(quotient, rng.randint(quotient.n, 6), rng, "v"))
    assert len(pool) == 30
    witnesses = {}
    for i, x in enumerate(pool):
        for j, y in enumerate(pool):
            witnesses[i, j] = are_pseudoisometric(x, y)
    transitive_checks = 0
    for i in range(30):
        assert witnesses[i, i] is not None
        assert is_pseudoisometry(PointMap.identity(pool[i])).ok
        for j in range(30):
            assert (witnesses[i, j] is None) == (witnesses[j, i] is None)
            if witnesses[i, j] is None:
                continue
            for k in range(30):
                if witnesses[j, k] is None:
                    continue
                composite = compose(witnesses[i, j], witnesses[j, k])
                assert is_pseudoisometry(composite).ok
                assert witnesses[i, k] is not None
                transitive_checks += 1
    _report(
        9,
        "pseudoisometric equivalence relation",
        started,
        f"30 spaces, {transitive_checks} transitivity composites",
    )


def test_criterion_10_determinism_and_format():
    started = time.perf_counter()
    rng = random.Random(1010)
    for _ in range(50):
        space = _seeded_space(rng, 8)
        text = emit_document(space)
        back = parse_document(text)
        assert back == space
        assert emit_document(back) == text
    first = run_fuzz(seed=20260809, count=120, max_n=5)
    second = run_fuzz(seed=20260809, count=120, max_n=5)
    assert first.ok
    assert first.summary() == second.summary()
    _report(
        10,
        "determinism and format",
        started,
        f"50 documents round-tripped, fuzz {sum(first.suites.values())} checks twice",
    )
