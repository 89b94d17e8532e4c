import inspect
import random
import sys
from fractions import Fraction

import pytest

from pseudometric import (
    GenParams,
    IsoSearchStats,
    PointMap,
    ResourceLimitError,
    Space,
    are_pseudoisometric,
    brute_force_pseudoisometry,
    compose,
    find_isometry,
    induced_reflection_map,
    is_distance_preserving,
    is_open,
    is_pseudoisometry,
    metric_reflection,
    random_space,
)

from oracles import all_subsets, factorial_isometry, pseudoisometry_by_definition


def mk(labels, rows):
    return Space(tuple(labels), tuple(tuple(r) for r in rows))


TWO_CLASS = mk("abcd", [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]])
PAIR1 = mk("ab", [[0, 1], [1, 0]])
PAIR2 = mk("xy", [[0, 2], [2, 0]])
SINGLETON = mk("z", [[0]])


def permuted_twin(space, sigma):
    twin = mk(
        [f"t{i}" for i in range(space.n)],
        [[space.matrix[sigma[i]][sigma[j]] for j in range(space.n)] for i in range(space.n)],
    )
    return twin


class TestDistancePreserving:
    def test_identity(self):
        assert is_distance_preserving(PointMap.identity(TWO_CLASS))

    def test_constant_on_indiscrete_space(self):
        allzero = mk("abc", [[0] * 3] * 3)
        assert is_distance_preserving(PointMap(allzero, SINGLETON, (0, 0, 0)))

    def test_collapsing_a_positive_pair(self):
        m = PointMap(PAIR1, SINGLETON, (0, 0))
        assert not is_distance_preserving(m)
        report = is_pseudoisometry(m)
        assert any(
            v.rule == "distance_mismatch" and v.points == (0, 1)
            and v.values == (Fraction(1), Fraction(0))
            for v in report.violations
        )


class TestPseudoisometryCheck:
    def test_projection_passes(self):
        refl = metric_reflection(TWO_CLASS)
        assert is_pseudoisometry(refl.projection).ok

    def test_unreached_far_point(self):
        sup = mk("abf", [[0, 1, 5], [1, 0, 5], [5, 5, 0]])
        m = PointMap(PAIR1, sup, (0, 1))
        report = is_pseudoisometry(m)
        assert not report.ok
        assert [(v.rule, v.points) for v in report.violations] == [("unreached_class", (2,))]

    def test_distance_preserving_surjection_passes(self):
        twin = permuted_twin(TWO_CLASS, (2, 3, 0, 1))
        m = PointMap(TWO_CLASS, twin, (2, 3, 0, 1))
        assert is_distance_preserving(m)
        assert is_pseudoisometry(m).ok
        assert pseudoisometry_by_definition(m)


class TestCompose:
    def test_identity_is_neutral(self):
        refl = metric_reflection(TWO_CLASS)
        pi = refl.projection
        assert compose(PointMap.identity(TWO_CLASS), pi).images == pi.images

    def test_projection_then_section(self):
        refl = metric_reflection(TWO_CLASS)
        back = compose(refl.projection, refl.section)
        assert back.domain == TWO_CLASS and back.codomain == TWO_CLASS
        assert is_pseudoisometry(back).ok

    def test_composite_of_validated_maps_validates(self):
        rng = random.Random(4)
        for _ in range(20):
            x = random_space(GenParams(seed=rng.getrandbits(32), n=rng.randint(1, 4),
                                       zero_merge_prob=Fraction(1, 2)))
            refl = metric_reflection(x)
            f, g = refl.projection, refl.section
            assert is_pseudoisometry(f).ok and is_pseudoisometry(g).ok
            assert is_pseudoisometry(compose(f, g)).ok

    def test_space_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose(PointMap.identity(PAIR1), PointMap.identity(PAIR2))


class TestInducedReflectionMap:
    def test_identity_on_metric_space(self):
        m3 = mk("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        induced = induced_reflection_map(PointMap.identity(m3))
        assert induced.images == (0, 1, 2)

    def test_projection_induces_identity_on_quotient(self):
        refl = metric_reflection(TWO_CLASS)
        induced = induced_reflection_map(refl.projection)
        assert induced.images == tuple(range(refl.quotient.n))

    def test_class_collapsing_map(self):
        target = mk(("a'", "c'"), [[0, 1], [1, 0]])
        phi = PointMap(TWO_CLASS, target, (0, 0, 1, 1))
        induced = induced_reflection_map(phi)
        assert induced.images == (0, 1)
        assert is_distance_preserving(induced)

    def test_rejects_non_pseudoisometry(self):
        with pytest.raises(ValueError):
            induced_reflection_map(PointMap(PAIR1, SINGLETON, (0, 0)))


class TestFindIsometry:
    def test_permuted_copy_is_found(self):
        base = mk("abcd", [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]])
        twin = permuted_twin(base, (3, 1, 0, 2))
        witness, stats = find_isometry(base, twin)
        assert witness is not None
        assert is_distance_preserving(witness)
        assert sorted(witness.images) == list(range(4))
        assert stats.nodes >= 4

    def test_distance_multiset_mismatch(self):
        witness, _ = find_isometry(PAIR1, PAIR2)
        assert witness is None

    def test_distances_are_compared_on_one_scale(self):
        # Halving every distance changes the space; each matrix alone over
        # its own denominators would read as the same integers.
        base = mk("abc", [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        halved = mk("xyz", [[0, Fraction(1, 2), 1], [Fraction(1, 2), 0, 1], [1, 1, 0]])
        assert find_isometry(base, halved)[0] is None
        assert are_pseudoisometric(base, halved) is None

    def test_isometric_across_denominators(self):
        thirds = mk("abc", [[0, Fraction(1, 3), Fraction(5, 7)],
                            [Fraction(1, 3), 0, Fraction(2, 3)],
                            [Fraction(5, 7), Fraction(2, 3), 0]])
        twin = mk("xyzw", [[0, Fraction(2, 3), Fraction(1, 3), 0],
                           [Fraction(2, 3), 0, Fraction(5, 7), Fraction(2, 3)],
                           [Fraction(1, 3), Fraction(5, 7), 0, Fraction(1, 3)],
                           [0, Fraction(2, 3), Fraction(1, 3), 0]])
        quotient = metric_reflection(twin).quotient
        witness, _ = find_isometry(thirds, quotient)
        assert witness is not None and witness.images == (2, 0, 1)
        lifted = are_pseudoisometric(thirds, twin)
        assert lifted is not None and pseudoisometry_by_definition(lifted)

    def test_non_metric_inputs_rejected(self):
        with pytest.raises(ValueError):
            find_isometry(TWO_CLASS, TWO_CLASS)

    def test_agrees_with_factorial_oracle(self):
        rng = random.Random(31)
        pool = []
        for i in range(24):
            if i % 3 == 2 and pool:
                base = pool[-1]
                sigma = list(range(base.n))
                rng.shuffle(sigma)
                pool.append(permuted_twin(base, sigma))
            else:
                pool.append(
                    random_space(
                        GenParams(seed=rng.getrandbits(32), n=rng.randint(1, 5),
                                  zero_merge_prob=Fraction(0))
                    )
                )
        for s1 in pool:
            for s2 in pool:
                witness, _ = find_isometry(s1, s2)
                oracle = factorial_isometry(s1, s2)
                assert (witness is None) == (oracle is None)
                if witness is not None:
                    assert is_distance_preserving(witness)
                    assert sorted(witness.images) == list(range(s2.n))

    def test_stats_counters(self):
        _, stats = find_isometry(PAIR1, PAIR1)
        assert stats.nodes >= 0 and stats.signature_prunes >= 0
        assert stats.distance_checks >= 0
        with pytest.raises(ValueError, match="non-negative"):
            IsoSearchStats(nodes=-1)

    def test_strongly_regular_pair_counters(self):
        # The 4x4 rook graph and the Shrikhande graph are both SRG(16,6,2,2),
        # so refinement cannot split them and the search runs to exhaustion;
        # nor can it split their Cartesian products with K2.
        cells = [(a, b) for a in range(4) for b in range(4)]

        def graph(adjacent):
            return [[0 if p == q else 1 if adjacent(p, q) else 2 for q in cells] for p in cells]

        def box_k2(rows):
            # Point (v, e) is index 2 * v + e.
            return [[rows[a >> 1][b >> 1] + ((a ^ b) & 1) for b in range(32)] for a in range(32)]

        steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
        rook = graph(lambda p, q: (p[0] == q[0]) != (p[1] == q[1]))
        shrikhande = graph(lambda p, q: ((q[0] - p[0]) % 4, (q[1] - p[1]) % 4) in steps)
        cases = [
            (rook, shrikhande, (4096, 0, 5520)),
            (box_k2(rook), box_k2(shrikhande), (82432, 0, 128864)),
        ]
        for x, y, counters in cases:
            labels = [f"v{i}" for i in range(len(x))]
            witness, stats = find_isometry(mk(labels, x), mk(labels, y))
            assert witness is None
            assert (stats.nodes, stats.signature_prunes, stats.distance_checks) == counters

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # A uniform metric assigns one point per search depth.
        n = 200
        uniform = mk(map(str, range(n)), [[int(i != j) for j in range(n)] for i in range(n)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            witness, stats = find_isometry(uniform, uniform)
        finally:
            sys.setrecursionlimit(limit)
        assert witness is not None and witness.images == tuple(range(n))
        assert (stats.nodes, stats.distance_checks) == (n, n * (n - 1) // 2)


class TestArePseudoisometric:
    def test_space_and_its_reflection(self):
        quotient = metric_reflection(TWO_CLASS).quotient
        witness = are_pseudoisometric(TWO_CLASS, quotient)
        assert witness is not None
        assert is_pseudoisometry(witness).ok
        assert pseudoisometry_by_definition(witness)

    def test_indiscrete_vs_singleton(self):
        allzero = mk("abc", [[0] * 3] * 3)
        witness = are_pseudoisometric(allzero, SINGLETON)
        assert witness is not None and witness.images == (0, 0, 0)

    def test_mismatched_quotients(self):
        assert are_pseudoisometric(PAIR1, PAIR2) is None

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            are_pseudoisometric(Space((), ()), PAIR1)

    def test_agrees_with_enumeration(self):
        rng = random.Random(77)
        for _ in range(30):
            x = random_space(GenParams(seed=rng.getrandbits(32), n=rng.randint(1, 4),
                                       zero_merge_prob=Fraction(1, 2)))
            y = random_space(GenParams(seed=rng.getrandbits(32), n=rng.randint(1, 4),
                                       zero_merge_prob=Fraction(1, 2)))
            fast = are_pseudoisometric(x, y)
            slow = brute_force_pseudoisometry(x, y)
            assert (fast is None) == (slow is None)
            for m in (fast, slow):
                if m is not None:
                    assert pseudoisometry_by_definition(m)


class TestBruteForce:
    def test_singleton_to_singleton(self):
        m = brute_force_pseudoisometry(SINGLETON, mk("w", [[0]]))
        assert m is not None and m.images == (0,)

    def test_zero_pair_to_singleton(self):
        zeros = mk("ab", [[0, 0], [0, 0]])
        m = brute_force_pseudoisometry(zeros, SINGLETON)
        assert m is not None and m.images == (0, 0)

    def test_cap_enforced(self):
        # 8^8 maps exceed the oracle's cap of 10^6.
        big = random_space(GenParams(seed=1, n=8, zero_merge_prob=Fraction(0)))
        assert big.n == 8
        with pytest.raises(ResourceLimitError):
            brute_force_pseudoisometry(big, big)


class TestMorphismProperties:
    def test_metric_pair_witnesses_are_isometries(self):
        rng = random.Random(13)
        for _ in range(20):
            base = random_space(
                GenParams(seed=rng.getrandbits(32), n=rng.randint(1, 5),
                          zero_merge_prob=Fraction(0))
            )
            sigma = list(range(base.n))
            rng.shuffle(sigma)
            twin = permuted_twin(base, sigma)
            w = are_pseudoisometric(base, twin)
            assert w is not None
            assert len(set(w.images)) == twin.n
            assert is_distance_preserving(w)

    def test_metric_codomain_forces_surjectivity(self):
        refl = metric_reflection(TWO_CLASS)
        assert set(refl.projection.images) == set(range(refl.quotient.n))

    def test_metric_domain_forces_injectivity(self):
        refl = metric_reflection(TWO_CLASS)
        assert len(set(refl.section.images)) == refl.quotient.n

    def test_bijective_pseudoisometries_are_homeomorphisms(self):
        rng = random.Random(41)
        for _ in range(15):
            x = random_space(GenParams(seed=rng.getrandbits(32), n=rng.randint(1, 4),
                                       zero_merge_prob=Fraction(1, 2)))
            sigma = list(range(x.n))
            rng.shuffle(sigma)
            y = permuted_twin(x, sigma)
            inverse = [0] * x.n
            for new, old in enumerate(sigma):
                inverse[old] = new
            m = PointMap(x, y, tuple(inverse))
            assert is_pseudoisometry(m).ok
            for A in all_subsets(x.n):
                image = frozenset(m.images[i] for i in A)
                assert is_open(x, A) == is_open(y, image)


class TestEquivalenceRelation:
    def test_mini_pool(self):
        rng = random.Random(8)
        pool = []
        for _ in range(4):
            base = random_space(GenParams(seed=rng.getrandbits(32), n=rng.randint(1, 3)))
            pool.append(base)
            quotient = metric_reflection(base).quotient
            pool.append(quotient)
        for x in pool:
            assert is_pseudoisometry(PointMap.identity(x)).ok
        witnesses = {}
        for i, x in enumerate(pool):
            for j, y in enumerate(pool):
                witnesses[i, j] = are_pseudoisometric(x, y)
        for i in range(len(pool)):
            assert witnesses[i, i] is not None
            for j in range(len(pool)):
                assert (witnesses[i, j] is None) == (witnesses[j, i] is None)
                for k in range(len(pool)):
                    if witnesses[i, j] is not None and witnesses[j, k] is not None:
                        composite = compose(witnesses[i, j], witnesses[j, k])
                        assert is_pseudoisometry(composite).ok
                        assert witnesses[i, k] is not None
