import functools
import inspect
import itertools
import random
import sys
from fractions import Fraction

import pytest

from pseudometric import core, morphisms
from pseudometric.constructions import _clone_points
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
    is_metric,
    is_open,
    is_pseudoisometry,
    metric_reflection,
    random_space,
)

from oracles import (
    all_subsets,
    backtracking_isometry,
    factorial_isometry,
    joint_refinement,
    pseudoisometry_by_definition,
    small_spaces,
    without_form,
)


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


def fuzz_like_pairs(count, seed):
    # Pairs of the three kinds the fuzz morphisms suite draws, up to four
    # points: an independent space, the reflection padded with zero-distance
    # clones, and a permuted twin.
    rng = random.Random(seed)

    def space():
        n = rng.randint(1, 4)
        params = GenParams(seed=rng.getrandbits(63), n=n, zero_merge_prob=Fraction(1, 3))
        return random_space(params)

    for _ in range(count):
        x = space()
        kind = rng.randrange(3)
        if kind == 0:
            y = space()
        elif kind == 1:
            quotient = metric_reflection(x).quotient
            points = list(range(quotient.n))
            points += [rng.randrange(quotient.n) for _ in range(rng.randint(0, 4 - quotient.n))]
            y = mk(
                [f"c{i}" for i in range(len(points))],
                [[quotient.matrix[a][b] for b in points] for a in points],
            )
        else:
            sigma = list(range(x.n))
            rng.shuffle(sigma)
            y = permuted_twin(x, sigma)
        yield x, y


def carried_pairs(count, seed):
    # Pairs of the kinds the fuzz morphisms suite searches, built by the
    # library so that both carry their int forms: an independent space, the
    # reflection padded with clones, a permuted twin, and a permuted twin
    # read from a superspace with a radius of 1/5, whose scale is 60, not 12.
    rng = random.Random(seed)

    def space():
        n = rng.randint(1, 4)
        return random_space(GenParams(seed=rng.getrandbits(63), n=n, zero_merge_prob=Fraction(1, 3)))

    for _ in range(count):
        x = space()
        kind = rng.randrange(4)
        if kind == 0:
            y = space()
        elif kind == 1:
            quotient = metric_reflection(x).quotient
            points = _clone_points(quotient.n, rng.randint(quotient.n, 4), rng)
            y = core._pullback(quotient, points, [f"c{i}" for i in range(len(points))])
        else:
            sigma = list(range(x.n))
            rng.shuffle(sigma)
            source = x
            if kind == 3:
                source = core._pullback(x, [*range(x.n), 0], [*x.labels, "w"], [Fraction(1, 5)])
            y = core._pullback(source, sigma, [f"t{i}" for i in range(x.n)])
        yield x, y


def graph_metric(n, edges, cap):
    # The shortest-path metric of a graph, truncated at ``cap``.
    d = [[0 if a == b else cap for b in range(n)] for a in range(n)]
    for a, b in edges:
        d[a][b] = d[b][a] = 1
    for k, a, b in itertools.product(range(n), repeat=3):
        d[a][b] = min(d[a][b], d[a][k] + d[k][b])
    return mk([f"g{a}" for a in range(n)], d)


def rook_and_shrikhande():
    # Both SRG(16,6,2,2) at distances 0/1/2: refinement cannot split them.
    cells = [(a, b) for a in range(4) for b in range(4)]
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    rook = [(p, q) for p in range(16) for q in range(p)
            if (cells[p][0] == cells[q][0]) != (cells[p][1] == cells[q][1])]
    shrikhande = [(p, q) for p in range(16) for q in range(p)
                  if ((cells[q][0] - cells[p][0]) % 4, (cells[q][1] - cells[p][1]) % 4) in steps]
    return graph_metric(16, rook, 2), graph_metric(16, shrikhande, 2)


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
        # The message names the first violation; the second map has two
        # (a shrunk distance, then an unreached class).
        message = "map is not a pseudoisometry: distance_mismatch at (0,1): 1, 0"
        for target in (SINGLETON, PAIR1):
            with pytest.raises(ValueError) as info:
                induced_reflection_map(PointMap(PAIR1, target, (0, 0)))
            assert str(info.value) == message

    def test_empty_map_is_refused_by_the_reflection(self):
        empty = Space((), ())
        with pytest.raises(ValueError, match="metric reflection requires a nonempty space"):
            induced_reflection_map(PointMap.identity(empty))

    def test_equals_the_composite_of_section_map_and_projection(self):
        # Every witness of both searches on the pairs the fuzz morphisms
        # suite draws: the map is the composite its docstring names.
        for x, y in fuzz_like_pairs(200, seed=34):
            rx, ry = metric_reflection(x), metric_reflection(y)
            for w in (are_pseudoisometric(x, y), brute_force_pseudoisometry(x, y)):
                if w is not None:
                    expected = compose(compose(rx.section, w), ry.projection)
                    assert induced_reflection_map(w) == expected, (x, y, w)


class TestFindIsometry:
    def test_permuted_copy_is_found(self):
        base = mk("abcd", [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]])
        twin = permuted_twin(base, (3, 1, 0, 2))
        witness, stats = find_isometry(base, twin)
        assert witness is not None
        assert is_distance_preserving(witness)
        assert sorted(witness.images) == list(range(4))
        assert stats.nodes >= 4

    def test_empty_spaces(self):
        empty = Space((), ())
        witness, stats = find_isometry(empty, empty)
        assert witness == PointMap(empty, empty, ())
        assert stats == IsoSearchStats()
        assert find_isometry(empty, SINGLETON) == (None, IsoSearchStats())

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

    def test_carried_forms_give_the_search_of_the_fraction_matrices(self):
        # The same witness and counters whether both spaces carry an int
        # form, one does, or neither does.
        outcomes = set()
        for x, y in carried_pairs(200, 35):
            qx, qy = metric_reflection(x).quotient, metric_reflection(y).quotient
            want = find_isometry(without_form(qx), without_form(qy))
            assert find_isometry(qx, qy) == want
            assert find_isometry(qx, without_form(qy)) == want
            assert find_isometry(without_form(qx), qy) == want
            outcomes.add((qx._form[0], qy._form[0], want[0] is not None))
        assert {(12, 12, False), (12, 12, True), (12, 60, True)} <= outcomes

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

    def test_refinement_counters_are_pinned(self):
        # A 7-vertex graph metric and a permuted twin. Sorted rows alone
        # prune 30 of the 42 wrong targets; refining by the neighbours'
        # colours prunes all 42, so the search walks straight to the witness.
        edges = [(0, 1), (0, 2), (0, 5), (1, 4), (1, 5), (2, 6), (3, 4), (3, 5), (3, 6)]
        d = [[0 if i == j else 9 for j in range(7)] for i in range(7)]
        for a, b in edges:
            d[a][b] = d[b][a] = 1
        for k, i, j in itertools.product(range(7), repeat=3):
            d[i][j] = min(d[i][j], d[i][k] + d[k][j])
        graph = mk([f"v{i}" for i in range(7)], d)
        witness, stats = find_isometry(graph, permuted_twin(graph, [4, 2, 5, 3, 1, 0, 6]))
        assert witness.images == (5, 4, 1, 3, 0, 2, 6)
        assert (stats.nodes, stats.signature_prunes, stats.distance_checks) == (7, 42, 21)

    def test_walks_the_tree_of_plain_backtracking(self):
        # Same witness and counters as one-candidate-at-a-time backtracking,
        # on random metrics, truncated graph metrics full of ties (unions of
        # cycles among them, which refinement cannot split) and metrics that
        # are not symmetric, where a check must read d2[candidate][image].
        rng = random.Random(20)

        def generated(n):
            return random_space(GenParams(seed=rng.getrandbits(32), n=n, zero_merge_prob=0))

        def graph(n, edges, cap):
            d = [[0 if a == b else cap for b in range(n)] for a in range(n)]
            for a, b in edges:
                d[a][b] = d[b][a] = 1
            for k, a, b in itertools.product(range(n), repeat=3):
                d[a][b] = min(d[a][b], d[a][k] + d[k][b])
            return mk([f"g{a}" for a in range(n)], d)

        def random_graph(n, p, cap):
            return graph(n, {(a, b) for a in range(n) for b in range(a) if rng.random() < p}, cap)

        def cycles(n):
            # Disjoint cycles truncated at 2: every row reads the same.
            sizes = []
            while n - sum(sizes) >= 6 and rng.random() < 0.5:
                sizes.append(rng.randint(3, n - sum(sizes) - 3))
            sizes.append(n - sum(sizes))
            starts = itertools.accumulate([0, *sizes])
            return graph(n, {(a + k, a + (k + 1) % m) for a, m in zip(starts, sizes)
                             for k in range(m) if m > 1}, 2)

        def skew(n, values):
            return mk([f"s{a}" for a in range(n)],
                      [[0 if a == b else rng.choice(values) for b in range(n)] for a in range(n)])

        kinds = dict.fromkeys(("found", "exhausted", "separated", "backtracked"), 0)
        for _ in range(2100):
            n = rng.randint(1, 12)
            make = functools.partial(*rng.choice((
                (generated, n),
                (random_graph, n, rng.choice((0.2, 0.35, 0.5)), rng.choice((2, 3))),
                (cycles, n),
                (skew, n, rng.choice(((1, 2), (1, 2, Fraction(3, 2))))),
            )))
            x = make()
            if rng.random() < 0.6:
                sigma = list(range(n))
                rng.shuffle(sigma)
                y = permuted_twin(x, sigma)
            else:
                y = make()
            witness, stats = find_isometry(x, y)
            images, nodes, prunes, checks = backtracking_isometry(x, y)
            assert (witness and witness.images, stats.nodes) == (images, nodes)
            assert (stats.signature_prunes, stats.distance_checks) == (prunes, checks)
            kinds["found" if images is not None else "exhausted" if nodes else "separated"] += 1
            kinds["backtracked"] += nodes > n
        assert min(kinds.values()) >= 30, kinds

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

    def test_node_cap_admits_exactly_its_size(self, monkeypatch):
        # Rook vs Shrikhande runs to exhaustion, so it is charged exactly
        # the 4,096 nodes it reports.
        rook, shrikhande = rook_and_shrikhande()
        monkeypatch.setattr(morphisms, "_NODE_CAP", 4096)
        witness, stats = find_isometry(rook, shrikhande)
        assert witness is None
        assert (stats.nodes, stats.signature_prunes, stats.distance_checks) == (4096, 0, 5520)
        monkeypatch.setattr(morphisms, "_NODE_CAP", 4095)
        with pytest.raises(ResourceLimitError, match="cap of 4095 nodes"):
            find_isometry(rook, shrikhande)

    def test_joint_colors_match_the_oracle_refinement(self):
        # The library refines from one color with int codes d * C + color;
        # the oracle starts from sorted rows with (d, color) pairs. Both
        # must split the points of the two spaces into the same classes.
        # Both treat the two spaces alike, so each unordered pair of small
        # spaces is tried once; their entries are ints, so each matrix is
        # its own scaled form.
        metric = [core._scaled(s.matrix)[0] for s in small_spaces(4) if is_metric(s)]
        pairs = [(a, b) for i, a in enumerate(metric) for b in metric[i:] if len(a) == len(b)]
        rng = random.Random(22)

        def cycles(n):
            # Disjoint cycles of random lengths, truncated at 2.
            sizes = []
            while n - sum(sizes) >= 6 and rng.random() < 0.5:
                sizes.append(rng.randint(3, n - sum(sizes) - 3))
            sizes.append(n - sum(sizes))
            starts = itertools.accumulate([0, *sizes])
            return graph_metric(n, {(a + k, a + (k + 1) % m) for a, m in zip(starts, sizes)
                                    for k in range(m) if m > 1}, 2)

        for _ in range(150):
            n = rng.randint(1, 12)
            make = rng.choice((
                lambda: random_space(GenParams(seed=rng.getrandbits(32), n=n, zero_merge_prob=0)),
                lambda: graph_metric(n, {(a, b) for a in range(n) for b in range(a)
                                         if rng.random() < 0.35}, rng.choice((2, 3))),
                lambda: cycles(n),
            ))
            x = make()
            sigma = list(range(n))
            rng.shuffle(sigma)
            y = permuted_twin(x, sigma) if rng.random() < 0.5 else make()
            pairs.append(core._scaled(x.matrix, y.matrix))
        assert len(pairs) == 2_120 + 150
        for d1, d2 in pairs:
            a = sum(morphisms._joint_signatures(d1, d2), [])
            b = sum(joint_refinement(d1, d2), [])
            assert len(set(zip(a, b))) == len(set(a)) == len(set(b)), (d1, d2)


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

    def test_zero_rows_read_once_per_argument(self, monkeypatch):
        # The quotients arrive with their zero tables, so only x and y are read.
        original, calls = core.zero_blocks_unchecked, []

        def spy(space):
            calls.append(space)
            return original(space)

        monkeypatch.setattr(core, "zero_blocks_unchecked", spy)
        x, y = mk("abcd", TWO_CLASS.matrix), mk("pqrs", TWO_CLASS.matrix)
        assert are_pseudoisometric(x, y) is not None
        assert calls == [x, y]

    def test_equals_projection_quotient_isometry_then_section(self):
        # On the pairs the fuzz morphisms suite draws: the witness is the
        # composite its docstring names, and None exactly when the quotients
        # are not isometric.
        found = 0
        for x, y in fuzz_like_pairs(200, seed=34):
            rx, ry = metric_reflection(x), metric_reflection(y)
            iso, _ = find_isometry(rx.quotient, ry.quotient)
            witness = are_pseudoisometric(x, y)
            if iso is None:
                assert witness is None, (x, y)
            else:
                found += 1
                assert witness == compose(compose(rx.projection, iso), ry.section), (x, y)
        assert 100 < found < 200

    def test_empty_space_rejected(self):
        # On either side, refused before the reflection (which has its own message).
        for x, y in ((Space((), ()), PAIR1), (PAIR1, Space((), ()))):
            with pytest.raises(ValueError, match="defined for nonempty spaces only"):
                are_pseudoisometric(x, y)

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

    def test_cap_admits_exactly_its_size(self):
        # 100^3 maps sit exactly at the cap of 10^6; the first map tried is
        # a witness, so the call returns at once.
        zeros3 = mk("abc", [[0] * 3] * 3)
        zeros100 = mk([f"y{i}" for i in range(100)], [[0] * 100] * 100)
        m = brute_force_pseudoisometry(zeros3, zeros100)
        assert m is not None and m.images == (0, 0, 0)

    def test_cap_message_has_no_decimal_total(self):
        # 300^300 has 744 digits, past a digit limit of 640: a message that
        # spelled the total out would raise a plain ValueError.
        zeros = mk([f"p{i}" for i in range(300)], [[0] * 300] * 300)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ResourceLimitError) as err:
                brute_force_pseudoisometry(zeros, zeros)
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(err.value) == "enumerating 300^300 maps exceeds the cap of 1000000"

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
