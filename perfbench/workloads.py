"""The benchmark workloads: ``gate``, ``search`` and ``fuzz``.

Each workload makes its inputs and reference answers from the seed when it
is built (untimed), does the program's own set-up in ``setup`` (timed as
``setup_s``), and hands out one pass of at least 100 distinct requests at a
time, always the same requests in the same order. Every request is a call into the program in this process;
``run`` is the timed call and ``check`` (untimed) returns the problem the
reference found in its outcome (or ``None``) and the number of checks the
request stands for.
"""

from __future__ import annotations

import io
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import inputs
import reference


@dataclass
class Request:
    family: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str | None, int]]


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def _cli(argv: list[str]) -> CliResult:
    """Run ``pseudometric.cli.main`` with captured output (looked up per call, so tracing sees it)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = sys.modules["pseudometric.cli"].main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _derive(seed: int, name: str) -> random.Random:
    return random.Random(f"{name}:{seed}")


class Gate:
    """CLI ``validate``, ``reflect``, ``topology --set`` and ``glue-zero`` on documents.

    Sizes and counts per pass of 100 requests: the median falls inside the
    n=20 class and the 90th percentile in the middle of the n=40 class, away
    from any class boundary. Four n=60 requests and one n=120 ``reflect``
    keep the cubic validation at the larger ROADMAP sizes on the path. A
    quarter of each size class carries planted violations.
    """

    SIZE_MIX = ((20, 75), (30, 10), (40, 10), (60, 4), (120, 1))
    COMMANDS = ("reflect", "validate", "topology", "glue-zero")
    FORMATS = ("plain", "structured")

    def __init__(self, seed: int, workdir: str):
        rng = _derive(seed, "gate")
        self.specs: list[tuple[str, list[str], Callable]] = []
        for n, count in self.SIZE_MIX:
            invalid = set(rng.sample(range(count), round(count / 4)))
            for i in range(count):
                space = inputs.gate_space(rng, n)
                if i in invalid:
                    space = inputs.plant_violations(space, rng)
                path = os.path.join(workdir, f"n{n}-{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(space.document())
                command = self.COMMANDS[i % 4]
                fmt = self.FORMATS[(i // 4) % 2]
                self.specs.append((f"n{n}",) + self._request(rng, space, path, command, fmt))
        rng.shuffle(self.specs)

    @staticmethod
    def _request(rng, space, path, command, fmt):
        ax = reference.axioms(space)
        structured = fmt == "structured"
        argv = [command, path, "--format", fmt]
        if command == "validate":
            return argv, lambda r: reference.check_validate(ax, structured, r)
        if not ax.ok:
            if command == "topology":
                argv += ["--set", space.labels[0]]
            elif command == "glue-zero":
                argv += ["--center", space.labels[0], "--label", "g"]
            return argv, reference.check_rejected
        if command == "reflect":
            expected = reference.quotient(space)
            return argv, lambda r: reference.check_reflect(expected, structured, r)
        if command == "topology":
            members = frozenset(rng.sample(range(space.n), rng.randint(1, space.n // 4)))
            argv += ["--set", ",".join(space.labels[i] for i in sorted(members))]
            answer = reference.topology(space, members)
            return argv, lambda r: reference.check_topology(space, answer, structured, r)
        center = rng.randrange(space.n)
        argv += ["--center", space.labels[center], "--label", "g"]
        expected = reference.glue_zero(space, center, "g")
        return argv, lambda r: reference.check_glue(expected, r)

    def setup(self) -> None:
        pass

    def requests(self) -> list[Request]:
        return [
            Request(family, lambda argv=argv: _cli(argv), lambda r, check=check: (check(r), 1))
            for family, argv, check in self.specs
        ]


class Search:
    """Library ``find_isometry`` and ``are_pseudoisometric`` on pre-parsed pairs.

    Per pass of 100 requests: pairs that signature refinement separates at
    once (the cheap common case), random metrics against permuted twins, and
    the hard regular families: permuted twins of the hypercube Q6 and the
    Latin-square graph of Z6 (found), rook 4x4 against Shrikhande and their
    products with K2 (none, since refinement cannot split strongly regular
    graphs). The ``pseudo`` requests pad both sides with unequal numbers of
    zero-distance clones, so reflection and the lift run as well. Twin
    permutations come from the seed; the node count of a twin search
    depends on it. The median falls in the rook/Shrikhande requests and the
    90th percentile in the rook/Shrikhande x K2 requests, both of which are
    the same for every seed.
    """

    MIX = (
        ("separated", "isometry", 28),
        ("random-twin", "isometry", 12),
        ("rook-shrikhande", "isometry", 6),
        ("rook-shrikhande", "pseudo", 14),
        ("latin6-twin", "isometry", 6),
        ("latin6-twin", "pseudo", 6),
        ("q6-twin", "isometry", 6),
        ("q6-twin", "pseudo", 6),
        ("rookK2-shrikhandeK2", "isometry", 4),
        ("rookK2-shrikhandeK2", "pseudo", 12),
    )
    RANDOM_N = 16
    CLONES = (3, 5)

    def __init__(self, seed: int, workdir: str):
        rng = _derive(seed, "search")
        rook, shrikhande = inputs.rook(4), inputs.shrikhande()
        fixed = {
            "rook-shrikhande": (rook, shrikhande),
            "rookK2-shrikhandeK2": (inputs.box_k2(rook, "a"), inputs.box_k2(shrikhande, "b")),
        }
        regular = {"latin6-twin": inputs.latin_square(6), "q6-twin": inputs.hypercube(6)}
        self.pairs: list[tuple[str, str, inputs.IntSpace, inputs.IntSpace, bool]] = []
        for family, op, count in self.MIX:
            for _ in range(count):
                if family == "separated":
                    x = inputs.random_metric(rng, self.RANDOM_N)
                    y = inputs.random_metric(rng, self.RANDOM_N, prefix="t")
                    if not reference.separated(x, y):
                        raise RuntimeError("random pair is not separated by its distances")
                    found = False
                elif family == "random-twin":
                    x = inputs.random_metric(rng, self.RANDOM_N)
                    y, _ = inputs.permuted(x, rng)
                    found = True
                elif family in fixed:
                    x, y = fixed[family]
                    found = False
                else:
                    x = regular[family]
                    y, _ = inputs.permuted(x, rng)
                    found = True
                if op == "pseudo":
                    x = inputs.with_clones(x, self.CLONES[0], rng, prefix="x")
                    y = inputs.with_clones(y, self.CLONES[1], rng, prefix="y")
                self.pairs.append((family, op, x, y, found))
        rng.shuffle(self.pairs)
        self.texts = [(x.document(), y.document()) for _, _, x, y, _ in self.pairs]
        self.spaces: list | None = None

    def setup(self) -> None:
        parse = sys.modules["pseudometric"].parse_document
        self.spaces = [(parse(a), parse(b)) for a, b in self.texts]

    def requests(self) -> list[Request]:
        # Each pass gets freshly parsed spaces (parsed untimed when set-up
        # did not just parse them), so that nothing a later version might
        # cache on a Space carries over from one pass to the next.
        if self.spaces is None:
            self.setup()
        spaces, self.spaces = self.spaces, None
        return [
            Request(
                f"{family}:{op}",
                lambda op=op, px=px, py=py: _search(op, px, py),
                lambda witness, op=op, x=x, y=y, found=found: (_verdict(op, x, y, found, witness), 1),
            )
            for (family, op, x, y, found), (px, py) in zip(self.pairs, spaces)
        ]


def _search(op, px, py):
    pm = sys.modules["pseudometric"]
    if op == "isometry":
        return pm.find_isometry(px, py)[0]
    return pm.are_pseudoisometric(px, py)


def _verdict(op, x, y, found, witness) -> str | None:
    if witness is None:
        return "no witness for an isometric pair" if found else None
    if not found:
        return "witness for a pair known to be non-isometric"
    verify = reference.check_isometry if op == "isometry" else reference.check_pseudoisometry
    return verify(x, y, witness.images)


class Fuzz:
    """CLI ``fuzz --suite X`` with seeds from the benchmark seed, one suite per request.

    Thousands of spaces with n <= 6, where per-object and per-call costs
    dominate. The counts order the suites by request time (at reference
    speed about 17 ms for topology, 27 ms for morphisms and 75 ms for
    constructions), so that the median falls in the middle of the morphisms
    requests and the 90th percentile inside the constructions requests.
    Topology requests vary most with the seed, since each draws its own
    space sizes, so they are kept away from both percentiles.
    """

    COUNTS = (("topology", 4), ("morphisms", 36), ("constructions", 32))
    PER_SUITE = 34
    MAX_N = 6

    def __init__(self, seed: int, workdir: str):
        rng = _derive(seed, "fuzz")
        self.specs = []
        for suite, count in self.COUNTS:
            for i in range(self.PER_SUITE):
                fmt = ("plain", "structured")[i % 2]
                argv = [
                    "fuzz", "--seed", str(rng.getrandbits(31)), "--count", str(count),
                    "--max-n", str(self.MAX_N), "--suite", suite, "--format", fmt,
                ]
                self.specs.append((suite, argv, fmt == "structured"))
        rng.shuffle(self.specs)

    def setup(self) -> None:
        pass

    def requests(self) -> list[Request]:
        return [
            Request(
                suite,
                lambda argv=argv: _cli(argv),
                lambda r, suite=suite, s=s: reference.check_fuzz(suite, s, r),
            )
            for suite, argv, s in self.specs
        ]


WORKLOADS = {"gate": Gate, "search": Search, "fuzz": Fuzz}
