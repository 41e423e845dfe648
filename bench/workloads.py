"""The four benchmark workloads: seeded inputs, the timed request, the check.

Every workload hands out its inputs in *rounds*.  A round holds one input from
each stratum the workload mixes (sampler halves, degrees, word lengths), so a
run's mix does not drift with the seed and the run loop stops only at round
boundaries.  The timed request calls the package through module attributes
(``mods.cli.main``, ``mods.oracle.cone_member``, ...), so the traced run sees
every call through its wrappers.  Checks run outside the timed region and
raise ``CheckFailed`` on a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction


class CheckFailed(Exception):
    """An output failed the benchmark's correctness check."""


@dataclass
class Request:
    text: str | list[str]
    classes: int = 1
    expected: dict = field(default_factory=dict)


def class_text(d, m) -> str:
    """Canonical text form ``d;m1,...,m8``, matching ``str(DivisorClass)``."""
    return f"{Fraction(d)};{','.join(str(Fraction(x)) for x in m)}"


def criterion4_class(rng: random.Random, d: int | None = None):
    """One class of the criterion-4 sampler: 0 <= d <= 8, |m_i| <= 8."""
    if d is None:
        d = rng.randint(0, 8)
    return d, [rng.randint(-8, 8) for _ in range(8)]


def criterion6_class(rng: random.Random):
    """One class of the criterion-6 sampler: 0 <= m_i <= d <= 8."""
    d = rng.randint(0, 8)
    return d, [rng.randint(0, d) for _ in range(8)]


def criterion3_class(rng: random.Random):
    """One class of the criterion-3 grid: d <= 4, 4 >= m_1 >= ... >= m_8 >= 0."""
    return rng.randint(0, 4), sorted((rng.randint(0, 4) for _ in range(8)), reverse=True)


def _quiet(call, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call(*args)
    return code, out.getvalue(), err.getvalue()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- classify -------------------------------------------------------------------

class Classify:
    """``classify --format json`` on batches of shallow classes.

    Decomposers, ``Certificate.check``, parsing and JSON output do the work;
    reductions take 0-2 Cremona steps and no LP runs.
    """

    name = "classify"
    default_seed = 20250810
    batch = 24  # 12 per sampler; 3 of each 12 rescaled to p/q entries

    def __init__(self, seed: int, tmp):
        self.batch_path = tmp / "classify-batch.txt"
        self.eff_rng = random.Random(seed)
        self.mov_rng = random.Random(seed + 1)

    def next_round(self, mods) -> list[Request]:
        texts = []
        for rng, sample in ((self.eff_rng, criterion4_class), (self.mov_rng, criterion6_class)):
            for k in range(self.batch // 2):
                d, m = sample(rng)
                if k % 4 == 0:
                    q = rng.choice((2, 3))
                    d, m = Fraction(d, q), [Fraction(x, q) for x in m]
                texts.append(class_text(d, m))
        return [Request(texts, classes=len(texts))]

    def prepare(self, request: Request) -> None:
        self.batch_path.write_text("\n".join(request.text) + "\n", encoding="utf-8")

    def run(self, mods, request: Request):
        return _quiet(
            mods.cli.main, ["classify", "--format", "json", "--input", str(self.batch_path)]
        )

    def check(self, mods, request: Request, output) -> None:
        code, out, err = output
        _require(code == 0, f"exit {code}: {err.strip()}")
        records = [json.loads(line) for line in out.splitlines()]
        _require(len(records) == len(request.text), "record count differs from batch size")
        Certificate = mods.cones.Certificate
        for text, record in zip(request.text, records):
            _require(record["input"] == text, f"record input {record['input']} != {text}")
            flags = {"nef": record["nef"], "mov": record["movable"], "eff": record["effective"]}
            # Criterion 7: nef => movable => effective.
            _require(not (flags["nef"] and not flags["mov"]), f"{text}: nef but not movable")
            _require(not (flags["mov"] and not flags["eff"]), f"{text}: movable, not effective")
            certificates = record["certificates"]
            _require(
                set(certificates) == {cone for cone, ok in flags.items() if ok},
                f"{text}: certificates do not match the verdict flags",
            )
            for cone, data in certificates.items():
                certificate = Certificate.from_dict(data)
                _require(certificate.cone == cone, f"{text}: {cone} certificate tagged wrongly")
                _require(str(certificate.target) == text, f"{text}: certificate for another class")
                try:
                    certificate.check()
                except mods.cones.CertificateError as exc:
                    raise CheckFailed(f"{text}: {cone} certificate invalid: {exc}") from None

    def warm_up(self, mods) -> None:
        self.prepare(Request(["2;1,1,1,1,1,1,1,0", "1/2;1/2,0,0,0,0,0,0,0", "3;2,2,2,2,1,1,1,0"]))
        code, _, err = self.run(mods, None)
        _require(code == 0, f"warm-up failed: {err.strip()}")


# -- certify-deep ------------------------------------------------------------------

#: The three permutation shapes of the exceptional orbit up to degree 2.
_ORBIT_SHAPES = ((0, (-1, 0, 0, 0, 0, 0, 0, 0)), (1, (1, 1, 1, 0, 0, 0, 0, 0)),
                 (2, (2, 1, 1, 1, 1, 1, 0, 0)))
_HALF_ANTICANONICAL = (2, (1,) * 8)
#: Pushing stops at this degree, which trims the slowest tail of requests.
_MAX_DEGREE = 2000


def _cremona(d, m, points):
    t = 2 * d - sum(m[i] for i in points)
    return d + t, [x + t if i in points else x for i, x in enumerate(m)]


def push_up(d, m, moves: int):
    """Apply up to ``moves`` Cremona moves, each at the 4 points raising the degree most.

    Every move is a Weyl group element, and both the effective and the movable
    cone are Weyl-invariant, so the pushed class keeps the verdicts of the
    shallow class it started from.  Degrees grow only polynomially (the Weyl
    group is affine): 5-30 moves give degrees of about 80-2100 and reduction
    words of about 120-470 letters (10th to 90th percentile).  Taking the
    largest raise, rather than a random one, and stopping at _MAX_DEGREE keep
    the cost of a (shallow class, move count) pair steady.
    """
    m = list(m)
    for _ in range(moves):
        if d >= _MAX_DEGREE:
            break
        t, points = max(
            (2 * d - sum(m[i] for i in points), points)
            for points in itertools.combinations(range(8), 4)
        )
        if t <= 0:  # -K/2 and its multiples are fixed by the Weyl group
            break
        d, m = _cremona(d, m, points)
    return d, m


class CertifyDeep:
    """``decompose --cone eff`` and ``--cone mov``, then ``verify``, on deep classes.

    Shallow effective or movable classes are pushed up by 5-30 degree-raising
    Cremona moves, so Weyl reduction and pull-back over long words with big
    integers do the work.  A round holds one effective and one movable start
    for each move count.
    """

    name = "certify-deep"
    default_seed = 1
    move_counts = range(5, 31)

    def __init__(self, seed: int, tmp):
        self.rng = random.Random(seed)
        self.paths = {cone: tmp / f"certify-{cone}.json" for cone in ("eff", "mov")}

    def _shallow(self, mods, movable: bool):
        rng = self.rng
        d, m = 0, [0] * 8
        if movable:
            generators = mods.cones.pi_generators()
            for _ in range(rng.randint(1, 3)):
                g = rng.choice(generators)
                c = rng.randint(1, 2)
                d, m = d + c * int(g.d), [x + c * int(y) for x, y in zip(m, g.m)]
            return d, m, True
        for _ in range(rng.randint(1, 3)):
            gd, gm = rng.choice(_ORBIT_SHAPES)
            gm = list(gm)
            rng.shuffle(gm)
            d, m = d + gd, [x + y for x, y in zip(m, gm)]
        c = rng.randint(0, 2)
        d, m = d + c * _HALF_ANTICANONICAL[0], [x + c for x in m]
        try:
            mods.cones.movable_decompose(mods.lattice.DivisorClass(d, tuple(m)))
            return d, m, True
        except mods.cones.NotMovable:
            return d, m, False

    def next_round(self, mods) -> list[Request]:
        slots = [(count, kind) for count in self.move_counts for kind in (False, True)]
        self.rng.shuffle(slots)
        requests = []
        for count, movable_start in slots:
            d, m, movable = self._shallow(mods, movable_start)
            d, m = push_up(d, m, count)
            requests.append(Request(class_text(d, m), expected={"eff": True, "mov": movable}))
        return requests

    def prepare(self, request: Request) -> None:
        pass

    def run(self, mods, request: Request):
        results = {}
        for cone, path in self.paths.items():
            code, _, err = _quiet(
                mods.cli.main,
                ["decompose", "--cone", cone, "--format", "json", "--output", str(path),
                 request.text],
            )
            if code:
                return {cone: (code, None, err)}
            record = json.loads(path.read_text(encoding="utf-8"))
            if record.get("member", True):
                code, out, err = _quiet(mods.cli.main, ["verify", str(path)])
                results[cone] = (code, record, out or err)
            else:
                results[cone] = (0, record, "")
        return results

    def check(self, mods, request: Request, output) -> None:
        for cone, member in request.expected.items():
            _require(cone in output, f"{request.text}: no {cone} result")
            code, record, verdict = output[cone]
            _require(code == 0, f"{request.text}: {cone} exit {code}: {verdict.strip()}")
            _require(
                record.get("member", True) == member,
                f"{request.text}: {cone} verdict {not member}, expected {member}",
            )
            if member:
                _require(record["input"] == request.text, f"{cone} certificate for another class")
                _require(
                    verdict.startswith(f"valid {cone} certificate for {request.text} "),
                    f"{request.text}: verify said {verdict.strip()!r}",
                )

    def warm_up(self, mods) -> None:
        request = Request("6;3,3,2,2,2,1,1,0", expected={"eff": True, "mov": True})
        self.check(mods, request, self.run(mods, request))


# -- eff-oracle ------------------------------------------------------------------------

class EffOracle:
    """``effective_membership`` on the criterion-4 sampler.

    Queries take one of three paths with very different costs.  A shortcut
    functional decides about three in four in a millisecond or two.  One LP
    over 8k-22k columns finds most of the rest effective.  About one query in
    36 is not effective and still needs LPs; it is several times slower
    again.  A round fixes how many queries of each path and degree it holds,
    in about the sampler's own proportions, and draws each one from the
    sampler by rejection.  Without that, the count of the rare slowest
    queries alone moves a 20 s run by 20%.
    """

    name = "eff-oracle"
    default_seed = 20250810
    #: Per degree 0..8: queries decided by a shortcut functional.
    shortcut = (4, 4, 4, 4, 4, 3, 2, 2, 0)
    #: Per degree 0..8: effective queries that need an LP.
    lp_feasible = (0, 0, 0, 0, 0, 1, 2, 2, 3)
    #: Degree of the one LP-separated query of each round, by round number.
    lp_infeasible = (8, 7, 8, 6, 7)

    def __init__(self, seed: int, tmp):
        self.rng = random.Random(seed)
        self.round = 0

    @staticmethod
    def _path(mods, d, m) -> str:
        # The functionals d >= 0, 4d - sum(m) >= 0 and d - m_i >= 0 hold on
        # every effective class, so one of them failing settles the query.
        if d < 0 or 4 * d < sum(m) or max(m) > d:
            return "shortcut"
        try:
            mods.cones.effective_decompose(mods.lattice.DivisorClass(d, tuple(m)))
            return "feasible"
        except mods.cones.NotEffective:
            return "infeasible"

    def _draw(self, mods, d: int, path: str) -> Request:
        while True:
            _, m = criterion4_class(self.rng, d)
            if self._path(mods, d, m) == path:
                return Request(class_text(d, m), expected={"effective": path == "feasible"})

    def next_round(self, mods) -> list[Request]:
        wanted = [(d, "shortcut") for d, n in enumerate(self.shortcut) for _ in range(n)]
        wanted += [(d, "feasible") for d, n in enumerate(self.lp_feasible) for _ in range(n)]
        wanted.append((self.lp_infeasible[self.round % len(self.lp_infeasible)], "infeasible"))
        self.round += 1
        self.rng.shuffle(wanted)
        return [self._draw(mods, d, path) for d, path in wanted]

    def prepare(self, request: Request) -> None:
        pass

    def run(self, mods, request: Request):
        return mods.oracle.effective_membership(mods.lattice.DivisorClass.parse(request.text))

    def check(self, mods, request: Request, report) -> None:
        # Criterion 4: the LP verdict agrees with the constructive decomposer,
        # which ran when the query was drawn.
        feasible = isinstance(report.outcome, mods.oracle.Feasible)
        effective = request.expected["effective"]
        _require(feasible == effective, f"{request.text}: LP {feasible}, decomposer {effective}")

    def warm_up(self, mods) -> None:
        # (d; d+1, 0^7) is cut off by the shortcut d - m_1 >= 0 at every
        # truncation degree, so these queries enumerate the orbit and verify
        # the shortcut functionals for degrees 3..13 without running an LP.
        for d in range(9):
            self.run(mods, Request(class_text(d, [d + 1] + [0] * 7)))


# -- nef-lp --------------------------------------------------------------------------------

class NefLp:
    """``cone_member`` over the 228 nef generators.

    A round takes three classes of the criterion-6 sampler and one of the
    criterion-3 grid: many small LPs where building, scaling and verifying the
    problem weigh as much as pivoting.
    """

    name = "nef-lp"
    default_seed = 614

    def __init__(self, seed: int, tmp):
        self.rng = random.Random(seed)

    def next_round(self, mods) -> list[Request]:
        samples = [criterion6_class(self.rng) for _ in range(3)]
        samples.append(criterion3_class(self.rng))
        return [Request(class_text(d, m)) for d, m in samples]

    def prepare(self, request: Request) -> None:
        pass

    def run(self, mods, request: Request):
        oracle = mods.oracle
        divisor = mods.lattice.DivisorClass.parse(request.text)
        return oracle.cone_member(oracle.divisor_problem(divisor, mods.cones.nef_generators()))

    def check(self, mods, request: Request, outcome) -> None:
        # Criterion 3: the LP verdict agrees with the 36-curve nef test.
        nef = mods.cones.is_nef(mods.lattice.DivisorClass.parse(request.text))[0]
        feasible = isinstance(outcome, mods.oracle.Feasible)
        _require(feasible == nef, f"{request.text}: LP {feasible}, is_nef {nef}")

    def warm_up(self, mods) -> None:
        self.run(mods, Request("1;0,0,0,0,0,0,0,0"))


WORKLOADS = {w.name: w for w in (Classify, CertifyDeep, EffOracle, NefLp)}
