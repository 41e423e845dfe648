import gc
import hashlib
import itertools
import math
import operator
import random
import re
import struct
import weakref
from fractions import Fraction
from functools import lru_cache

import pytest

from blowupcones import oracle, weyl
from blowupcones.oracle import PreparedCone
from blowupcones.weyl import _HALF_ANTICANONICAL_INTS, _OrbitTable, _orbit_table
from blowupcones import (
    EXCEPTIONAL_LINES,
    EXCEPTIONALS,
    H,
    HALF_ANTICANONICAL,
    Certificate,
    ConeProblem,
    CurveClass,
    DivisorClass,
    Feasible,
    Infeasible,
    MembershipReport,
    NotEffective,
    NotInCurveCone,
    NotMovable,
    NotNef,
    ScaleExceeded,
    apply_word,
    cone_member,
    curve_decompose,
    curve_generators,
    curve_intersection,
    divisor_problem,
    effective_decompose,
    effective_generators,
    effective_membership,
    exceptional_orbit,
    is_nef,
    line_between,
    movable_decompose,
    nef_decompose,
    nef_generators,
    pi_generators,
)

from conftest import listed_to


def generic_problem(target, generators):
    """The problem as built without preparing: Fraction vectors, scaled per query."""
    return ConeProblem(target.vector(), tuple(g.vector() for g in generators))


def check_feasible(problem, outcome):
    dim = len(problem.target)
    total = [Fraction(0)] * dim
    for coefficient, vec in zip(outcome.coefficients, problem.generators):
        assert coefficient >= 0
        for k in range(dim):
            total[k] += coefficient * vec[k]
    assert tuple(total) == tuple(Fraction(t) for t in problem.target)


def check_infeasible(problem, outcome):
    # A positive multiple of phi has the same signs; in integers the check
    # stays fast over the tens of thousands of columns of an orbit truncation.
    lcm = math.lcm(*(Fraction(p).denominator for p in outcome.functional))
    phi = [int(p * lcm) for p in outcome.functional]
    for vec in problem.generators:
        assert sum(p * v for p, v in zip(phi, vec)) >= 0
    assert sum(p * t for p, t in zip(phi, problem.target)) < 0


class TestConeMember:
    def test_half_anticanonical_outside_orbit_cone(self):
        problem = divisor_problem(HALF_ANTICANONICAL, exceptional_orbit(2))
        outcome = cone_member(problem)
        assert isinstance(outcome, Infeasible)
        check_infeasible(problem, outcome)

    def test_verdict_stable_at_higher_truncations(self):
        for degree in (3, 4):
            problem = divisor_problem(HALF_ANTICANONICAL, exceptional_orbit(degree))
            assert isinstance(cone_member(problem), Infeasible)

    def test_quadric_through_seven_points_inside(self):
        generators = exceptional_orbit(2) + (HALF_ANTICANONICAL,)
        problem = divisor_problem(DivisorClass(2, (1, 1, 1, 1, 1, 1, 1, 0)), generators)
        outcome = cone_member(problem)
        assert isinstance(outcome, Feasible)
        check_feasible(problem, outcome)

    def test_zero_target_feasible_with_zero_coefficients(self):
        problem = divisor_problem(DivisorClass(0, (0,) * 8), (H,) + EXCEPTIONALS)
        outcome = cone_member(problem)
        assert isinstance(outcome, Feasible)
        assert all(c == 0 for c in outcome.coefficients)

    def test_rational_target(self):
        problem = divisor_problem(
            Fraction(1, 3) * HALF_ANTICANONICAL, (HALF_ANTICANONICAL,)
        )
        outcome = cone_member(problem)
        assert isinstance(outcome, Feasible)
        assert outcome.coefficients == (Fraction(1, 3),)

    def test_rational_generators(self):
        problem = ConeProblem(
            (Fraction(1), Fraction(1)),
            ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3))),
        )
        outcome = cone_member(problem)
        assert isinstance(outcome, Feasible)
        assert outcome.coefficients == (2, 3)

    def test_low_dimensional_infeasible(self):
        problem = ConeProblem((-1, 0), ((1, 0), (0, 1)))
        outcome = cone_member(problem)
        assert isinstance(outcome, Infeasible)
        check_infeasible(problem, outcome)


class TestValidation:
    def test_dimension_cap(self):
        with pytest.raises(ScaleExceeded):
            ConeProblem((0,) * 11, ((0,) * 11,))

    def test_generator_cap(self):
        with pytest.raises(ScaleExceeded):
            ConeProblem((0,), tuple((i,) for i in range(60_001)))

    def test_empty_generators(self):
        with pytest.raises(ValueError):
            ConeProblem((1, 0), ())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ConeProblem((1, 0), ((1, 0, 0),))

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            ConeProblem((1.0, 0), ((1, 0),))

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            ConeProblem((1, 0), ((True, 0),))


class TestPreparedCone:
    @pytest.mark.parametrize("value", [1.0, True, Fraction(1)])
    def test_non_int_column_rejected(self, value):
        with pytest.raises(TypeError):
            PreparedCone(((1, 0), (value, 0)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PreparedCone(((1, 0), (1, 0, 0)))

    def test_dimension_cap(self):
        with pytest.raises(ScaleExceeded):
            PreparedCone(((0,) * 11,))

    def test_generator_cap(self):
        with pytest.raises(ScaleExceeded):
            PreparedCone(tuple((i,) for i in range(oracle.MAX_GENERATORS + 1)))

    def test_empty(self):
        with pytest.raises(ValueError):
            PreparedCone(())

    @pytest.mark.parametrize("target, error", [((1.0, 0), TypeError), ((True, 0), TypeError),
                                               ((1, 0, 0), ValueError)])
    def test_target_checked_per_query(self, target, error):
        with pytest.raises(error):
            ConeProblem(target, PreparedCone(((1, 0), (0, 1))))

    def test_same_outcome_as_cone_problem(self):
        columns = ((1, 0), (0, 1), (1, 1))
        for target in ((2, 3), (Fraction(1, 2), 0), (-1, 2)):
            prepared = cone_member(ConeProblem(target, PreparedCone(columns)))
            assert prepared == cone_member(ConeProblem(target, columns))


class TestPreparedMemo:
    """divisor_problem prepares the last integral generator tuple once."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(oracle, "_memo", ((), None))

    TARGETS = (
        H,
        EXCEPTIONALS[0],
        HALF_ANTICANONICAL,
        DivisorClass(2, (1, 1, 1, 1, 1, 1, 1, 0)),
        DivisorClass(Fraction(5, 2), (Fraction(3, 2),) * 4 + (0,) * 4),
    )

    def test_same_tuple_same_cone(self):
        generators = nef_generators()
        first = divisor_problem(H, generators).generators
        assert isinstance(first, PreparedCone)
        assert divisor_problem(HALF_ANTICANONICAL, generators).generators is first
        assert divisor_problem(H, generators).generators is first

    def test_alternating_tuples(self):
        pair = (nef_generators(), exceptional_orbit(2) + (HALF_ANTICANONICAL,))
        for _ in range(2):
            for generators in pair:
                for target in self.TARGETS:
                    problem = divisor_problem(target, generators)
                    assert len(problem.generators) == len(generators)
                    outcome = cone_member(problem)
                    assert repr(outcome) == repr(cone_member(generic_problem(target, generators)))

    def test_mutated_list_is_not_memoised(self):
        generators = list(nef_generators())
        target = EXCEPTIONALS[0]
        assert isinstance(cone_member(divisor_problem(target, generators)), Infeasible)
        generators.append(target)
        problem = divisor_problem(target, generators)
        assert not isinstance(problem.generators, PreparedCone)
        assert isinstance(cone_member(problem), Feasible)

    def test_rational_tuple_not_prepared(self):
        generators = nef_generators()[1:] + (DivisorClass(Fraction(1, 2), (0,) * 8),)
        for target in self.TARGETS:
            problem = divisor_problem(target, generators)
            assert not isinstance(problem.generators, PreparedCone)
            expected = cone_member(generic_problem(target, generators))
            assert repr(cone_member(problem)) == repr(expected)

    def test_curve_generators(self):
        problem = divisor_problem(CurveClass(1, (0,) * 8), curve_generators())
        assert isinstance(problem.generators, PreparedCone)

    def test_criterion_3_sample_matches_generic_path(self):
        generators = nef_generators()
        grid = [DivisorClass(d, m) for d in range(5)
                for m in itertools.combinations_with_replacement(range(4, -1, -1), 8)]
        kinds = set()
        for divisor in random.Random(3).sample(grid, 150):
            outcome = cone_member(divisor_problem(divisor, generators))
            assert repr(outcome) == repr(cone_member(generic_problem(divisor, generators)))
            kinds.add(type(outcome))
        assert kinds == {Feasible, Infeasible}


def _reference_leaving_row(column, beta, basis):
    """The ratio test as a Fraction minimum, ties to the smaller basis index."""
    ratios = [(Fraction(beta[i], a), basis[i], i) for i, a in enumerate(column) if a > 0]
    return min(ratios)[2] if ratios else -1


def _reference_simplex(columns, scale, rhs):
    """`oracle._simplex` with per-column pricing and the Fraction ratio test."""
    rows, n = len(rhs), len(columns)
    inverse = [[int(i == k) for k in range(rows)] for i in range(rows)]
    beta, z, det = list(rhs), [0] * rows, 1
    basis = list(range(n, n + rows))
    while True:
        price = [(zi + det) * s for zi, s in zip(z, scale)]
        dots = [sum(p * x for p, x in zip(price, a)) for a in columns]
        entering = next((j for j, dot in enumerate(dots) if dot > 0), -1)
        if entering >= 0:
            reduced = dots[entering]
            scaled = [s * x for s, x in zip(scale, columns[entering])]
            column = [sum(r * x for r, x in zip(row, scaled)) for row in inverse]
        else:
            artificial = next((i for i in range(rows) if z[i] > 0), -1)
            if artificial < 0:
                break
            entering, reduced = n + artificial, z[artificial]
            column = [row[artificial] for row in inverse]
        leaving = _reference_leaving_row(column, beta, basis)
        pivot, row_l, rhs_l = column[leaving], inverse[leaving], beta[leaving]
        for i, factor in enumerate(column):
            if i != leaving:
                inverse[i] = [(pivot * x - factor * y) // det for x, y in zip(inverse[i], row_l)]
                beta[i] = (pivot * beta[i] - factor * rhs_l) // det
        z = [(pivot * x - reduced * y) // det for x, y in zip(z, row_l)]
        basis[leaving], det = entering, pivot
    if any(basis[i] >= n and beta[i] != 0 for i in range(rows)):
        return None, [zi + det for zi in z], det
    return {basis[i]: beta[i] for i in range(rows) if basis[i] < n}, None, det


def _degenerate_lps(seed=11, count=300):
    # Small 0/1/2 systems with zeros in the right-hand side tie often.
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randint(2, 5)
        columns = tuple(tuple(rng.choice((0, 0, 1, 1, 2)) for _ in range(rows))
                        for _ in range(rng.randint(2, 8)))
        scale = tuple(rng.choice((1, -1, 2)) for _ in range(rows))
        rhs = tuple(rng.choice((0, 0, 1, 2)) for _ in range(rows))
        yield columns, scale, rhs


class TestPivotRule:
    """Bland pricing and the integer ratio test pivot as the Fraction reference."""

    def test_leaving_row_matches_reference(self):
        rng = random.Random(5)
        for _ in range(3000):
            rows = rng.randint(1, 9)
            column = [rng.randint(-2, 3) for _ in range(rows)]
            beta = [rng.randint(0, 3) for _ in range(rows)]
            basis = rng.sample(range(2 * rows), rows)
            expected = _reference_leaving_row(column, beta, basis)
            assert oracle._leaving_row(column, beta, basis) == expected

    def test_degenerate_lps_break_ties_by_basis_index(self, monkeypatch):
        calls = []
        leaving_row = oracle._leaving_row

        def recorded(column, beta, basis):
            calls.append((list(column), list(beta), list(basis)))
            return leaving_row(column, beta, basis)

        monkeypatch.setattr(oracle, "_leaving_row", recorded)
        for columns, scale, rhs in _degenerate_lps():
            assert oracle._simplex(columns, scale, rhs) == _reference_simplex(columns, scale, rhs)
        first_loses = last_loses = 0
        for column, beta, basis in calls:
            expected = _reference_leaving_row(column, beta, basis)
            assert leaving_row(column, beta, basis) == expected
            best = Fraction(beta[expected], column[expected])
            tied = [i for i, a in enumerate(column) if a > 0 and Fraction(beta[i], a) == best]
            first_loses += tied[0] != expected
            last_loses += tied[-1] != expected
        # Ties where neither the first nor the last tied row is the answer.
        assert first_loses and last_loses

    def test_nef_sample_matches_reference(self):
        columns = divisor_problem(H, nef_generators()).generators
        rng = random.Random(614)
        for _ in range(40):
            d = rng.randint(0, 6)
            rhs = (d, *(rng.randint(0, d) for _ in range(8)))
            scale = (1, *(rng.choice((1, 1, -1)) for _ in range(8)))
            assert oracle._simplex(columns, scale, rhs) == _reference_simplex(columns, scale, rhs)


def _reference_entering(price, columns):
    """Bland's entering column priced one column at a time."""
    for j, a in enumerate(columns):
        if sum(p * x for p, x in zip(price, a)) > 0:
            return j
    return -1


def _packed(columns):
    """A prepared cone whose one run is packed as a truncation packs an orbit slice."""
    cone = PreparedCone(columns)
    rows = tuple(zip(*cone))
    cone.runs = ((rows, oracle._pack(rows)),)
    return cone


def _unpacked(block):
    """The columns a block was packed from, read back from its 16-bit fields."""
    start, stop, _, _, rows = block
    width = stop - start
    top = sum(1 << 16 * j + 15 for j in range(width))
    fields = [struct.unpack(f"<{width}H", (row + top).to_bytes(2 * width, "little"))
              for row in rows]
    return tuple(tuple(x - (1 << 15) for x in column) for column in zip(*fields))


class TestPackedPricing:
    """The packed and row kernels enter the column `_dots` pricing enters, on any prices."""

    EDGES = (0, 1, 1023, 1024, 1025, 2047, 2048, 2499)

    @staticmethod
    def _orthogonal(rng, price, count, bound=20):
        # Columns with price . a == 0 exactly: solve for the entry under the
        # first non-zero price (kept within the entry bound by rejection).
        i = next(i for i, p in enumerate(price) if p)
        columns = []
        while len(columns) < count:
            a = [rng.randint(-bound, bound) for _ in price]
            a[i] = 0
            rest = sum(p * x for p, x in zip(price, a))
            if rest % price[i] == 0 and abs(rest // price[i]) <= bound:
                a[i] = -rest // price[i]
                columns.append(tuple(a))
        return columns

    @staticmethod
    def _check(price, columns):
        expected = _reference_entering(price, columns)
        assert oracle._row_entering(price, tuple(zip(*columns))) == expected
        assert oracle._entering(price, columns) == expected
        return expected

    def test_random_signed_columns(self):
        rng = random.Random(20250810)
        for _ in range(60):
            bound = rng.choice((1, 3, 13, 100, 1000, 1 << 40))
            n = rng.choice((1, 7, 1024, 1500))
            cone = _packed(tuple(tuple(rng.randint(-bound, bound) for _ in range(9))
                                 for _ in range(n)))
            for _ in range(5):
                price = [rng.randint(-300, 300) for _ in range(9)]
                self._check(price, cone)
                self._check([-p for p in price], cone)

    def test_zero_prices_and_first_positive_at_block_edges(self):
        rng = random.Random(7)
        price = [3, -2, 5, 0, 1, -7, 2, 0, 4]
        zeros = self._orthogonal(rng, price, 2500)
        negative = tuple(-x for x in price)
        assert sum(p * x for p, x in zip(price, negative)) < 0
        positive = tuple(price)
        for edge in self.EDGES:
            columns = list(zeros)
            columns[edge // 2] = negative
            columns[edge] = positive
            assert self._check(price, _packed(columns)) == edge
        # Exact zeros (and a negative) only: no column enters.
        assert self._check(price, _packed(zeros + [negative])) == -1

    def test_smallest_positive_price(self):
        # price . a == 1 enters and price . a == 0 does not, on both sides of
        # a block edge and at the largest field the guard allows.
        price = [1] + [0] * 8
        for value in (1, oracle._GUARD - 1):
            columns = [(0,) * 9] * 1024 + [(value,) + (0,) * 8]
            assert self._check(price, _packed(columns)) == 1024
            assert self._check([-1] + [0] * 8, _packed(columns)) == -1

    def test_positive_only_at_half_anticanonical_column(self):
        # A functional separating -K/2 from the orbit, negated: every orbit
        # column prices <= 0 and the -K/2 column, past the blocks, prices > 0.
        cone = oracle._effective_cone(6)
        psi = oracle._cleared(cone_member(ConeProblem(HALF_ANTICANONICAL.vector(),
                                                      _packed(tuple(cone)[:-1]))).functional)
        price = [-x for x in psi]
        assert self._check(price, cone) == len(cone) - 1
        assert self._check(psi, cone) >= 0

    def test_prices_past_the_guard(self):
        # Fields of these sums would overflow 16 bits; such blocks are priced
        # by the row kernel, with the same answer.
        rng = random.Random(3)
        cone = _packed(tuple(tuple(rng.randint(-13, 13) for _ in range(9))
                             for _ in range(2100)))
        for shift in (10, 13, 14, 15, 16, 62, 63, 64, 90):
            for _ in range(4):
                price = [rng.randint(-(1 << shift), 1 << shift) for _ in range(9)]
                self._check(price, cone)
                self._check([p >> 1 for p in price], cone)
        # Exact zeros under a price of 2^62 and more, then one positive column.
        price = [1 << 62, -(1 << 63), 3 << 61] + [0] * 6
        zeros = self._orthogonal(rng, price, 1500, bound=4)
        columns = zeros + [(1,) + (0,) * 8] + zeros
        assert self._check(price, _packed(columns)) == 1500

    def test_block_edges_of_the_guard(self):
        # sum |price_i| * max |a| just under the guard is priced packed, at the
        # guard it is not; both give the reference answer.
        guard = oracle._GUARD
        columns = [(0,) * 9] * 1018 + [(-1,) + (0,) * 8] * 5 + [(1,) + (0,) * 8]
        for weight in (guard - 1, guard, guard + 1, 2 * guard, (1 << 62) + 1):
            assert self._check([weight] + [0] * 8, _packed(columns)) == 1023
            assert self._check([-weight] + [0] * 8, _packed(columns)) == 1018

    def test_blocks_hold_their_columns(self):
        rng = random.Random(5)
        cone = _packed(tuple(tuple(rng.randint(-9, 9) for _ in range(9)) for _ in range(2500)))
        (rows, blocks), = cone.runs
        assert [(b[0], b[1]) for b in blocks] == [(0, 1024), (1024, 2048), (2048, 2500)]
        for block in blocks:
            assert _unpacked(block) == cone[block[0] : block[1]]
        # A run shorter than one block is priced by the row kernel alone, and
        # so is every cone but the effective truncations, however long.
        assert oracle._pack([row[:1023] for row in rows]) == ()
        assert PreparedCone(cone).runs == ((rows, ()),)
        assert divisor_problem(H, nef_generators()).generators.runs[0][1] == ()

    def test_effective_truncation_uses_table_slices(self):
        # One run per orbit slice, then -K/2's: each slice reads back as the
        # table's listing from nine byte rows.  Slices of degree 6 and 7 are
        # packed; degrees 0-5 (2192 columns, no slice of 1024) and -K/2 are
        # left to the row kernel.
        cone = oracle._effective_cone(7)
        assert len(cone.runs) == 9 and cone.runs[-1] is oracle._HALF_RUN
        for degree, (rows, blocks) in enumerate(cone.runs[:-1]):
            assert len(rows) == 9 and all(row.typecode == "b" for row in rows)
            assert tuple(zip(*rows)) == _orbit_table.listing(degree)
            width, block = len(rows[0]), oracle._BLOCK
            cuts = [(low, min(low + block, width)) for low in range(0, width, block)]
            assert [(b[0], b[1]) for b in blocks] == (cuts if degree >= 6 else [])
            for block in blocks:
                assert _unpacked(block) == tuple(zip(*rows))[block[0] : block[1]]
        assert [_orbit_table.count(k) for k in (5, 6, 7)] == [2192, 3592, len(cone) - 1]
        assert tuple(cone) == listed_to(_orbit_table, 7) + (_HALF_ANTICANONICAL_INTS,)
        # Each slice is stored once: every truncation above shares its run.
        below = oracle._effective_cone(6)
        assert all(map(operator.is_, cone.runs[:7], below.runs[:-1]))
        assert all(map(operator.is_, oracle._effective_cone(8).runs[:8], cone.runs[:-1]))

    def test_zero_price_reads_no_column(self):
        class Sealed(PreparedCone):
            # Once sealed, asking for the runs or reading a column fails.
            sealed = False

            @property
            def runs(self):
                assert not self.sealed
                return self.packed

            def __getitem__(self, key):
                assert not self.sealed
                return super().__getitem__(key)

            def __iter__(self):
                assert not self.sealed
                return super().__iter__()

        rng = random.Random(3)
        columns = tuple(tuple(rng.randint(-9, 9) for _ in range(9)) for _ in range(2500))
        cone = Sealed(columns)
        rows = tuple(zip(*columns))
        cone.packed = ((rows, oracle._pack(rows)),)
        assert cone.runs[0][1]  # packed, so a non-zero price would read them
        cone.sealed = True
        for zero in ([0] * 9, (0,) * 9):
            assert oracle._entering(zero, cone) == _reference_entering(zero, columns) == -1


# (4; -1^8) is 1 on every orbit class (4d - sum m = 1) and 0 on -K/2.
_ONE_ON_THE_ORBIT = (4,) + (-1,) * 8


def _shifted(price, t):
    """The price minus t on every orbit class, unchanged on -K/2."""
    return [p - t * u for p, u in zip(price, _ONE_ON_THE_ORBIT)]


@lru_cache(maxsize=None)
def _truncation_rows(degree):
    # The rows of the whole truncation, read column by column (pure in the degree).
    return tuple(zip(*oracle._effective_cone(degree)))


class TestTruncationPricing:
    """Bland's entering column on every effective truncation, degrees 0 to 13.

    `_entering` (the slices' packed blocks, the row kernel elsewhere) and
    `_row_entering` on the whole cone's rows (no blocks) enter the column
    that pricing one column at a time enters.
    """

    @staticmethod
    def _check(price, degree):
        cone = oracle._effective_cone(degree)
        expected = _reference_entering(price, cone)
        rows = _truncation_rows(degree)
        assert oracle._entering(price, cone) == oracle._row_entering(price, rows) == expected
        return expected

    def test_random_prices_on_every_truncation(self):
        # Shifted down on the orbit, a random price turns positive later on;
        # the all-zero price enters nothing.
        rng = random.Random(20250810)
        found = set()
        for degree in range(14):
            assert self._check([0] * 9, degree) == -1
            for t in (0, 0, 4, 16, 40, 80):
                price = _shifted([rng.randint(-9, 9) for _ in range(9)], t)
                found.add(self._check(price, degree) == len(oracle._effective_cone(degree)) - 1)
        assert found == {True, False}

    def test_positive_only_at_half_anticanonical_column(self):
        # d - k on the orbit and 2 on -K/2: on the truncation at k no orbit
        # column prices positive, and the top slice prices exactly 0.
        for degree in range(14):
            price = _shifted([1] + [0] * 8, degree)
            assert self._check(price, degree) == len(oracle._effective_cone(degree)) - 1
            assert self._check([-p for p in price], degree) == (0 if degree else -1)
            assert self._check(_shifted([0] * 9, 1), degree) == -1  # 0 at -K/2

    def test_first_positive_at_slice_edges(self):
        # Positive, to the truncation's degree, only at the first or only at
        # the last column of one slice: weights 32^7..32^0 on m order the
        # slice (|m_i| <= 9 to degree 13), big (d - k) pushes the lower
        # slices down, and (4; -1^8) carries the constant.
        lex, big = [0] + [32 ** (7 - i) for i in range(8)], 32 ** 9
        for degree in range(14):
            start, stop = _orbit_table.count(degree - 1), _orbit_table.count(degree)
            for j, sign in ((start, -1), (stop - 1, 1)):
                weights = [sign * w for w in lex]
                value = sum(map(operator.mul, weights, oracle._effective_cone(13)[j]))
                price = _shifted([w + big * (i == 0) for i, w in enumerate(weights)],
                                 value - 1 + big * degree)
                assert self._check(price, degree) == j
                assert self._check(price, 13) == j

    def test_big_int_prices(self):
        # Prices past the guard, alone and shifted down on the orbit.
        rng = random.Random(3)
        for shift in (10, 14, 15, 16, 62, 63, 64, 90):
            for _ in range(2):
                price = [rng.randint(-(1 << shift), 1 << shift) for _ in range(9)]
                for degree in (0, 5, 13):
                    self._check(price, degree)
                    self._check(_shifted(price, 1 << (shift + 3)), degree)


class TestPivotCap:
    def test_pricing_fault_fails_fast(self, monkeypatch):
        # Entering a column of price 0, such as a basic one, pivots without
        # progress; without the cap this loops for ever.
        def faulty(price, columns):
            return next(j for j, a in enumerate(columns)
                        if sum(p * x for p, x in zip(price, a)) >= 0)

        monkeypatch.setattr(oracle, "_entering", faulty)
        problem = divisor_problem(DivisorClass(2, (1, 1, 1, 0, 0, 0, 0, 0)), nef_generators())
        with pytest.raises(RuntimeError, match="pivots"):
            cone_member(problem)

    def test_real_lps_stay_far_below_the_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_PIVOTS", 120)
        generators = nef_generators()
        grid = itertools.product(range(5), itertools.combinations_with_replacement(range(4, -1, -1), 8))
        for d, m in itertools.islice(grid, 0, None, 5):
            cone_member(divisor_problem(DivisorClass(d, m), generators))


class TestPricingCaches:
    """Packed blocks are built once per prepared cone and never go stale."""

    def test_generic_calls_add_no_cache_entry(self, monkeypatch):
        packed = []
        pack = oracle._pack
        monkeypatch.setattr(oracle, "_pack", lambda *args: packed.append(args) or pack(*args))
        before = (oracle._memo, oracle._effective_cone.cache_info())
        generators = nef_generators()
        rng = random.Random(8)
        kinds = set()
        for _ in range(200):
            divisor = DivisorClass(rng.randint(0, 4), tuple(rng.randint(0, 3) for _ in range(8)))
            kinds.add(type(cone_member(generic_problem(divisor, generators))))
        assert kinds == {Feasible, Infeasible}
        assert not packed
        after = (oracle._memo, oracle._effective_cone.cache_info())
        assert after == before

    def test_same_reports_after_table_cache_clear(self, fresh_oracle_caches):
        rng = random.Random(20250810)
        divisors = [DivisorClass(rng.randint(5, 8), tuple(rng.randint(-8, 8) for _ in range(8)))
                    for _ in range(12)] + [HALF_ANTICANONICAL]
        before = [repr(effective_membership(divisor)) for divisor in divisors]
        built = oracle._effective_cone.cache_info().currsize
        assert built
        oracle.cache_clear()
        assert [repr(effective_membership(divisor)) for divisor in divisors] == before
        assert oracle._effective_cone.cache_info().currsize == built

    def test_cache_clear_drops_every_column_of_the_old_table(self, fresh_oracle_caches):
        old = oracle._effective_cone(13)
        old_runs = old.runs
        oracle.cache_clear()
        new = oracle._effective_cone(13)
        assert tuple(new) == tuple(old) and new[-1] == _HALF_ANTICANONICAL_INTS
        assert new.runs[-1] is old_runs[-1] is oracle._HALF_RUN
        # Every slice's rows and blocks are built afresh from the new table.
        for (rows, blocks), (old_rows, old_blocks) in zip(new.runs[:-1], old_runs[:-1]):
            assert rows == old_rows and not any(map(operator.is_, rows, old_rows))
            assert blocks == old_blocks and not any(map(operator.is_, blocks, old_blocks))
        # And nothing else holds the old store: its byte rows are freed.
        gone = [weakref.ref(row) for rows, _ in old_runs[:-1] for row in rows]
        del old, old_runs, rows, old_rows
        gc.collect()
        assert all(ref() is None for ref in gone)

    def test_cache_clear_empties_the_shortcut_reports(self, fresh_oracle_caches):
        divisor = DivisorClass(5, (6,) + (0,) * 7)
        report = effective_membership(divisor)
        assert report is oracle._shortcut_report((1, -1) + (0,) * 7, 10)
        oracle.cache_clear()
        assert oracle._shortcut_report.cache_info().currsize == 0
        again = effective_membership(divisor)
        assert again == report and again is not report

    def test_memo_alternation_prices_current_blocks(self, monkeypatch):
        # A user tuple's cone is priced by the row kernel alone, however
        # long: no cone the memo prepares has blocks.
        monkeypatch.setattr(oracle, "_memo", ((), None))
        priced = []
        entering = oracle._entering

        def checked(price, columns):
            if isinstance(columns, PreparedCone) and all(c is not columns for c in priced):
                assert columns.runs[0][1] == () and len(columns.runs) == 1
                priced.append(columns)
            return entering(price, columns)

        # The nef cone, and two orbit tuples of 569 and 1185 columns.
        pair = (nef_generators(), exceptional_orbit(3) + (HALF_ANTICANONICAL,),
                nef_generators(), exceptional_orbit(4) + (HALF_ANTICANONICAL,))
        monkeypatch.setattr(oracle, "_entering", _reference_entering)
        expected = [repr(cone_member(divisor_problem(target, generators)))
                    for generators in pair for target in TestPreparedMemo.TARGETS]
        monkeypatch.setattr(oracle, "_entering", checked)
        for _ in range(2):
            outcomes = [repr(cone_member(divisor_problem(target, generators)))
                        for generators in pair for target in TestPreparedMemo.TARGETS]
            assert outcomes == expected
        # Every generator tuple got a cone of its own, each time it came back.
        assert [len(cone) for cone in priced] == [len(g) for g in pair] * 2


def _corrupt_simplex(monkeypatch, corrupt):
    solve = oracle._simplex

    def wrong(*args):
        return corrupt(*solve(*args))

    monkeypatch.setattr(oracle, "_simplex", wrong)


class TestIntegerVerification:
    """A wrong solver answer must not leave the oracle as a certificate."""

    FEASIBLE = (
        DivisorClass(2, (1, 1, 1, 1, 1, 1, 1, 0)),
        exceptional_orbit(2) + (HALF_ANTICANONICAL,),
    )
    INFEASIBLE = (HALF_ANTICANONICAL, exceptional_orbit(2))

    @staticmethod
    def _problems(target, generators):
        generic = generic_problem(target, generators)
        columns = tuple(tuple(int(x) for x in g.vector()) for g in generators)
        return generic, ConeProblem(target.vector(), PreparedCone(columns))

    @pytest.mark.parametrize("path", [0, 1])
    def test_wrong_coefficient(self, monkeypatch, path):
        def corrupt(basic, dual, det):
            column = max(basic, key=basic.get)
            return {**basic, column: basic[column] + 1}, dual, det

        problem = self._problems(*self.FEASIBLE)[path]
        _corrupt_simplex(monkeypatch, corrupt)
        with pytest.raises(RuntimeError, match="does not re-sum"):
            cone_member(problem)

    @pytest.mark.parametrize("path", [0, 1])
    def test_functional_negative_on_a_column(self, monkeypatch, path):
        # Raising v_0 lowers the functional's degree coefficient, which turns
        # it negative on the planes while keeping it negative on -K/2.
        def corrupt(basic, dual, det):
            return basic, [dual[0] + 1000 * det, *dual[1:]], det

        problem = self._problems(*self.INFEASIBLE)[path]
        _corrupt_simplex(monkeypatch, corrupt)
        with pytest.raises(RuntimeError, match="negative on a generator"):
            cone_member(problem)

    def test_effective_membership_verifies(self, monkeypatch):
        def corrupt(basic, dual, det):
            if basic is None:
                return basic, dual, det
            column = max(basic, key=basic.get)
            return {**basic, column: basic[column] + 1}, dual, det

        _corrupt_simplex(monkeypatch, corrupt)
        with pytest.raises(RuntimeError):
            effective_membership(DivisorClass(2, (1, 1, 1, 1, 1, 1, 1, 0)))

    def test_effective_functional_negative_on_a_column(self, monkeypatch):
        # The LP at degree 4 of an effective query answers with its
        # functional plus 1000 (1; 1, 0^7), which is d + m_1: negative on
        # E_1, the truncation's first column, alone, and positive on -K/2 and
        # on the target.  The check on the truncation catches it.
        def corrupt(basic, dual, det):
            return basic, [v - 1000 * det * w for v, w in zip(dual, (1, 1) + (0,) * 7)], det

        _corrupt_simplex(monkeypatch, corrupt)
        with pytest.raises(RuntimeError, match="negative on a generator"):
            effective_membership(DivisorClass(1, (1, 1, 1, 1, 0, 0, 0, 0)))

    def test_changed_byte_fails_the_lp_that_enters_it(self, monkeypatch, fresh_oracle_caches):
        # A degree-6 column that an LP at degree 6 enters, with its degree
        # byte flipped in the stored rows: the packed blocks still price it
        # as before, so the same LP enters it, and the check refuses it.
        cone, low = oracle._effective_cone(6), _orbit_table.count(5)
        entered = []
        entering = oracle._entering

        def recorded(price, columns):
            entered.append(entering(price, columns))
            return entered[-1]

        monkeypatch.setattr(oracle, "_entering", recorded)
        rng = random.Random(20250810)
        while not any(low <= j < len(cone) - 1 for j in entered):
            entered.clear()
            divisor = DivisorClass(3, tuple(rng.randint(-3, 3) for _ in range(8)))
            problem = ConeProblem(divisor.vector(), cone)
            expected = cone_member(problem)
        j = next(j for j in entered if low <= j < len(cone) - 1)
        rows, _ = cone.runs[6]
        rows[0][j - low] ^= 1
        assert cone[j][0] == 6 ^ 1
        with pytest.raises(RuntimeError, match=f"entered column {re.escape(str(cone[j]))} is not"):
            cone_member(problem)
        rows[0][j - low] ^= 1
        assert cone_member(problem) == expected


class TestAgreementWithDecomposers:
    def test_nef_agreement_small_grid(self):
        generators = nef_generators()
        for d in range(3):
            for m in itertools.combinations_with_replacement(range(2, -1, -1), 8):
                divisor = DivisorClass(d, m)
                outcome = cone_member(divisor_problem(divisor, generators))
                assert isinstance(outcome, Feasible) == is_nef(divisor)[0]

    def test_nef_agreement_sweep(self):
        # A seeded sweep of 2000 classes with d in -1..8 and unsorted m_i in
        # -3..6, a third of them divided by 2 or 3.  nef_decompose (by its
        # construction), is_nef (by the 36 curves) and the LP over the 228
        # nef generators must agree.  Each "yes" round-trips through JSON and
        # re-checks; each "no" names the first curve generator the class meets
        # negatively, with its intersection number.
        rng = random.Random(23)
        generators = nef_generators()
        classes = []
        for k in range(2000):
            d = rng.randint(-1, 8)
            hi = rng.randint(0, 6 if d < 0 else min(6, d // 2 + 1))
            lo = rng.choice((-3, -1, 0, 0, 0, 0))
            divisor = DivisorClass(d, tuple(rng.randint(lo, hi) for _ in range(8)))
            if k % 3 == 0:
                divisor = Fraction(1, rng.choice((2, 3))) * divisor
            classes.append(divisor)
        yes = 0
        for divisor in classes:
            by_test, test_witness = is_nef(divisor)
            try:
                cert = nef_decompose(divisor)
            except NotNef as exc:
                witness = next(
                    c for c in curve_generators() if curve_intersection(divisor, c) < 0
                )
                value = curve_intersection(divisor, witness)
                assert (exc.witness, exc.value) == (witness, value)
                assert str(exc) == f"{divisor} is not nef: meets {witness} in {value}"
                assert test_witness == witness
                member = False
            else:
                Certificate.from_json(cert.to_json()).check()
                member = True
            outcome = cone_member(divisor_problem(divisor, generators))
            assert isinstance(outcome, Feasible) == member == by_test, divisor
            yes += member
        no = len(classes) - yes
        print(f"nef sweep: {yes} yes, {no} no")
        assert min(yes, no) >= len(classes) // 4

    def test_curve_agreement_on_valid_region(self):
        # A seeded sweep of about 2000 classes: combinations of the 36
        # generators, half of them moved one unit off, and classes drawn with
        # c_i of both signs.  Each verdict must match the LP; each "yes"
        # round-trips through JSON and re-checks, each "no" names a nef
        # generator the class meets negatively.
        rng = random.Random(5)
        generators = curve_generators()
        classes = []
        for _ in range(1000):
            ints = [0] * 9
            for generator in rng.sample(generators, rng.randint(1, 4)):
                k = rng.randint(1, 3)
                ints = [x + k * y for x, y in zip(ints, generator.scaled()[0])]
            if rng.random() < 0.5:
                ints[rng.randrange(9)] += rng.choice((-1, 1))
            classes.append(CurveClass(ints[0], tuple(ints[1:])))
        for _ in range(1000):
            classes.append(CurveClass(rng.randint(0, 4), tuple(rng.randint(-3, 2) for _ in range(8))))
        yes = 0
        for curve in classes:
            try:
                cert = curve_decompose(curve)
            except NotInCurveCone as exc:
                assert exc.witness in nef_generators()
                assert curve_intersection(exc.witness, curve) < 0
                member = False
            else:
                Certificate.from_json(cert.to_json()).check()
                member = True
            outcome = cone_member(divisor_problem(curve, generators))
            assert isinstance(outcome, Feasible) == member, curve
            yes += member
        no = len(classes) - yes
        print(f"curve sweep: {yes} yes, {no} no")
        assert min(yes, no) >= len(classes) // 4

    def test_curve_outside_guaranteed_region_may_still_be_member(self):
        # h + e_1 has c_1 > 0, and is 2e_1 + e_2 + (h-e_1-e_2).
        curve = CurveClass(1, (1, 0, 0, 0, 0, 0, 0, 0))
        cert = curve_decompose(curve)
        assert dict(cert.terms) == {
            EXCEPTIONAL_LINES[0]: 2, EXCEPTIONAL_LINES[1]: 1, line_between(1, 2): 1,
        }
        outcome = cone_member(divisor_problem(curve, curve_generators()))
        assert isinstance(outcome, Feasible)

    def test_effective_agreement_sweep(self):
        # A seeded sweep of 400 classes with d in 9..13 and m_i in -2..d, 30%
        # of them halved: windows up to degree 15, the last under the cap.
        # Each "yes" of effective_decompose round-trips through JSON and
        # re-checks.  A class the LP refuses by the cap is "unknown", never
        # agreement; every other verdict must match the LP's.
        rng = random.Random(23)
        classes = []
        for _ in range(400):
            d = rng.randint(9, 13)
            divisor = DivisorClass(d, tuple(rng.randint(-2, d) for _ in range(8)))
            classes.append(Fraction(1, 2) * divisor if rng.random() < 0.3 else divisor)
        agree = unknown = yes = 0
        for divisor in classes:
            try:
                cert = effective_decompose(divisor)
            except NotEffective:
                member = False
            else:
                Certificate.from_json(cert.to_json()).check()
                member = True
            yes += member
            try:
                report = effective_membership(divisor)
            except ScaleExceeded:
                unknown += 1
                continue
            assert isinstance(report.outcome, Feasible) == member, divisor
            agree += 1
        print(f"eff sweep: {agree} agree ({yes} yes in all), 0 disagree, {unknown} unknown")
        assert agree >= len(classes) // 2 and yes >= len(classes) // 4

    def test_movable_agreement_sweep(self):
        # A seeded sweep of 2000 classes.  Half are combinations of the 17
        # movable generators moved by a random word, a third of those nudged
        # one unit; half are drawn with negative entries, a third of them
        # divided by 2 or 3.  movable_decompose must agree with the LP over
        # the 17 generators on the reduced class, as criterion 6 compares;
        # each "yes" round-trips through JSON and re-checks.
        rng = random.Random(29)
        generators = pi_generators()
        classes = []
        for k in range(1000):
            ints = [0] * 9
            for generator in rng.sample(generators, rng.randint(1, 4)):
                c = rng.randint(1, 3)
                ints = [x + c * y for x, y in zip(ints, generator.scaled()[0])]
            if k % 3 == 0:
                ints[rng.randrange(9)] += rng.choice((-1, 1))
            word = [rng.randrange(8) for _ in range(rng.randint(0, 8))]
            classes.append(apply_word(word, DivisorClass(ints[0], tuple(ints[1:]))))
        for k in range(1000):
            d = rng.randint(0, 8)
            divisor = DivisorClass(d, tuple(rng.randint(-2, d) for _ in range(8)))
            classes.append(Fraction(1, rng.choice((2, 3))) * divisor if k % 3 == 0 else divisor)
        yes = 0
        for divisor in classes:
            try:
                cert = movable_decompose(divisor)
            except NotMovable as failure:
                reduced, member = failure.reduced, False
            else:
                Certificate.from_json(cert.to_json()).check()
                reduced, member = cert.reduced_target(), True
            outcome = cone_member(divisor_problem(reduced, generators))
            assert isinstance(outcome, Feasible) == member, divisor
            yes += member
        no = len(classes) - yes
        print(f"mov sweep: {yes} yes, {no} no")
        assert min(yes, no) >= len(classes) // 4

    def test_effective_agreement_sample(self):
        rng = random.Random(11)
        for _ in range(50):
            divisor = DivisorClass(
                rng.randint(0, 4), tuple(rng.randint(-4, 4) for _ in range(8))
            )
            try:
                effective_decompose(divisor)
                decomposed = True
            except NotEffective:
                decomposed = False
            report = effective_membership(divisor)
            assert isinstance(report.outcome, Feasible) == decomposed


class TestEffectiveMembership:
    def test_feasible_is_conclusive(self):
        report = effective_membership(DivisorClass(2, (1, 1, 1, 1, 1, 1, 1, 0)))
        assert isinstance(report.outcome, Feasible)
        assert report.conclusive
        assert report.checked_degrees[0] == 5

    def test_infeasible_checks_window(self):
        report = effective_membership(DivisorClass(1, (1, 1, 1, 1, 0, 0, 0, 0)))
        assert isinstance(report.outcome, Infeasible)
        assert not report.conclusive
        assert report.checked_degrees == (4, 5, 6)
        problem = divisor_problem(
            DivisorClass(1, (1, 1, 1, 1, 0, 0, 0, 0)),
            effective_generators(report.truncation_degree),
        )
        check_infeasible(problem, report.outcome)

    def test_half_anticanonical_member_via_seed(self):
        report = effective_membership(HALF_ANTICANONICAL)
        assert isinstance(report.outcome, Feasible)

    @pytest.mark.parametrize(
        "divisor, feasible",
        [
            (Fraction(1, 3) * HALF_ANTICANONICAL, True),
            (DivisorClass.parse("1/2;1/2,0,0,0,0,0,0,0"), True),
            (DivisorClass.parse("1/2;1/2,1/2,1/2,1/2,0,0,0,0"), False),
        ],
    )
    def test_rational_targets(self, divisor, feasible):
        report = effective_membership(divisor)
        problem = divisor_problem(divisor, effective_generators(report.truncation_degree))
        assert isinstance(report.outcome, Feasible) == feasible
        if feasible:
            check_feasible(problem, report.outcome)
        else:
            check_infeasible(problem, report.outcome)

    def test_prepared_path_matches_generic_path(self):
        # Criterion-4 sampler: every LP answer from the shared prepared cone
        # equals a fresh generic LP over the same generator list.
        rng = random.Random(20250810)
        feasible, generators_at = 0, {}  # each truncation's generators, built once
        for _ in range(60):
            divisor = DivisorClass(
                rng.randint(0, 8), tuple(rng.randint(-8, 8) for _ in range(8))
            )
            report = effective_membership(divisor)
            if isinstance(report.outcome, Feasible):
                feasible += 1
                degree = report.truncation_degree
                if degree not in generators_at:
                    generators_at[degree] = effective_generators(degree)
                generators = generators_at[degree]
                assert report.outcome == cone_member(generic_problem(divisor, generators))
        assert feasible >= 10

    def test_truncation_matches_user_cone_path(self):
        # Each truncation's prepared cone against the same generators as a
        # held user tuple, a cone of its own that packs its own blocks, on
        # integral and p/q classes: the same pivots give repr-equal outcomes.
        rng = random.Random(20250810)
        kinds = set()
        for degree in range(3, 14):
            generators = effective_generators(degree)
            for den, over in ((1, 0), (2, 0), (1, 1)):
                d = rng.randint(0, den * (degree - 3))
                divisor = DivisorClass(Fraction(d, den), tuple(
                    Fraction(rng.randint(-den, d + over), den) for _ in range(8)))
                user = divisor_problem(divisor, generators)
                assert user.generators is not oracle._effective_cone(degree)
                outcome = cone_member(user)
                truncation = ConeProblem(divisor.vector(), oracle._effective_cone(degree))
                assert repr(cone_member(truncation)) == repr(outcome)
                kinds.add(type(outcome))
        assert kinds == {Feasible, Infeasible}

    def test_criterion_4_reports_pinned(self):
        # The 1000 criterion-4 reports, as the sha256 of each one's non-zero
        # coefficients with their indices (or its functional), degrees,
        # generator count and conclusive flag: a changed pivot, coefficient
        # or functional changes it.
        rng = random.Random(20250810)
        digest = hashlib.sha256()
        for _ in range(1000):
            divisor = DivisorClass(rng.randint(0, 8), tuple(rng.randint(-8, 8) for _ in range(8)))
            report = effective_membership(divisor)
            outcome = report.outcome
            body = ([(j, c) for j, c in enumerate(outcome.coefficients) if c]
                    if isinstance(outcome, Feasible) else outcome.functional)
            digest.update(repr((body, report.truncation_degree, report.checked_degrees,
                                report.generator_count, report.conclusive)).encode())
        assert digest.hexdigest() == (
            "867584a355889e1b3fbc45edbb9dc9d5e75effca563b03a3e66602c69248f677")

    def test_generator_list_contains_q(self):
        generators = effective_generators(2)
        assert HALF_ANTICANONICAL in generators
        assert len(generators) == 233


@lru_cache(maxsize=None)
def _per_column_filter(candidates, truncation_degree):
    # Pure in its arguments (the table is deterministic), so each degree's
    # brute force runs once per session.
    columns = listed_to(_OrbitTable(), truncation_degree) + (_HALF_ANTICANONICAL_INTS,)
    return tuple(
        phi for phi in candidates
        if all(sum(p * x for p, x in zip(phi, v)) >= 0 for v in columns)
    )


@pytest.fixture
def fresh_oracle_caches():
    """Empty the orbit table and the oracle's caches before and after a test."""
    oracle.cache_clear()
    yield
    oracle.cache_clear()


def _cap_at(monkeypatch, degree):
    # The table's cap at the class count to the degree, so that degree is the
    # last one under it; the oracle's caches are emptied for the new cap.
    monkeypatch.setattr(weyl, "MAX_GENERATORS", _orbit_table.count(degree))
    oracle.cache_clear()


class TestVerifiedFunctionals:
    """The candidates are verified once, on the shapes up to the last degree under the cap."""

    def test_candidates_match_per_column_filter(self, monkeypatch, fresh_oracle_caches,
                                                listings):
        expected = _per_column_filter(oracle._CANDIDATE_FUNCTIONALS, 13)
        _cap_at(monkeypatch, 13)
        listings.clear()
        assert oracle._verified_functionals() == expected
        assert len(expected) == 10
        assert listings == []  # read from the shapes alone

    def test_failing_candidates_dropped_at_their_degree(self, monkeypatch, fresh_oracle_caches):
        # a(4d - sum m) + m_1 - m_2 = a + m_1 - m_2 on the orbit: it first fails
        # at degree 0, 2, 4, 8 and 12 for a = 0..4 and holds to degree 13 for
        # a = 5.  Further candidates have 1, 2 and 3 non-zero rows, plus random
        # ones; the real candidates stay in.  With the cap moved down a degree
        # at a time, the verified set only grows.
        rng = random.Random(20250810)
        extra = [(4 * a, 1 - a, -1 - a) + (-a,) * 6 for a in range(6)]
        extra += [(c, -1, -1) + (0,) * 6 for c in range(1, 5)]
        extra += [(1,) + (0,) * 7 + (-1,), (0,) * 8 + (-1,), (0,) * 3 + (1,) + (0,) * 5]
        extra += [tuple(rng.randint(-2, 4) for _ in range(9)) for _ in range(20)]
        candidates = oracle._CANDIDATE_FUNCTIONALS + tuple(v for v in extra if any(v))
        monkeypatch.setattr(oracle, "_CANDIDATE_FUNCTIONALS", candidates)
        expected = [_per_column_filter(candidates, degree) for degree in range(14)]
        for degree in range(13, -1, -1):
            _cap_at(monkeypatch, degree)
            assert oracle._verified_functionals() == expected[degree]
        for lower, upper in zip(expected, expected[1:]):
            assert tuple(phi for phi in lower if phi in upper) == upper
        assert len(set(expected)) >= 6
        assert expected[13][:10] == oracle._CANDIDATE_FUNCTIONALS[:10]

    def test_cap_under_degree_zero_refused(self, monkeypatch, fresh_oracle_caches):
        monkeypatch.setattr(weyl, "MAX_GENERATORS", 7)
        with pytest.raises(ScaleExceeded, match="^the orbit to degree 0 has 8 classes"):
            oracle._verified_functionals()


class TestEffectiveConeValidation:
    """Each truncation's cone is built once and validates all of its columns then."""

    @staticmethod
    def _poison(monkeypatch, degree, column):
        # The table's listing of the degree, with its middle column replaced
        # by column(that column).
        listing = _OrbitTable.listing

        def poisoned(table, d):
            listed = listing(table, d)
            if d != degree:
                return listed
            j = len(listed) // 2
            return listed[:j] + (column(listed[j]),) + listed[j + 1 :]

        monkeypatch.setattr(_OrbitTable, "listing", poisoned)

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_bad_entry_rejected(self, monkeypatch, fresh_oracle_caches, value):
        self._poison(monkeypatch, 4, lambda v: (value,) + v[1:])
        with pytest.raises(TypeError):
            oracle._effective_cone(4)

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_bad_entry_rejected_after_cache_clear(self, monkeypatch, fresh_oracle_caches, value):
        oracle._effective_cone(4)
        oracle.cache_clear()
        self._poison(monkeypatch, 4, lambda v: (value,) + v[1:])
        with pytest.raises(TypeError):
            oracle._effective_cone(4)

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_bad_entry_in_new_slice_rejected(self, monkeypatch, fresh_oracle_caches, value):
        # Degree 4 is built on the way to 5 and its bad column is refused there.
        oracle._effective_cone(3)
        self._poison(monkeypatch, 4, lambda v: (value,) + v[1:])
        with pytest.raises(TypeError):
            oracle._effective_cone(5)

    def test_bad_dimension_rejected(self, monkeypatch, fresh_oracle_caches):
        oracle._effective_cone(2)
        self._poison(monkeypatch, 3, lambda v: (3, 1))
        with pytest.raises(ValueError):
            oracle._effective_cone(3)

    def test_cap_checked_per_cone(self, monkeypatch, fresh_oracle_caches):
        oracle._effective_cone(2)
        monkeypatch.setattr(oracle, "MAX_GENERATORS", len(oracle._effective_cone(2)))
        with pytest.raises(ScaleExceeded):
            oracle._effective_cone(3)

    def test_shared_columns_validated_once(self, monkeypatch, fresh_oracle_caches):
        validated = []
        slice_run = oracle._slice_run
        monkeypatch.setattr(oracle, "_slice_run",
                            lambda listing: validated.append(listing) or slice_run(listing))
        cones = {}
        for degree in (3, 6, 5, 13, 6, 3, 13):
            cone = cones.setdefault(degree, oracle._effective_cone(degree))
            assert oracle._effective_cone(degree) is cone
            assert tuple(cone)[:-1] == listed_to(_orbit_table, degree)
            assert cone[-1] == _HALF_ANTICANONICAL_INTS
        # One slice per degree, validated and stored once, when it was listed:
        # a cone lists its own slice before it builds the cones below it.
        order = [3, 2, 1, 0, 6, 5, 4] + list(range(13, 6, -1))
        assert validated == [_orbit_table.listing(k) for k in order]
        assert oracle._effective_cone.cache_info().misses == 14
        # Every cone above a slice shares its run.
        for degree in range(14):
            runs = oracle._effective_cone(degree).runs
            assert all(map(operator.is_, runs[:-1], cones[13].runs[: degree + 1]))

    @pytest.mark.parametrize("value", [128, -129, 1 << 70])
    def test_entry_past_a_byte_rejected(self, monkeypatch, fresh_oracle_caches, value):
        # A slice is stored in signed bytes: a larger entry is refused when
        # the slice is listed, before any cone is built.
        self._poison(monkeypatch, 4, lambda v: (value,) + v[1:])
        with pytest.raises(ScaleExceeded, match="signed byte"):
            oracle._effective_cone(4)
        assert oracle._effective_cone.cache_info().currsize == 0

    def test_each_lp_degree_built_once(self, monkeypatch, fresh_oracle_caches):
        # Criterion-4 sampler: the LP degrees alternate, yet each cone of the
        # chain, to the highest LP degree, is built once; cones built
        # beforehand, highest degree first, give the same reports.
        rng = random.Random(20250810)
        divisors = [DivisorClass(rng.randint(0, 8), tuple(rng.randint(-8, 8) for _ in range(8)))
                    for _ in range(200)]
        sizes = []
        solve = oracle.cone_member

        def counted(problem):
            sizes.append(len(problem.generators))
            return solve(problem)

        monkeypatch.setattr(oracle, "cone_member", counted)
        reports = [effective_membership(divisor) for divisor in divisors]
        top = max(k for k in range(14) if _orbit_table.count(k) + 1 in sizes)
        assert oracle._effective_cone.cache_info().misses == top + 1
        assert len(set(sizes)) >= 4
        assert len(sizes) > 5 * len(set(sizes))
        oracle._effective_cone.cache_clear()
        for degree in range(13, 2, -1):
            oracle._effective_cone(degree)
        assert [effective_membership(divisor) for divisor in divisors] == reports
        assert oracle._effective_cone.cache_info().misses == 14


class TestLazyTable:
    """Shortcut queries read only the table's shapes; columns are listed for an LP."""

    def test_shortcut_query_lists_no_column(self, fresh_oracle_caches, listings):
        divisor = DivisorClass(5, (6,) + (0,) * 7)  # d - m_1 < 0 at every degree
        report = effective_membership(divisor)
        assert listings == []
        assert report.outcome == Infeasible((1, -1) + (0,) * 7)
        assert report.checked_degrees == (8, 9, 10)
        # The same report once the whole table is listed and validated.
        oracle._effective_cone(13)
        oracle._verified_functionals.cache_clear()
        assert effective_membership(divisor) == report

    def test_first_lp_lists_its_truncation(self, fresh_oracle_caches, listings):
        report = effective_membership(DivisorClass(2, (1, 1, 1, 1, 1, 1, 1, 0)))
        assert isinstance(report.outcome, Feasible)
        # Each degree's slice is listed before the cone below it is built.
        assert listings == [5, 4, 3, 2, 1, 0]
        assert oracle._effective_cone.cache_info().currsize == 6
        assert len(oracle._effective_cone(5)) == report.generator_count

    def test_carried_check_lists_no_column(self, monkeypatch, fresh_oracle_caches, listings):
        # One LP at degree 4; its functional is carried to degrees 5 and 6 on
        # the shapes, so the table stays listed to the LP's degree only.
        divisor = DivisorClass(1, (1, 1, 1, 1, 0, 0, 0, 0))
        lps = []

        def counted(problem):
            lps.append(len(problem.generators))
            return cone_member(problem)

        monkeypatch.setattr(oracle, "cone_member", counted)
        report = effective_membership(divisor)
        assert report.checked_degrees == (4, 5, 6)
        assert lps == [_orbit_table.count(4) + 1]
        assert sorted(listings) == list(range(5))
        # The same report once the whole table is listed and validated.
        oracle._effective_cone(13)
        assert effective_membership(divisor) == report

    def test_failing_carried_functional_runs_a_fresh_lp(self, monkeypatch, fresh_oracle_caches):
        # The first LP (degree 11 for this degree-8 class) is made to answer
        # with phi, which holds on the orbit to degree 11 and first fails at
        # 12: so the carried check fails there and a fresh LP runs at 12.
        phi = (16, -3, -5) + (-4,) * 6
        assert _orbit_table.minimum(phi, 0, 11) >= 0 > _orbit_table.minimum(phi, 12, 12)
        divisor = DivisorClass(8, (4, 3, -7, 5, 6, 1, -5, 7))
        lps = []

        def first_answer_phi(problem):
            lps.append(len(problem.generators))
            if len(lps) == 1:
                return Infeasible(tuple(map(Fraction, phi)))
            return cone_member(problem)

        monkeypatch.setattr(oracle, "cone_member", first_answer_phi)
        report = effective_membership(divisor)
        assert lps == [_orbit_table.count(11) + 1, _orbit_table.count(12) + 1]
        assert report.checked_degrees == (11, 12, 13)
        assert report.outcome.functional != tuple(map(Fraction, phi))
        problem = divisor_problem(divisor, effective_generators(report.truncation_degree))
        check_infeasible(problem, report.outcome)

    def test_infeasible_reports_hold_column_by_column(self, fresh_oracle_caches):
        # Criterion-4 sampler: every "no" holds on every column of its
        # truncation, shortcut and carried functionals included.  A
        # functional is checked once per truncation, the target per report.
        rng = random.Random(20250811)
        cones, checked, from_lps = {}, set(), 0
        for _ in range(300):
            divisor = DivisorClass(rng.randint(0, 8), tuple(rng.randint(-8, 8) for _ in range(8)))
            report = effective_membership(divisor)
            if isinstance(report.outcome, Feasible):
                continue
            degree, phi = report.truncation_degree, report.outcome.functional
            from_lps += phi not in oracle._CANDIDATE_FUNCTIONALS
            if degree not in cones:
                cones[degree] = divisor_problem(divisor, effective_generators(degree)).generators
            if (degree, phi) not in checked:
                check_infeasible(ConeProblem(divisor.vector(), cones[degree]), report.outcome)
                checked.add((degree, phi))
            assert sum(p * t for p, t in zip(phi, divisor.vector())) < 0
        assert from_lps >= 3


def _reference_shortcut(cleared, degree):
    # The first candidate non-negative on every column of the degree's
    # truncation that is negative on the frame, found by brute force, with a
    # certificate built afresh.
    for phi in _per_column_filter(oracle._CANDIDATE_FUNCTIONALS, degree):
        if sum(p * x for p, x in zip(phi, cleared)) < 0:
            return Infeasible(tuple(map(Fraction, phi)))
    return None


def _reference_membership(divisor):
    # The degree-by-degree loop: at each degree of the window a shortcut, a
    # carried functional or a fresh LP, with nothing settled ahead of it.
    cleared = divisor.scaled()[0]
    base = max(0, math.ceil(divisor.d)) + oracle.EXTRA_DEGREE
    checked, outcome, carried, carried_degree = [], None, None, -1
    for degree in range(base, base + oracle.WINDOW + 1):
        count = _orbit_table.count(degree) + 1
        checked.append(degree)
        shortcut = _reference_shortcut(cleared, degree)
        if shortcut is not None:
            outcome = shortcut
            continue
        if carried is not None:
            if _orbit_table.minimum(carried_psi, carried_degree + 1, degree) >= 0:
                carried_degree, outcome = degree, Infeasible(carried)
                continue
            carried = None
        outcome = cone_member(ConeProblem(divisor.vector(), oracle._effective_cone(degree)))
        if isinstance(outcome, Feasible):
            return MembershipReport(outcome, degree, tuple(checked), count, True)
        carried, carried_degree = outcome.functional, degree
        carried_psi = oracle._cleared(carried)
    return MembershipReport(outcome, checked[-1], tuple(checked), count, False)


class TestOneDegreeShortcut:
    """A shortcut query is settled at the window's top degree, with the loop's report."""

    def test_criterion_4_sample_matches_the_loop(self, fresh_oracle_caches):
        rng = random.Random(20250812)
        divisors = [DivisorClass(rng.randint(0, 8), tuple(rng.randint(-8, 8) for _ in range(8)))
                    for _ in range(200)]
        divisors += [DivisorClass(Fraction(rng.randint(0, 16), 2),
                                  tuple(Fraction(rng.randint(-16, 16), 2) for _ in range(8)))
                     for _ in range(40)]
        cold = [effective_membership(divisor) for divisor in divisors]
        assert cold == [_reference_membership(divisor) for divisor in divisors]
        assert [effective_membership(divisor) for divisor in divisors] == cold
        shortcuts = sum(report.outcome.functional in oracle._CANDIDATE_FUNCTIONALS
                        for report in cold if isinstance(report.outcome, Infeasible))
        assert shortcuts >= 100

    def test_one_report_per_functional_and_top_degree(self, fresh_oracle_caches):
        # d - m_1 < 0 is the first verified functional negative on all three;
        # ceil(d) = 5 puts each window at degrees 8..10.
        phi = (1, -1) + (0,) * 7
        divisors = [DivisorClass(5, (6,) + (0,) * 7), DivisorClass(5, (7, 1, 0, 0, 0, 0, 0, 2)),
                    DivisorClass(Fraction(9, 2), (Fraction(11, 2),) + (0,) * 7)]
        reports = [effective_membership(divisor) for divisor in divisors]
        assert all(report is reports[0] for report in reports)
        assert oracle._shortcut_report(phi, 10) is reports[0]
        for divisor in divisors:
            assert _reference_membership(divisor) == reports[0]
        assert reports[0].outcome == Infeasible(phi) and reports[0].checked_degrees == (8, 9, 10)
        # Another top degree has its own report.
        other = effective_membership(DivisorClass(6, (7,) + (0,) * 7))
        assert other is not reports[0] and other.outcome == reports[0].outcome
        assert other == _reference_membership(DivisorClass(6, (7,) + (0,) * 7))
        assert other.truncation_degree == 11

    def test_shortcut_builds_no_fraction_view(self, monkeypatch, fresh_oracle_caches):
        divisor = DivisorClass.parse("5;6,0,0,0,0,0,0,0")

        def no_lp(problem):
            raise AssertionError("a shortcut query ran an LP")

        monkeypatch.setattr(oracle, "cone_member", no_lp)
        report = effective_membership(divisor)
        assert report == MembershipReport(Infeasible((1, -1) + (0,) * 7), 10, (8, 9, 10),
                                          _orbit_table.count(10) + 1, False)
        assert divisor._d is None and divisor._m is None


class TestMembershipScale:
    """A truncation over the table's cap is refused before the table grows past it."""

    def test_degree_hundred_refused_early(self, fresh_oracle_caches, listings):
        with pytest.raises(ScaleExceeded):
            effective_membership(DivisorClass(100, (0,) * 8))
        assert listings == []
        assert len(_orbit_table._shapes) <= 17

    def test_refused_at_the_first_degree_over_the_cap(self, monkeypatch, fresh_oracle_caches,
                                                      listings):
        counts = [_orbit_table.count(k) for k in range(8)]
        oracle.cache_clear()
        monkeypatch.setattr(weyl, "MAX_GENERATORS", counts[5])
        message = f"^the orbit to degree 6 has {counts[6]} classes, more than MAX_GENERATORS = "
        message += f"{counts[5]}$"
        with pytest.raises(ScaleExceeded, match=message):
            effective_membership(DivisorClass(10, (0,) * 8))
        assert listings == []  # counted from the shapes, nothing enumerated
        # A window that fits is answered in full: degrees 3, 4 and 5, plus -K/2.
        report = effective_membership(-EXCEPTIONALS[0])
        assert report.checked_degrees == (3, 4, 5)
        assert report.generator_count == counts[5] + 1

    def test_shortcut_over_the_cap_runs_no_lp(self, monkeypatch, fresh_oracle_caches, listings):
        # Window 14..16, separated by d - m_1: refused at degree 16, the first
        # over the cap, with no LP at degree 14 or 15 and nothing listed.
        def no_lp(problem):
            raise AssertionError("a shortcut query ran an LP")

        monkeypatch.setattr(oracle, "cone_member", no_lp)
        with pytest.raises(ScaleExceeded, match="^the orbit to degree 16 has 72760 classes, "):
            effective_membership(DivisorClass(11, (12,) + (0,) * 7))
        assert listings == []

    def test_cap_under_the_window_top(self, monkeypatch, fresh_oracle_caches):
        # Base degree 5, top degree 7, cap at degree 5: a shortcut class is
        # refused at degree 6, the first over the cap, as the loop refuses it;
        # a class Feasible at its base degree is still answered there.
        counts = [_orbit_table.count(k) for k in range(8)]
        oracle.cache_clear()
        monkeypatch.setattr(weyl, "MAX_GENERATORS", counts[5])
        message = f"^the orbit to degree 6 has {counts[6]} classes, more than MAX_GENERATORS = "
        message += f"{counts[5]}$"
        with pytest.raises(ScaleExceeded, match=message):
            effective_membership(DivisorClass(2, (3,) + (0,) * 7))
        report = effective_membership(DivisorClass(2, (1,) * 7 + (0,)))
        assert isinstance(report.outcome, Feasible)
        assert report.truncation_degree == 5 and report.checked_degrees == (5,)
        assert report.generator_count == counts[5] + 1

