import csv
import hashlib
import io
import itertools
import json
import random
from collections import Counter, deque
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowupcones import (
    EXCEPTIONALS,
    H,
    HALF_ANTICANONICAL,
    ROOT_SYSTEM,
    DivisorClass,
    ScaleExceeded,
    StepLimitExceeded,
    accumulation_report,
    apply_word,
    canonical_shape,
    cremona,
    exceptional_orbit,
    inverse_word,
    is_minus_one_divisor,
    is_standard_form,
    minus_one_certificate,
    orbit_degree_counts,
    pairing,
    reflect,
    to_standard_form,
)

from blowupcones import oracle, weyl
from blowupcones.oracle import _CANDIDATE_FUNCTIONALS
from blowupcones.weyl import (
    DEFAULT_MAX_STEPS,
    REDUCED_EXCEPTIONAL,
    ReductionResult,
    _act,
    _lattice_shapes,
    _merge_runs,
    _OrbitTable,
    _orbit_table,
    _sort_descending,
)

from conftest import generator_letters, int_divisors, listed_to, rational_divisors, words

MINUS_H = DivisorClass(-1, (0,) * 8)
SCRATCH = DivisorClass(5, (3, 1, 4, 1, 5, 0, 2, 6))


class TestReflect:
    def test_cremona_on_hyperplane(self):
        assert reflect(0, H) == DivisorClass(3, (2, 2, 2, 2, 0, 0, 0, 0))

    def test_adjacent_swap(self):
        swapped = reflect(7, DivisorClass(0, (0, 0, 0, 0, 0, 0, 0, 1)))
        assert swapped == DivisorClass(0, (0, 0, 0, 0, 0, 0, 1, 0))

    def test_fixes_half_anticanonical(self):
        for i in range(8):
            assert reflect(i, HALF_ANTICANONICAL) == HALF_ANTICANONICAL

    def test_index_range(self):
        with pytest.raises(ValueError):
            reflect(8, H)
        with pytest.raises(ValueError):
            reflect(-1, H)

    @given(rational_divisors)
    def test_matches_root_formula(self, d):
        for i, alpha in enumerate(ROOT_SYSTEM.roots):
            assert reflect(i, d) == d + pairing(alpha, d) * alpha

    @given(generator_letters, rational_divisors)
    def test_involution(self, i, d):
        assert reflect(i, reflect(i, d)) == d

    @given(generator_letters, rational_divisors, rational_divisors)
    def test_preserves_pairing(self, i, a, b):
        assert pairing(reflect(i, a), reflect(i, b)) == pairing(a, b)


class TestCremona:
    def test_on_hyperplane(self):
        assert cremona((1, 2, 3, 4), H) == DivisorClass(3, (2, 2, 2, 2, 0, 0, 0, 0))

    def test_reaches_exceptional(self):
        plane = DivisorClass(1, (0, 0, 0, 0, 1, 1, 1, 0))
        assert cremona((5, 6, 7, 8), plane) == EXCEPTIONALS[7]

    def test_fixed_point(self):
        quad = DivisorClass(2, (1, 1, 1, 1, 0, 0, 0, 0))
        assert cremona((1, 2, 3, 4), quad) == quad

    @pytest.mark.parametrize("bad", [(1, 2, 3), (1, 2, 3, 3), (0, 1, 2, 3), (1, 2, 3, 9)])
    def test_malformed_index_sets(self, bad):
        with pytest.raises(ValueError):
            cremona(bad, H)

    @given(int_divisors)
    def test_involution(self, d):
        for indices in ((1, 2, 3, 4), (2, 4, 6, 8), (5, 6, 7, 8)):
            assert cremona(indices, cremona(indices, d)) == d

    def test_matches_s0_on_grid(self):
        values = (-2, 0, 1, 3)
        for d in values:
            for m in itertools.product(values, repeat=4):
                cls = DivisorClass(d, m + (1, -2, 0, 3))
                assert reflect(0, cls) == cremona((1, 2, 3, 4), cls)


class TestWords:
    def test_empty_word_is_identity(self):
        assert apply_word((), SCRATCH) == SCRATCH

    def test_square_is_identity(self):
        assert apply_word((0, 0), H) == H

    def test_transport_exceptional(self):
        assert apply_word((7, 6), EXCEPTIONALS[7]) == EXCEPTIONALS[5]

    @given(words, rational_divisors)
    def test_inverse_word(self, word, d):
        assert apply_word(word, apply_word(inverse_word(word), d)) == d

    @given(words, rational_divisors, rational_divisors)
    def test_words_preserve_pairing(self, word, a, b):
        assert pairing(apply_word(word, a), apply_word(word, b)) == pairing(a, b)

    @given(st.lists(generator_letters, max_size=40), rational_divisors)
    @settings(max_examples=60, deadline=None)
    def test_matches_iterated_root_formula(self, word, d):
        expected = d
        for i in word:
            alpha = ROOT_SYSTEM.roots[i]
            expected = expected + pairing(alpha, expected) * alpha
        assert apply_word(word, d) == expected

    def test_letter_out_of_range(self):
        for word in ((1, 8), (0, -1)):
            with pytest.raises(ValueError):
                apply_word(word, H)


class TestCoxeterRelations:
    def _order_of_product(self, i, j):
        basis = (H,) + EXCEPTIONALS
        images = basis
        for power in range(1, 7):
            images = tuple(reflect(i, reflect(j, d)) for d in images)
            if images == basis:
                return power
        raise AssertionError(f"(s_{i} s_{j}) has order > 6")

    def test_orders_match_gram_matrix(self):
        for i in range(8):
            for j in range(i + 1, 8):
                value = pairing(ROOT_SYSTEM.roots[i], ROOT_SYSTEM.roots[j])
                expected = 3 if value == 1 else 2
                assert self._order_of_product(i, j) == expected

    def test_generators_are_involutions(self):
        for i in range(8):
            assert self._order_of_product(i, i) == 1


class TestStandardForm:
    def test_two_step_chain_to_exceptional(self):
        start = DivisorClass(3, (2, 2, 2, 2, 1, 1, 1, 0))
        result = to_standard_form(start)
        assert result.standard == EXCEPTIONALS[7]
        assert result.steps == 2
        assert apply_word(result.word, start) == result.standard

    def test_already_standard(self):
        result = to_standard_form(HALF_ANTICANONICAL)
        assert result.standard == HALF_ANTICANONICAL
        assert result.word == ()
        assert result.steps == 0

    def test_single_step(self):
        start = DivisorClass(4, (3, 2, 2, 2, 1, 0, 0, 0))
        result = to_standard_form(start)
        assert result.standard == DivisorClass(3, (2, 1, 1, 1, 1, 0, 0, 0))
        assert result.steps == 1

    def test_idempotent(self):
        result = to_standard_form(DivisorClass(3, (2, 2, 2, 2, 1, 1, 1, 0)))
        again = to_standard_form(result.standard)
        assert again.steps == 0 and again.standard == result.standard

    def test_sorting_records_word(self):
        shuffled = DivisorClass(0, (0, 0, -1, 0, 0, 0, 0, 0))
        result = to_standard_form(shuffled)
        assert result.standard == EXCEPTIONALS[7]
        assert 0 not in result.word
        assert apply_word(result.word, shuffled) == result.standard

    def test_step_limit(self):
        with pytest.raises(StepLimitExceeded) as info:
            to_standard_form(MINUS_H, max_steps=40)
        assert info.value.steps == 40

    def test_rational_classes_reduce(self):
        half = DivisorClass("3/2", ("1", "1", "1", "1", "1/2", "1/2", "1/2", "0"))
        result = to_standard_form(half)
        assert result.standard == DivisorClass(0, (0, 0, 0, 0, 0, 0, 0, "-1/2"))
        assert result.steps == 2
        assert apply_word(result.word, half) == result.standard

    @given(int_divisors)
    @settings(max_examples=60)
    def test_word_replays(self, d):
        try:
            result = to_standard_form(d, max_steps=60)
        except StepLimitExceeded:
            return
        assert is_standard_form(result.standard)
        assert apply_word(result.word, d) == result.standard
        assert apply_word(inverse_word(result.word), result.standard) == d


class TestOrbit:
    def test_counts(self):
        assert len(exceptional_orbit(0)) == 8
        assert len(exceptional_orbit(1)) == 64
        assert len(exceptional_orbit(2)) == 232

    def test_degree_counts(self):
        assert orbit_degree_counts(2) == {0: 8, 1: 56, 2: 168}

    def test_shapes_up_to_degree_two(self):
        shapes = {canonical_shape(x) for x in exceptional_orbit(2)}
        assert shapes == {
            DivisorClass(0, (0, 0, 0, 0, 0, 0, 0, -1)),
            DivisorClass(1, (1, 1, 1, 0, 0, 0, 0, 0)),
            DivisorClass(2, (2, 1, 1, 1, 1, 1, 0, 0)),
        }

    def test_orbit_constancy(self):
        for x in exceptional_orbit(3):
            assert pairing(x, x) == -1
            assert pairing(x, HALF_ANTICANONICAL) == 1

    def test_nested(self):
        assert set(exceptional_orbit(2)) <= set(exceptional_orbit(3))

    def test_sorted_deterministic(self):
        orbit = exceptional_orbit(2)
        assert list(orbit) == sorted(orbit, key=lambda d: d.vector())

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            exceptional_orbit(-1)


def breadth_first_orbit(max_degree):
    """Reference enumeration: closure of the exceptional vectors under s_0..s_7.

    Breadth-first over whole coefficient vectors, pruning anything above the
    degree bound, with its own copy of the Weyl action.
    """
    seen, queue = set(), deque(tuple(int(x) for x in e.vector()) for e in EXCEPTIONALS)
    while queue:
        image = queue.popleft()
        if image[0] > max_degree or image in seen:
            continue
        seen.add(image)
        d, *m = image
        t = 2 * d - (m[0] + m[1] + m[2] + m[3])
        queue.append((d + t, m[0] + t, m[1] + t, m[2] + t, m[3] + t, *m[4:]))
        queue.extend((d, *m[:i], m[i + 1], m[i], *m[i + 2 :]) for i in range(7))
    return tuple(sorted(seen))


class TestOrbitTable:
    def test_matches_breadth_first_reference(self):
        growing = _OrbitTable()
        for bound in range(10):
            reference = breadth_first_orbit(bound)
            assert listed_to(_OrbitTable(), bound) == reference
            assert listed_to(growing, bound) == reference

    def test_bound_order_does_not_matter(self):
        # A degree's listing and the counts are the same whatever the table
        # counted or listed before.
        direct, stepped = _OrbitTable(), _OrbitTable()
        direct.count(13)
        for bound in (5, 9, 13, 7):
            stepped.listing(bound)
        for bound in range(-1, 15):
            assert stepped.count(bound) == direct.count(bound)
        for degree in range(14):
            assert stepped.listing(degree) == direct.listing(degree)

    def test_cache_clear_starts_over(self):
        table = _OrbitTable()
        table.listing(6)
        table.cache_clear()
        assert (table._shapes, table._ends) == ([], [0])
        assert listed_to(table, 4) == breadth_first_orbit(4)

    def test_degree_counts_to_thirteen(self):
        counts = orbit_degree_counts(13)
        assert sorted(counts) == list(range(14))
        assert sum(counts.values()) == 37480

    def test_grown_degree_by_degree(self):
        # Listing a degree grows the shapes to that degree and no further.
        table = _OrbitTable()
        for degree in range(9):
            table.listing(degree)
            assert len(table._shapes) == degree + 1
        assert listed_to(table, 8) == breadth_first_orbit(8)


ORBIT_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "orbit_golden.json").read_text(encoding="utf-8"))


def both_equations(d, m):
    """(D, D) = -1 and (D, -K/2) = 1, computed here from the definitions."""
    return 2 * d * d - sum(x * x for x in m) == -1 and 4 * d - sum(m) == 1


class TestLemma:
    """An integral class is in W.E_8 iff (D, D) = -1 and (D, -K/2) = 1 (weyl docstring)."""

    def test_chamber_step(self):
        # With e_i = m_i - d/2, a chamber class meeting both equations has
        # s = e_1 + ... + e_4 in [-1/2, 0]; so e_5..e_8 lie in [-1, 0] (they are
        # <= s/4 and sum to -1 - s >= -1), e_4 >= e_5 >= -1 and e_1 <= s + 3 <= 3.
        # The box e_i in [-1, 3], -1 <= d = |e|^2 - 1 <= 71 covers every one of them.
        found, checked = [], 0
        for d in range(-1, 72):
            values = range(-((2 - d) // 2), (d + 6) // 2 + 1)  # ceil(d/2 - 1)..floor(d/2 + 3)
            for m in itertools.combinations_with_replacement(reversed(values), 8):
                checked += 1
                if both_equations(d, m) and is_standard_form(DivisorClass(d, m)):
                    found.append(DivisorClass(d, m))
        assert checked == 36 * 495 + 37 * 165  # even d: 5 values per entry; odd d: 4
        assert found == [REDUCED_EXCEPTIONAL]

    def test_shapes_are_the_lattice_points(self):
        # Every ascending integral (d; m) meeting both equations, by brute force over
        # |2m_i - d| <= 2 sqrt(d + 1), against the enumerator.
        for d in range(10):
            bound = int((4 * (d + 1)) ** 0.5)
            values = [(f + d) // 2 for f in range(-bound, bound + 1) if (f - d) % 2 == 0]
            brute = [m for m in itertools.combinations_with_replacement(values, 8)
                     if both_equations(d, m)]
            assert sorted(_lattice_shapes(d)) == brute, d

    def test_orbit_to_degree_fifteen(self):
        orbit = listed_to(_OrbitTable(), 15)
        assert orbit == breadth_first_orbit(15)
        counts = Counter(v[0] for v in orbit)
        assert sorted(counts) == list(range(16)) and sum(counts.values()) == 59096
        assert counts[15] == 11200
        # The `orbit --max-degree 13` CSV, as recorded in the golden corpus.
        golden = ORBIT_GOLDEN["orbit"]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["class", "degree"])
        writer.writerows([f"{v[0]};{','.join(map(str, v[1:]))}", v[0]]
                         for v in orbit if v[0] <= 13)
        text = buffer.getvalue()
        assert text.count("\n") == golden["lines"]
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == golden["sha256"]


@pytest.fixture
def fresh_table():
    """Empty the shared orbit table (and the oracle's caches) before and after a test."""
    oracle.cache_clear()
    yield _orbit_table
    oracle.cache_clear()


class TestOrbitCap:
    """The table's own cap, MAX_GENERATORS classes, bounds every reader of the orbit."""

    @pytest.mark.parametrize("read", [exceptional_orbit, orbit_degree_counts, accumulation_report])
    def test_every_reader_refused_at_degree_sixteen(self, fresh_table, listings, read):
        with pytest.raises(ScaleExceeded, match="^the orbit to degree 16 has 72760 classes, "):
            read(16)
        # Every reader counts the bound from the shapes before it lists anything.
        assert listings == []

    def test_accumulation_lists_no_class(self, fresh_table, listings):
        # Ray distance is symmetric in the points: each degree's maximum is
        # one over its shapes.
        assert [degree for degree, _ in accumulation_report(15)] == list(range(16))
        assert listings == []

    def test_far_bound_stops_growing_at_the_cap(self, fresh_table, listings):
        with pytest.raises(ScaleExceeded):
            exceptional_orbit(40)
        assert listings == []
        assert len(fresh_table._shapes) == 17  # grown to degree 16, the first over the cap
        # Truncations under the cap are still answered; one over it stays refused.
        assert len(exceptional_orbit(15)) == 59096
        with pytest.raises(ScaleExceeded):
            fresh_table.listing(16)
        assert listings == list(range(16))
        assert len(fresh_table._shapes) == 17

    def test_count_and_listing_refuse_with_one_message(self, monkeypatch, listings):
        monkeypatch.setattr(weyl, "MAX_GENERATORS", 1000)
        counted, listed = _OrbitTable(), _OrbitTable()
        with pytest.raises(ScaleExceeded) as by_count:
            counted.count(9)
        with pytest.raises(ScaleExceeded) as by_listing:
            listed.listing(9)
        assert str(by_count.value) == str(by_listing.value) == (
            "the orbit to degree 4 has 1184 classes, more than MAX_GENERATORS = 1000")
        assert listings == []
        assert counted.count(3) == len(listed_to(listed, 3)) == 568


def hand_built_functionals():
    """The extra candidates of test_oracle's `test_failing_candidates_dropped_at_their_degree`."""
    rng = random.Random(20250810)
    extra = [(4 * a, 1 - a, -1 - a) + (-a,) * 6 for a in range(6)]
    extra += [(c, -1, -1) + (0,) * 6 for c in range(1, 5)]
    extra += [(1,) + (0,) * 7 + (-1,), (0,) * 8 + (-1,), (0,) * 3 + (1,) + (0,) * 5]
    extra += [tuple(rng.randint(-2, 4) for _ in range(9)) for _ in range(20)]
    return [v for v in extra if any(v)]


class TestOrbitShapes:
    """Counts and least values read from the shapes agree with the listed columns."""

    def test_count_matches_listing(self, listings):
        counted, listed = _OrbitTable(), _OrbitTable()
        counts = [counted.count(d) for d in range(16)]
        assert listings == []
        assert counts == list(itertools.accumulate(len(listed.listing(d)) for d in range(16)))
        assert counts[13] == 37480

    def test_shapes_per_degree(self):
        table = _OrbitTable()
        table.count(13)
        assert [len(shapes) for shapes in table._shapes[:14]] == [
            1, 1, 1, 2, 2, 2, 3, 4, 3, 5, 5, 4, 7, 6]

    def test_minimum_matches_every_column(self, listings):
        # Each functional's least value over every degree window lo..hi <= 13,
        # against a dot product with every column of the window.
        rng = random.Random(614)
        functionals = list(_CANDIDATE_FUNCTIONALS) + hand_built_functionals()
        functionals += [tuple(rng.randint(-9, 9) for _ in range(9)) for _ in range(200)]
        listed, counted = _OrbitTable(), _OrbitTable()
        slices = [listed.listing(d) for d in range(14)]
        listings.clear()
        for phi in functionals:
            least = [min(map(sum, map(map, itertools.repeat(mul), itertools.repeat(phi), c)))
                     for c in slices]
            for lo in range(14):
                for hi in range(lo, 14):
                    assert counted.minimum(phi, lo, hi) == min(least[lo : hi + 1]), (phi, lo, hi)
        assert listings == []

    def test_minimum_refuses_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(weyl, "MAX_GENERATORS", 1000)
        with pytest.raises(ScaleExceeded, match="^the orbit to degree 4 has 1184 classes"):
            _OrbitTable().minimum((1,) + (0,) * 8, 0, 5)


class TestMinusOne:
    def test_exceptional(self):
        word = minus_one_certificate(EXCEPTIONALS[2])
        assert word is not None
        assert 0 not in word
        assert apply_word(word, EXCEPTIONALS[2]) == EXCEPTIONALS[7]

    def test_plane_through_three_points(self):
        plane = DivisorClass(1, (1, 1, 1, 0, 0, 0, 0, 0))
        word = minus_one_certificate(plane)
        assert word is not None
        assert word.count(0) == 1
        assert apply_word(word, plane) == EXCEPTIONALS[7]

    def test_half_anticanonical_is_not(self):
        assert not is_minus_one_divisor(HALF_ANTICANONICAL)

    def test_orbit_members_accepted(self):
        for x in exceptional_orbit(3):
            assert is_minus_one_divisor(x)

    def test_filter_rejects_wrong_invariants(self):
        assert minus_one_certificate(H) is None

    def test_requires_integral(self):
        with pytest.raises(ValueError):
            minus_one_certificate(DivisorClass("1/2", (0,) * 8))

    def test_rational_class_is_not_one(self):
        # Both equations hold, but a (-1)-class is integral.
        rational = DivisorClass("1/2", (1, "1/2", "-1/2", 0, 0, 0, 0, 0))
        assert pairing(rational, rational) == -1 and pairing(rational, HALF_ANTICANONICAL) == 1
        assert not is_minus_one_divisor(rational)


# -- the integer paths against reference copies of the routines they replaced -------

def reference_to_standard_form(divisor, max_steps=DEFAULT_MAX_STEPS):
    """The reduction loop as it was: a full bubble sort after every s_0."""
    ints, den = divisor.scaled()
    word, steps = [], 0
    while True:
        _sort_descending(ints, word)
        if 2 * ints[0] >= ints[1] + ints[2] + ints[3] + ints[4]:
            return ReductionResult(DivisorClass.from_scaled(ints, den), tuple(word), steps)
        if steps >= max_steps:
            message = f"no standard form within {max_steps} Cremona steps"
            raise StepLimitExceeded(message, steps, DivisorClass.from_scaled(ints, den))
        _act((0,), ints)
        word.append(0)
        steps += 1


def reference_minus_one_certificate(divisor, max_steps=DEFAULT_MAX_STEPS):
    """The (-1)-class test as it was: the filter by `pairing` in Fractions."""
    if not divisor.is_integral():
        raise ValueError(f"integral class required, got {divisor}")
    if pairing(divisor, divisor) != -1 or pairing(divisor, HALF_ANTICANONICAL) != 1:
        return None
    result = reference_to_standard_form(divisor, max_steps)
    if result.standard == REDUCED_EXCEPTIONAL:
        return result.word
    return None


def outcome(call, *args):
    """A call's result, or the type and text of what it raised."""
    try:
        return call(*args)
    except (StepLimitExceeded, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "steps", None), getattr(exc, "last", None)


def descending_runs(low=-3, high=5):
    return [tuple(sorted(c, reverse=True))
            for c in itertools.combinations_with_replacement(range(low, high + 1), 4)]


class TestMergeRuns:
    def test_matches_bubble_sort_on_every_pair_of_runs(self):
        runs = descending_runs()
        assert len(runs) == 495
        for a in runs:
            for b in runs:
                merged, merged_word = [0, *a, *b], []
                _merge_runs(merged, merged_word)
                bubbled, bubbled_word = [0, *a, *b], []
                _sort_descending(bubbled, bubbled_word)
                assert (merged, merged_word) == (bubbled, bubbled_word), (a, b)

    def test_ties_stay_in_place(self):
        ints, word = [0, 2, 1, 1, 1, 1, 1, 0, 0], []
        _merge_runs(ints, word)
        assert ints == [0, 2, 1, 1, 1, 1, 1, 0, 0] and word == []
        ints, word = [0, 1, 1, 1, 0, 2, 1, 1, 1], []
        _merge_runs(ints, word)
        assert ints == [0, 2, 1, 1, 1, 1, 1, 1, 0] and word == [4, 5, 6, 7, 3, 2, 1]

    @given(int_divisors)
    @settings(max_examples=150)
    def test_reduction_matches_the_full_sort(self, d):
        assert outcome(to_standard_form, d, 40) == outcome(reference_to_standard_form, d, 40)

    @given(rational_divisors)
    @settings(max_examples=100)
    def test_rational_reduction_matches_the_full_sort(self, d):
        assert outcome(to_standard_form, d, 40) == outcome(reference_to_standard_form, d, 40)

    def test_deep_classes(self):
        deep = DivisorClass(2066, (1083, 1083, 1082, 1082, 982, 981, 981, 980))
        result = to_standard_form(deep)
        assert result == reference_to_standard_form(deep)
        assert result.steps == 20
        # Deep (-1)-classes: exceptional classes pulled back along that word.
        for e in EXCEPTIONALS:
            pulled = apply_word(inverse_word(result.word), e)
            assert pulled.d > 100
            assert outcome(minus_one_certificate, pulled) == outcome(
                reference_minus_one_certificate, pulled)
            assert outcome(minus_one_certificate, pulled, 5) == outcome(
                reference_minus_one_certificate, pulled, 5)


class TestMinusOneAgainstReference:
    def test_orbit_to_degree_eight(self):
        for x in exceptional_orbit(8):
            word = minus_one_certificate(x)
            assert word is not None and word == reference_minus_one_certificate(x)
            assert is_minus_one_divisor(x)

    def test_orbit_under_a_small_cap(self):
        for x in exceptional_orbit(6):
            for cap in (0, 1, 2):
                assert outcome(minus_one_certificate, x, cap) == outcome(
                    reference_minus_one_certificate, x, cap)

    def test_near_misses(self):
        # One entry off by one, the negative, and the sum with -K/2 or H.
        checked = 0
        for x in exceptional_orbit(3):
            vector = list(x.vector())
            variants = [-x, x + HALF_ANTICANONICAL, x + H]
            for i, delta in itertools.product(range(9), (-1, 1)):
                near = list(vector)
                near[i] += delta
                variants.append(DivisorClass(near[0], tuple(near[1:])))
            for near in variants:
                expected = outcome(reference_minus_one_certificate, near)
                assert outcome(minus_one_certificate, near) == expected
                assert is_minus_one_divisor(near) == (expected is not None)
                checked += 1
        assert checked == 568 * 21

    def test_rational_and_small_classes(self):
        for x in (DivisorClass("1/2", (0,) * 8), DivisorClass(0, ("-1/3",) + (0,) * 7), MINUS_H,
                  SCRATCH, HALF_ANTICANONICAL, H, DivisorClass(0, (0,) * 8)):
            assert outcome(minus_one_certificate, x) == outcome(reference_minus_one_certificate, x)


class TestCanonicalShape:
    def test_sorts_descending(self):
        shaped = canonical_shape(DivisorClass(2, (0, 1, 2, 1, 1, 1, 1, 0)))
        assert shaped == DivisorClass(2, (2, 1, 1, 1, 1, 1, 0, 0))
