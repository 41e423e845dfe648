import copy
import itertools
import pickle
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blowupcones import lattice
from blowupcones import (
    CANONICAL,
    EXCEPTIONALS,
    H,
    HALF_ANTICANONICAL,
    LINE,
    ROOT_SYSTEM,
    CurveClass,
    DivisorClass,
    RootSystem,
    curve_intersection,
    dq_numbers,
    exceptional,
    exceptional_line,
    line_between,
    pairing,
)

from conftest import curves, int_divisors, rational_divisors, small_rationals


class TestPairing:
    def test_hyperplane(self):
        assert pairing(H, H) == 2

    def test_exceptionals(self):
        for i, ei in enumerate(EXCEPTIONALS):
            for j, ej in enumerate(EXCEPTIONALS):
                assert pairing(ei, ej) == (-1 if i == j else 0)
            assert pairing(H, ei) == 0

    def test_half_anticanonical_isotropic(self):
        assert pairing(HALF_ANTICANONICAL, HALF_ANTICANONICAL) == 0

    def test_explicit_value(self):
        d = DivisorClass(3, (2, 1, 1, 1, 1, 1, 1, 1))
        assert pairing(d, d) == 7

    @given(rational_divisors, rational_divisors)
    def test_symmetric(self, a, b):
        assert pairing(a, b) == pairing(b, a)

    @given(rational_divisors, rational_divisors, rational_divisors, small_rationals)
    def test_bilinear(self, a, b, c, t):
        assert pairing(a + t * b, c) == pairing(a, c) + t * pairing(b, c)


class TestCurveIntersection:
    def test_half_anticanonical_on_lines(self):
        for i, j in itertools.combinations(range(1, 9), 2):
            assert curve_intersection(HALF_ANTICANONICAL, line_between(i, j)) == 0

    def test_exceptional_self(self):
        assert curve_intersection(EXCEPTIONALS[7], exceptional_line(8)) == -1

    def test_plane_meets_exceptional_line(self):
        plane = DivisorClass(1, (1, 0, 0, 0, 0, 0, 0, 0))
        assert curve_intersection(plane, exceptional_line(1)) == 1

    @given(rational_divisors)
    def test_matches_pairing_with_exceptional(self, d):
        # D.e_i equals both m_i and the lattice pairing (D, E_i).
        for i in range(8):
            value = curve_intersection(d, exceptional_line(i + 1))
            assert value == d.m[i] == pairing(d, EXCEPTIONALS[i])

    @given(rational_divisors)
    def test_line_formula(self, d):
        for i, j in ((1, 2), (3, 8)):
            assert curve_intersection(d, line_between(i, j)) == d.d - d.m[i - 1] - d.m[j - 1]


class TestDqNumbers:
    def test_exceptional(self):
        assert dq_numbers(EXCEPTIONALS[7]) == (-1, 1)

    def test_half_anticanonical(self):
        assert dq_numbers(HALF_ANTICANONICAL) == (0, 0)

    def test_degree_one_orbit_class(self):
        assert dq_numbers(DivisorClass(1, (1, 1, 1, 0, 0, 0, 0, 0))) == (-1, 1)

    def test_identity_on_grid(self):
        tails = ((0,) * 6, (3, -3, 1, -1, 2, -2))
        for d, m1, m2 in itertools.product(range(-3, 4), repeat=3):
            for tail in tails:
                cls = DivisorClass(d, (m1, m2) + tail)
                assert dq_numbers(cls) == (
                    pairing(cls, cls),
                    pairing(cls, HALF_ANTICANONICAL),
                )

    @given(rational_divisors)
    def test_identity_random(self, d):
        assert dq_numbers(d) == (pairing(d, d), pairing(d, HALF_ANTICANONICAL))


class TestRootSystem:
    def test_gram_diagonal(self):
        for alpha in ROOT_SYSTEM.roots:
            assert pairing(alpha, alpha) == -2

    def test_gram_off_diagonal(self):
        for i, alpha in enumerate(ROOT_SYSTEM.roots):
            for j, beta in enumerate(ROOT_SYSTEM.roots):
                if i != j:
                    assert pairing(alpha, beta) in (0, 1)

    def test_weights_dual_to_roots(self):
        for i, weight in enumerate(ROOT_SYSTEM.weights):
            for j, alpha in enumerate(ROOT_SYSTEM.roots):
                assert pairing(weight, alpha) == (1 if i == j else 0)

    def test_canonical_orthogonal_to_roots(self):
        for alpha in ROOT_SYSTEM.roots:
            assert pairing(CANONICAL, alpha) == 0

    def test_diagram_shape(self):
        # One path 1-2-...-7 with the extra node 0 attached at node 4.
        edges = {
            (i, j)
            for i in range(8)
            for j in range(i + 1, 8)
            if pairing(ROOT_SYSTEM.roots[i], ROOT_SYSTEM.roots[j]) == 1
        }
        expected = {(i, i + 1) for i in range(1, 7)} | {(0, 4)}
        assert edges == expected

    def test_construction_checks_run(self):
        assert RootSystem.standard() == ROOT_SYSTEM

    @pytest.mark.parametrize(
        "field, index, value, message",
        [
            ("roots", 0, DivisorClass(0, (0, 0, -1, 2, 0, 0, 0, 0)),
             "root 0 has self-pairing -5, want -2"),
            ("roots", 0, DivisorClass(Fraction(1, 2), (Fraction(1, 2),) + (0,) * 7),
             "root 0 has self-pairing 1/4, want -2"),
            ("roots", 0, DivisorClass(0, (1, 1, 0, 0, 0, 0, 0, 0)),
             "root 0 is not orthogonal to the canonical class"),
            ("roots", 1, DivisorClass(0, (1, -1, 0, 0, 0, 0, 0, 0)),
             "roots 1,2 pair to -1, want 0 or 1"),
            ("roots", 7, DivisorClass(0, (-1, 0, 0, 0, 0, 0, 0, 1)),
             "roots 1,7 pair to -1, want 0 or 1"),
            ("weights", 2, DivisorClass(Fraction(3, 2), (1, 1, 0, 0, 0, 0, 0, 0)),
             "(f_2, alpha_0) = 1, want 0"),
            ("weights", 0, DivisorClass(Fraction(1, 2), (Fraction(1, 2),) + (0,) * 7),
             "(f_0, alpha_0) = 1/2, want 1"),
        ],
    )
    def test_tampered_system_raises(self, field, index, value, message):
        # The integer check raises the message the Fraction pairings gave.
        parts = {"roots": list(ROOT_SYSTEM.roots), "weights": list(ROOT_SYSTEM.weights)}
        parts[field][index] = value
        system = RootSystem(tuple(parts["roots"]), tuple(parts["weights"]))
        with pytest.raises(ValueError) as raised:
            system._check_gram()
        assert str(raised.value) == message


class TestDivisorClassBasics:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            DivisorClass(1, (0,) * 7)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            DivisorClass(1.5, (0,) * 8)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            H.d = Fraction(2)

    def test_equality_is_exact(self):
        assert DivisorClass(Fraction(2, 1), (Fraction(1),) * 8) == HALF_ANTICANONICAL
        assert DivisorClass(2, (1, 1, 1, 1, 1, 1, 1, 0)) != HALF_ANTICANONICAL

    def test_arithmetic(self):
        assert H + H == DivisorClass(2, (0,) * 8)
        assert 2 * HALF_ANTICANONICAL - HALF_ANTICANONICAL == HALF_ANTICANONICAL
        assert -CANONICAL == DivisorClass(4, (2,) * 8)
        assert Fraction(-1, 2) * CANONICAL == HALF_ANTICANONICAL

    def test_vector(self):
        vec = CANONICAL.vector()
        assert vec == (-4,) + (-2,) * 8
        assert DivisorClass(vec[0], vec[1:]) == CANONICAL

    def test_exceptional_bounds(self):
        with pytest.raises(ValueError):
            exceptional(0)
        with pytest.raises(ValueError):
            exceptional(9)

    def test_scaled_frame(self):
        divisor = DivisorClass.parse("3/2;1/3,0,-5/6,1,0,0,0,2")
        assert divisor.scaled() == ([9, 2, 0, -5, 6, 0, 0, 0, 12], 6)
        assert HALF_ANTICANONICAL.scaled() == ([2] + [1] * 8, 1)

    @given(rational_divisors)
    def test_from_scaled_round_trip(self, divisor):
        ints, den = divisor.scaled()
        assert all(type(x) is int for x in ints) and den >= 1
        assert [x * den for x in divisor.vector()] == ints
        assert DivisorClass.from_scaled(ints, den) == divisor


class TestCurveClassBasics:
    def test_line_between_normalizes(self):
        assert line_between(5, 2) == line_between(2, 5)
        with pytest.raises(ValueError):
            line_between(3, 3)

    def test_multiplicities(self):
        assert line_between(1, 2).multiplicities() == (1, 1, 0, 0, 0, 0, 0, 0)
        assert LINE.multiplicities() == (0,) * 8

    def test_integer_only(self):
        with pytest.raises(TypeError):
            CurveClass(Fraction(1, 2), (0,) * 8)

    def test_scaled_frame(self):
        curve = line_between(1, 2)
        assert curve.scaled() == ([1, -1, -1, 0, 0, 0, 0, 0, 0], 1)
        assert CurveClass.from_scaled(*curve.scaled()) == curve
        with pytest.raises(ValueError):
            CurveClass.from_scaled([1] * 9, 2)

    def test_repr_and_str(self):
        curve = line_between(1, 2)
        assert repr(curve) == "CurveClass(a=1, c=(-1, -1, 0, 0, 0, 0, 0, 0))"
        assert str(curve) == "1;-1,-1,0,0,0,0,0,0"

    @given(curves)
    def test_hash_is_that_of_the_coefficients(self, curve):
        assert hash(curve) == hash((curve.a, curve.c))

    def test_equality(self):
        curve = line_between(1, 2)
        assert curve == CurveClass(1, [-1, -1, 0, 0, 0, 0, 0, 0])
        assert curve != line_between(1, 3) and not curve == line_between(1, 3)
        # A divisor with the same ints is another kind of class, never equal.
        divisor = DivisorClass(1, (-1, -1, 0, 0, 0, 0, 0, 0))
        assert curve != divisor and not curve == divisor
        assert divisor != curve and not divisor == curve

    def test_arithmetic(self):
        curve = line_between(1, 2)
        assert curve + exceptional_line(1) == CurveClass(1, (0, -1, 0, 0, 0, 0, 0, 0))
        assert curve - curve == CurveClass(0, (0,) * 8)
        assert -curve == CurveClass(-1, (1, 1, 0, 0, 0, 0, 0, 0))
        assert 3 * curve == curve * 3 == curve + curve + curve
        with pytest.raises(TypeError):
            curve * True
        with pytest.raises(TypeError):
            curve + H

    @given(curves)
    def test_copy_and_pickle_keep_the_class(self, curve):
        for twin in (copy.copy(curve), copy.deepcopy(curve), pickle.loads(pickle.dumps(curve))):
            assert type(twin) is CurveClass and twin == curve and hash(twin) == hash(curve)
            assert str(twin) == str(curve)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            LINE.a = 2
        with pytest.raises(FrozenInstanceError):
            LINE.c = (0,) * 8
        with pytest.raises(FrozenInstanceError):
            del LINE.a
        assert LINE == CurveClass(1, (0,) * 8)

    @pytest.mark.parametrize(
        "a, c",
        [(True, (0,) * 8), (1.0, (0,) * 8), (1, (False,) + (0,) * 7), (1, (0.0,) * 8)],
    )
    def test_bool_and_float_refused(self, a, c):
        with pytest.raises(TypeError):
            CurveClass(a, c)


class TestTextForms:
    @pytest.mark.parametrize(
        "text",
        [
            "3;2,2,2,2,1,1,1,0",
            "0;0,0,0,0,0,0,0,-1",
            "1/2;1/2,0,0,0,0,0,0,0",
            "-4;-2,-2,-2,-2,-2,-2,-2,-2",
        ],
    )
    def test_divisor_round_trip(self, text):
        assert str(DivisorClass.parse(text)) == text

    @given(rational_divisors)
    def test_divisor_round_trip_random(self, d):
        assert DivisorClass.parse(str(d)) == d

    @pytest.mark.parametrize("text", ["1;-1,-1,0,0,0,0,0,0", "0;1,0,0,0,0,0,0,0"])
    def test_curve_round_trip(self, text):
        assert str(CurveClass.parse(text)) == text

    @pytest.mark.parametrize(
        "text",
        ["", "1,2,3", "1;2,3", "1;a,0,0,0,0,0,0,0", "1;1,1,1,1,1,1,1,1,1", "1;1/0,0,0,0,0,0,0,0"],
    )
    def test_divisor_parse_errors(self, text):
        with pytest.raises(ValueError):
            DivisorClass.parse(text)

    def test_curve_must_be_integral(self):
        with pytest.raises(ValueError):
            CurveClass.parse("1/2;0,0,0,0,0,0,0,0")


def reference_entry(text):
    """An entry through Fraction(), except exponent notation, which is refused."""
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not accepted: {text!r}")
    return Fraction(text)


def reference_parse_vector(text, width=8):
    """The class parser as it was: every entry through Fraction(), exponents refused."""
    head, sep, tail = text.strip().partition(";")
    if not sep:
        raise ValueError(f"missing ';' separator in class {text!r}")
    try:
        lead = reference_entry(head.strip())
        rest = tuple(reference_entry(part.strip()) for part in tail.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse class {text!r}: {exc}") from None
    if len(rest) != width:
        raise ValueError(f"expected {width} entries after ';' in {text!r}, got {len(rest)}")
    return lead, rest


def parsed(parse, text):
    """The parsed class with the type of every entry, or the error's type and text."""
    try:
        divisor = parse(text)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return divisor, [type(x) for x in divisor.vector()]


def reference_parse(text):
    return DivisorClass(*reference_parse_vector(text))


class TestIntegerLiterals:
    # Integer literals parse through int(); values and error texts must not move.
    ENTRIES = ["-0", "05", " 7 ", "+3", "1_0", "--5", "-", "1/0", "²", "0", "-12", "3/6",
               "-4/2", "1.5", "", " ", "٣", "-٣", "1e3", "0x10", "9" * 60, "-" + "9" * 60]

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_matches_fraction_parsing(self, entry):
        for text in (f"{entry};0,0,0,0,0,0,0,0", f"1;0,0,0,{entry},0,0,0,0",
                     f"{entry};{entry},{entry},{entry},{entry},{entry},{entry},{entry},{entry}"):
            assert parsed(DivisorClass.parse, text) == parsed(reference_parse, text)

    def test_error_texts(self):
        assert parsed(DivisorClass.parse, "--5;0,0,0,0,0,0,0,0")[1] == (
            "cannot parse class '--5;0,0,0,0,0,0,0,0': Invalid literal for Fraction: '--5'")
        assert parsed(DivisorClass.parse, "1;1/0,0,0,0,0,0,0,0")[1] == (
            "cannot parse class '1;1/0,0,0,0,0,0,0,0': Fraction(1, 0)")
        assert parsed(DivisorClass.parse, "1;0,1E3,0,0,0,0,0,0")[1] == (
            "cannot parse class '1;0,1E3,0,0,0,0,0,0': exponent notation is not accepted: '1E3'")

    @pytest.mark.parametrize("entry", ["1e10000000", "-2.5E100000000", "1/1e9", "1.5e0"])
    def test_exponent_notation_refused_at_once(self, entry):
        # Fraction() would build 10^exponent: seconds, and more, for a short text.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent notation is not accepted"):
            DivisorClass.parse(f"{entry};0,0,0,0,0,0,0,0")
        assert time.perf_counter() - start < 1

    @given(rational_divisors)
    def test_random_classes(self, d):
        assert parsed(DivisorClass.parse, str(d)) == parsed(reference_parse, str(d))

    @pytest.mark.parametrize("text", ["1;-1,-1,0,0,0,0,0,0", "-0;05,+3,1_0,0,0,0,0,0"])
    def test_curves(self, text):
        curve = CurveClass.parse(text)
        a, c = reference_parse_vector(text)
        assert curve == CurveClass(int(a), tuple(int(x) for x in c))
        assert all(type(x) is int for x in (curve.a, *curve.c))

    def test_fractions_pass_through(self):
        half = Fraction(1, 2)
        divisor = DivisorClass(half, (half,) * 8)
        assert divisor.d == half and type(divisor.d) is Fraction

    @pytest.mark.parametrize("entry", ["1e1000000", "-2.5E100000000", "1/1e9"])
    def test_constructor_refuses_exponent_text_at_once(self, entry):
        # A text entry is read as parse reads it, not by Fraction() alone.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent notation is not accepted"):
            DivisorClass(entry, (0,) * 8)
        with pytest.raises(ValueError, match="exponent notation is not accepted"):
            DivisorClass(0, (0,) * 7 + (entry,))
        assert time.perf_counter() - start < 1

    def test_constructor_reads_text_entries(self):
        three_halves = DivisorClass(Fraction(3, 2), (Fraction(3, 2),) + (0,) * 7)
        assert DivisorClass("3/2", ("3/2",) + (0,) * 7) == three_halves
        expected = DivisorClass(-7, (Fraction(3, 2),) + (0,) * 7)
        assert DivisorClass(" -7 ", ("1.5",) + ("0",) * 7) == expected


def _int_limit_message(digits):
    """int()'s own error on so many digits, or None where the interpreter has no such limit."""
    try:
        int("9" * digits)
    except ValueError as exc:
        return str(exc)
    return None


def _outcome(parse, text):
    """The parsed class, or the error's type and text."""
    try:
        return parse(text)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


canonical_entries = st.from_regex(r"-?[0-9]{1,25}", fullmatch=True)


class TestIntegerFastPath:
    """Canonical integer text is read by int() alone; every text parses as it did before."""

    ZERO = (0,) * 8
    # text -> (d, m) of the class both parsers give, or the error both raise.
    TABLE = [
        ("+3;0,0,0,0,0,0,0,0", (3, ZERO)),
        (" 3;0,0,0,0,0,0,0,0", (3, ZERO)),
        ("3 ;0,0,0,0,0,0,0,0", (3, ZERO)),
        ("1;0, 3,0,0,0,0,0,0", (1, (0, 3, 0, 0, 0, 0, 0, 0))),
        ("1;0,0,0,1_0,0,0,0,0", (1, (0, 0, 0, 10, 0, 0, 0, 0))),
        ("\u0663;0,0,0,0,0,0,0,0", (3, ZERO)),
        ("1;0,0,0,-\u0663,0,0,0,0", (1, (0, 0, 0, -3, 0, 0, 0, 0))),
        ("1;0,0,0,007,0,0,0,0", (1, (0, 0, 0, 7, 0, 0, 0, 0))),
        ("-0;0,0,0,0,0,0,0,-0", (0, ZERO)),
        ("3/1;0,0,0,0,0,0,0,0", (3, ZERO)),
        ("1;0,0,0,3/1,0,0,0,0", (1, (0, 0, 0, 3, 0, 0, 0, 0))),
        ("1;0,0,0,0,0,0,0,0\n", (1, ZERO)),
        ("1;0,0,0,--3,0,0,0,0",
         (ValueError, "cannot parse class '1;0,0,0,--3,0,0,0,0': Invalid literal for Fraction: '--3'")),
        ("1;0,0,0,,0,0,0,0",
         (ValueError, "cannot parse class '1;0,0,0,,0,0,0,0': Invalid literal for Fraction: ''")),
        ("1;0,0,0,0,0,0,0,0,",
         (ValueError, "cannot parse class '1;0,0,0,0,0,0,0,0,': Invalid literal for Fraction: ''")),
        ("1;0,0,0,0,0,0,0",
         (ValueError, "expected 8 entries after ';' in '1;0,0,0,0,0,0,0', got 7")),
        ("1;0,0,0,0,0,0,0,0,0",
         (ValueError, "expected 8 entries after ';' in '1;0,0,0,0,0,0,0,0,0', got 9")),
        ("1,0,0,0,0,0,0,0,0",
         (ValueError, "missing ';' separator in class '1,0,0,0,0,0,0,0,0'")),
    ]

    @pytest.mark.parametrize("text, expected", TABLE)
    def test_divisor_table(self, text, expected):
        if type(expected[0]) is int:
            expected = DivisorClass(expected[0], expected[1])
        assert _outcome(DivisorClass.parse, text) == expected

    @pytest.mark.parametrize("text, expected", TABLE)
    def test_curve_table(self, text, expected):
        if type(expected[0]) is int:
            expected = CurveClass(expected[0], expected[1])
        assert _outcome(CurveClass.parse, text) == expected

    def test_curve_rejects_a_fraction(self):
        text = "1;0,0,0,1/2,0,0,0,0"
        assert _outcome(CurveClass.parse, text) == (
            ValueError, "curve classes must be integral: '1;0,0,0,1/2,0,0,0,0'")

    @pytest.mark.parametrize("parse", [DivisorClass.parse, CurveClass.parse])
    def test_entry_past_the_digit_limit(self, parse):
        # Canonical text int() refuses gets the general path's wrapped error.
        text = f"1;0,0,0,{'9' * 5000},0,0,0,0"
        message = _int_limit_message(5000)
        if message is None:
            assert parse(text) == parse(" " + text)
        else:
            assert _outcome(parse, text) == (ValueError, f"cannot parse class {text!r}: {message}")

    @given(st.one_of(int_divisors, rational_divisors))
    def test_round_trip_keeps_frame_and_hash(self, divisor):
        parsed = DivisorClass.parse(str(divisor))
        assert parsed == divisor
        assert parsed.scaled() == divisor.scaled() and hash(parsed) == hash(divisor)

    @given(st.lists(canonical_entries, min_size=9, max_size=9))
    def test_fast_and_general_paths_agree(self, entries):
        text = f"{entries[0]};{','.join(entries[1:])}"
        fast, canonical = lattice._parse_vector(text)
        general, padded = lattice._parse_vector(f" {text}")  # a space leaves the fast path
        assert canonical and not padded
        assert fast == general and all(type(x) is int for x in fast + general)
        divisor = DivisorClass.parse(text)
        assert divisor == DivisorClass.parse(f" {text}") == reference_parse(text)
        assert divisor.scaled() == (fast, 1) and hash(divisor) == hash(reference_parse(text))
        assert CurveClass.parse(text) == CurveClass.parse(f" {text}")


class TestFrame:
    """A class is stored as its canonical integer frame; d and m are views of it."""

    @given(rational_divisors, st.integers(1, 5))
    def test_any_multiple_of_the_frame_is_the_same_class(self, divisor, k):
        ints, den = divisor.scaled()
        same = DivisorClass.from_scaled([k * x for x in ints], k * den)
        assert same == divisor and hash(same) == hash(divisor)
        assert same.scaled() == (ints, den)

    @given(rational_divisors)
    def test_hash_is_that_of_the_coefficients(self, divisor):
        assert hash(divisor) == hash((divisor.d, divisor.m))

    @given(int_divisors)
    def test_integral_hash_is_that_of_the_ints(self, divisor):
        ints, den = divisor.scaled()
        assert den == 1 and hash(divisor) == hash((ints[0], tuple(ints[1:])))

    @given(rational_divisors)
    def test_text_round_trip(self, divisor):
        assert str(DivisorClass.parse(str(divisor))) == str(divisor)

    @given(rational_divisors)
    def test_scaled_list_is_a_copy(self, divisor):
        text, before = str(divisor), divisor.scaled()
        ints, _ = divisor.scaled()
        ints[0] += 1
        ints.append(0)
        assert divisor.scaled() == before and str(divisor) == text

    @given(rational_divisors)
    def test_views_are_fractions(self, divisor):
        assert type(divisor.d) is Fraction
        assert len(divisor.m) == 8 and all(type(x) is Fraction for x in divisor.m)
        assert divisor.vector() == (divisor.d, *divisor.m)

    @given(rational_divisors)
    def test_copy_and_pickle_keep_the_class(self, divisor):
        assert copy.deepcopy(divisor) == divisor
        assert pickle.loads(pickle.dumps(divisor)) == divisor

    def test_frame_is_reduced(self):
        divisor = DivisorClass.from_scaled([6, 3, 0, 0, 0, 0, 0, 0, -9], 6)
        assert divisor.scaled() == ([2, 1, 0, 0, 0, 0, 0, 0, -3], 2)
        assert str(divisor) == "1;1/2,0,0,0,0,0,0,-3/2"
        assert DivisorClass.from_scaled([0] * 9, 7).scaled() == ([0] * 9, 1)

    def test_frozen_against_deletion(self):
        with pytest.raises(FrozenInstanceError):
            del H.d
