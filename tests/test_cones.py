import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowupcones import (
    EXCEPTIONALS,
    H,
    HALF_ANTICANONICAL,
    Certificate,
    CertificateError,
    CurveClass,
    DivisorClass,
    NotEffective,
    NotInCurveCone,
    NotMovable,
    NotNef,
    StepLimitExceeded,
    accumulation_report,
    apply_word,
    curve_decompose,
    curve_generators,
    curve_intersection,
    effective_decompose,
    exceptional_line,
    exceptional_orbit,
    is_minus_one_divisor,
    is_nef,
    is_standard_form,
    line_between,
    movable_decompose,
    nef_decompose,
    nef_generators,
    pairing,
    pi_generators,
    ray_distance,
)
from blowupcones.cones import (
    _CUBICS,
    _EXPANSIONS,
    _PIECES,
    _QUADRICS,
    CONE_TAGS,
    _generator_allowed,
    _pi_split,
    _three_point_decompose,
)
from blowupcones import cones, weyl
from blowupcones.cli import main
from blowupcones.weyl import (
    DEFAULT_MAX_STEPS,
    _DegreeWentNegative,
    _reduce,
    inverse_word,
    minus_one_certificate,
)

from conftest import curves, int_divisors, rational_divisors, words

MINUS_H = DivisorClass(-1, (0,) * 8)


def terms_as_dict(certificate):
    return {generator: coefficient for generator, coefficient in certificate.terms}


def effective(divisor):
    try:
        effective_decompose(divisor)
        return True
    except NotEffective:
        return False


def movable(divisor):
    try:
        movable_decompose(divisor)
        return True
    except NotMovable:
        return False


class TestGeneratorSets:
    def test_counts(self):
        assert len(curve_generators()) == 36
        assert len(nef_generators()) == 228
        assert len(pi_generators()) == 17

    def test_standard_passes_invariants(self):
        assert len(nef_generators()) == 228
        for curve in curve_generators():
            assert curve_intersection(H, curve) >= 0
        for generator in pi_generators():
            assert is_nef(generator)[0] or movable_decompose(generator).cone == "mov"

    def test_all_nef_generators_are_nef(self):
        for generator in nef_generators():
            assert is_nef(generator)[0]


class TestCurveDecompose:
    def test_two_lines(self):
        curve = CurveClass(2, (-1, -1, -1, -1, 0, 0, 0, 0))
        cert = curve_decompose(curve)
        assert terms_as_dict(cert) == {
            line_between(1, 2): 1,
            line_between(3, 4): 1,
        }

    def test_single_exceptional_line(self):
        cert = curve_decompose(exceptional_line(3))
        assert terms_as_dict(cert) == {exceptional_line(3): 1}

    def test_general_line(self):
        cert = curve_decompose(CurveClass(1, (0,) * 8))
        assert terms_as_dict(cert) == {
            exceptional_line(1): 1,
            exceptional_line(2): 1,
            line_between(1, 2): 1,
        }

    def test_single_positive_multiplicity(self):
        curve = CurveClass(3, (-2, 0, 0, 0, 0, 0, 0, 0))
        cert = curve_decompose(curve)
        assert terms_as_dict(cert) == {
            exceptional_line(1): 1,
            exceptional_line(2): 3,
            line_between(1, 2): 3,
        }

    def test_zero_curve(self):
        cert = curve_decompose(CurveClass(0, (0,) * 8))
        assert cert.terms == ()

    @pytest.mark.parametrize(
        "curve, witness",
        [
            # Each id names the membership inequality the curve violates.
            pytest.param(CurveClass(-1, (0,) * 8), H, id="curve0-a >= 0"),
            pytest.param(CurveClass(1, (-2, 0, 0, 0, 0, 0, 0, 0)),
                         DivisorClass(1, (1, 0, 0, 0, 0, 0, 0, 0)), id="curve1-a >= b_i"),
            pytest.param(CurveClass(2, (-1, -1, -1, -1, -1, 0, 0, 0)),
                         DivisorClass(2, (1, 1, 1, 1, 1, 0, 0, 0)), id="curve3-2a >= sum(b_i)"),
            pytest.param(CurveClass(0, (-1, 0, 0, 0, 0, 0, 0, 0)),
                         DivisorClass(1, (1, 0, 0, 0, 0, 0, 0, 0)), id="curve4-a >= b_i"),
        ],
    )
    def test_hypothesis_violations(self, curve, witness, monkeypatch):
        # The refusal carries the value its int search computed: no Fraction
        # intersection is recomputed for the message.
        def refuse(*args):
            raise AssertionError("curve_intersection called")

        monkeypatch.setattr(cones, "curve_intersection", refuse)
        with pytest.raises(NotInCurveCone) as info:
            curve_decompose(curve)
        assert info.value.witness == witness
        value = curve_intersection(witness, curve)
        assert info.value.value == value
        assert str(info.value) == f"{curve} is not in the curves cone: meets {witness} in {value}"

    def test_negative_exceptional_multiplicity_is_a_member(self):
        # Members with some c_i > 0: h + e_1 and (h-e_1-e_2) + e_3.
        cert = curve_decompose(CurveClass(1, (1, 0, 0, 0, 0, 0, 0, 0)))
        assert terms_as_dict(cert) == {
            exceptional_line(1): 2,
            exceptional_line(2): 1,
            line_between(1, 2): 1,
        }
        cert = curve_decompose(CurveClass(1, (-1, -1, 1, 0, 0, 0, 0, 0)))
        assert terms_as_dict(cert) == {exceptional_line(3): 1, line_between(1, 2): 1}

    def test_high_degree_takes_lines_in_bulk(self):
        curve = CurveClass(10**6, (-(5 * 10**5),) * 4 + (0,) * 4)
        cert = curve_decompose(curve)
        assert terms_as_dict(cert) == {line_between(1, 2): 5 * 10**5, line_between(3, 4): 5 * 10**5}

    @given(st.lists(st.integers(0, 5), min_size=36, max_size=36))
    @settings(max_examples=80)
    def test_resummation_on_valid_region(self, coefficients):
        curve = sum((k * g for k, g in zip(coefficients, curve_generators())),
                    CurveClass(0, (0,) * 8))
        cert = curve_decompose(curve)
        total = CurveClass(0, (0,) * 8)
        for generator, coefficient in cert.terms:
            assert generator in curve_generators() and coefficient > 0
            total = total + int(coefficient) * generator
        assert total == curve


def _combination(generators, coefficients):
    total = DivisorClass(0, (0,) * 8)
    for generator, coefficient in zip(generators, coefficients):
        total = total + coefficient * generator
    return total


def nef_combinations():
    gens = nef_generators()
    return st.builds(
        lambda idx, coeffs: _combination([gens[i] for i in idx], coeffs),
        st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=4),
        st.lists(st.integers(0, 3), min_size=4, max_size=4),
    )


def pi_combinations():
    gens = pi_generators()
    return st.builds(
        lambda idx, coeffs: _combination([gens[i] for i in idx], coeffs),
        st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=4),
        st.lists(st.integers(0, 3), min_size=4, max_size=4),
    )


class TestIsNef:
    def test_half_anticanonical(self):
        assert is_nef(HALF_ANTICANONICAL) == (True, None)

    def test_exceptional_witness(self):
        ok, witness = is_nef(EXCEPTIONALS[7])
        assert not ok and witness == exceptional_line(8)

    def test_plane_witness(self):
        ok, witness = is_nef(DivisorClass(1, (1, 1, 0, 0, 0, 0, 0, 0)))
        assert not ok and witness == line_between(1, 2)

    @given(nef_combinations())
    @settings(max_examples=60)
    def test_combinations_are_nef(self, divisor):
        assert is_nef(divisor)[0]


class TestNefDecompose:
    def test_generator_is_its_own_certificate(self):
        quad = DivisorClass(2, (1, 1, 1, 0, 0, 0, 0, 0))
        assert terms_as_dict(nef_decompose(quad)) == {quad: 1}

    def test_half_anticanonical(self):
        assert terms_as_dict(nef_decompose(HALF_ANTICANONICAL)) == {HALF_ANTICANONICAL: 1}

    def test_two_point_quadric_appears(self):
        cert = nef_decompose(DivisorClass(3, (1, 1, 0, 0, 0, 0, 0, 0)))
        assert terms_as_dict(cert) == {
            H: 1,
            DivisorClass(2, (1, 1, 0, 0, 0, 0, 0, 0)): 1,
        }

    def test_unsorted_multiplicities(self):
        divisor = DivisorClass(3, (0, 1, 0, 1, 0, 0, 0, 0))
        cert = nef_decompose(divisor)
        assert cert.resummation() == divisor
        assert terms_as_dict(cert) == {
            H: 1,
            DivisorClass(2, (0, 1, 0, 1, 0, 0, 0, 0)): 1,
        }

    def test_rational_nef_class(self):
        divisor = Fraction(1, 2) * HALF_ANTICANONICAL
        cert = nef_decompose(divisor)
        assert terms_as_dict(cert) == {HALF_ANTICANONICAL: Fraction(1, 2)}

    def test_rejects_non_nef(self):
        with pytest.raises(NotNef):
            nef_decompose(EXCEPTIONALS[0])

    def test_nef_class_meets_no_curve(self, monkeypatch):
        # The construction decides: a nef class is never intersected with a
        # curve generator, while a refused one is, by the witness search.
        calls = []

        def counted(divisor, curve):
            calls.append(curve)
            return curve_intersection(divisor, curve)

        monkeypatch.setattr(cones, "curve_intersection", counted)
        nef_decompose(DivisorClass(Fraction(7, 2), (1, 0, Fraction(3, 2), 1, 0, 0, 1, 0)))
        assert calls == []
        with pytest.raises(NotNef) as info:
            nef_decompose(DivisorClass(1, (0, 0, 1, 1, 0, 0, 0, 0)))
        assert calls[-1] == info.value.witness == line_between(3, 4)
        assert info.value.value == -1

    def test_classify_searches_for_a_witness_once(self, monkeypatch, capsys):
        calls = []
        search = cones._nef_witness

        def counted(divisor):
            calls.append(divisor)
            return search(divisor)

        monkeypatch.setattr(cones, "_nef_witness", counted)
        assert main(["classify", "--format", "json", "3;2,0,1,2,0,0,0,-1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["nef"], record["nef_witness"]) == (False, str(exceptional_line(8)))
        assert len(calls) == 1
        assert main(["classify", "--format", "json", "3;1,0,1,0,0,0,1,0"]) == 0
        assert json.loads(capsys.readouterr().out)["nef"] is True
        assert len(calls) == 1

    def test_search_that_disagrees_is_an_error(self, monkeypatch):
        monkeypatch.setattr(cones, "_nef_witness", lambda divisor: None)
        with pytest.raises(RuntimeError, match="nef inequalities"):
            nef_decompose(EXCEPTIONALS[0])

    @given(nef_combinations())
    @settings(max_examples=60)
    def test_resummation(self, divisor):
        cert = nef_decompose(divisor)
        assert cert.resummation() == divisor


class TestEffectiveDecompose:
    def test_quadric_through_seven_points(self):
        cert = effective_decompose(DivisorClass(2, (1, 1, 1, 1, 1, 1, 1, 0)))
        assert terms_as_dict(cert) == {HALF_ANTICANONICAL: 1, EXCEPTIONALS[7]: 1}

    def test_triple_point_cubic(self):
        cert = effective_decompose(DivisorClass(3, (3, 1, 1, 1, 1, 1, 1, 1)))
        assert terms_as_dict(cert) == {
            DivisorClass(2, (2, 1, 1, 1, 1, 1, 0, 0)): 1,
            DivisorClass(1, (1, 0, 0, 0, 0, 0, 1, 1)): 1,
        }

    def test_exceptional(self):
        cert = effective_decompose(EXCEPTIONALS[4])
        assert terms_as_dict(cert) == {EXCEPTIONALS[4]: 1}

    def test_half_anticanonical(self):
        cert = effective_decompose(HALF_ANTICANONICAL)
        assert terms_as_dict(cert) == {HALF_ANTICANONICAL: 1}

    def test_ray_multiples_use_only_half_anticanonical(self):
        cert = effective_decompose(3 * HALF_ANTICANONICAL)
        assert terms_as_dict(cert) == {HALF_ANTICANONICAL: 3}

    def test_negative_multiplicity_splits_exceptional(self):
        divisor = DivisorClass(1, (1, 1, -1, 0, 0, 0, 0, 0))
        cert = effective_decompose(divisor)
        assert terms_as_dict(cert) == {
            EXCEPTIONALS[2]: 1,
            EXCEPTIONALS[3]: 1,
            DivisorClass(1, (1, 1, 0, 1, 0, 0, 0, 0)): 1,
        }
        assert cert.resummation() == divisor

    def test_all_generators_are_orbit_members(self):
        cert = effective_decompose(DivisorClass(7, (4, 3, 3, 2, 2, 1, 1, 0)))
        for generator, coefficient in cert.terms:
            assert coefficient > 0
            assert generator == HALF_ANTICANONICAL or is_minus_one_divisor(generator)
        assert cert.resummation() == DivisorClass(7, (4, 3, 3, 2, 2, 1, 1, 0))

    @pytest.mark.parametrize(
        "divisor",
        [
            DivisorClass(1, (1, 1, 1, 1, 0, 0, 0, 0)),
            MINUS_H,
            DivisorClass(1, (2, 0, 0, 0, 0, 0, 0, 0)),
            DivisorClass(2, (2, 1, 1, 1, 1, 1, 1, 0)),
        ],
    )
    def test_not_effective(self, divisor):
        with pytest.raises(NotEffective):
            effective_decompose(divisor)

    def test_rational_input_scales(self):
        divisor = Fraction(1, 2) * HALF_ANTICANONICAL
        cert = effective_decompose(divisor)
        assert cert.target == divisor
        assert terms_as_dict(cert) == {HALF_ANTICANONICAL: Fraction(1, 2)}

    def test_step_cap_is_not_a_verdict(self):
        # The class is in the exceptional orbit, two Cremona steps from E_8.
        with pytest.raises(StepLimitExceeded):
            effective_decompose(DivisorClass(3, (2, 2, 2, 2, 1, 1, 1, 0)), max_steps=1)

    def test_perturbation_off_the_isotropic_ray_fails(self):
        # Same pairing with -K/2 as a multiple of it, but not proportional.
        perturbed = DivisorClass(2, (2, 1, 1, 1, 1, 1, 1, 0))
        assert pairing(perturbed, HALF_ANTICANONICAL) == 0
        with pytest.raises(NotEffective):
            effective_decompose(perturbed)

    @given(st.one_of(int_divisors, rational_divisors), words)
    @settings(max_examples=60, deadline=None)
    def test_verdict_weyl_invariant(self, divisor, word):
        assert effective(divisor) == effective(apply_word(word, divisor))

    @given(
        st.lists(st.tuples(st.integers(0, 231), st.integers(1, 3)), min_size=1, max_size=4),
        st.fractions(min_value=0, max_value=4, max_denominator=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_adding_half_anticanonical_keeps_effective(self, picks, k):
        orbit = exceptional_orbit(2)
        divisor = _combination([orbit[i] for i, _ in picks], [c for _, c in picks])
        shifted = divisor + k * HALF_ANTICANONICAL
        cert = effective_decompose(shifted)
        assert cert.resummation() == shifted

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3)), min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_sign_rule_on_effective_classes(self, picks):
        seed = EXCEPTIONALS + (HALF_ANTICANONICAL,)
        total = DivisorClass(0, (0,) * 8)
        for index, coefficient in picks:
            total = total + coefficient * seed[index]
        cert = effective_decompose(total)
        assert cert.resummation() == total
        assert pairing(total, HALF_ANTICANONICAL) >= 0


class TestMovableDecompose:
    def test_splits_off_largest_quadric(self):
        cert = movable_decompose(DivisorClass(3, (1,) * 8))
        assert terms_as_dict(cert) == {H: 1, HALF_ANTICANONICAL: 1}

    def test_cubic_generator(self):
        cubic = DivisorClass(3, (3, 1, 1, 1, 0, 0, 0, 0))
        cert = movable_decompose(cubic)
        assert terms_as_dict(cert) == {cubic: 1}

    def test_plane_through_three_points_not_movable(self):
        with pytest.raises(NotMovable) as info:
            movable_decompose(DivisorClass(1, (1, 1, 1, 0, 0, 0, 0, 0)))
        assert info.value.reduced == EXCEPTIONALS[7]

    def test_each_pi_generator_is_its_own_certificate(self):
        for generator in pi_generators():
            cert = movable_decompose(generator)
            assert terms_as_dict(cert) == {generator: 1}
            assert cert.word == ()

    def test_rational_input_scales(self):
        cert = movable_decompose(Fraction(1, 2) * DivisorClass(3, (1,) * 8))
        assert terms_as_dict(cert) == {
            H: Fraction(1, 2),
            HALF_ANTICANONICAL: Fraction(1, 2),
        }

    def test_word_reduces_target(self):
        shuffled = apply_word((3, 0, 5), DivisorClass(3, (1,) * 8))
        cert = movable_decompose(shuffled)
        assert cert.resummation() == apply_word(cert.word, shuffled)
        for generator, _ in cert.terms:
            assert generator in pi_generators()

    def test_three_point_induction(self):
        divisor = DivisorClass(5, (4, 3, 2, 0, 0, 0, 0, 0))
        cert = movable_decompose(divisor)
        assert cert.resummation() == divisor

    def test_degree_floor_reports_not_movable(self):
        with pytest.raises(NotMovable):
            movable_decompose(MINUS_H)

    def test_step_cap_is_not_a_verdict(self):
        with pytest.raises(StepLimitExceeded):
            movable_decompose(DivisorClass(3, (2, 2, 2, 2, 1, 1, 1, 0)), max_steps=1)

    @given(pi_combinations())
    @settings(max_examples=60, deadline=None)
    def test_resummation(self, divisor):
        cert = movable_decompose(divisor)
        assert cert.resummation() == apply_word(cert.word, divisor)

    @given(st.one_of(int_divisors, rational_divisors), words)
    @settings(max_examples=60, deadline=None)
    def test_verdict_weyl_invariant(self, divisor, word):
        assert movable(divisor) == movable(apply_word(word, divisor))

    @given(pi_combinations(), words)
    @settings(max_examples=40, deadline=None)
    def test_members_stay_members(self, divisor, word):
        assert movable(apply_word(word, divisor))


class TestInclusionChain:
    @given(nef_combinations())
    @settings(max_examples=40, deadline=None)
    def test_nef_implies_movable_implies_effective(self, divisor):
        movable_decompose(divisor)
        effective_decompose(divisor)

    @given(pi_combinations())
    @settings(max_examples=40, deadline=None)
    def test_movable_implies_effective(self, divisor):
        effective_decompose(divisor)


class TestRegions:
    def test_half_anticanonical_in_closed_chamber(self):
        assert is_standard_form(HALF_ANTICANONICAL)

    def test_reduced_exceptional_in_closed_chamber(self):
        assert is_standard_form(EXCEPTIONALS[7])

    def test_unsorted_class_not_in_chamber(self):
        assert not is_standard_form(DivisorClass(1, (0, 0, 0, 0, 0, 0, 0, 1)))

    def test_plane_through_one_point_in_chamber(self):
        assert is_standard_form(DivisorClass(1, (1, 0, 0, 0, 0, 0, 0, 0)))

    @given(st.one_of(int_divisors, rational_divisors))
    def test_chamber_is_where_the_roots_pair_non_negatively(self, divisor):
        from blowupcones import ROOT_SYSTEM

        for candidate in (divisor, DivisorClass(divisor.d, sorted(divisor.m, reverse=True))):
            least = min(pairing(candidate, alpha) for alpha in ROOT_SYSTEM.roots)
            assert is_standard_form(candidate) == (least >= 0)


class TestAccumulation:
    def test_degree_zero_distance(self):
        report = dict(accumulation_report(2))
        assert report[0] == Fraction(11, 12)

    def test_maxima_over_shapes_match_every_class(self):
        by_class = tuple(
            (degree, max(map(ray_distance, group)))
            for degree, group in itertools.groupby(exceptional_orbit(9), lambda c: c.d))
        assert accumulation_report(9) == by_class

    def test_distances_positive(self):
        for _, distance in accumulation_report(4):
            assert distance > 0

    def test_proportional_class_would_be_zero(self):
        assert ray_distance(3 * HALF_ANTICANONICAL) == 0
        assert ray_distance(HALF_ANTICANONICAL) == 0

    def test_zero_class_rejected(self):
        with pytest.raises(ValueError):
            ray_distance(DivisorClass(0, (0,) * 8))

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            accumulation_report(1)


class TestCertificateSerialization:
    def test_round_trip(self):
        cert = effective_decompose(DivisorClass(3, (3, 1, 1, 1, 1, 1, 1, 1)))
        parsed = Certificate.from_json(cert.to_json())
        assert parsed == cert
        parsed.check()

    def test_curve_round_trip(self):
        cert = curve_decompose(CurveClass(2, (-1, -1, -1, -1, 0, 0, 0, 0)))
        parsed = Certificate.from_json(cert.to_json())
        assert parsed == cert
        parsed.check()

    def test_tampered_coefficient_rejected(self):
        cert = effective_decompose(HALF_ANTICANONICAL)
        data = cert.to_dict()
        data["terms"][0]["coeff"] = "2"
        with pytest.raises(CertificateError):
            Certificate.from_dict(data).check()

    def test_alien_generator_rejected(self):
        data = {
            "cone": "eff",
            "input": "1;0,0,0,0,0,0,0,0",
            "word": [],
            "terms": [{"gen": "1;0,0,0,0,0,0,0,0", "coeff": "1"}],
        }
        with pytest.raises(CertificateError):
            Certificate.from_dict(data).check()

    def test_negative_coefficient_rejected(self):
        data = {
            "cone": "mov",
            "input": "-1;0,0,0,0,0,0,0,0",
            "word": [],
            "terms": [{"gen": "1;0,0,0,0,0,0,0,0", "coeff": "-1"}],
        }
        with pytest.raises(CertificateError):
            Certificate.from_dict(data).check()

    def test_word_letter_out_of_range_rejected(self):
        data = movable_decompose(DivisorClass(3, (1, 1, 3, 1, 1, 1, 1, 1))).to_dict()
        data["word"] = [9]
        with pytest.raises(CertificateError, match="0..7"):
            Certificate.from_dict(data).check()

    def test_non_integral_effective_generator_rejected(self):
        data = {
            "cone": "eff",
            "input": "0;-1/2,0,0,0,0,0,0,0",
            "word": [],
            "terms": [{"gen": "0;-1/2,0,0,0,0,0,0,0", "coeff": "1"}],
        }
        with pytest.raises(CertificateError, match="not a generator"):
            Certificate.from_dict(data).check()

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            Certificate.from_json("{not json")

    def test_unknown_cone_tag_rejected(self):
        cert = Certificate("big", H, (), ((H, Fraction(1)),))
        with pytest.raises(CertificateError, match="unknown cone tag 'big'"):
            cert.check()

    def test_curve_certificate_with_a_word_rejected(self):
        cert = curve_decompose(CurveClass(2, (-1, -1, -1, -1, 0, 0, 0, 0)))
        cert.check()
        worded = Certificate(cert.cone, cert.target, (0,), cert.terms)
        with pytest.raises(CertificateError, match="curve certificates carry no Weyl word"):
            worded.check()

    def test_nef_certificate_with_a_word_rejected(self):
        # s_0 carries (3;2,2,2,2,0^4), which is not nef, to H; the nef cone is
        # not W-invariant, so a nef certificate carries no word.
        target = DivisorClass(3, (2, 2, 2, 2, 0, 0, 0, 0))
        worded = Certificate("nef", target, (0,), ((H, Fraction(1)),))
        assert worded.resummation() == worded.reduced_target()
        for check in (Certificate.check, reference_check):
            with pytest.raises(CertificateError, match="^nef certificates carry no Weyl word$"):
                check(worded)
        with pytest.raises(NotNef):
            nef_decompose(target)
        # eff and mov certificates may carry one.
        Certificate("mov", target, (0,), ((H, Fraction(1)),)).check()
        plane = DivisorClass(1, (1, 1, 1, 0, 0, 0, 0, 0))  # s_0 carries it to E_4
        Certificate("eff", plane, (0,), ((EXCEPTIONALS[3], Fraction(1)),)).check()

    def test_curve_term_in_an_eff_certificate_rejected(self):
        # The curve has the ints of E_8, a generator of Eff, and so sums to the
        # target; only its type refuses it.
        curve = CurveClass.from_scaled(EXCEPTIONALS[7].scaled()[0], 1)
        Certificate("eff", EXCEPTIONALS[7], (), ((EXCEPTIONALS[7], Fraction(1)),)).check()
        cert = Certificate("eff", EXCEPTIONALS[7], (), ((curve, Fraction(1)),))
        with pytest.raises(CertificateError,
                           match=r"^0;0,0,0,0,0,0,0,-1 is not a generator of the eff cone$"):
            cert.check()


class TestCertificateTypes:
    # verify reads certificates written by anyone: word letters must be JSON
    # integers and coefficients strings, or the certificate is malformed.
    def movable_data(self):
        return movable_decompose(DivisorClass(8, (5, 5, 4, 2, 4, 1, 1, 0))).to_dict()

    @pytest.mark.parametrize("word", [[4.9, 0.9], [4.0, 0.0], [True, False], ["4", "0"]])
    def test_word_letters_must_be_ints(self, word):
        data = self.movable_data()
        assert data["word"] == [4, 0]
        with pytest.raises(ValueError, match="malformed certificate: word letter"):
            Certificate.from_dict({**data, "word": word})

    @pytest.mark.parametrize(
        "word", [[4, 0, 1.5, "x"], [0] * 500 + [None, 2.0], [4, "0"], 7, None]
    )
    def test_first_bad_letter_named(self, word):
        # The message of the letter-by-letter check the one scan replaced.
        def letter(value):
            if type(value) is not int:
                raise TypeError(f"word letter {value!r} is not an integer")
            return value

        with pytest.raises(TypeError) as expected:
            tuple(letter(x) for x in word)
        with pytest.raises(ValueError) as got:
            Certificate.from_dict({**self.movable_data(), "word": word})
        assert str(got.value) == f"malformed certificate: {expected.value}"

    @pytest.mark.parametrize("coeff", [1.0, 1, True, None])
    def test_coefficients_must_be_strings(self, coeff):
        data = effective_decompose(HALF_ANTICANONICAL).to_dict()
        data["terms"][0]["coeff"] = coeff
        with pytest.raises(ValueError, match="malformed certificate: coeff"):
            Certificate.from_dict(data)

    @pytest.mark.parametrize("key", ["input", "gen"])
    def test_classes_must_be_strings(self, key):
        data = effective_decompose(HALF_ANTICANONICAL).to_dict()
        if key == "input":
            data["input"] = 5
        else:
            data["terms"][0]["gen"] = [2, 1, 1, 1, 1, 1, 1, 1, 1]
        with pytest.raises(ValueError, match=f"malformed certificate: {key}"):
            Certificate.from_dict(data)

    def test_json_ints_and_strings_still_parse(self):
        data = self.movable_data()
        Certificate.from_dict(data).check()
        Certificate.from_dict({**data, "word": [4, 0]}).check()


# -- the integer re-sum against a reference copy of the Fraction re-sum ------------

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
#: Every certificate the golden corpus hands to `verify`: 52 valid, 32 tampered.
GOLDEN_CERTIFICATES = [
    Certificate.from_json(case["certificate"])
    for case in json.loads(GOLDEN.read_text(encoding="utf-8"))
    if "certificate" in case
]


def reference_check(cert):
    """Certificate.check as it was: the terms re-summed as Fraction classes."""
    if cert.cone not in CONE_TAGS:
        raise CertificateError(f"unknown cone tag {cert.cone!r}")
    if cert.word and (isinstance(cert.target, CurveClass) or cert.cone not in ("eff", "mov")):
        # W preserves the effective and movable cones only.
        kind = "curve" if isinstance(cert.target, CurveClass) else cert.cone
        raise CertificateError(f"{kind} certificates carry no Weyl word")
    for generator, coefficient in cert.terms:
        if coefficient < 0:
            raise CertificateError(f"negative coefficient {coefficient} on {generator}")
        if not _generator_allowed(cert.cone, generator):
            raise CertificateError(f"{generator} is not a generator of the {cert.cone} cone")
    try:
        expected = cert.reduced_target()
    except ValueError as exc:
        raise CertificateError(str(exc)) from None
    total = reference_resummation(cert)
    if total != expected:
        raise CertificateError(f"terms sum to {total}, expected {expected}")


def reference_resummation(cert):
    curve = isinstance(cert.target, CurveClass)
    total = CurveClass(0, (0,) * 8) if curve else DivisorClass(0, (0,) * 8)
    for generator, coefficient in cert.terms:
        if isinstance(generator, CurveClass):
            if coefficient.denominator != 1:
                raise CertificateError(f"curve coefficient {coefficient} is not an integer")
            total = total + generator * int(coefficient)
        else:
            total = total + generator * coefficient
    return total


def check_outcome(check, cert):
    try:
        check(cert)
    except CertificateError as exc:
        return str(exc)
    return "valid"


def one_entry_tamperings(cert):
    # The target with one entry moved, and each term's coefficient moved.
    if isinstance(cert.target, CurveClass):
        vector, deltas = [cert.target.a, *cert.target.c], (1, -1)
    else:
        vector, deltas = list(cert.target.vector()), (1, Fraction(-1, 2))
    for i in range(9):
        for delta in deltas:
            moved = list(vector)
            moved[i] += delta
            target = type(cert.target)(moved[0], tuple(moved[1:]))
            yield Certificate(cert.cone, target, cert.word, cert.terms)
    for k, (generator, coefficient) in enumerate(cert.terms):
        terms = list(cert.terms)
        terms[k] = (generator, coefficient + Fraction(1, 3))
        yield Certificate(cert.cone, cert.target, cert.word, tuple(terms))


class TestIntegerResum:
    def test_golden_certificates(self):
        outcomes = [check_outcome(Certificate.check, cert) for cert in GOLDEN_CERTIFICATES]
        assert outcomes == [check_outcome(reference_check, c) for c in GOLDEN_CERTIFICATES]
        assert len(outcomes) == 84 and outcomes.count("valid") == 52

    def test_golden_resummations(self):
        for cert in GOLDEN_CERTIFICATES:
            assert cert.resummation() == reference_resummation(cert)

    def test_one_entry_tamperings(self):
        checked = 0
        for cert in GOLDEN_CERTIFICATES:
            for tampered in one_entry_tamperings(cert):
                outcome = check_outcome(Certificate.check, tampered)
                assert outcome == check_outcome(reference_check, tampered)
                if outcome.startswith("terms sum to"):
                    checked += 1
        assert checked > 1000

    def test_rational_certificates(self):
        for text in ("1/2;1/2,0,0,0,0,0,0,0", "5/3;2/3,2/3,1/3,1/3,1/3,0,0,-1/3"):
            cert = effective_decompose(DivisorClass.parse(text))
            assert check_outcome(Certificate.check, cert) == "valid"
            for tampered in one_entry_tamperings(cert):
                assert check_outcome(Certificate.check, tampered) == check_outcome(
                    reference_check, tampered)

    def test_curve_coefficient_must_be_an_integer(self):
        cert = curve_decompose(CurveClass(2, (-1, -1, -1, -1, 0, 0, 0, 0)))
        generator, coefficient = cert.terms[0]
        half = Certificate(cert.cone, cert.target, (), ((generator, Fraction(1, 2)),))
        with pytest.raises(CertificateError, match="curve coefficient 1/2 is not an integer"):
            half.check()
        assert check_outcome(Certificate.check, half) == check_outcome(reference_check, half)

    def test_empty_terms(self):
        zero = Certificate("nef", DivisorClass(0, (0,) * 8), (), ())
        zero.check()
        lone = Certificate("nef", H, (), ())
        with pytest.raises(CertificateError, match=r"terms sum to 0;0,0,0,0,0,0,0,0, expected 1;"):
            lone.check()


# -- the shared split against a reference copy of the two routines it replaced -----

REF_DOUBLE_QUADRIC = DivisorClass(2, (2, 1, 1, 1, 1, 1, 0, 0))
REF_CUBIC_COMPLEMENT = DivisorClass(1, (1, 0, 0, 0, 0, 0, 1, 1))
REF_PLANE = DivisorClass(1, (1, 1, 1, 0, 0, 0, 0, 0))


def ref_through(degree, indices):
    m = [0] * 8
    for i in indices:
        m[i - 1] = 1
    return DivisorClass(degree, tuple(m))


def ref_cubic(a):
    return DivisorClass(3, (3,) + (1,) * (a - 1) + (0,) * (8 - a))


def ref_freeze(terms):
    return tuple(
        (generator, coefficient)
        for generator, coefficient in sorted(terms.items(), key=lambda kv: kv[0].vector())
        if coefficient != 0
    )


def ref_peel_cubics(current, add_cubic):
    while current.d < current.m[0] + current.m[3]:
        a = max(i + 1 for i in range(8) if current.m[i] != 0)
        assert a >= 4
        add_cubic(a)
        m = list(current.m)
        m[0] -= 3
        for i in range(1, a):
            m[i] -= 1
        current = DivisorClass(current.d - 3, tuple(m))
    return current


def ref_expand_standard(current, add):
    m = list(current.m) + [Fraction(0)]
    m4 = m[3]
    add(REF_PLANE, current.d - 2 * m4)
    for i in range(3):
        add(EXCEPTIONALS[i], current.d - m4 - m[i])
    for k in range(4, 9):
        coefficient = m[k - 1] - m[k]
        if not coefficient:
            continue
        if k == 8:
            add(HALF_ANTICANONICAL, coefficient)
        elif k == 7:
            add(HALF_ANTICANONICAL, coefficient)
            add(EXCEPTIONALS[7], coefficient)
        else:
            add(REF_DOUBLE_QUADRIC, coefficient)
            add(EXCEPTIONALS[0], coefficient)
            for j in range(k, 6):
                add(EXCEPTIONALS[j], coefficient)


def ref_effective_decompose(divisor, max_steps=DEFAULT_MAX_STEPS):
    """effective_decompose as it was: peel loop, Fraction closures, a pull-back per add."""
    ints, scale = divisor.scaled()
    terms = {}
    word_acc = []

    def add(generator, coefficient):
        coefficient = Fraction(coefficient, scale)
        if coefficient:
            pulled = apply_word(inverse_word(word_acc), generator)
            terms[pulled] = terms.get(pulled, Fraction(0)) + coefficient

    while True:
        try:
            result = _reduce(ints, 1, max_steps, nonnegative=True)
        except _DegreeWentNegative as floor:
            raise NotEffective(
                f"degree became negative under reduction (reached {floor.last})", floor.last
            ) from None
        word_acc.extend(result.word)
        negatives = [i for i in range(1, 9) if ints[i] < 0]
        if not negatives:
            break
        for i in negatives:
            add(EXCEPTIONALS[i - 1], -ints[i])
            ints[i] = 0
    current = result.standard
    if current.m[0] > current.d:
        raise NotEffective(
            f"multiplicity exceeds degree in standard form ({current}); "
            "every effective class satisfies m_i <= d",
            current,
        )

    def add_cubic(a):
        add(REF_DOUBLE_QUADRIC, 1)
        add(REF_CUBIC_COMPLEMENT, 1)
        for i in range(a, 8):
            add(EXCEPTIONALS[i], 1)

    current = ref_peel_cubics(current, add_cubic)
    ref_expand_standard(current, add)
    return Certificate("eff", divisor, (), ref_freeze(terms))


def ref_three_point_decompose(d, m, add):
    while True:
        nonzero = [j for j in range(3) if m[j] != 0]
        if not nonzero:
            add(H, d)
            return
        if len(nonzero) == 1:
            j = nonzero[0]
            add(ref_through(1, (j + 1,)), m[j])
            add(H, d - m[j])
            return
        j_min = min(range(3), key=lambda j: (m[j], j))
        p, q = sorted(set(range(3)) - {j_min})
        add(ref_through(1, (p + 1, q + 1)), 1)
        d -= 1
        m[p] -= 1
        m[q] -= 1


def ref_movable_decompose(divisor, max_steps=DEFAULT_MAX_STEPS):
    """movable_decompose as it was: peel loop and Fraction closures."""
    if divisor in pi_generators():
        return Certificate("mov", divisor, (), ((divisor, Fraction(1)),))
    ints, scale = divisor.scaled()
    try:
        result = _reduce(ints, 1, max_steps, nonnegative=True)
    except _DegreeWentNegative as floor:
        raise NotMovable(
            f"degree became negative under reduction (reached {floor.last}); "
            "the class is not even effective",
            floor.last,
            floor.word,
        ) from None
    reduced = result.standard
    bad_negative = [i + 1 for i in range(8) if reduced.m[i] < 0]
    if bad_negative:
        raise NotMovable(
            f"negative multiplicity at points {bad_negative} in standard form ({reduced}); "
            "the corresponding exceptional divisors are fixed components",
            reduced,
            result.word,
        )
    if reduced.m[0] > reduced.d:
        raise NotMovable(
            f"multiplicity exceeds degree in standard form ({reduced})", reduced, result.word
        )
    terms = {}
    fraction = Fraction(1, scale)

    def add(generator, coefficient):
        coefficient = Fraction(coefficient) * fraction
        if coefficient:
            terms[generator] = terms.get(generator, Fraction(0)) + coefficient

    current = ref_peel_cubics(reduced, lambda a: add(ref_cubic(a), 1))
    m = list(current.m) + [Fraction(0)]
    m4 = m[3]
    for k in range(4, 9):
        add(ref_through(2, range(1, k + 1)), m[k - 1] - m[k])
    ref_three_point_decompose(current.d - 2 * m4, [m[0] - m4, m[1] - m4, m[2] - m4], add)
    return Certificate("mov", divisor, result.word, ref_freeze(terms))


def decompose_outcome(decompose, divisor):
    """The certificate as a dict, or everything a refusal or a step cap reports."""
    try:
        return decompose(divisor, max_steps=200).to_dict()
    except NotEffective as exc:
        return ("not effective", str(exc), str(exc.last))
    except NotMovable as exc:
        return ("not movable", str(exc), str(exc.reduced), exc.word)
    except StepLimitExceeded as exc:
        return ("step cap", str(exc), exc.steps, str(exc.last))


def pushed_sums():
    """Sums of Pi and orbit generators, some scaled by p/q, pushed by a random word."""
    pool = pi_generators() + exceptional_orbit(2) + (HALF_ANTICANONICAL,)
    return st.builds(
        lambda picks, scale, word: apply_word(
            word, scale * _combination([pool[i] for i, _ in picks], [c for _, c in picks])),
        st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 4)),
                 min_size=1, max_size=5),
        st.sampled_from([Fraction(1), Fraction(1), Fraction(1, 2), Fraction(2, 3)]),
        st.lists(st.integers(0, 7), max_size=40).map(tuple),
    )


def ref_split(ints):
    """The split over Pi by the cubic-peeling loop, on a reduced integer class."""
    d, m = ints[0], list(ints[1:])
    counts = [0] * 17
    while d < m[0] + m[3]:
        a = max(i + 1 for i in range(8) if m[i] != 0)
        assert a >= 4
        counts[_CUBICS + a] += 1
        m[0] -= 3
        for i in range(1, a):
            m[i] -= 1
        d -= 3
    m.append(0)
    for k in range(4, 9):
        counts[_QUADRICS + k] = m[k - 1] - m[k]
    m4 = m[3]
    return counts, [d - 2 * m4, m[0] - m4, m[1] - m4, m[2] - m4]


class TestPiSplit:
    @given(st.one_of(int_divisors, rational_divisors, pushed_sums()))
    @settings(max_examples=300, deadline=None)
    def test_effective_matches_reference(self, divisor):
        assert decompose_outcome(effective_decompose, divisor) == decompose_outcome(
            ref_effective_decompose, divisor)

    @given(st.one_of(int_divisors, rational_divisors, pushed_sums()))
    @settings(max_examples=300, deadline=None)
    def test_movable_matches_reference(self, divisor):
        assert decompose_outcome(movable_decompose, divisor) == decompose_outcome(
            ref_movable_decompose, divisor)

    def test_table_rows_sum_to_their_generators(self):
        assert sorted(_EXPANSIONS) == list(range(7, 17))
        for index, row in _EXPANSIONS.items():
            total = DivisorClass(0, (0,) * 8)
            for piece in row:
                total = total + _PIECES[piece]
            assert total == pi_generators()[index]

    def test_pieces_are_effective_generators(self):
        assert _PIECES[:8] == EXCEPTIONALS and _PIECES[9] == REF_PLANE
        for piece in _PIECES:
            assert piece == HALF_ANTICANONICAL or is_minus_one_divisor(piece)

    def test_closed_form_peel_matches_loop(self):
        # Every standard-form class with 0 <= m_i <= d <= 12.
        checked = 0
        for d in range(13):
            for m in itertools.combinations_with_replacement(range(d, -1, -1), 8):
                if 2 * d >= sum(m[:4]):
                    assert _pi_split([d, *m]) == ref_split([d, *m])
                    checked += 1
        assert checked == 30122

    @pytest.mark.parametrize("text", [
        "3;3,1,1,1,0,0,0,0",
        "7;4,3,3,2,2,1,1,0",
        "3;2,2,2,2,1,1,1,0",
        "4;-1,2,3,0,-2,1,1,1",
        "5/3;2/3,2/3,1/3,1/3,1/3,0,0,-1/3",
        "9;7,3,3,3,3,2,2,0",
    ])
    def test_homogeneous_in_a_million(self, text):
        divisor = DivisorClass.parse(text)
        k = 10**6
        cert = effective_decompose(k * divisor)
        assert cert.terms == tuple((g, k * c) for g, c in effective_decompose(divisor).terms)


def ref_three_point_counts(d, m):
    """The induction's counts over pi_generators() for the rest (d; m)."""
    index = {generator: i for i, generator in enumerate(pi_generators())}
    counts = [0] * len(index)

    def add(generator, coefficient):
        counts[index[generator]] += coefficient

    ref_three_point_decompose(d, list(m), add)
    return counts


class TestThreePointRest:
    """The three-point rest of `movable_decompose`, in closed form."""

    def test_closed_form_matches_induction(self):
        # Every rest (d; m1, m2, m3) with 0 <= m_j <= d <= 12 and 2d >= m1 + m2 + m3.
        checked = 0
        for d in range(13):
            for m in itertools.product(range(d + 1), repeat=3):
                if 2 * d >= sum(m):
                    counts = [0] * len(pi_generators())
                    _three_point_decompose([d, *m], counts)
                    assert counts == ref_three_point_counts(d, m), (d, m)
                    checked += 1
        assert checked == 6916

    def test_million_class(self):
        divisor = DivisorClass.parse("1000000;500000,500000,500000,0,0,0,0,0")
        cert = movable_decompose(divisor)
        planes = [ref_through(1, pair) for pair in ((1, 2), (1, 3), (2, 3))]
        assert cert.word == ()
        assert terms_as_dict(cert) == {H: 250000, **{plane: 250000 for plane in planes}}
        assert cert.resummation() == divisor


# -- effective certificates are checked by the two equations alone ---------------------

def deep_minus_one_class(n):
    """E_8 + n(E_1 - E_2) + n^2 (-K/2): both equations hold, and reduction takes 2n steps."""
    return DivisorClass(2 * n * n, (n * n - n, n * n + n) + (n * n,) * 5 + (n * n - 1,))


class TestEffectiveCheckWithoutReduction:
    def test_golden_certificates_verify_without_reduction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a certificate check reduced a class")

        monkeypatch.setattr(weyl, "_reduce", refuse)
        monkeypatch.setattr(weyl, "to_standard_form", refuse)
        cases = [case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))
                 if "certificate" in case and json.loads(case["certificate"])["cone"] == "eff"]
        valid = 0
        for case in cases:
            outcome = check_outcome(Certificate.check, Certificate.from_json(case["certificate"]))
            assert case["stdout"].startswith("valid") == (outcome == "valid")
            valid += outcome == "valid"
        assert (len(cases), valid) == (42, 24)

    def test_deep_generator_past_the_step_cap(self, capsys, tmp_path):
        deep = deep_minus_one_class(50_001)
        assert deep.d > 5 * 10**9
        with pytest.raises(StepLimitExceeded):
            minus_one_certificate(deep)  # 100 002 Cremona steps, over DEFAULT_MAX_STEPS
        certificate = Certificate(
            "eff", deep + HALF_ANTICANONICAL, (),
            ((HALF_ANTICANONICAL, Fraction(1)), (deep, Fraction(1))))
        certificate.check()
        path = tmp_path / "deep.json"
        path.write_text(certificate.to_json(), encoding="utf-8")
        assert main(["verify", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("valid eff certificate for ") and err == ""

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_deep_classes_reduce_to_the_exceptional(self, n):
        word = minus_one_certificate(deep_minus_one_class(n))
        assert word is not None and word.count(0) == 2 * n


# -- every decomposer's terms: vector() order, no zero coefficient ---------------------

def assert_terms_in_order(certificate):
    vectors = [generator.vector() for generator, _ in certificate.terms]
    assert vectors == sorted(set(vectors))
    assert all(coefficient > 0 for _, coefficient in certificate.terms)


@st.composite
def region_curves(draw):
    """Curves with 0 <= b_i <= a and sum b_i <= 2a, all in the cone of curves."""
    a = draw(st.integers(0, 6))
    budget, multiplicities = 2 * a, []
    for _ in range(8):
        value = draw(st.integers(0, min(a, budget)))
        budget -= value
        multiplicities.append(value)
    return CurveClass(a, tuple(-b for b in draw(st.permutations(multiplicities))))


def rescaled(strategy):
    return st.builds(lambda divisor, scale: scale * divisor, strategy,
                     st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3)]))


class TestTermOrder:
    @given(st.one_of(int_divisors, rational_divisors, pushed_sums(), rescaled(pi_combinations())))
    @settings(max_examples=200, deadline=None)
    def test_effective_and_movable(self, divisor):
        for decompose, refusal in ((effective_decompose, NotEffective),
                                   (movable_decompose, NotMovable)):
            try:
                certificate = decompose(divisor, max_steps=200)
            except (refusal, StepLimitExceeded):
                continue
            assert_terms_in_order(certificate)

    @given(st.one_of(int_divisors, rescaled(nef_combinations())))
    @settings(max_examples=150, deadline=None)
    def test_nef(self, divisor):
        try:
            certificate = nef_decompose(divisor)
        except NotNef:
            return
        assert_terms_in_order(certificate)

    @given(st.one_of(curves, region_curves()))
    @settings(max_examples=150, deadline=None)
    def test_curves(self, curve):
        try:
            certificate = curve_decompose(curve)
        except NotInCurveCone:
            return
        assert_terms_in_order(certificate)
