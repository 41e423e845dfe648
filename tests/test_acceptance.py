"""Acceptance suite: every top-level result the package must reproduce exactly.

Each test prints one PASS line on success (run with ``pytest -s`` to see them
all); a failing criterion fails its test.  Random sweeps are seeded, so the
suite is deterministic.
"""

import itertools
import random
import time

from blowupcones import (
    EXCEPTIONALS,
    HALF_ANTICANONICAL,
    DivisorClass,
    Feasible,
    Infeasible,
    NotEffective,
    NotMovable,
    NotNef,
    accumulation_report,
    apply_word,
    canonical_shape,
    cone_member,
    cremona,
    divisor_problem,
    dq_numbers,
    effective_decompose,
    effective_generators,
    effective_membership,
    exceptional_orbit,
    is_minus_one_curve,
    is_minus_one_divisor,
    is_nef,
    movable_decompose,
    nef_decompose,
    nef_generators,
    pairing,
    pi_generators,
    reflect,
    restrict_to_surface,
    to_standard_form,
)
from blowupcones import oracle
from blowupcones.lattice import ROOT_SYSTEM, H


def _report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {message}")


def test_criterion_01_low_degree_orbit_table():
    oracle.cache_clear()
    start = time.perf_counter()
    orbit = exceptional_orbit(2)
    elapsed = time.perf_counter() - start

    assert len(orbit) == 232
    shapes = {canonical_shape(x) for x in orbit}
    assert shapes == {
        DivisorClass(0, (0, 0, 0, 0, 0, 0, 0, -1)),
        DivisorClass(1, (1, 1, 1, 0, 0, 0, 0, 0)),
        DivisorClass(2, (2, 1, 1, 1, 1, 1, 0, 0)),
    }
    by_degree = {}
    for x in orbit:
        by_degree[x.d] = by_degree.get(x.d, 0) + 1
    assert by_degree == {0: 8, 1: 56, 2: 168}
    assert elapsed < 1.0
    _report(1, f"orbit up to degree 2 has the three shapes and 8+56+168=232 classes "
               f"({elapsed:.3f}s)")


def test_criterion_02_two_step_reduction():
    start = DivisorClass(3, (2, 2, 2, 2, 1, 1, 1, 0))
    result = to_standard_form(start)
    assert result.standard == EXCEPTIONALS[7]
    assert result.steps == 2
    assert apply_word(result.word, start) == result.standard
    _report(2, f"(3;2,2,2,2,1,1,1,0) reduces to an exceptional class in exactly "
               f"2 Cremona steps, word of length {len(result.word)} replays")


def test_criterion_03_nef_duality_equivalence_on_grid():
    generators = nef_generators()
    grid = [
        DivisorClass(d, m)
        for d in range(5)
        for m in itertools.combinations_with_replacement(range(4, -1, -1), 8)
    ]
    assert len(grid) == 5 * 495
    for divisor in grid:
        by_test = is_nef(divisor)[0]
        try:
            cert = nef_decompose(divisor)
            by_decomposition = True
            assert cert.resummation() == divisor
        except NotNef:
            by_decomposition = False
        by_oracle = isinstance(cone_member(divisor_problem(divisor, generators)), Feasible)
        assert by_test == by_decomposition == by_oracle, divisor
    _report(3, f"is_nef == nef_decompose == LP over {len(generators)} generators "
               f"on all {len(grid)} grid classes (d <= 4, sorted 0 <= m_i <= 4)")


def _effective_sample(count=1000, seed=20250810):
    rng = random.Random(seed)
    return [
        DivisorClass(rng.randint(0, 8), tuple(rng.randint(-8, 8) for _ in range(8)))
        for _ in range(count)
    ]


def test_criterion_04_effective_cone_agreement():
    feasible, generators_at = 0, {}  # each truncation's generators, built once
    for divisor in _effective_sample():
        try:
            cert = effective_decompose(divisor)
        except NotEffective:
            cert = None
        report = effective_membership(divisor)
        assert (cert is not None) == isinstance(report.outcome, Feasible), divisor
        if cert is not None:
            feasible += 1
            assert cert.resummation() == divisor
            for generator, coefficient in cert.terms:
                assert coefficient > 0
                assert generator == HALF_ANTICANONICAL or is_minus_one_divisor(generator)
            total = [0] * 9
            degree = report.truncation_degree
            if degree not in generators_at:
                generators_at[degree] = effective_generators(degree)
            for coefficient, generator in zip(report.outcome.coefficients, generators_at[degree]):
                if coefficient:  # nearly all of up to 37 481 coefficients are zero
                    vec = generator.vector()
                    for k in range(9):
                        total[k] += coefficient * vec[k]
            assert tuple(total) == divisor.vector()
    _report(4, f"effective_decompose agrees with the truncated LP oracle on 1000 "
               f"random classes (d <= 8, |m_i| <= 8; {feasible} effective), all "
               f"certificates re-sum and use orbit generators or -K/2")


def test_criterion_05_half_anticanonical_outside_orbit_cone():
    for degree in (2, 3, 4):
        problem = divisor_problem(HALF_ANTICANONICAL, exceptional_orbit(degree))
        outcome = cone_member(problem)
        assert isinstance(outcome, Infeasible)
        phi = outcome.functional
        for vec in problem.generators:
            assert sum(p * v for p, v in zip(phi, vec)) >= 0
        assert sum(p * t for p, t in zip(phi, problem.target)) < 0
    _report(5, "-K/2 is separated from the orbit cone at truncation degrees 2, 3 "
               "and 4, with arithmetically re-checked functionals")


def _movable_sample(count=1000, seed=614):
    rng = random.Random(seed)
    samples = []
    for _ in range(count):
        d = rng.randint(0, 8)
        samples.append(DivisorClass(d, tuple(rng.randint(0, d) for _ in range(8))))
    return samples


def test_criterion_06_movable_cone_agreement():
    gens = pi_generators()
    assert len(gens) == 17
    for generator in gens:
        cert = movable_decompose(generator)
        assert dict(cert.terms) == {generator: 1}

    feasible = 0
    for divisor in _movable_sample():
        try:
            cert = movable_decompose(divisor)
            reduced = cert.reduced_target()
            assert cert.resummation() == reduced
        except NotMovable as failure:
            cert = None
            reduced = failure.reduced
        assert reduced is not None
        outcome = cone_member(divisor_problem(reduced, gens))
        assert (cert is not None) == isinstance(outcome, Feasible), divisor
        if cert is not None:
            feasible += 1
    _report(6, f"all 17 movable-cone generators decompose as themselves; "
               f"movable_decompose agrees with the LP over the 17 generators on "
               f"1000 random classes (0 <= m_i <= d <= 8; {feasible} movable)")


def test_criterion_07_inclusion_chain():
    def verdicts(divisor):
        nef_ok = is_nef(divisor)[0]
        try:
            movable_decompose(divisor)
            movable_ok = True
        except NotMovable:
            movable_ok = False
        try:
            effective_decompose(divisor)
            effective_ok = True
        except NotEffective:
            effective_ok = False
        return nef_ok, movable_ok, effective_ok

    classes = [
        DivisorClass(d, m)
        for d in range(5)
        for m in itertools.combinations_with_replacement(range(4, -1, -1), 8)
    ]
    classes += _effective_sample()
    classes += _movable_sample()
    nef_count = movable_count = 0
    for divisor in classes:
        nef_ok, movable_ok, effective_ok = verdicts(divisor)
        assert not (nef_ok and not movable_ok), divisor
        assert not (movable_ok and not effective_ok), divisor
        nef_count += nef_ok
        movable_count += movable_ok
    _report(7, f"no nef-but-not-movable and no movable-but-not-effective class "
               f"among {len(classes)} sampled ({nef_count} nef, {movable_count} movable)")


def test_criterion_08_weyl_algebra_randomized():
    rng = random.Random(88)

    def random_divisor():
        return DivisorClass(rng.randint(-9, 9), tuple(rng.randint(-9, 9) for _ in range(8)))

    orders = {}
    basis = (H,) + EXCEPTIONALS
    for i in range(8):
        for j in range(8):
            images, power = basis, 0
            while True:
                power += 1
                images = tuple(reflect(i, reflect(j, x)) for x in images)
                if images == basis:
                    break
                assert power <= 6
            orders[i, j] = power
            if i == j:
                assert power == 1
            elif pairing(ROOT_SYSTEM.roots[i], ROOT_SYSTEM.roots[j]) == 1:
                assert power == 3
            else:
                assert power == 2

    checks = 64
    start = time.perf_counter()
    for _ in range(2500):
        a, b = random_divisor(), random_divisor()
        i = rng.randrange(8)
        assert reflect(i, reflect(i, a)) == a
        assert pairing(reflect(i, a), reflect(i, b)) == pairing(a, b)
        assert reflect(0, a) == cremona((1, 2, 3, 4), a)
        pair = (rng.randrange(8), rng.randrange(8))
        image = a
        for _ in range(orders[pair]):
            image = reflect(pair[0], reflect(pair[1], image))
        assert image == a
        checks += 4
    elapsed = time.perf_counter() - start
    assert checks >= 10_000
    _report(8, f"{checks} random checks of involutions, pairing invariance, the "
               f"Cremona identity and Coxeter orders passed in {elapsed:.2f}s")


def test_criterion_09_orbit_restricts_to_minus_one_curves():
    orbit = exceptional_orbit(4)
    assert len(orbit) == 1184
    for divisor in orbit:
        assert dq_numbers(divisor) == (-1, 1)
        assert is_minus_one_curve(restrict_to_surface(divisor))
    _report(9, f"all {len(orbit)} orbit classes up to degree 4 have intersection "
               f"numbers (-1, 1) and restrict to (-1)-curves on the surface")


def test_criterion_10_accumulation_trend():
    report = dict(accumulation_report(8))
    assert set(report) == set(range(9))
    assert all(distance > 0 for distance in report.values())
    assert report[8] < report[3]
    _report(10, f"max ray distance to the -K/2 ray drops from {report[3]} at "
                f"degree 3 to {report[8]} at degree 8")
