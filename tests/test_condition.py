from fractions import Fraction

import numpy as np
import pytest

from spanshare.galois import Field, Matrix
from spanshare.condition import (
    ClassicalScheme,
    HomomorphicSpec,
    PreconditionError,
    SchemeFormatError,
    check_correctness,
    check_secrecy,
    eq1_check,
    format_scheme,
    generate_valid_schemes,
    homomorphic_dichotomy_check,
    homomorphic_scheme,
    lift_and_test,
    lift_report,
    parse_scheme,
    reconstruction_map,
    scheme_from_msp,
    search_counterexample,
    _sqrt_decompose,
    _sqrt_sum,
)
from spanshare.msp import MSP, shamir_msp
from spanshare.structures import (
    AdversaryStructure,
    build_structure,
    mask_from_players,
    threshold_structure,
)

from conftest import random_msps
from reference_classical import ref_scheme_table

GF2 = Field(2)
GF5 = Field(5)

U1 = 0b01  # player 1 of two


def mask(*players, n):
    return mask_from_players(players, n)


@pytest.fixture(scope="module")
def shamir_table():
    return scheme_from_msp(shamir_msp(3, 1, GF5))


@pytest.fixture(scope="module")
def one_time_pad():
    spec = HomomorphicSpec((2,), 1, ((0, 1), (1, 1)))
    return homomorphic_scheme(spec)


@pytest.fixture(scope="module")
def counterexample():
    sch = search_counterexample()
    assert sch is not None
    return sch


def test_scheme_from_msp_shamir(shamir_table):
    sch = shamir_table
    assert sch.share_sizes == (5, 5, 5)
    for s in range(5):
        support = [y for (sec, y) in sch.table if sec == s]
        assert len(support) == 5
        assert all(sch.table[(s, y)] == Fraction(1, 5) for y in support)
    assert sch.structure == threshold_structure(3, 1)


def test_scheme_from_msp_trivial():
    sch = scheme_from_msp(shamir_msp(1, 0, GF5))
    assert sch.share_sizes == (5,)
    assert all(y == (s,) and pr == 1 for (s, y), pr in sch.table.items())


def test_scheme_from_msp_additive_two_of_two():
    msp = MSP(GF2, Matrix.from_rows(GF2, [[1, 1], [0, 1]]), (1, 2), 2)
    sch = scheme_from_msp(msp)
    for s in range(2):
        support = [y for (sec, y) in sch.table if sec == s]
        assert len(support) == 2
        assert all(sch.table[(s, y)] == Fraction(1, 2) for y in support)
    assert sch.structure == threshold_structure(2, 1)


def test_scheme_from_msp_matches_deal_loop():
    for msp in random_msps(200, 5):
        assert list(scheme_from_msp(msp).table.items()) == ref_scheme_table(msp)


def test_scheme_validation():
    with pytest.raises(ValueError, match="sum"):
        ClassicalScheme(1, 1, (2,), {(0, (0,)): Fraction(1, 2)})
    with pytest.raises(ValueError, match="negative"):
        ClassicalScheme(
            1, 1, (2,), {(0, (0,)): Fraction(3, 2), (0, (1,)): Fraction(-1, 2)}
        )
    with pytest.raises(ValueError, match="range"):
        ClassicalScheme(1, 1, (2,), {(0, (5,)): Fraction(1)})


def test_check_correctness_examples(shamir_table):
    assert check_correctness(shamir_table, mask(2, 3, n=3))
    assert not check_correctness(shamir_table, mask(1, n=3))
    trivial = scheme_from_msp(shamir_msp(1, 0, GF5))
    assert check_correctness(trivial, mask(1, n=1))
    g = reconstruction_map(shamir_table, mask(2, 3, n=3))
    assert g is not None and len(g) == 25


def test_check_secrecy_examples(shamir_table):
    assert check_secrecy(shamir_table, mask(1, n=3))
    assert not check_secrecy(shamir_table, mask(2, 3, n=3))
    copying = ClassicalScheme(
        1, 2, (2,), {(0, (0,)): Fraction(1), (1, (1,)): Fraction(1)}
    )
    assert not check_secrecy(copying, mask(1, n=1))


def test_sqrt_canonical_forms():
    assert _sqrt_decompose(1) == (1, 1)
    assert _sqrt_decompose(12) == (2, 3)
    assert _sqrt_decompose(49) == (7, 1)
    # sqrt(1/2) + sqrt(9/2) = 4/2 sqrt(2) = 2 sqrt(2)
    total = _sqrt_sum([Fraction(1, 2), Fraction(9, 2)])
    assert total == {2: Fraction(2)}
    assert _sqrt_sum([Fraction(1, 4)]) == {1: Fraction(1, 2)}
    assert _sqrt_sum([]) == {}


def test_eq1_shamir_passes(shamir_table):
    for u in [0, mask(1, n=3), mask(2, n=3), mask(3, n=3)]:
        assert eq1_check(shamir_table, u)


def test_eq1_counterexample_fails(counterexample):
    assert not eq1_check(counterexample, U1)


def test_eq1_preconditions(shamir_table, one_time_pad):
    with pytest.raises(PreconditionError, match="not correct"):
        eq1_check(shamir_table, mask(2, 3, n=3))
    # one-time pad: {2} alone cannot reconstruct, so the u={1} split
    # fails the correctness precondition outright
    with pytest.raises(PreconditionError, match="not correct"):
        eq1_check(one_time_pad, U1)
    # a scheme that copies the secret everywhere is not secret for {1}
    copying = ClassicalScheme(
        2,
        2,
        (2, 2),
        {(0, (0, 0)): Fraction(1), (1, (1, 1)): Fraction(1)},
        structure=AdversaryStructure(2, (0b01,)),
    )
    with pytest.raises(PreconditionError, match="not secret"):
        eq1_check(copying, U1)


def test_eq1_intersection_precondition():
    # valid classical scheme but u outside the claimed structure's
    # intersection with its dual: claim the empty-only structure
    sch = search_counterexample()
    declared = ClassicalScheme(
        sch.n,
        sch.secret_count,
        sch.share_sizes,
        dict(sch.table),
        structure=AdversaryStructure(2, (0,)),
    )
    with pytest.raises(PreconditionError, match="intersection"):
        eq1_check(declared, U1)


def test_lift_and_test_shamir(shamir_table):
    assert lift_and_test(shamir_table, mask(1, n=3), seed=5)


def test_lift_and_test_counterexample(counterexample):
    report = lift_report(counterexample, U1, seed=5)
    assert not report.passed
    assert report.max_distance > 1e-6
    assert report.witness is not None


def test_lift_report_default_probes(shamir_table):
    report = lift_report(shamir_table, mask(1, n=3), seed=5)
    basis = [f"basis:{s}" for s in range(5)]
    assert report.inputs == basis + ["uniform"] + [f"random:{i}" for i in range(10)]


def test_lift_single_secret_scheme():
    # one secret, carried verbatim by player 2; player 1 uniform noise
    table = {
        (0, (0, 0)): Fraction(1, 2),
        (0, (1, 0)): Fraction(1, 2),
    }
    sch = ClassicalScheme(
        2, 1, (2, 1), table, structure=AdversaryStructure(2, (0b01,))
    )
    assert lift_and_test(sch, U1)
    assert eq1_check(sch, U1)


def test_lift_requires_superposition_probes(shamir_table):
    basis_only = [
        ("basis:0", np.array([1, 0, 0, 0, 0], dtype=complex)),
        ("basis:1", np.array([0, 1, 0, 0, 0], dtype=complex)),
    ]
    with pytest.raises(ValueError, match="non-basis"):
        lift_and_test(shamir_table, mask(1, n=3), inputs=basis_only)


def test_homomorphic_one_time_pad(one_time_pad):
    sch = one_time_pad
    assert sch.secret_count == 2
    assert sch.share_sizes == (2, 2)
    # v uniform, second share s+v: two support points per secret
    for s in range(2):
        support = [y for (sec, y) in sch.table if sec == s]
        assert len(support) == 2
    assert sch.structure == threshold_structure(2, 1)


def test_homomorphic_three_of_three():
    spec = HomomorphicSpec((3,), 2, ((0, 1, 0), (0, 0, 1), (1, 2, 2)))
    sch = homomorphic_scheme(spec)
    assert sch.share_sizes == (3, 3, 3)
    for s in range(3):
        support = [y for (sec, y) in sch.table if sec == s]
        assert len(support) == 9
        for y in support:
            assert (y[0] + y[1] + y[2]) % 3 == s
    assert sch.structure == build_structure(3, [{1, 2}, {1, 3}, {2, 3}])


def test_homomorphic_rejects_non_injective():
    with pytest.raises(ValueError, match="injective"):
        homomorphic_scheme(HomomorphicSpec((2,), 1, ((1, 1), (1, 1))))


def test_homomorphic_product_group():
    # Z2 x Z2 one-time pad
    spec = HomomorphicSpec((2, 2), 1, ((0, 1), (1, 1)))
    sch = homomorphic_scheme(spec)
    assert sch.secret_count == 4
    assert check_secrecy(sch, U1)


def test_dichotomy_examples(shamir_table, one_time_pad):
    assert homomorphic_dichotomy_check(one_time_pad, U1)
    spec3 = HomomorphicSpec((3,), 2, ((0, 1, 0), (0, 0, 1), (1, 2, 2)))
    sch3 = homomorphic_scheme(spec3)
    for u in [mask(1, n=3), mask(2, n=3), mask(1, 2, n=3)]:
        assert homomorphic_dichotomy_check(sch3, u)
    for u in [mask(1, n=3), mask(2, n=3), mask(3, n=3)]:
        assert homomorphic_dichotomy_check(shamir_table, u)


def test_dichotomy_is_not_sufficient_for_eq1(counterexample):
    # the found counterexample happens to satisfy the dichotomy (its
    # shared Q-word gives both U-words probability 1/2) yet fails the
    # square-root criterion: the dichotomy is the mechanism inside the
    # homomorphic argument, not a sufficient condition by itself
    assert homomorphic_dichotomy_check(counterexample, U1)
    assert not eq1_check(counterexample, U1)


def test_dichotomy_detects_unequal_conditionals():
    skewed = ClassicalScheme(
        2,
        1,
        (2, 2),
        {(0, (0, 0)): Fraction(1, 3), (0, (1, 0)): Fraction(2, 3)},
    )
    assert not homomorphic_dichotomy_check(skewed, U1)


def test_search_counterexample_found(counterexample):
    # classically perfect for the U={1} split
    assert check_correctness(counterexample, 0b10)
    assert check_secrecy(counterexample, U1)
    assert counterexample.structure == AdversaryStructure(2, (0b01,))
    # deterministic: running the search again yields the same scheme
    again = search_counterexample()
    assert format_scheme(again) == format_scheme(counterexample)


def test_search_restricted_families_find_nothing():
    assert search_counterexample(max_denominator=4, family="function") is None
    assert search_counterexample(max_share_size=3, family="homomorphic") is None
    with pytest.raises(ValueError):
        search_counterexample(family="bogus")


def test_generated_schemes_are_valid():
    schemes = generate_valid_schemes(25, seed=7)
    assert len(schemes) == 25
    for sch in schemes:
        assert check_correctness(sch, 0b10)
        assert check_secrecy(sch, U1)
        assert sch.structure.is_member(U1)
    # deterministic generation
    again = generate_valid_schemes(25, seed=7)
    assert [format_scheme(s) for s in schemes] == [format_scheme(s) for s in again]


def test_scheme_file_round_trip(counterexample, shamir_table):
    for sch in [counterexample, shamir_table]:
        text = format_scheme(sch)
        back = parse_scheme(text)
        assert back.table == sch.table
        assert back.share_sizes == sch.share_sizes
        assert format_scheme(back) == text


def test_scheme_file_errors():
    with pytest.raises(SchemeFormatError):
        parse_scheme("bogus\n")
    with pytest.raises(SchemeFormatError):
        parse_scheme("scheme n=1 secrets=1\np 0 0 1/1\n")  # no space line
    with pytest.raises(SchemeFormatError):
        parse_scheme("scheme n=1 secrets=1\nspace 1 2\np 0 0 1/2\n")  # sums to 1/2
    with pytest.raises(SchemeFormatError):
        parse_scheme("scheme n=1 secrets=1\nspace 1 2\np 0 zero 1/1\n")


def test_msp_scheme_consistency_with_classical_module(shamir_table):
    # qualified sets reconstruct, adversary sets see flat marginals
    structure = shamir_table.structure
    for b in range(1 << 3):
        if structure.is_member(b):
            assert check_secrecy(shamir_table, b)
        else:
            assert check_correctness(shamir_table, b)
