import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spanshare import classical, condition, msp as msp_module, quantum
from spanshare.classical import verify_classical
from spanshare.cli import main
from spanshare.galois import Field, Matrix
from spanshare.condition import (
    ClassicalScheme,
    HomomorphicSpec,
    PreconditionError,
    check_correctness,
    check_secrecy,
    eq1_check,
    format_scheme,
    generate_valid_schemes,
    homomorphic_scheme,
    lift_report,
    parse_scheme,
    scheme_from_msp,
    search_counterexample,
)
from spanshare.msp import MSP, compile_formula, extend_msp, msp_structure, shamir_msp
from spanshare.quantum import QuantumState
from spanshare.structures import (
    AdversaryStructure,
    FormatError,
    build_structure,
    mask_from_players,
    parse_formula,
    threshold_structure,
)

from conftest import NumpyWithout, random_msps
from reference_classical import (
    _sqrt_decompose,
    _sqrt_sum,
    homomorphic_dichotomy_check,
    reconstruction_map,
    check_secrecy as ref_check_secrecy,
    ref_check_correctness,
    ref_eq1_check,
    ref_homomorphic_dichotomy_check,
    ref_homomorphic_table,
    ref_compositions,
    ref_derive_structure,
    ref_eigvalsh_lift_report,
    ref_lift_report,
    ref_per_probe_lift_report,
    ref_probe_views,
    ref_scheme_table,
    ref_split_preconditions,
)
from reference_quantum import trace_distance

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


def _past_int64_msp():
    # player 1 holds 8 rows over GF(257): its packed share reaches 256 * 257**7 > 2**63
    gf = Field(257)
    rows = [[1, x] for x in range(1, 9)] + [[0, 1]]
    return MSP(gf, Matrix.from_rows(gf, rows), (1,) * 8 + (2,), 2)


def test_scheme_from_msp_packs_shares_past_int64():
    msp = _past_int64_msp()
    sch = scheme_from_msp(msp)
    assert sch.share_sizes == (257**8, 257)
    assert max(y[0] for _, y in sch.table) >= 2**63
    assert list(sch.table.items()) == ref_scheme_table(msp)


def test_scheme_validation():
    with pytest.raises(ValueError, match="sum"):
        ClassicalScheme.from_table(1, 1, (2,), {(0, (0,)): Fraction(1, 2)})
    with pytest.raises(ValueError, match="negative"):
        ClassicalScheme.from_table(
            1, 1, (2,), {(0, (0,)): Fraction(3, 2), (0, (1,)): Fraction(-1, 2)}
        )
    with pytest.raises(ValueError, match="range"):
        ClassicalScheme.from_table(1, 1, (2,), {(0, (5,)): Fraction(1)})


def test_scheme_refuses_structure_of_other_player_count():
    with pytest.raises(ValueError) as exc:
        ClassicalScheme.from_table(
            2, 1, (2, 2), {(0, (0, 0)): 1}, structure=AdversaryStructure(5, (0b11111,))
        )
    assert str(exc.value) == "structure over 5 players for a scheme of 2 players"


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
    copying = ClassicalScheme.from_table(
        1, 2, (2,), {(0, (0,)): Fraction(1), (1, (1,)): Fraction(1)}
    )
    assert not check_secrecy(copying, mask(1, n=1))
    # the same support for both secrets, with different weights
    skewed = ClassicalScheme.from_table(
        1, 2, (2,), {(0, (0,)): Fraction(1, 2), (0, (1,)): Fraction(1, 2),
                     (1, (0,)): Fraction(1, 3), (1, (1,)): Fraction(2, 3)}
    )
    assert not check_secrecy(skewed, mask(1, n=1))
    assert check_secrecy(skewed, 0)


def test_sqrt_canonical_forms():
    assert _sqrt_decompose(1) == (1, 1)
    assert _sqrt_decompose(12) == (2, 3)
    assert _sqrt_decompose(49) == (7, 1)
    # sqrt(1/2) + sqrt(9/2) = 4/2 sqrt(2) = 2 sqrt(2)
    total = _sqrt_sum([Fraction(1, 2), Fraction(9, 2)])
    assert total == {2: Fraction(2)}
    assert _sqrt_sum([Fraction(1, 4)]) == {1: Fraction(1, 2)}
    assert _sqrt_sum([]) == {}


FIXTURES = Path(__file__).parent / "fixtures"


def test_eq1_decomposes_each_weight_once(monkeypatch):
    # eq1 pairs 1000000007 with 998244353 in one Q-word's column: factoring
    # their product by trial division would take about 10**9 steps
    classes, seen = condition._square_classes, []

    def recording(numbers):
        numbers = list(numbers)
        seen.append(sorted(numbers))
        return classes(numbers)

    monkeypatch.setattr(condition, "_square_classes", recording)
    sch = parse_scheme((FIXTURES / "large_primes.scheme").read_text())
    assert eq1_check(sch, U1) and lift_report(sch, U1).passed
    assert seen == [[998244353, 998244353, 1000000007, 1000000007]]
    assert classes(seen[0]) == {998244353: (1, 998244353), 1000000007: (1, 1000000007)}
    for sch in generate_valid_schemes(20, 0, max_denominator=24):
        eq1_check(sch, U1)
    assert len(seen) == 21


def test_eq1_on_large_composite_weights():
    # 1000000007 * 998244353 has no factor below 998244353: trial division
    # would take about 10**9 steps, the coprime base none
    sch = parse_scheme((FIXTURES / "large_composite.scheme").read_text())
    n1, n2 = 1000000007 * 998244353, 1000000007 * 998244353 + 1
    assert condition._square_classes(sch.numerators.tolist()) == {n1: (1, n1), n2: (1, n2)}
    assert eq1_check(sch, U1) and lift_report(sch, U1).passed


class _Traced(Exception):
    pass


def test_lift_report_traces_the_table_codes(monkeypatch):
    # player 1 declares 4096 shares and deals two of them: the one trace on
    # the secret register and U has 2 x 2 dimensions, not 2 x 4096
    sch = parse_scheme((FIXTURES / "wide_space.scheme").read_text())
    dims = []

    def recording(state, keep):
        dims.append(quantum.partial_trace(state, keep).dim)
        raise _Traced

    monkeypatch.setattr(condition, "partial_trace", recording)
    with pytest.raises(_Traced):
        lift_report(sch, U1)
    assert dims == [4]
    monkeypatch.undo()
    assert eq1_check(sch, U1) and lift_report(sch, U1).passed


def test_lift_report_on_codes_matches_share_words_within_round_off():
    # every share v dealt as 3v + 1 in a space of 3 size + 1: on the codes the
    # spectra lose the declared but undealt dims, so a distance may move in
    # its last bits (and a witness among tied pairs with it), never a verdict
    for sch in generate_valid_schemes(60, 1, max_secrets=4, max_share_size=6, max_denominator=24):
        columns = [np.array(v)[c] * 3 + 1 for v, c in zip(sch.share_values, sch.codes.T)]
        sizes = tuple(3 * size + 1 for size in sch.share_sizes)
        wide = ClassicalScheme(sch.n, sch.secret_count, sizes, sch.secrets, columns,
                               sch.numerators, sch.denominator)
        report, words = lift_report(wide, U1, seed=1), ref_per_probe_lift_report(wide, U1, 1)
        assert report.passed == words.passed
        assert report.max_distance == pytest.approx(words.max_distance, rel=1e-14, abs=1e-14)


def test_square_classes_match_trial_division(shamir_table, counterexample):
    # equal keys exactly where the squarefree parts are equal, on the
    # committed tables and the generated ones the reference checks read
    tables = [shamir_table, counterexample, parse_scheme((FIXTURES / "large_primes.scheme").read_text())]
    for seed in (0, 1, 2):
        tables += generate_valid_schemes(200, seed, max_secrets=4, max_share_size=6, max_denominator=24)
    for sch in tables:
        numbers = sorted(set(sch.numerators.tolist()))
        classes = condition._square_classes(numbers)
        assert all(a * a * k == n for n, (a, k) in classes.items()) and len(classes) == len(numbers)
        squarefree = {n: _sqrt_decompose(n)[1] for n in numbers}
        for n1, n2 in itertools.combinations(numbers, 2):
            assert (classes[n1][1] == classes[n2][1]) == (squarefree[n1] == squarefree[n2]), (n1, n2)
    # a base element that is a square reduces to its root: 12 = 2*2*3, 8 = 2*2*2
    assert condition._square_classes([12, 8, 3]) == {12: (2, 3), 8: (2, 2), 3: (1, 3)}


def test_compositions_match_the_recursion():
    for total in range(9):
        for parts in range(1, 6):
            assert list(condition._compositions(total, parts)) == list(ref_compositions(total, parts))


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
    copying = ClassicalScheme.from_table(
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
    declared = ClassicalScheme.from_table(
        sch.n,
        sch.secret_count,
        sch.share_sizes,
        dict(sch.table),
        structure=AdversaryStructure(2, (0,)),
    )
    with pytest.raises(PreconditionError, match="intersection"):
        eq1_check(declared, U1)


def test_lift_report_shamir(shamir_table):
    assert lift_report(shamir_table, mask(1, n=3), seed=5).passed


def test_lift_report_counterexample(counterexample):
    report = lift_report(counterexample, U1, seed=5)
    assert not report.passed
    assert report.max_distance > 1e-6
    assert report.witness is not None


def test_lift_report_default_probes(shamir_table, monkeypatch):
    families = []
    probe_family = condition.probe_family

    def recorded(*args, **kwargs):
        families.append(probe_family(*args, **kwargs))
        return families[-1]

    monkeypatch.setattr(condition, "probe_family", recorded)
    lift_report(shamir_table, mask(1, n=3), seed=5)
    (family,) = families
    basis = [f"basis:{s}" for s in range(5)]
    assert [name for name, _ in family] == basis + ["uniform"] + [f"random:{i}" for i in range(10)]


def test_lift_single_secret_scheme():
    # one secret, carried verbatim by player 2; player 1 uniform noise
    table = {
        (0, (0, 0)): Fraction(1, 2),
        (0, (1, 0)): Fraction(1, 2),
    }
    sch = ClassicalScheme.from_table(
        2, 1, (2, 1), table, structure=AdversaryStructure(2, (0b01,))
    )
    assert lift_report(sch, U1).passed
    assert eq1_check(sch, U1)


def test_lift_report_refuses_a_family_past_the_probe_pair_guard(monkeypatch):
    def labelled(count):
        # player 2's share names the secret, player 1 always holds 0
        return ClassicalScheme(2, count, (1, count), range(count), [[0] * count, range(count)],
                               [1] * count, 1)

    # the basis probes, the uniform one and ten random ones: 447 probes make
    # 99,681 pairs, inside the guard of 100,000, and 448 pass it
    assert lift_report(labelled(436), U1).passed
    past = labelled(437)
    # the numpy calls that build probe vectors fail: none may run before the refusal
    monkeypatch.setattr(quantum, "np", NumpyWithout("eye", "full", "random"))
    with pytest.raises(ValueError, match=r"^448 probes make 100128 pairs per coalition"):
        lift_report(past, U1)


def _diagonal_views_text(size_q):
    """Player 1 holds a uniform bit u; player 2's share 2u + s names both
    it and the secret s, so U = {1} has diagonal views."""
    return (f"scheme n=2 secrets=2\nspace 1 1000\nspace 2 {size_q}\n"
            "p 0 0 0 1/2\np 0 1 2 1/2\np 1 0 1 1/2\np 1 1 3 1/2\n")


def _uniform_pair_text(a):
    """Player 1 holds a uniform u < a; player 2's share 2u + s names both
    it and the secret s: a x 2a shares dealt, and U = {1} has diagonal views."""
    rows = "".join(f"p {s} {u} {2 * u + s} 1/{a}\n" for s in range(2) for u in range(a))
    return f"scheme n=2 secrets=2\nspace 1 {a}\nspace 2 {2 * a}\n" + rows


def test_lift_report_decides_tables_whose_dealt_codes_multiply_past_a_million(monkeypatch, tmp_path, capsys):
    # a probe's lifted state on every player's dealt codes would span
    # 708 x 1416 = 1,002,528 dimensions, or 2048 x 4096; the one trace keeps
    # the secret register and U's codes, 2 x 708 or 2 x 2048 diagonal dimensions
    for a in (707, 708, 2048):
        sch = parse_scheme(_uniform_pair_text(a))
        assert eq1_check(sch, U1) and lift_report(sch, U1).passed
    # declared spaces 1000 x 1001 with 2 x 4 shares dealt, and the 708 table
    path = tmp_path / "wide.scheme"
    for text in (_diagonal_views_text(1001), _uniform_pair_text(708)):
        path.write_text(text)
        assert main(["condition", "check", str(path), "--set", "1"]) == 0
        assert capsys.readouterr() == ("eq1=true oracle=true agree=true\n", "")
    # what the oracle builds stays bounded by the guards that remain: the
    # trace's 1,416 dimensions pass a reduced-dimension guard of 1416 and not
    # one of 1415, and the split pair guard counts the pairs of rows sharing
    # a Q-word, none here, so even a guard of 0 admits the table
    sch = parse_scheme(_uniform_pair_text(708))
    monkeypatch.setattr(condition, "SPLIT_PAIR_GUARD", 0)
    monkeypatch.setattr(quantum, "REDUCTION_DIM_GUARD", 1416)
    assert lift_report(sch, U1).passed
    monkeypatch.setattr(quantum, "REDUCTION_DIM_GUARD", 1415)
    message = "reduced dimension 1416 exceeds the exact-simulation guard (1415)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lift_report(sch, U1)
    assert main(["condition", "check", str(path), "--set", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _five_secret_text(size):
    """Five secrets; player 1 holds a uniform u < size, player 2 the secret
    beside u // 4: four rows share each Q-word, and the oracle's one trace
    keeps the secret register and player 1's codes, 5 x size dimensions."""
    rows = "".join(f"p {s} {u} {5 * (u // 4) + s} 1/{size}\n" for s in range(5) for u in range(size))
    return f"scheme n=2 secrets=5\nspace 1 {size}\nspace 2 {5 * -(-size // 4)}\n" + rows


def test_lift_report_at_and_past_the_reduced_dimension_guard(monkeypatch, tmp_path, capsys):
    # the trace keeps the secret register beside U: 5 x 820 = 4,100 dimensions
    # pass the guard of 4096, though U's 820 codes alone lie inside it
    past = tmp_path / "past.scheme"
    past.write_text(_five_secret_text(820))
    message = "reduced dimension 4100 exceeds the exact-simulation guard (4096)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lift_report(parse_scheme(past.read_text()), U1)
    assert main(["condition", "check", str(past), "--set", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # the edge is inclusive: 5 x 8 = 40 dimensions pass a guard of 40 and not one of 39
    small = tmp_path / "small.scheme"
    small.write_text(_five_secret_text(8))
    monkeypatch.setattr(quantum, "REDUCTION_DIM_GUARD", 40)
    assert lift_report(parse_scheme(small.read_text()), U1).passed
    assert main(["condition", "check", str(small), "--set", "1"]) == 0
    assert capsys.readouterr() == ("eq1=true oracle=true agree=true\n", "")
    monkeypatch.setattr(quantum, "REDUCTION_DIM_GUARD", 39)
    message = "reduced dimension 40 exceeds the exact-simulation guard (39)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lift_report(parse_scheme(small.read_text()), U1)
    assert main(["condition", "check", str(small), "--set", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _noise_text(size):
    """Player 2's share is the secret s; player 1 holds a uniform u < size,
    independent of it: each secret's Q-word is held by size rows, so
    size * (size - 1) pairs of rows share a Q-word."""
    rows = "".join(f"p {s} {u} {s} 1/{size}\n" for s in range(2) for u in range(size))
    return f"scheme n=2 secrets=2\nspace 1 {size}\nspace 2 2\n" + rows


class Built(Exception):
    pass


def _fail(*args):
    raise Built


def test_split_pair_guard_at_and_past_its_edge(monkeypatch, tmp_path, capsys):
    # 512 * 511 = 261,632 pairs lie inside the guard of 2**18 = 262,144,
    # and 513 * 512 = 262,656 pass it
    assert condition.SPLIT_PAIR_GUARD == 2**18
    at_edge, past = parse_scheme(_noise_text(512)), parse_scheme(_noise_text(513))
    assert eq1_check(at_edge, U1)
    # the oracle gets past the guard to its state, which fails here
    monkeypatch.setattr(condition, "QuantumState", _fail)
    with pytest.raises(Built):
        lift_report(at_edge, U1)
    # past the guard, neither check builds anything
    monkeypatch.setattr(condition, "_square_classes", _fail)
    message = r"^262656 pairs of rows share a Q-word, past the split pair guard \(262144\)$"
    for check in (eq1_check, lift_report):
        with pytest.raises(ValueError, match=message):
            check(past, U1)
    path = tmp_path / "past.scheme"
    path.write_text(_noise_text(513))
    assert main(["condition", "check", str(path), "--set", "1"]) == 2
    assert capsys.readouterr() == ("", "error: 262656 pairs of rows share a Q-word, "
                                       "past the split pair guard (262144)\n")
    # the edge is inclusive: 8 * 7 = 56 pairs pass a guard of 56 and not one of 55
    small = parse_scheme(_noise_text(8))
    monkeypatch.setattr(condition, "SPLIT_PAIR_GUARD", 56)
    with pytest.raises(Built):
        eq1_check(small, U1)
    monkeypatch.setattr(condition, "SPLIT_PAIR_GUARD", 55)
    with pytest.raises(ValueError, match=r"^56 pairs of rows share a Q-word"):
        eq1_check(small, U1)


def test_split_pair_guard_counts_no_pair_when_q_names_u(monkeypatch):
    # each Q-word is held by one row, so the 1414 rows make no pair and even
    # a guard of 0 admits the split
    monkeypatch.setattr(condition, "SPLIT_PAIR_GUARD", 0)
    assert eq1_check(parse_scheme(_uniform_pair_text(707)), U1)


# How far the oracle's distances may lie from its references': both sides
# sum the same products of amplitudes in other orders, and eigvalsh rounds.
# The bound derived in CHANGES.md, (m (m + 8) / 2 + d**2) eps for views of
# d dimensions with at most m terms an entry, is under 2e-14 on the tables
# below (d, m <= 6 on dense views; m = 1 on the 49-dimensional diagonal
# ones, which eigvalsh returns exactly); 1e-12 leaves room for eigvalsh's
# own constant, which LAPACK does not state.
DISTANCE_BOUND = 1e-12


def assert_same_report(report, reference, sch, u, seed=0):
    """The verdict exact, the distance within DISTANCE_BOUND, and a failing
    report's witness exact unless the reference's largest distance is tied
    within the bound by the oracle's witness."""
    assert report.passed == reference.passed, (format_scheme(sch), u, seed)
    assert abs(report.max_distance - reference.max_distance) <= DISTANCE_BOUND, (format_scheme(sch), u, seed)
    if not reference.passed and report.witness != reference.witness:
        views = ref_probe_views(sch, u, seed)
        tied = trace_distance(*(views[name] for name in report.witness))
        assert reference.max_distance - tied <= DISTANCE_BOUND, (format_scheme(sch), u, seed)


def test_lift_report_matches_dict_reference(shamir_table):
    fixture = Path(__file__).parent / "fixtures" / "counterexample.scheme"
    cases = [(shamir_table, u) for u in range(8)]
    cases.append((parse_scheme(fixture.read_text()), U1))
    # the golden random tables too: the verdict, the largest distance and its
    # witness must be those the reference finds with one trace_distance call
    # per pair
    for seed in (0, 1, 2026):
        schemes = generate_valid_schemes(
            60, seed, max_secrets=4, max_share_size=6, max_denominator=24
        )
        cases += [(sch, u) for sch in schemes for u in range(4)]
    verdicts = set()
    for sch, u in cases:
        outcome, reference = _check_outcome(lift_report, sch, u), _check_outcome(ref_lift_report, sch, u)
        if isinstance(reference, str):
            assert outcome == reference, (format_scheme(sch), u)
        else:
            assert_same_report(outcome, reference, sch, u)
        verdicts.add(getattr(outcome, "passed", None))
    assert verdicts == {True, False, None}


def _count_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_diagonal_views_match_eigvalsh_reference_without_eigvalsh(monkeypatch):
    # every split of Shamir(5,2) over GF(7) in the structure and its dual:
    # Q determines U's shares, so every view is diagonal
    sch = scheme_from_msp(shamir_msp(5, 2, Field(7)))
    splits = [u for u in range(32) if bin(u).count("1") <= 2]
    assert len(splits) == 16
    # the same table with player 1's share space widened from 7 to 9 values:
    # the diagonal entries of values 7 and 8 are off the support, exact zeros
    columns = [np.array(v)[c] for v, c in zip(sch.share_values, sch.codes.T)]
    wide = ClassicalScheme(5, 7, (9, 7, 7, 7, 7), sch.secrets, columns, sch.numerators, sch.denominator)
    cases = [(sch, u, seed) for u in splits for seed in (0, 4)]
    cases += [(wide, u, 1) for u in splits if u & 1]
    expected = [ref_eigvalsh_lift_report(sch, u, seed) for sch, u, seed in cases]
    calls = _count_eigvalsh(monkeypatch)
    # the labels are checked once per report, by its one state
    checks = []
    post_init = QuantumState.__post_init__
    monkeypatch.setattr(QuantumState, "__post_init__", lambda state: post_init(state) or checks.append(1))
    for (sch, u, seed), reference in zip(cases, expected):
        assert_same_report(lift_report(sch, u, seed=seed), reference, sch, u, seed)
    assert calls == [] and len(checks) == len(cases)
    assert {report.passed for report in expected} == {True}
    assert any(report.max_distance > 0 for report in expected)


def test_dense_views_still_call_eigvalsh(monkeypatch, counterexample):
    fixture = Path(__file__).parent / "fixtures" / "counterexample.scheme"
    cases = [(parse_scheme(fixture.read_text()), 0), (counterexample, 5)]
    expected = [ref_eigvalsh_lift_report(sch, U1, seed) for sch, seed in cases]
    calls = _count_eigvalsh(monkeypatch)
    for chunk in (quantum._PAIR_CHUNK, 7):
        monkeypatch.setattr(quantum, "_PAIR_CHUNK", chunk)
        for (sch, seed), reference in zip(cases, expected):
            calls.clear()
            assert_same_report(lift_report(sch, U1, seed=seed), reference, sch, U1, seed)
            # one call per slice of the pairs a < b, each slice of at most
            # max(one pair's entries, _PAIR_CHUNK) entries
            entries = sch.share_sizes[0] ** 2
            probes = len(quantum.probe_family(sch.secret_count, seed, n_random=10))
            pairs = probes * (probes - 1) // 2
            assert len(calls) == -(-pairs // max(chunk // entries, 1))
            assert max(math.prod(shape) for shape in calls) <= max(entries, chunk)
    assert len(calls) > 1
    assert not any(report.passed for report in expected)


def _report_corpus(seeds):
    """The convert benchmark's random tables at the seeds, every Shamir(5,2)
    GF(7) split and the committed counterexample, as (table, split, seed)."""
    cases = [
        (sch, U1, seed)
        for seed in seeds
        for sch in generate_valid_schemes(200, seed, max_secrets=4, max_share_size=6, max_denominator=24)
    ]
    shamir = scheme_from_msp(shamir_msp(5, 2, Field(7)))
    cases += [(shamir, u, 1) for u in range(32) if bin(u).count("1") <= 2]
    fixture = Path(__file__).parent / "fixtures" / "counterexample.scheme"
    cases.append((parse_scheme(fixture.read_text()), U1, 1))
    return cases


def test_lift_report_matches_the_per_probe_reference_within_round_off(monkeypatch):
    cases = _report_corpus((1, 2, 3))
    expected = [ref_per_probe_lift_report(sch, u, seed) for sch, u, seed in cases]
    assert {report.passed for report in expected} == {True, False}
    for (sch, u, seed), reference in zip(cases, expected):
        assert_same_report(lift_report(sch, u, seed=seed), reference, sch, u, seed)
    # again with chunks so small that many traces and eigvalsh stacks split
    monkeypatch.setattr(quantum, "_PAIR_CHUNK", 7)
    assert [ref_per_probe_lift_report(sch, u, seed) for sch, u, seed in cases] == expected
    sums = []
    bincount = np.bincount

    def counted(x, weights=None, minlength=0):
        out = bincount(x, weights, minlength)
        if weights is not None:
            sums.append((len(weights), len(out)))
        return out

    monkeypatch.setattr(np, "bincount", counted)
    eigvalsh_calls = _count_eigvalsh(monkeypatch)
    slices, chunks = [], []
    for (sch, u, seed), reference in zip(cases, expected):
        sums.clear()
        before = len(eigvalsh_calls)
        assert_same_report(lift_report(sch, u, seed=seed), reference, sch, u, seed)
        slices.append(len(eigvalsh_calls) - before)
        # one trace in chunks, each adding at most _PAIR_CHUNK complex terms,
        # as real and imaginary parts, to the sums so far
        prior = [0] + [size for _, size in sums[:-1]]
        chunks.append(len(sums))
        assert all(weights - size <= 2 * 7 for (weights, _), size in zip(sums, prior))
    assert max(slices) > 1 and max(chunks) > 1


def test_one_trace_holds_each_basis_probes_view_as_a_block(monkeypatch):
    # the oracle's one trace on the secret register and U, against each basis
    # probe's U-view from its own single-state trace on the codes: no entry
    # joins two secrets, and block s times S is the view of basis probe s
    traces = []

    def recorded(state, keep):
        traces.append(quantum.partial_trace(state, keep))
        return traces[-1]

    monkeypatch.setattr(condition, "partial_trace", recorded)
    cases = _report_corpus((1, 2, 3, 4, 5))
    assert len(cases) == 1017
    for sch, u, seed in cases:
        lift_report(sch, u, seed=seed)
        trace = traces.pop()
        count = sch.secret_count
        u_coords = [i for i in range(sch.n) if u >> i & 1]
        u_dim = math.prod(sch._dims[1 + i] for i in u_coords)
        assert trace.dims == (count, *(sch._dims[1 + i] for i in u_coords))
        rows, cols = np.divmod(trace.index, trace.dim)
        assert (rows // u_dim == cols // u_dim).all()
        blocks = trace.mat.reshape(count, u_dim, count, u_dim)
        roots = np.array([(w / sch.denominator) ** 0.5 for w in sch.numerators.tolist()])
        for s in range(count):
            dealt = sch.secrets == s
            basis = QuantumState(tuple(sch._dims[1:]), sch.codes[dealt], roots[dealt])
            view = quantum.partial_trace(basis, u_coords)
            assert np.abs(blocks[s, :, s] * count - view.mat).max() <= DISTANCE_BOUND


def test_eigvalsh_of_diagonal_matrices_is_the_sorted_diagonal():
    # the identity the references' diagonal read-off rests on, for stacks of
    # diagonals of mixed magnitudes with exact zeros; eigvalsh reads only the
    # real part of a Hermitian diagonal
    rng = np.random.default_rng(2026)
    zeros_change_the_sum = 0
    for _ in range(200):
        k, dim = int(rng.integers(1, 5)), int(rng.integers(1, 64))
        diagonals = rng.standard_normal((k, dim)) * 10.0 ** rng.integers(-18, 1, (k, dim))
        diagonals[rng.random((k, dim)) < 0.3] = 0.0
        mats = np.zeros((k, dim, dim), dtype=complex)
        mats[:, range(dim), range(dim)] = diagonals + 1e-17j * rng.standard_normal((k, dim))
        spectra = np.sort(diagonals, axis=1)
        assert np.linalg.eigvalsh(mats).tobytes() == spectra.tobytes()
        sums = np.abs(spectra).sum(axis=1)
        assert np.abs(np.linalg.eigvalsh(mats)).sum(axis=1).tobytes() == sums.tobytes()
        zeros_change_the_sum += sum(
            np.abs(np.sort(row[row != 0])).sum() != total for row, total in zip(diagonals, sums)
        )
    # so the zeros off the support are kept, not dropped
    assert zeros_change_the_sum > 0


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


def _homomorphic_outcome(build, spec):
    """(share sizes, table items in insertion order), or the ValueError text."""
    try:
        out = build(spec)
    except ValueError as exc:
        return str(exc)
    if isinstance(out, ClassicalScheme):
        return out.share_sizes, list(out.table.items())
    return out


def test_homomorphic_scheme_matches_reference_on_search_specs(monkeypatch):
    # every two-share spec of arity 1 or 2 over Z_2..Z_4, the arity-2 ones
    # (never injective) included, so the kernel-size refusal keeps its oracle
    specs = [
        HomomorphicSpec((modulus,), arity, rows)
        for modulus in range(2, 5)
        for arity in (1, 2)
        for rows in itertools.product(
            list(itertools.product(range(modulus), repeat=arity + 1)), repeat=2
        )
    ]
    assert len(specs) == 5242
    outcomes = [_homomorphic_outcome(homomorphic_scheme, spec) for spec in specs]
    for spec, outcome in zip(specs, outcomes):
        assert outcome == _homomorphic_outcome(ref_homomorphic_table, spec), spec
    injective = [(spec, out) for spec, out in zip(specs, outcomes) if not isinstance(out, str)]
    assert len(injective) == 150 and all(spec.m == 1 for spec, _ in injective)
    # the search deals only the 353 arity-1 specs and yields those 150, in order
    seen = []
    build = condition.homomorphic_scheme

    def recording(spec):
        seen.append(spec)
        return build(spec)

    monkeypatch.setattr(condition, "homomorphic_scheme", recording)
    found = list(condition._homomorphic_candidates(4))
    assert seen == [spec for spec in specs if spec.m == 1] and len(seen) == 353
    assert [(sch.share_sizes, list(sch.table.items())) for sch in found] == [
        out for _, out in injective
    ]


def _product_and_wide_specs():
    rng = random.Random(5)
    for moduli in [(2, 2), (2, 3), (3, 3)]:
        for m in (0, 1, 2):
            identity = tuple(tuple(int(i == j) for j in range(m + 1)) for i in range(m + 1))
            yield HomomorphicSpec(moduli, m, identity)
            for _ in range(6):
                rows = tuple(
                    tuple(rng.randint(-9, 9) for _ in range(m + 1))
                    for _ in range(rng.randint(1, 3))
                )
                yield HomomorphicSpec(moduli, m, rows)
    # entries reduced mod each modulus before any fixed-width arithmetic
    yield HomomorphicSpec((5,), 1, ((1, -1), (2**64 + 1, 3 - 2**70)))
    yield HomomorphicSpec((6,), 1, ((2**63, 1), (-(2**63) - 1, 2**65 - 1)))
    yield HomomorphicSpec((2, 3), 1, ((2**63 + 1, -7), (-1, 2**100)))
    yield HomomorphicSpec((3, 3), 2, ((-(2**64), 1, 0), (0, 2**64, 1), (1, 1, -(2**80))))
    # 10**8 inputs: refused by the enumeration guard
    yield HomomorphicSpec((10,), 7, ((1,) * 8,))


@pytest.mark.parametrize("build", [
    lambda: verify_classical(shamir_msp(3, 1, Field(5))),
    lambda: scheme_from_msp(shamir_msp(3, 1, Field(5))),
    lambda: homomorphic_scheme(HomomorphicSpec((5,), 1, ((1, 0), (1, 1)))),
], ids=["verify_classical", "scheme_from_msp", "homomorphic_scheme"])
def test_dealt_tables_are_refused_past_the_guard_before_any_work(monkeypatch, build):
    calls = []
    monkeypatch.setattr(msp_module, "ENUMERATION_GUARD", 10)
    for module, name in ((classical, "solve_left"), (classical, "msp_structure"),
                         (condition, "msp_structure")):
        monkeypatch.setattr(module, name, lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"^25 deals exceed the enumeration guard \(10\)$"):
        build()
    assert calls == []


def test_homomorphic_scheme_matches_reference_on_product_groups():
    outcomes = []
    for spec in _product_and_wide_specs():
        outcome = _homomorphic_outcome(homomorphic_scheme, spec)
        assert outcome == _homomorphic_outcome(ref_homomorphic_table, spec), spec
        outcomes.append(outcome)
    assert sum(not isinstance(o, str) for o in outcomes) >= 10
    assert any("injective" in o for o in outcomes if isinstance(o, str))
    assert outcomes[-1] == "100000000 deals exceed the enumeration guard (10000000)"


def test_scheme_player_cap_refused_before_structure(monkeypatch):
    calls = []
    monkeypatch.setattr(condition, "check_secrecy", lambda *args: calls.append(args) or True)
    text = "scheme n=17 secrets=1\n" + "".join(f"space {i} 1\n" for i in range(1, 18))
    text += "p 0 " + "0 " * 17 + "1\n"
    with pytest.raises(FormatError) as exc:
        parse_scheme(text)
    assert str(exc.value) == "player count must lie in 1..16, got 17"
    assert calls == []


def _sixteen_player_text(rows):
    """One secret dealt as `rows` distinct 16-bit words, equiprobable."""
    text = "scheme n=16 secrets=1\n" + "".join(f"space {i} 2\n" for i in range(1, 17))
    for r in range(rows):
        text += "p 0 " + " ".join(str(r >> i & 1) for i in range(16)) + f" 1/{rows}\n"
    return text


def test_scheme_structure_derivation_bounded(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(condition, "check_secrecy", lambda *args: calls.append(args) or True)
    # 153 * 2**16 is above the guard of 10**7, 152 * 2**16 below it
    with pytest.raises(FormatError) as exc:
        parse_scheme(_sixteen_player_text(153))
    assert str(exc.value) == (
        "153 rows times 65536 player sets exceed the enumeration guard (10000000)"
    )
    assert calls == []
    path = tmp_path / "wide.scheme"
    path.write_text(_sixteen_player_text(153))
    assert main(["condition", "check", str(path), "--set", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {exc.value}\n"
    assert calls == []
    # one secret: every set is tolerable, so no set needs a secrecy check
    assert parse_scheme(_sixteen_player_text(152)).structure.maximal == (0xFFFF,)
    assert calls == []


def _two_secret_sixteen_player_text():
    """Player 1 holds r < 76, player 2 holds r + s mod 76 and the other 14
    players hold 0: 152 rows, and every player set without both 1 and 2
    learns nothing, so the structure has 49,152 members."""
    rows = "".join(f"p {s} {r} {(r + s) % 76}" + " 0" * 14 + " 1/76\n" for s in range(2) for r in range(76))
    return ("scheme n=16 secrets=2\nspace 1 76\nspace 2 76\n"
            + "".join(f"space {i} 1\n" for i in range(3, 17)) + rows)


def test_sixteen_player_split_is_decided_without_the_structure(monkeypatch, tmp_path, capsys):
    # a split is decided from its own keys: the 65,536 player sets of the
    # derived structure are not tested to parse the table or to check U = {3..16}
    path = tmp_path / "sixteen.scheme"
    path.write_text(_two_secret_sixteen_player_text())
    monkeypatch.setattr(condition, "_derive_structure", _fail)
    assert main(["condition", "check", str(path), "--set", ",".join(map(str, range(3, 17)))]) == 0
    assert capsys.readouterr() == ("eq1=true oracle=true agree=true\n", "")
    monkeypatch.undo()
    # read, the structure is still derived: it is the closed form, and on a
    # seeded sample of sets it answers as the reference's dict-walk secrecy
    # check does (all 65,536 of them take about a minute)
    sch = parse_scheme(path.read_text())
    everyone = (1 << 16) - 1
    assert sch.structure == AdversaryStructure(16, (everyone ^ 0b01, everyone ^ 0b10))
    rng = random.Random(16)
    for b in [0, 0b11, everyone, everyone ^ 0b11] + [rng.randrange(1 << 16) for _ in range(200)]:
        assert sch.structure.is_member(b) == ref_check_secrecy(sch, b), b


def test_condition_check_decides_each_split_once(monkeypatch, capsys):
    # eq1_check then lift_report on one table build the split's four key
    # arrays and run one secrecy analysis; the verdict is cached on the table
    keys, marginals = [], []
    build, same = condition._keys, condition._same_marginals

    def counted(*args, **kwargs):
        keys.append(args[1:] + tuple(kwargs.values()))
        return build(*args, **kwargs)

    monkeypatch.setattr(condition, "_keys", counted)
    monkeypatch.setattr(condition, "_same_marginals", lambda *args: marginals.append(1) or same(*args))
    monkeypatch.setattr(condition, "_derive_structure", _fail)
    sch = parse_scheme((FIXTURES / "counterexample.scheme").read_text())
    assert not eq1_check(sch, U1) and not lift_report(sch, U1).passed
    assert sorted(keys) == [(0b01, False), (0b01, True), (0b10, False), (0b10, True)] and marginals == [1]
    assert sch._verdicts == {U1: None}
    # a refused split is refused again from its cached message, and the CLI's
    # condition check decides its one split once, beside its validity check
    with pytest.raises(PreconditionError, match="not correct"):
        eq1_check(sch, 0b10)
    keys.clear()
    with pytest.raises(PreconditionError, match="not correct"):
        lift_report(sch, 0b10)
    assert keys == [] and len(marginals) == 1
    assert main(["condition", "check", str(FIXTURES / "counterexample.scheme"), "--set", "1"]) == 1
    assert capsys.readouterr() == ("eq1=false oracle=false agree=true\n", "")
    assert len(keys) == 2 + 4 and len(marginals) == 2


def test_homomorphic_search_reads_no_structure(monkeypatch):
    # its 150 injective candidates are decided by their own keys; 120 of
    # them fail Q's correctness, and none derives its structure
    monkeypatch.setattr(condition, "_derive_structure", _fail)
    assert search_counterexample(family="homomorphic", max_share_size=4) is None


def test_probe_pairs_are_built_once_per_count():
    first, second = quantum._probe_pairs(16)
    assert quantum._probe_pairs(16)[0] is first
    assert [a.tolist() for a in (first, second)] == [a.tolist() for a in np.triu_indices(16, 1)]
    for index in (first, second):
        with pytest.raises(ValueError):
            index[0] = 1


def _rederived(sch):
    """The same table with no claimed structure, so that one is derived."""
    shares = [np.array(v, dtype=object)[c] for v, c in zip(sch.share_values, sch.codes.T)]
    return ClassicalScheme(
        sch.n, sch.secret_count, sch.share_sizes, sch.secrets, shares, sch.numerators, sch.denominator
    )


def test_bottom_up_structure_matches_all_masks(monkeypatch):
    orand = compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5)
    msps = [shamir_msp(5, 2, Field(7)), extend_msp(orand), _past_int64_msp()]
    schemes = [sch for seed in (0, 1, 2) for sch in generate_valid_schemes(
        200, seed, max_secrets=4, max_share_size=6, max_denominator=24)]
    schemes += list(condition._homomorphic_candidates(4))
    for sch in schemes:
        assert sch.structure == ref_derive_structure(sch), format_scheme(sch)
    for msp in msps:
        sch = _rederived(scheme_from_msp(msp))
        assert sch.structure == ref_derive_structure(sch) == msp_structure(msp)
    # nothing is tested at construction; on the first read of the structure
    # Shamir(5,2) tests its 16 sets of at most two players and the 10 sets
    # of three, each of whose two-player subsets is tolerable: 26 of 32; a
    # second read tests none
    calls = []
    check = condition.check_secrecy
    monkeypatch.setattr(condition, "check_secrecy", lambda *args: calls.append(args[1]) or check(*args))
    sch = _rederived(scheme_from_msp(msps[0]))
    assert calls == []
    assert sch.structure == msp_structure(msps[0])
    assert sorted(calls) == sorted(b for b in range(32) if bin(b).count("1") <= 3)
    assert sch.structure is sch.structure and len(calls) == 26


def _split_outcome(check, sch, u):
    """None, or the type and message of the error a split check raises."""
    try:
        check(sch, u)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return None


def test_split_verdicts_match_the_reference():
    orand = compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5)
    msps = [shamir_msp(3, 1, GF5), shamir_msp(5, 2, Field(7)), extend_msp(orand), _past_int64_msp()]
    given = [scheme_from_msp(msp) for msp in msps]
    derived = [_rederived(sch) for sch in given]
    derived.append(parse_scheme((FIXTURES / "counterexample.scheme").read_text()))
    derived += [sch for seed in (0, 1, 2) for sch in generate_valid_schemes(
        200, seed, max_secrets=4, max_share_size=6, max_denominator=24)]
    derived += list(condition._homomorphic_candidates(4))
    # one secret: with a claimed structure, and with the derived full one, whose dual is empty
    pad = {(0, (0, 0)): Fraction(1, 2), (0, (1, 0)): Fraction(1, 2)}
    given.append(ClassicalScheme.from_table(2, 1, (2, 1), pad, structure=AdversaryStructure(2, (U1,))))
    derived.append(ClassicalScheme.from_table(2, 1, (2, 1), pad))
    # a table that copies the secret to both players is correct for {2} but not secret for {1}
    copying = {(0, (0, 0)): Fraction(1), (1, (1, 1)): Fraction(1)}
    given.append(ClassicalScheme.from_table(2, 2, (2, 2), copying, structure=AdversaryStructure(2, (U1,))))
    derived.append(ClassicalScheme.from_table(2, 2, (2, 2), copying))
    kinds = set()
    for sch in given + derived:
        # every verdict first, so that a derived structure is not read before it
        outcomes = [_split_outcome(condition._decide_split, sch, u) for u in range(1 << sch.n)]
        if sch in derived:
            assert "structure" not in vars(sch), format_scheme(sch)
            reference = ref_derive_structure(sch)
            for u, outcome in enumerate(outcomes):
                # past correctness and secrecy, U's membership by definition is the reference's bits
                if outcome is None or "intersection" in outcome[1]:
                    inside = reference.is_member(u) and reference.dual().is_member(u)
                    assert (outcome is None) == inside, (format_scheme(sch), u)
        for u, outcome in enumerate(outcomes):
            assert outcome == _split_outcome(ref_split_preconditions, sch, u), (format_scheme(sch), u)
            kinds.add(outcome and next(kind for kind in ("not correct", "not secret", "intersection")
                                       if kind in outcome[1]))
    assert kinds == {None, "not correct", "not secret", "intersection"}


def test_scheme_arrays_hold_the_table(shamir_table):
    sch = scheme_from_msp(_past_int64_msp())
    assert sch.codes.dtype == np.int64 and sch.codes.shape == (len(sch.table), 2)
    assert sch.share_values[0][-1] >= 2**63  # exact Python ints past int64
    for array in (sch.secrets, sch.codes, sch.numerators):
        with pytest.raises(ValueError):
            array[0] = 0
    with pytest.raises(TypeError):
        sch.table[(0, (0, 0))] = Fraction(1)
    # rows of one (s, y) merge in first-row order; zero rows drop out
    merged = ClassicalScheme(1, 1, (3,), [0, 0, 0, 0], [[2, 1, 2, 0]], [1, 3, 2, 0], 6)
    assert list(merged.table.items()) == [((0, (2,)), Fraction(1, 2)), ((0, (1,)), Fraction(1, 2))]
    # huge weights keep Python-int numerators
    tiny = Fraction(1, 2**70)
    big = ClassicalScheme.from_table(1, 1, (2,), {(0, (0,)): tiny, (0, (1,)): 1 - tiny})
    assert big.numerators.dtype == object and big.denominator == 2**70
    with pytest.raises(ValueError, match="one numerator and one share"):
        ClassicalScheme(1, 1, (2,), [0, 0], [[0]], [1, 1], 2)
    with pytest.raises(ValueError, match="share column per player"):
        ClassicalScheme(2, 1, (2, 2), [0], [[0]], [1], 1)


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
    skewed = ClassicalScheme.from_table(
        2,
        1,
        (2, 2),
        {(0, (0, 0)): Fraction(1, 3), (0, (1, 0)): Fraction(2, 3)},
    )
    assert not homomorphic_dichotomy_check(skewed, U1)


def _check_outcome(check, sch, u):
    """The verdict, or the PreconditionError text."""
    try:
        return check(sch, u)
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


def _walked_rows(sch, u):
    """How many rows eq1_check walks on the split: those sharing their
    (secret, Q-word) column with another row."""
    _, counts = np.unique(condition._keys(sch, (1 << sch.n) - 1 - u, secret=True), return_counts=True)
    return int(counts[counts > 1].sum())


def _assert_checks_match_reference(schemes, dichotomy_splits=None):
    """eq1 agrees with its pair-loop oracle and correctness with its
    np.unique count on every split, and the dichotomy on every split or on
    ``dichotomy_splits``; returns how many dichotomy verdicts of each value
    were compared and on how many splits eq1 gave a verdict after walking
    some Q-column of two or more rows."""
    seen = {True: 0, False: 0, "walked": 0}
    for sch in schemes:
        for u in range(1 << sch.n):
            assert check_correctness(sch, u) == ref_check_correctness(sch, u), (format_scheme(sch), u)
            eq1 = _check_outcome(eq1_check, sch, u)
            assert eq1 == _check_outcome(ref_eq1_check, sch, u), (format_scheme(sch), u)
            seen["walked"] += isinstance(eq1, bool) and _walked_rows(sch, u) > 0
        for u in dichotomy_splits or range(1 << sch.n):
            verdict = homomorphic_dichotomy_check(sch, u)
            assert verdict == ref_homomorphic_dichotomy_check(sch, u), (format_scheme(sch), u)
            seen[verdict] += 1
    return seen


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_checks_match_reference_on_generated_tables(seed):
    schemes = generate_valid_schemes(200, seed, max_secrets=4, max_share_size=6, max_denominator=24)
    verdicts = [eq1_check(sch, U1) for sch in schemes]
    assert 0 < sum(verdicts) < len(verdicts)
    seen = _assert_checks_match_reference(schemes)
    assert seen[True] and seen[False] and seen["walked"]


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"max_secrets": 3, "max_share_size": 4, "max_denominator": 3},
        {"max_denominator": 4, "family": "function"},
        {"max_share_size": 3, "family": "homomorphic"},
    ],
)
def test_checks_match_reference_on_search_streams(monkeypatch, kwargs):
    streamed = []
    eq1 = condition.eq1_check

    def recording(sch, u):
        streamed.append(sch)
        return eq1(sch, u)

    monkeypatch.setattr(condition, "eq1_check", recording)
    condition.search_counterexample(**kwargs)
    assert streamed
    seen = _assert_checks_match_reference(streamed)
    # in family="function" Q's share determines U's; the others stream
    # tables with a Q-word seen with several U-words
    assert bool(seen["walked"]) == (kwargs.get("family") != "function")


def test_checks_match_reference_on_homomorphic_candidates():
    schemes = list(condition._homomorphic_candidates(4))
    assert len(schemes) == 150
    assert _assert_checks_match_reference(schemes)["walked"]


def test_checks_match_reference_on_the_committed_counterexample():
    sch = parse_scheme((FIXTURES / "counterexample.scheme").read_text())
    # secret 1's two rows share Q-word 2
    assert _walked_rows(sch, U1) == 2
    assert _assert_checks_match_reference([sch])["walked"]


def test_checks_match_reference_on_msp_tables(shamir_table):
    # every split of a linear table: Q determines U's shares, so eq1 walks no row
    assert not _assert_checks_match_reference([shamir_table])["walked"]
    # the dichotomy's pair-loop oracle takes minutes on all 32 splits of
    # Shamir(5,2) (about 16 s on one split of size 3), so here it runs on
    # the splits of sizes 0, 1 and 5 and on one split each of sizes 2 and 4
    splits = [u for u in range(32) if bin(u).count("1") in (0, 1, 5)] + [0b00011, 0b01111]
    _assert_checks_match_reference([scheme_from_msp(shamir_msp(5, 2, Field(7)))], splits)


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


def test_table_count_is_the_length_of_the_candidate_stream(monkeypatch):
    # the stream's tables are counted, not built
    monkeypatch.setattr(condition, "_scheme_from_numerators", lambda *args: None)
    for bounds in [(2, 3, 4), (3, 3, 3), (2, 2, 5), (3, 4, 2), (4, 4, 2), (1, 3, 5), (3, 1, 5), (2, 3, 1)]:
        streamed = sum(1 for _ in condition._table_candidates(*bounds, False))
        assert condition._table_count(*bounds, cap=10**9) == streamed, bounds
    # the defaults, the golden (3, 4, 3) search, the widest the exit-code
    # fuzz draws and the minute-long function search
    assert condition._table_count(2, 3, 8, cap=10**9) == 21_322
    assert condition._table_count(3, 4, 3, cap=10**9) == 25_852
    assert condition._table_count(3, 3, 6, cap=10**9) == 7_572
    assert condition._table_count(3, 4, 8, cap=10**9) == 5_208_812
    # the count stops once past its cap
    assert 100 < condition._table_count(3, 4, 8, cap=100) < 10**4


def test_search_budget_at_and_past_its_edge(monkeypatch, capsys):
    assert condition.SEARCH_BUDGET == 10**5
    monkeypatch.setattr(condition, "_enumerate_tables", _fail)
    monkeypatch.setattr(condition, "homomorphic_scheme", _fail)
    # (3, 4, 4) builds 91,188 tables, inside the budget: the search starts
    with pytest.raises(Built):
        search_counterexample(3, 4, 4, family="function")
    message = r"^the bounds admit more than 100000 candidates, past the search budget$"
    for kwargs in ({"max_secrets": 3, "max_share_size": 4, "max_denominator": 8, "family": "function"},
                   {"max_share_size": 4, "max_denominator": 10**9},
                   {"max_share_size": 14, "family": "homomorphic"}):
        with pytest.raises(ValueError, match=message):
            search_counterexample(**kwargs)
    assert main(["condition", "search", "--secrets", "3", "--share-size", "4", "--den", "8",
                 "--family", "function"]) == 2
    assert capsys.readouterr() == ("", "error: the bounds admit more than 100000 candidates, "
                                       "past the search budget\n")
    # the edge is inclusive: (3, 3, 6) builds 7,572 tables and Z_2 .. Z_4 deal 353 specs
    for budget, kwargs in ((7_572, {"max_secrets": 3, "max_share_size": 3, "max_denominator": 6}),
                           (353, {"max_share_size": 4, "family": "homomorphic"})):
        monkeypatch.setattr(condition, "SEARCH_BUDGET", budget)
        with pytest.raises(Built):
            search_counterexample(**kwargs)
        monkeypatch.setattr(condition, "SEARCH_BUDGET", budget - 1)
        with pytest.raises(ValueError, match=rf"^the bounds admit more than {budget - 1} candidates"):
            search_counterexample(**kwargs)


def test_search_without_candidates_returns_at_once(monkeypatch):
    monkeypatch.setattr(condition, "_enumerate_tables", _fail)
    monkeypatch.setattr(condition, "homomorphic_scheme", _fail)
    assert search_counterexample(max_secrets=1, max_denominator=10**12) is None
    assert search_counterexample(max_share_size=1, max_denominator=10**12, family="function") is None
    assert search_counterexample(max_share_size=1, family="homomorphic") is None


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
    with pytest.raises(FormatError):
        parse_scheme("bogus\n")
    with pytest.raises(FormatError):
        parse_scheme("scheme n=1 secrets=1\np 0 0 1/1\n")  # no space line
    with pytest.raises(FormatError):
        parse_scheme("scheme n=1 secrets=1\nspace 1 2\np 0 0 1/2\n")  # sums to 1/2
    with pytest.raises(FormatError):
        parse_scheme("scheme n=1 secrets=1\nspace 1 2\np 0 zero 1/1\n")


def test_msp_scheme_consistency_with_classical_module(shamir_table):
    # qualified sets reconstruct, adversary sets see flat marginals
    structure = shamir_table.structure
    for b in range(1 << 3):
        if structure.is_member(b):
            assert check_secrecy(shamir_table, b)
        else:
            assert check_correctness(shamir_table, b)


@pytest.mark.parametrize("call, message", [
    (lambda: ClassicalScheme(2, 1, (2,), [0], [[0], [0]], [1], 1), "share_sizes must list one space per player"),
    (lambda: ClassicalScheme(1, 0, (2,), [], [[]], [], 1), "need at least one secret"),
    (lambda: ClassicalScheme.from_table(2, 1, (2, 2), {(0, (0,)): 1}), "share word (0,) out of range"),
    (lambda: HomomorphicSpec((), 1, ((1, 0),)), "group moduli must all be at least 2"),
    (lambda: HomomorphicSpec((5, 1), 1, ((1, 0),)), "group moduli must all be at least 2"),
    (lambda: HomomorphicSpec((5,), -1, ((),)), "negative randomness arity"),
    (lambda: HomomorphicSpec((5,), 1, ((1,),)), "matrix rows must have m+1 entries"),
    (lambda: HomomorphicSpec((5,), 1, ()), "need at least one share"),
], ids=["share-sizes", "no-secret", "word-length", "no-moduli", "modulus-1", "negative-arity",
        "row-length", "no-share"])
def test_refusals_name_the_mismatch(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
