import itertools

import numpy as np
import pytest

from spanshare.galois import Field, Matrix
from spanshare import classical, msp as msp_module
from spanshare.classical import (
    ReconstructionError,
    ShareFormatError,
    build_reconstruction_plan,
    format_share_file,
    parse_share_file,
    reconstruct,
    share,
    verify_classical,
)
from spanshare.msp import compile_formula, msp_structure, shamir_msp
from spanshare.structures import AdversaryStructure, mask_from_players, parse_formula, threshold_structure

import reference_classical
from conftest import msp_corpus, random_msps, shares_of, unchecked_msp
from reference_classical import ref_tally_verify_classical, ref_verify_classical
from reference_galois import det, left_mul

GF5 = Field(5)
GF7 = Field(7)


def mask(*players, n):
    return mask_from_players(players, n)


@pytest.fixture
def shamir13():
    return shamir_msp(3, 1, GF5)


def test_share_examples(shamir13):
    assert share(shamir13, 3, (2,)) == (0, 2, 4)
    assert share(shamir13, 0, (0,)) == (0, 0, 0)
    with pytest.raises(ValueError):
        share(shamir13, 1, (1, 2))


def test_share_vector_refuses_a_length_other_than_d(shamir13):
    with pytest.raises(ValueError, match="^share vector length does not match the MSP$"):
        format_share_file(shamir13, (0, 2))


def test_reconstruct_examples(shamir13):
    assert reconstruct(shamir13, mask(2, 3, n=3), {1: 2, 2: 4}) == 3

    entries = share(shamir13, 0, (0,))
    assert reconstruct(shamir13, mask(1, 2, 3, n=3), shares_of(shamir13, entries, 0b111)) == 0

    with pytest.raises(ReconstructionError, match="cannot reconstruct"):
        reconstruct(shamir13, mask(1, n=3), {0: 0})

    with pytest.raises(ValueError, match="mismatch"):
        reconstruct(shamir13, mask(2, 3, n=3), {1: 2})


def test_round_trip_all_qualified_sets(shamir13):
    structure = msp_structure(shamir13)
    p = GF5.p
    for s in range(p):
        for a in itertools.product(range(p), repeat=shamir13.e - 1):
            entries = share(shamir13, s, a)
            for q in range(1 << shamir13.n):
                if not structure.is_member(q):
                    assert reconstruct(shamir13, q, shares_of(shamir13, entries, q)) == s


from conftest import lagrange_at_zero


@pytest.mark.parametrize("n,k,p", [(3, 1, 5), (5, 2, 7), (4, 1, 5), (5, 3, 7), (2, 1, 5)])
def test_reconstruct_matches_lagrange(n, k, p):
    field = Field(p)
    msp = shamir_msp(n, k, field)
    for s in range(0, p, 2):
        a = tuple((s + 1 + i) % p for i in range(k))
        entries = share(msp, s, a)
        for q_players in itertools.combinations(range(1, n + 1), k + 1):
            q = mask(*q_players, n=n)
            points = [(i, entries[i - 1]) for i in q_players]
            expected = lagrange_at_zero(field, points)
            assert expected == s
            assert reconstruct(msp, q, shares_of(msp, entries, q)) == expected


def test_build_plan_example(shamir13):
    plan = build_reconstruction_plan(shamir13, mask(1, n=3))
    # the rows after the first annihilate M_A v for v = (1, 4), a kernel witness of M_B
    assert shamir13.matrix.take_rows((0,)).matvec((1, 4)) == (0,)
    w = shamir13.matrix.take_rows(plan.a_rows).matvec((1, 4))
    assert all(GF5.dot(row, w) == 0 for row in plan.u.data[1:])
    assert plan.u.data == ((3, 3), (1, 2))
    assert det(plan.u) != 0
    assert plan.a_rows == (1, 2)


def test_build_plan_errors(shamir13):
    with pytest.raises(ValueError, match="qualified"):
        build_reconstruction_plan(shamir13, mask(1, 2, n=3))
    orm = compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5)
    with pytest.raises(ValueError, match="dual"):
        build_reconstruction_plan(orm, mask(3, n=3))


def test_build_plan_refusal_texts(shamir13):
    # B = {1,2} of Shamir(3,1) fails both conditions; the B test comes first
    with pytest.raises(ValueError, match=r"^set \{1,2\} is qualified, not in the adversary"):
        build_reconstruction_plan(shamir13, mask(1, 2, n=3))
    orm = compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5)
    with pytest.raises(ValueError, match=r"^complement \{3\} cannot reconstruct; erased set is not"):
        build_reconstruction_plan(orm, mask(1, 2, n=3))


def test_build_plan_empty_set(shamir13):
    plan = build_reconstruction_plan(shamir13, 0)
    assert len(plan.a_rows) == shamir13.d
    assert plan.u.rows == plan.u.cols == 3
    assert det(plan.u) != 0
    assert left_mul(shamir13.matrix.take_rows(plan.a_rows), plan.u.data[0]) == shamir13.eps


def plan_extracts_secret(msp, b_mask):
    plan = build_reconstruction_plan(msp, b_mask)
    p = msp.field.p
    for s in range(p):
        for a in itertools.product(range(p), repeat=msp.e - 1):
            dealt = msp.matrix.matvec((s,) + a)
            a_view = [dealt[i] for i in plan.a_rows]
            transformed = plan.u.matvec(a_view)
            assert transformed[0] == s


def erasable_sets(msp):
    structure = msp_structure(msp)
    dual = structure.dual()
    return [b for b in structure.members() if dual.is_member(b)]


def test_plan_soundness_all_erasable_sets(shamir13):
    for msp in [shamir13, compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5)]:
        for b in erasable_sets(msp):
            plan_extracts_secret(msp, b)


def test_plan_secrecy(shamir13):
    """The joint multiset of (U' A-shares, B-shares) is secret-independent."""
    from collections import Counter

    for msp in [shamir13, compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5)]:
        p = msp.field.p
        for b in erasable_sets(msp):
            plan = build_reconstruction_plan(msp, b)
            b_rows = msp.row_indices(b)
            dists = {}
            for s in range(p):
                counter = Counter()
                for a in itertools.product(range(p), repeat=msp.e - 1):
                    dealt = msp.matrix.matvec((s,) + a)
                    a_view = [dealt[i] for i in plan.a_rows]
                    transformed = plan.u.matvec(a_view)
                    counter[(transformed[1:], tuple(dealt[i] for i in b_rows))] += 1
                dists[s] = counter
            assert all(dists[s] == dists[0] for s in range(p))


def test_plan_independent_of_dealt_values(shamir13):
    p1 = build_reconstruction_plan(shamir13, mask(1, n=3))
    p2 = build_reconstruction_plan(shamir13, mask(1, n=3))
    assert p1 == p2


def test_verify_classical_passes(shamir13):
    assert verify_classical(shamir13).passed
    orm = compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5)
    assert verify_classical(orm).passed


def test_verify_classical_guard(shamir13, monkeypatch):
    monkeypatch.setattr(msp_module, "ENUMERATION_GUARD", 10)
    with pytest.raises(ValueError, match="guard"):
        verify_classical(shamir13)


def test_verify_classical_refuses_a_structure_over_other_players(shamir13):
    # players 4 and 5 own no rows, so the sets holding them would pass vacuously
    with pytest.raises(ValueError, match="^structure over 5 players for an MSP of 3 players$"):
        verify_classical(shamir13, threshold_structure(5, 1))


def test_verify_classical_detects_corruption(shamir13):
    # zero out the secret column; dealt shares no longer depend on s
    corrupted_matrix = Matrix.from_rows(GF5, [(0, r[1]) for r in shamir13.matrix.data], 2)
    corrupted = unchecked_msp(GF5, corrupted_matrix, shamir13.psi, 3)
    report = verify_classical(corrupted, structure=threshold_structure(3, 1))
    assert not report.passed
    assert report.failure


@pytest.mark.parametrize("shift", [0, 1])
def test_verify_classical_matches_deal_loop(monkeypatch, shift):
    """The label-table sweep reports what dealing one (s, a) at a time
    reports; shift=1 breaks every recombination vector of three or more
    rows, so the first wrong deal and set are compared too."""
    solve = classical.solve_left

    def recombination(m, target):
        u = solve(m, target)
        if u is None or m.rows < 3:
            return u
        return ((u[0] + shift) % m.field.p,) + u[1:]

    monkeypatch.setattr(classical, "solve_left", recombination)
    monkeypatch.setattr(reference_classical, "solve_left", recombination)
    seen = set()
    for i, msp in enumerate(random_msps(200, 11)):
        for structure in (msp_structure(msp), threshold_structure(msp.n, i % msp.n)):
            report = verify_classical(msp, structure=structure)
            assert (report.passed, report.failure) == ref_verify_classical(msp, structure)
            assert str(report) == str(ref_tally_verify_classical(msp, structure))
            seen.add(report.failure.split()[0].partition("=")[0] if report.failure else "pass")
    assert seen == {"pass", "qualified", "B"} | ({"set"} if shift else set())


def test_verify_classical_matches_the_tallies_on_msp_tables():
    """Sorted share keys report what one np.unique tally per secret reports,
    on the MSP corpus against its own structure and every threshold one."""
    seen = set()
    for msp in msp_corpus():
        for structure in [None] + [threshold_structure(msp.n, t) for t in range(msp.n)]:
            report = verify_classical(msp, structure)
            assert str(report) == str(ref_tally_verify_classical(msp, structure))
            seen.add(report.failure.split()[0].partition("=")[0] if report.failure else "pass")
    assert seen == {"pass", "qualified", "B"}


def _leaking_msps():
    """(MSP, structure) pairs whose tolerable sets see the secret, and one
    over GF(257) whose five-row view passes the exact key range and leaks
    nothing."""
    gf257 = Field(257)
    cases = [
        # player 1 holds the secret in the clear
        (unchecked_msp(GF5, Matrix.from_rows(GF5, [(1, 0), (1, 1), (0, 1)], 2), (1, 2, 3), 3),
         threshold_structure(3, 1)),
        # players 1 and 2 together hold s + a and a
        (unchecked_msp(GF7, Matrix.from_rows(GF7, [(1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)], 3),
                       (1, 2, 3, 3), 3), AdversaryStructure(3, (0b011, 0b100))),
        # player 1's five rows span the secret: its keys pass 2**40 and are compressed
        (unchecked_msp(gf257, Matrix.from_rows(gf257, [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (1, 0)], 2),
                       (1, 1, 1, 1, 1, 2), 2), AdversaryStructure(2, (0b01,))),
        (unchecked_msp(gf257, Matrix.from_rows(gf257, [(0, c) for c in range(1, 6)] + [(1, 0)], 2),
                       (1, 1, 1, 1, 1, 2), 2), AdversaryStructure(2, (0b01,))),
    ]
    # A linear deal that leaks to B already leaks at secret 1: s times B's
    # secret column lies in the span of B's randomness columns iff the column
    # does. So a table dealing (2, 0) for every randomness of secret 2, where
    # s + a and a deal the other secrets, stands for a dealer that leaks there
    # first; every qualified set still reconstructs.
    dealer = unchecked_msp(GF5, Matrix.from_rows(GF5, [(1, 1), (0, 1)], 2), (1, 2), 2)
    table = np.array(dealer._label_table)
    table[2] = (2, 0)
    table.flags.writeable = False
    dealer.__dict__["_label_table"] = table
    cases.append((dealer, threshold_structure(2, 1)))
    return cases


def test_verify_classical_names_the_first_leak_as_the_tallies_do():
    failures = []
    for msp, structure in _leaking_msps():
        report = verify_classical(msp, structure)
        assert str(report) == str(ref_tally_verify_classical(msp, structure))
        failures.append(report.failure)
    assert failures == [
        "B={1} share distribution differs between secrets 0 and 1",
        "B={1,2} share distribution differs between secrets 0 and 1",
        "B={1} share distribution differs between secrets 0 and 1",
        None,
        "B={1} share distribution differs between secrets 0 and 2",
    ]


def test_share_file_round_trip(shamir13):
    text = format_share_file(shamir13, share(shamir13, 3, (2,)), comment="seed 7")
    p, shares = parse_share_file(text)
    assert p == 5
    assert shares == {0: (1, 0), 1: (2, 2), 2: (3, 4)}
    q = mask(2, 3, n=3)
    collected = {i: v for i, (_, v) in shares.items() if i in shamir13.row_indices(q)}
    assert reconstruct(shamir13, q, collected) == 3


def test_share_file_errors():
    with pytest.raises(ShareFormatError):
        parse_share_file("share 1 1 2\n")
    with pytest.raises(ShareFormatError):
        parse_share_file("field 5\nshare 1 0 2\n")
    with pytest.raises(ShareFormatError):
        parse_share_file("field 5\nshare 1 1 2\nshare 1 1 3\n")
    with pytest.raises(ShareFormatError):
        parse_share_file("field 5\nbogus\n")
