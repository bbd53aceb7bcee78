"""Every access structure on four players, end to end over GF(2).

The 2**16 families of subsets of {1..4} are filtered for downward closure
here, without asking spanshare which ones are closed, and the two constant
structures (no member, every set a member) are left out: 166 remain
(Dedekind number 168 less two). Each is compiled as the or-of-ands of its
minimal qualified sets. The paper's claims then hold on each:

- no quantum scheme exists exactly when the structure is not Q2* (any two
  qualified sets intersect): ``qss_mixed`` raises ``NoSchemeError`` for the
  other 86 and builds a scheme for the 80 Q2* ones;
- the self-dual extension restricts back to the structure;
- linear schemes convert: the MSP's table passes ``eq1_check`` on every U
  in A and its dual A*, and the density-matrix oracle agrees.

The fast classical checks answer on all of them as their slow references
in ``reference_classical`` do.
"""

import itertools

import pytest

from spanshare.classical import verify_classical
from spanshare.condition import (
    PreconditionError,
    check_correctness,
    eq1_check,
    lift_report,
    scheme_from_msp,
)
from spanshare.galois import Field
from spanshare.msp import compile_formula, extend_msp, msp_structure
from spanshare.quantum import qss_mixed
from spanshare.structures import NoSchemeError, parse_formula

from reference_classical import ref_check_correctness, ref_eq1_check, ref_tally_verify_classical

N = 4
FULL = (1 << N) - 1
SETS = range(1 << N)


def closed(family):
    """True when every member's one-player-smaller subsets are members."""
    members = [b for b in SETS if family >> b & 1]
    return all(family >> (b & ~(1 << i)) & 1 for b in members for i in range(N) if b >> i & 1)


def players(b):
    return [i + 1 for i in range(N) if b >> i & 1]


def formula(minimal_qualified):
    terms = [
        f"and({','.join(map(str, players(q)))})" if bin(q).count("1") > 1 else str(players(q)[0])
        for q in minimal_qualified
    ]
    return terms[0] if len(terms) == 1 else f"or({','.join(terms)})"


def structures():
    """(members, formula text) of every nonconstant monotone structure on N players."""
    out = []
    for family in range(1, (1 << (1 << N)) - 1):
        if not closed(family):
            continue
        members = {b for b in SETS if family >> b & 1}
        qualified = [q for q in SETS if q not in members]
        minimal = [q for q in qualified if not any(r != q and r & q == r for r in qualified)]
        out.append((members, formula(minimal)))
    return out


STRUCTURES = structures()
GF2 = Field(2)


def is_q2star(members):
    qualified = [q for q in SETS if q not in members]
    return all(a & b for a, b in itertools.combinations(qualified, 2))


def test_enumeration_counts():
    assert len(STRUCTURES) == 166
    assert sum(map(is_q2star, (members for members, _ in STRUCTURES))) == 80


def test_every_four_player_structure():
    splits = refused = 0
    for members, text in STRUCTURES:
        msp = compile_formula(parse_formula(text), GF2, N)
        assert set(msp_structure(msp).members()) == members, text
        if not is_q2star(members):
            with pytest.raises(NoSchemeError, match="not Q2"):
                qss_mixed(msp)
            refused += 1
            continue
        assert qss_mixed(msp).structure == msp_structure(msp)
        assert set(msp_structure(extend_msp(msp)).restrict(N).members()) == members, text
        table = scheme_from_msp(msp)
        dual = {b for b in SETS if FULL & ~b not in members}
        for u in sorted(members & dual):
            assert eq1_check(table, u), (text, u)
            report = lift_report(table, u)
            assert report.passed, (text, u, report.max_distance)
            splits += 1
    assert (refused, splits) == (86, 448)


def _outcome(check, table, u):
    try:
        return check(table, u)
    except PreconditionError as exc:
        return str(exc)


def test_every_four_player_table_matches_the_references():
    """verify_classical reports what the np.unique tallies report for every
    compiled MSP; on the Q2* ones' tables, check_correctness and eq1_check
    answer as their references do on every split."""
    verdicts = set()
    for members, text in STRUCTURES:
        msp = compile_formula(parse_formula(text), GF2, N)
        assert str(verify_classical(msp)) == str(ref_tally_verify_classical(msp)), text
        if not is_q2star(members):
            continue
        table = scheme_from_msp(msp)
        for u in SETS:
            assert check_correctness(table, u) == ref_check_correctness(table, u), (text, u)
            eq1 = _outcome(eq1_check, table, u)
            assert eq1 == _outcome(ref_eq1_check, table, u), (text, u)
            verdicts.add(eq1 if eq1 is True else "refused")
    assert verdicts == {True, "refused"}
