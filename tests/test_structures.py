import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from reference_structures import format_formula, is_subset
from spanshare import structures as structures_module
from spanshare.structures import (
    AdversaryStructure,
    And,
    FormatError,
    FormulaError,
    Or,
    Threshold,
    Var,
    build_structure,
    complement,
    eval_formula,
    format_structure,
    full_mask,
    mask_from_players,
    parse_formula,
    parse_structure,
    players_from_mask,
    threshold_structure,
)


def mask(*players, n=None):
    return mask_from_players(players, n or max(players, default=1))


def test_mask_helpers():
    assert mask_from_players([1, 3], 3) == 0b101
    assert players_from_mask(0b101) == (1, 3)
    assert complement(0b101, 3) == 0b010
    with pytest.raises(ValueError):
        mask_from_players([4], 3)


def test_build_structure_examples():
    a = build_structure(3, [{1}, {2}, {3}])
    assert a == threshold_structure(3, 1)

    b = build_structure(3, [{1, 2}, {1}, {3}])
    assert b.maximal == (0b011, 0b100)

    with pytest.raises(ValueError):
        build_structure(3, [{1, 4}])


def test_is_member_examples():
    t1 = threshold_structure(3, 1)
    assert t1.is_member(mask(2, n=3))
    assert not t1.is_member(mask(1, 2, n=3))
    assert t1.is_member(0)
    assert build_structure(3, []).is_member(0) is False


def test_dual_examples():
    t1 = threshold_structure(3, 1)
    assert t1.dual() == t1

    a = build_structure(3, [{1, 2}, {3}])
    assert a.dual() == build_structure(3, [{1}, {2}])


def test_predicates_examples():
    t1 = threshold_structure(3, 1)
    assert t1.is_q2() and t1.is_q2star() and t1.is_selfdual()

    t1n2 = threshold_structure(2, 1)
    assert not t1n2.is_q2()
    assert t1n2.is_q2star()

    a = build_structure(3, [{1, 2}, {3}])
    assert a.is_q2star()
    assert not a.is_selfdual()
    assert not a.is_q2()


def test_extend_selfdual_examples():
    a = build_structure(3, [{1, 2}, {3}])
    ext = a.extend_selfdual()
    assert ext == build_structure(4, [{1, 2}, {3}, {1, 4}, {2, 4}])
    assert ext.is_selfdual()
    assert ext.restrict(3) == a

    t1 = threshold_structure(3, 1)
    ext2 = t1.extend_selfdual()
    assert ext2 == build_structure(4, [{1, 4}, {2, 4}, {3, 4}])

    # 2-of-2: tolerating either single player is Q2* (dual is {empty}),
    # and the extension is the 1-of-3 threshold structure
    two_of_two = threshold_structure(2, 1)
    assert two_of_two.is_q2star()
    assert two_of_two.extend_selfdual() == threshold_structure(3, 1)

    # a structure whose qualified sets {1} and {2} are disjoint is not Q2*
    not_q2star = AdversaryStructure(2, (0,))
    with pytest.raises(ValueError, match="no-cloning"):
        not_q2star.extend_selfdual()


def test_structure_file_round_trip():
    a = build_structure(3, [{1, 2}, {3}])
    text = format_structure(a)
    assert parse_structure(text) == a
    assert "players 3" in text

    parsed = parse_structure("# comment\nplayers 3\nmaximal 1 2\nmaximal 3\n")
    assert parsed == a


def test_structure_file_errors():
    with pytest.raises(FormatError):
        parse_structure("maximal 1\n")
    with pytest.raises(FormatError):
        parse_structure("players x\n")
    with pytest.raises(FormatError):
        parse_structure("players 3\nmaximal 1 9\n")
    with pytest.raises(FormatError):
        parse_structure("players 3\nbogus\n")
    with pytest.raises(FormatError):
        parse_structure("")


def test_structure_file_player_cap_checked_first():
    # a 36-byte file must not make the parser build a 10**8-bit mask
    text = "players 100000000\nmaximal 100000000\n"
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as exc:
            parse_structure(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "player count must lie in 1..16, got 100000000"
    assert peak < 1 << 20


def test_parse_formula_examples():
    f = parse_formula("or(and(1,3),and(2,3))")
    assert f == Or((And((Var(1), Var(3))), And((Var(2), Var(3)))))

    t = parse_formula("thr2(1,2,3)")
    assert t == Threshold(2, (Var(1), Var(2), Var(3)))

    with pytest.raises(FormulaError) as err:
        parse_formula("and(1")
    assert err.value.position == 5

    with pytest.raises(FormulaError):
        parse_formula("thr4(1,2,3)")
    with pytest.raises(FormulaError):
        parse_formula("or(1,2) junk")


def test_parse_formula_whitespace():
    assert parse_formula(" or( 1 , 2 ) ") == Or((Var(1), Var(2)))


def test_eval_formula_examples():
    f = parse_formula("or(and(1,3),and(2,3))")
    assert eval_formula(f, mask(2, 3, n=3)) == 1
    assert eval_formula(f, mask(1, 2, n=3)) == 0
    assert eval_formula(parse_formula("thr2(1,2,3)"), mask(1, n=3)) == 0


@st.composite
def formulas(draw, max_depth=3, n=5):
    if max_depth == 0:
        return Var(draw(st.integers(1, n)))
    kind = draw(st.sampled_from(["var", "and", "or", "thr"]))
    if kind == "var":
        return Var(draw(st.integers(1, n)))
    arity = draw(st.integers(2, 3))
    children = tuple(draw(formulas(max_depth=max_depth - 1, n=n)) for _ in range(arity))
    if kind == "and":
        return And(children)
    if kind == "or":
        return Or(children)
    return Threshold(draw(st.integers(1, arity)), children)


@given(formulas())
@settings(max_examples=200)
def test_parse_print_round_trip(f):
    assert parse_formula(format_formula(f)) == f


@given(formulas(), st.integers(0, 31), st.integers(0, 31))
@settings(max_examples=200)
def test_eval_formula_monotone(f, a, b):
    lo, hi = a & b, a | b
    assert eval_formula(f, lo) <= eval_formula(f, hi)


@st.composite
def structures(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    count = draw(st.integers(0, 6))
    masks = [draw(st.integers(0, full_mask(n))) for _ in range(count)]
    return AdversaryStructure(n, tuple(masks))


@given(structures())
@settings(max_examples=200)
def test_dual_involution(a):
    assert a.dual().dual() == a


@given(structures())
@settings(max_examples=200)
def test_membership_table_matches_definitions(a):
    dual = a.dual()
    for b in range(1 << a.n):
        assert a.is_member(b) == any(is_subset(b, m) for m in a.maximal)
        assert dual.is_member(b) == (not a.is_member(complement(b, a.n)))
    assert a.dual() is dual


@given(structures(max_n=7))
@settings(max_examples=150)
def test_q2_iff_contained_in_dual(a):
    dual = a.dual()
    contained = all(dual.is_member(b) for b in a.members())
    contains = all(a.is_member(b) for b in dual.members())
    assert a.is_q2() == contained
    assert a.is_q2star() == contains
    assert a.is_selfdual() == (a.is_q2() and a.is_q2star())


@given(structures(max_n=6))
@settings(max_examples=100)
def test_extend_selfdual_property(a):
    if not a.is_q2star():
        with pytest.raises(ValueError):
            a.extend_selfdual()
        return
    ext = a.extend_selfdual()
    assert ext.n == a.n + 1
    assert ext.is_selfdual()
    assert ext.restrict(a.n) == a


from conftest import all_antichains


def test_antichain_count_matches_dedekind():
    # Dedekind numbers count antichains: 3, 6, 20, 168 for n = 1..4
    assert len(all_antichains(1)) == 3
    assert len(all_antichains(2)) == 6
    assert len(all_antichains(3)) == 20
    assert len(all_antichains(4)) == 168


def test_exhaustive_structure_algebra_n_le_4():
    for n in range(1, 5):
        for chain in all_antichains(n):
            a = AdversaryStructure(n, chain)
            assert a.dual().dual() == a
            a.is_selfdual()  # exercises both cross-checked predicates


def test_antichain_matches_definition_on_random_families():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 6)
        family = [rng.randrange(1 << n) for _ in range(rng.randint(1, 12))]
        maximal = {m for m in family if not any(m != k and is_subset(m, k) for k in family)}
        assert AdversaryStructure(n, tuple(family)).maximal == tuple(sorted(maximal))


def test_antichain_tests_only_against_larger_sets():
    same_size = threshold_structure(8, 4)
    assert len(same_size.maximal) == 70
    mixed = AdversaryStructure(3, (0b001, 0b011, 0b110, 0b100))
    assert mixed.maximal == (0b011, 0b110)


def test_threshold_structure_refuses_before_enumerating(monkeypatch):
    # C(40, 20) player sets would take hours: not one may be built
    def refuse(players, n):
        raise AssertionError("a player set was built before the refusal")

    monkeypatch.setattr(structures_module, "mask_from_players", refuse)
    with pytest.raises(ValueError, match=r"player count must lie in 1\.\.16, got 40"):
        threshold_structure(40, 20)
    with pytest.raises(ValueError, match="threshold 41 out of range for 40 players"):
        threshold_structure(40, 41)
    monkeypatch.undo()
    assert threshold_structure(4, 0).maximal == (0,)
    assert threshold_structure(4, 4).maximal == (0b1111,)


def test_from_bits_checks_the_player_count_first():
    with pytest.raises(ValueError, match=r"^player count must lie in 1\.\.16, got 17$"):
        AdversaryStructure._from_bits(17, 0)
    with pytest.raises(ValueError, match=r"^player count must lie in 1\.\.16, got 17$"):
        threshold_structure(16, 8).extend_selfdual()
    built = AdversaryStructure._from_bits(3, 0b10111)  # the sets {}, {1}, {2} and {3}
    assert built == AdversaryStructure(3, (0b001, 0b010, 0b100))
    assert built.maximal == (0b001, 0b010, 0b100)


@pytest.mark.parametrize("call, message", [
    (lambda: AdversaryStructure(2, (0b100,)), "maximal set contains a player id out of range"),
    (lambda: threshold_structure(2, 1).is_member(0b100), "subset contains a player id out of range"),
    (lambda: threshold_structure(2, 1).restrict(3), "restriction cannot grow the player set"),
    (lambda: And((Var(1),)), "and() needs at least two children"),
    (lambda: Or((Var(1),)), "or() needs at least two children"),
    (lambda: Threshold(1, (Var(1),)), "thr() needs at least two children"),
    (lambda: parse_formula("thr(1,2)"), "expected an integer at position 3"),
], ids=["maximal-range", "member-range", "restrict-grows", "and-arity", "or-arity", "thr-arity",
        "thr-without-k"])
def test_refusals_name_the_mismatch(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
