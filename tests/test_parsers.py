"""Every file and formula parser either returns or raises its own format error."""

import pytest
from hypothesis import example, given, settings, strategies as st

from spanshare.classical import ShareFormatError, parse_share_file
from spanshare.condition import SchemeFormatError, parse_scheme
from spanshare.msp import MspFormatError, parse_msp
from spanshare.structures import FormulaError, StructureFormatError, parse_formula, parse_structure

PARSERS = [
    (parse_structure, StructureFormatError),
    (parse_msp, MspFormatError),
    (parse_share_file, ShareFormatError),
    (parse_scheme, SchemeFormatError),
    (parse_formula, FormulaError),
]

# fragments of all five grammars, so generated text gets past the first line
TOKENS = [
    "players", "maximal", "msp", "row", "field", "share", "scheme", "space", "p",
    "field=5", "d=2", "e=1", "n=2", "secrets=2", "n=0", "and(", "or(", "thr2(", "thr0(",
    "(", ")", ",", "#", "0", "1", "2", "3", "5", "17", "-1", "x", "²", "١",
    "1/2", "1/0", "0/1",
]
LINE = st.lists(st.sampled_from(TOKENS) | st.text(max_size=3), max_size=8).map(" ".join)
TEXT = st.lists(LINE, max_size=8).map("\n".join) | st.text()
LONG = "1" * 5000  # past the interpreter's digit limit for int()


@pytest.mark.parametrize("parse, error", PARSERS, ids=[p.__name__ for p, _ in PARSERS])
@given(text=TEXT)
@settings(max_examples=200, deadline=None)
@example(text="players ²\nmaximal 1\n")
@example(text=f"players {LONG}\n")
@example(text="msp field=5 d=1 e=1 n=²\nrow 1 1\n")
@example(text=f"field {LONG}\n")
@example(text="scheme n=2 secrets=2\nspace x 2\nspace 2 2\n")
@example(text="scheme n=99999999999 secrets=2\n")
@example(text="scheme n=1 secrets=99999999999\nspace 1 1\np 0 0 1\n")
@example(text="and(1,0)")
@example(text="and(1,²)")
@example(text=f"or(1,{LONG})")
@example(text="or(" * 1200 + "1,2" + ")" * 1200)
def test_parsers_raise_only_their_format_error(parse, error, text):
    try:
        parse(text)
    except error:
        pass


def test_formula_errors_carry_a_position():
    with pytest.raises(FormulaError, match="1-based at position 6"):
        parse_formula("and(1,0)")
    with pytest.raises(FormulaError, match="nested deeper than 200"):
        parse_formula("or(" * 1200 + "1,2" + ")" * 1200)


def test_formula_nesting_bound_is_inclusive():
    formula = "or(1,2)"
    for _ in range(199):
        formula = f"or({formula},1)"
    assert parse_formula(formula).children[1].player == 1
    with pytest.raises(FormulaError, match="nested deeper"):
        parse_formula(f"or({formula},1)")
    # the bound is on depth, not on the number of gates
    assert len(parse_formula("or(" + ",".join(["and(1,2)"] * 300) + ")").children) == 300


def test_scheme_space_line_errors():
    with pytest.raises(SchemeFormatError, match="bad space line"):
        parse_scheme("scheme n=2 secrets=2\nspace x 2\nspace 2 2\n")
