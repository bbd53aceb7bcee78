"""Every file and formula parser either returns or raises its own format error."""

import pytest
from hypothesis import example, given, settings, strategies as st

from spanshare.classical import ShareFormatError, parse_share_file
from spanshare.cli import _read, main
from spanshare.condition import SchemeFormatError, format_scheme, parse_scheme
from spanshare.msp import MspFormatError, parse_msp
from spanshare.structures import (
    FormatError,
    FormulaError,
    StructureFormatError,
    parse_formula,
    parse_structure,
)

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


def test_format_errors_share_one_base():
    for _, error in PARSERS:
        assert issubclass(error, FormatError)


ONE_ROW_MSP = "msp field=5 d=1 e=1 n=1\nrow 1 1\n"

# each text carries a comment on its header line, on an entry line and
# after the entries; the second text is the same file without them
COMMENTED = [
    (parse_structure, "players 3 # three\nmaximal 1 2 # a pair\nmaximal 3\n# end\n",
     "players 3\nmaximal 1 2\nmaximal 3\n"),
    (parse_msp, "msp field=5 d=1 e=1 n=1 # header\nrow 1 1 # note\n\n# end\n", ONE_ROW_MSP),
    (parse_share_file, "field 5 # header\nshare 1 1 2 # note\n# end\n", "field 5\nshare 1 1 2\n"),
    (parse_scheme, "scheme n=1 secrets=1 # header\nspace 1 2 # note\np 0 0 1/2#\np 0 1 1/2\n# end",
     "scheme n=1 secrets=1\nspace 1 2\np 0 0 1/2\np 0 1 1/2\n"),
]


@pytest.mark.parametrize("parse, text, plain", COMMENTED, ids=[p.__name__ for p, _, _ in COMMENTED])
def test_comments_are_cut_in_every_format(parse, text, plain):
    canonical = format_scheme if parse is parse_scheme else (lambda parsed: parsed)
    assert canonical(parse(text)) == canonical(parse(plain))


# (parser, text, the error message): repeated singleton declarations and
# unknown header keys, then other per-line errors, each naming its line
REFUSED = [
    (parse_structure, "players 3\nplayers 3\n", "line 2: duplicate players directive"),
    (parse_msp, "msp field=5 field=7 d=1 e=1 n=1\nrow 1 1\n", "line 1: duplicate header key 'field'"),
    (parse_msp, "msp field=5 d=1 e=1 n=1 x=3\nrow 1 1\n", "line 1: unknown header key 'x'"),
    (parse_share_file, "field 5\nshare 1 1 2\nfield 7\n", "line 3: duplicate field line"),
    (parse_scheme, "scheme n=1 secrets=1\nspace 1 1\nspace 1 1\np 0 0 1\n",
     "line 3: duplicate space line for player 1"),
    (parse_scheme, "scheme n=1 secrets=1 n=1\nspace 1 1\np 0 0 1\n", "line 1: duplicate header key 'n'"),
    (parse_scheme, "scheme n=1 secrets=1 x=3\nspace 1 1\np 0 0 1\n", "line 1: unknown header key 'x'"),
    (parse_structure, "# c\nplayers 3\nmaximal 1 x\n", "line 3: bad maximal line: expected integers"),
    (parse_structure, "players 3\nminimal 1\n", "line 2: unknown directive 'minimal'"),
    (parse_structure, "players 3\r\nminimal 1\r\n", "line 2: unknown directive 'minimal'"),
    (parse_msp, "\nmsp field=5 d=1 e=1\nrow 1 1\n", "line 2: header missing n="),
    (parse_msp, "msp field=5 d=1 e=x n=1\nrow 1 1\n",
     "line 1: bad header value e=: expected nonnegative decimals"),
    (parse_msp, "row 1 1\n", "line 1: missing msp header line"),
    (parse_msp, ONE_ROW_MSP + "row 1 1 # note\nrow 1 1 1\n",
     "line 4: bad row line: expected 2 numbers, got 3"),
    (parse_msp, ONE_ROW_MSP + "share 1 1 2\n", "line 3: unknown directive 'share'"),
    (parse_share_file, "field 5\nshare 1 1\n", "line 2: bad share line: expected 3 numbers, got 2"),
    (parse_share_file, "field -5\n", "line 1: bad field line: expected nonnegative decimals"),
    (parse_scheme, "scheme n=1 secrets=1\nspace 1 x\np 0 0 1\n", "line 2: bad space line: expected integers"),
    (parse_scheme, "scheme n=1 secrets=1\nspace 1 1\np 0 1\n",
     "line 3: bad secret and shares: expected 2 numbers, got 1"),
    (parse_scheme, "scheme n=1 secrets=1\nspace 1 1\np 0 0 1/\n",
     "line 3: bad probability: expected integers"),
    (parse_scheme, "scheme n=1 secrets=1\nspace 1 1\np 0 0 1/0\n",
     "line 3: bad probability: zero denominator"),
]


@pytest.mark.parametrize("parse, text, message", REFUSED)
def test_refusals_name_their_line(parse, text, message):
    error = dict(PARSERS)[parse]
    with pytest.raises(error) as exc:
        parse(text)
    assert str(exc.value) == message


def _argv(parse, path, tmp_path):
    """A command that reads the file at path with parse."""
    msp = tmp_path / "one.msp"
    msp.write_text(ONE_ROW_MSP)
    return {
        parse_structure: ["structure", "check", str(path)],
        parse_msp: ["msp", "eval", str(path), "--set", "1"],
        parse_share_file: ["reconstruct", str(msp), str(path), "--set", "1"],
        parse_scheme: ["condition", "check", str(path), "--set", "1"],
    }[parse]


@pytest.mark.parametrize("parse, text, message", REFUSED)
def test_cli_refusals_exit_2_with_one_error_line(parse, text, message, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main(_argv(parse, path, tmp_path)) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_cli_read_refuses_unreadable_files(tmp_path):
    with pytest.raises(FormatError, match="^cannot read .*missing.scheme: No such file or directory$"):
        _read(str(tmp_path / "missing.scheme"))
    binary = tmp_path / "binary.msp"
    binary.write_bytes(b"msp field=5 \xff\n")
    with pytest.raises(FormatError, match="^cannot read .*binary.msp: 'utf-8' codec can't decode"):
        _read(str(binary))


@pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_lines_are_numbered_by_newline_only(brk):
    # str.splitlines would also break here and report line 4
    with pytest.raises(StructureFormatError, match="^line 3: unknown directive 'bogus'$"):
        parse_structure(f"players 3\n{brk}maximal 1 2\nbogus\n")
    assert parse_structure(f"players 3{brk}\nmaximal 1 2{brk}\n") == parse_structure("players 3\nmaximal 1 2\n")


@pytest.mark.parametrize("parse, text, plain", COMMENTED, ids=[p.__name__ for p, _, _ in COMMENTED])
def test_crlf_text_still_parses(parse, text, plain):
    canonical = format_scheme if parse is parse_scheme else (lambda parsed: parsed)
    assert canonical(parse(text.replace("\n", "\r\n"))) == canonical(parse(plain))
