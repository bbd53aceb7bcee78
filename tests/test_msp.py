import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spanshare import galois, msp as msp_module
from spanshare.galois import Field, Matrix, kernel_witness, rank, solve_left, span_table
from spanshare.msp import (
    MSP,
    compile_formula,
    dual_msp,
    dump_msp,
    extend_msp,
    msp_structure,
    parse_msp,
    rows_of,
    shamir_msp,
)
from spanshare.structures import (
    FormatError,
    build_structure,
    eval_formula,
    mask_from_players,
    parse_formula,
    threshold_structure,
)

from conftest import msp_corpus, unchecked_msp
from reference_msp import msp_eval, ref_compile_formula, ref_dual_msp, ref_extend_msp
from reference_structures import format_formula

GF2 = Field(2)
GF5 = Field(5)
GF7 = Field(7)


def mask(*players, n):
    return mask_from_players(players, n)


@pytest.fixture
def shamir13():
    return shamir_msp(3, 1, GF5)


@pytest.fixture
def orand():
    return compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5)


def test_shamir_msp_examples(shamir13):
    assert shamir13.matrix.data == ((1, 1), (1, 2), (1, 3))
    assert shamir13.psi == (1, 2, 3)

    with pytest.raises(ValueError):
        shamir_msp(3, 1, Field(3))

    trivial = shamir_msp(1, 0, GF5)
    assert trivial.matrix.data == ((1,),)


def test_msp_constructor_validation(shamir13):
    with pytest.raises(ValueError, match="column rank"):
        MSP(GF5, Matrix.from_rows(GF5, [[1, 2], [2, 4]]), (1, 2), 2)
    with pytest.raises(ValueError):
        MSP(GF5, shamir13.matrix, (1, 2), 3)
    with pytest.raises(ValueError):
        MSP(GF5, shamir13.matrix, (1, 2, 4), 3)


def test_rows_of_examples(shamir13):
    assert rows_of(shamir13, mask(2, 3, n=3)).data == ((1, 2), (1, 3))
    empty = rows_of(shamir13, 0)
    assert (empty.rows, empty.cols) == (0, 2)
    assert rows_of(shamir13, mask(1, 2, 3, n=3)).data == shamir13.matrix.data


def test_msp_eval_examples(shamir13):
    assert msp_eval(shamir13, mask(2, 3, n=3)) == 1
    assert msp_eval(shamir13, mask(1, n=3)) == 0
    assert msp_eval(shamir13, 0) == 0


def test_msp_structure_examples(shamir13, orand):
    assert msp_structure(shamir13) == threshold_structure(3, 1)
    assert msp_structure(compile_formula(parse_formula("and(1,2)"), GF5)) == build_structure(
        2, [{1}, {2}]
    )
    assert msp_structure(orand) == build_structure(3, [{1, 2}, {3}])

    trivial = shamir_msp(1, 0, GF5)
    assert msp_structure(trivial).maximal == (0,)


def test_compile_formula_examples(orand):
    single = compile_formula(parse_formula("1"), GF5)
    assert single.matrix.data == ((1,),)
    assert single.psi == (1,)

    thr = compile_formula(parse_formula("thr2(1,2,3)"), GF5)
    shamir = shamir_msp(3, 1, GF5)
    for b in range(8):
        assert msp_eval(thr, b) == msp_eval(shamir, b)

    with pytest.raises(ValueError, match="too small"):
        compile_formula(parse_formula("thr2(1,2,3)"), GF2)


def test_compile_formula_player_count():
    f = parse_formula("and(1,3)")
    msp = compile_formula(f, GF5)
    assert msp.n == 3
    wide = compile_formula(f, GF5, n=5)
    assert wide.n == 5
    with pytest.raises(ValueError):
        compile_formula(f, GF5, n=2)


@pytest.mark.parametrize(
    "text",
    ["1", "and(1,2)", "or(1,2)", "thr2(1,2,3)", "or(and(1,3),and(2,3))",
     "thr2(and(1,2),3,or(4,1))", "and(or(1,2),or(3,4))"],
)
def test_compile_matches_eval_exhaustively(text):
    f = parse_formula(text)
    msp = compile_formula(f, GF5)
    for b in range(1 << msp.n):
        assert msp_eval(msp, b) == eval_formula(f, b)


def test_remark_criteria_never_disagree(orand):
    for m in [shamir_msp(3, 1, GF5), orand, shamir_msp(5, 2, GF7)]:
        eps = m.eps
        for b in range(1 << m.n):
            sub = rows_of(m, b)
            assert (solve_left(sub, eps) is None) == (kernel_witness(sub, eps) is not None)


def test_dual_msp_examples(shamir13):
    andm = compile_formula(parse_formula("and(1,2)"), GF5)
    orm = parse_formula("or(1,2)")
    dual = dual_msp(andm)
    for b in range(4):
        assert msp_eval(dual, b) == eval_formula(orm, b)

    dual_sh = dual_msp(shamir13)
    for b in range(8):
        assert msp_eval(dual_sh, b) == msp_eval(shamir13, b)

    dd = dual_msp(dual_msp(andm))
    for b in range(4):
        assert msp_eval(dd, b) == msp_eval(andm, b)


def test_dual_msp_structure_identity(orand):
    for m in [shamir_msp(3, 1, GF5), orand, compile_formula(parse_formula("or(1,2)"), GF5)]:
        assert msp_structure(dual_msp(m)) == msp_structure(m).dual()


def test_dual_msp_eight_players():
    m = compile_formula(parse_formula("or(and(1,2,3,4),and(5,6,7,8))"), GF5)
    dual = dual_msp(m)
    assert msp_structure(dual) == msp_structure(m).dual()
    for b in range(1 << 8):
        assert msp_eval(dual, b) == 1 - msp_eval(m, 255 & ~b)


def test_extend_msp_examples(shamir13, orand):
    ext = extend_msp(orand)
    assert ext.n == 4
    assert msp_structure(ext) == build_structure(4, [{1, 2}, {3}, {1, 4}, {2, 4}])
    assert msp_structure(ext).is_selfdual()

    ext_sh = extend_msp(shamir13)
    assert msp_structure(ext_sh) == build_structure(4, [{1, 4}, {2, 4}, {3, 4}])

    not_q2star = compile_formula(parse_formula("or(1,2)"), GF5)
    with pytest.raises(ValueError, match="no-cloning"):
        extend_msp(not_q2star)


def test_msp_eval_monotone(orand):
    for m in [shamir_msp(3, 1, GF5), orand]:
        for b in range(1 << m.n):
            for i in range(m.n):
                if not b >> i & 1:
                    assert msp_eval(m, b) <= msp_eval(m, b | (1 << i))


def test_dump_round_trip(shamir13, orand):
    for m in [shamir13, orand, extend_msp(orand)]:
        text = dump_msp(m)
        back = parse_msp(text)
        assert back == m
        assert dump_msp(back) == text


def test_parse_msp_errors():
    with pytest.raises(FormatError):
        parse_msp("not a dump\n")
    with pytest.raises(FormatError):
        parse_msp("msp field=4 d=1 e=1 n=1\nrow 1 1\n")
    with pytest.raises(FormatError):
        parse_msp("msp field=5 d=2 e=1 n=1\nrow 1 1\n")
    with pytest.raises(FormatError):
        parse_msp("msp field=5 d=1 e=2 n=1\nrow 1 1\n")
    with pytest.raises(FormatError):
        parse_msp("msp field=5 d=1 e=1 n=1\nrow 1 x\n")


def _fits(gate_kids):
    """A thrk gate needs at least k children."""
    gate, kids = gate_kids
    return not gate.startswith("thr") or int(gate[3:]) <= len(kids)


@st.composite
def small_formulas(draw, n=4, gates=("and", "or")):
    return draw(
        st.recursive(
            st.integers(1, n).map(lambda i: parse_formula(str(i))),
            lambda kids: st.tuples(st.sampled_from(gates), st.lists(kids, min_size=2, max_size=3)).filter(_fits).map(
                lambda t: parse_formula(f"{t[0]}({','.join(map(format_formula, t[1]))})")
            ),
            max_leaves=6,
        )
    )


@given(small_formulas())
@settings(max_examples=60, deadline=None)
def test_compiled_msp_full_column_rank(f):
    msp = compile_formula(f, GF5)
    assert rank(msp.matrix) == msp.e


# ---------------------------------------------------------------------------
# the plain-row composer against the per-node MSP composer


def outcome(build):
    """The dump of the MSP built, or the refusal's type and message."""
    try:
        return dump_msp(build())
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


@given(
    small_formulas(n=6, gates=("and", "or", "thr1", "thr2", "thr3")),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.sampled_from([None, 6]),
)
@settings(max_examples=100, deadline=None)
def test_constructions_match_the_per_node_composer(f, p, n):
    field = Field(p)
    compiled = outcome(lambda: compile_formula(f, field, n))
    assert compiled == outcome(lambda: ref_compile_formula(f, field, n))
    if compiled.startswith("msp "):
        m = compile_formula(f, field, n)
        assert outcome(lambda: dual_msp(m)) == outcome(lambda: ref_dual_msp(m))
        assert outcome(lambda: extend_msp(m)) == outcome(lambda: ref_extend_msp(m))


@pytest.mark.parametrize("text, n", [("thr2(17,1,2)", None), ("thr2(1,2,3)", 17)])
def test_compile_formula_names_the_player_count_before_a_small_field(text, n):
    for compile_ in (compile_formula, ref_compile_formula):
        with pytest.raises(ValueError, match=r"^player count must lie in 1\.\.16, got 17$"):
            compile_(parse_formula(text), GF2, n)


# ---------------------------------------------------------------------------
# the all-subsets table against the per-set msp_eval


def table_of(m):
    matrix = np.array(m.matrix.data, dtype=np.int64).reshape(m.d, m.e)
    return span_table(m.field, matrix, m.psi, m.n)


def derive(m, entries=None):
    """msp_structure of a fresh copy of m, as a 0/1 list of f(B), and the
    matrices span_table received; with entries, chunks hold that many."""
    received = []

    def spy(field, matrix, psi, n):
        received.append(matrix)
        return span_table(field, matrix, psi, n)

    with mock.patch.object(msp_module, "span_table", spy), \
            mock.patch.object(galois, "_STACK_ENTRIES", entries or galois._STACK_ENTRIES):
        structure = msp_structure(unchecked_msp(m.field, m.matrix, m.psi, m.n))
    return [int(not structure.is_member(b)) for b in range(1 << m.n)], received


def assert_table_is_eval(m, masks=None, chunk_masks=(1, 4)):
    """span_table on M, and msp_structure on whichever of M and its dual
    form it picks, agree with each other on every set and with msp_eval
    on the masks: at the default chunk size and with chunks of the given
    mask counts, so that the prefix walk and the in-chunk doubling both
    run on M and on N."""
    masks = range(1 << m.n) if masks is None else masks
    expected = [msp_eval(m, b) for b in masks]
    bits, (form,) = derive(m)
    assert bits == [int(x) for x in table_of(m)]
    assert [bits[b] for b in masks] == expected
    for k in chunk_masks:
        with mock.patch.object(galois, "_STACK_ENTRIES", k * m.e * m.e):
            table = table_of(m)
        assert [int(table[b]) for b in masks] == expected, k
        assert derive(m, k * form.shape[1] ** 2)[0] == bits, k


@st.composite
def labeled_msps(draw):
    """Arbitrary MSPs, rank-deficient ones included: every player owns
    zero to three rows, drawn with repeats from a pool with a zero row."""
    field = Field(draw(st.sampled_from([2, 3, 5, 7])))
    n, e = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    vector = st.lists(st.integers(0, field.p - 1), min_size=e, max_size=e)
    pool = [(0,) * e] + [tuple(v) for v in draw(st.lists(vector, min_size=1, max_size=4))]
    rows = [(player, draw(st.sampled_from(pool)))
            for player in range(1, n + 1) for _ in range(draw(st.integers(0, 3)))]
    rows = draw(st.permutations(rows))
    matrix = Matrix.from_rows(field, [r for _, r in rows], e)
    return unchecked_msp(field, matrix, tuple(player for player, _ in rows), n)


@given(labeled_msps())
@settings(max_examples=150, deadline=None)
def test_span_table_matches_eval_on_arbitrary_msps(m):
    assert_table_is_eval(m)


def test_span_table_matches_eval_on_corpus_duals_and_extensions():
    base = msp_corpus()
    everything = base + [dual_msp(m) for m in base]
    everything += [extend_msp(m) for m in base if msp_structure(m).is_q2star()]
    for m in everything:
        assert_table_is_eval(m)


@pytest.fixture(scope="module")
def thr3_of_7_dual():
    return dual_msp(compile_formula(parse_formula("thr3(1,2,3,4,5,6,7)"), Field(11)))


@pytest.fixture(scope="module")
def thr4_of_8_dual():
    return dual_msp(compile_formula(parse_formula("thr4(1,2,3,4,5,6,7,8)"), Field(11)))


def test_span_table_matches_eval_on_dual_of_thr3_of_7(thr3_of_7_dual):
    assert (thr3_of_7_dual.d, thr3_of_7_dual.e) == (105, 85)
    assert_table_is_eval(thr3_of_7_dual)


def test_span_table_matches_eval_on_shamir_16_7_sample():
    m = shamir_msp(16, 7, Field(17))
    masks = random.Random(16).sample(range(1 << 16), 300)
    assert_table_is_eval(m, masks, chunk_masks=(16,))
    table = table_of(m)
    assert all(table[b] == (bin(b).count("1") > 7) for b in range(1 << 16))


def test_msp_structure_of_shamir_16_7_is_threshold():
    structure = msp_structure(shamir_msp(16, 7, Field(17)))
    assert structure == threshold_structure(16, 7)
    assert structure.dual() == threshold_structure(16, 8)


# ---------------------------------------------------------------------------
# msp_structure on the narrower of M and its dual form [u | ker M^T]


def test_span_table_and_structure_match_eval_on_generic_duals(thr3_of_7_dual, thr4_of_8_dual):
    # msp_eval takes 15 to 30 ms a set on these, so it checks a sample;
    # at their width the default chunk of M holds one or two masks, and
    # the dual form's prefix walk at small chunks runs on the thr3-of-7
    # dual, the corpus and the arbitrary MSPs
    ext = extend_msp(thr3_of_7_dual)
    assert (ext.d, ext.e, ext.n) == (211, 156, 8)
    assert_table_is_eval(ext, random.Random(7).sample(range(1 << 8), 48), chunk_masks=())
    assert (thr4_of_8_dual.d, thr4_of_8_dual.e) == (280, 225)
    assert_table_is_eval(thr4_of_8_dual, random.Random(8).sample(range(1 << 8), 24), chunk_masks=())


def test_msp_structure_on_the_extension_of_the_thr4_of_8_dual(monkeypatch, thr4_of_8_dual):
    # 561 x 436: the direct table would take tens of seconds, so the
    # structure extend_msp derived for its own check is compared with the
    # extended structure and with msp_eval on a sample of sets
    received = []

    def spy(field, matrix, psi, n):
        received.append(matrix.shape)
        return span_table(field, matrix, psi, n)

    monkeypatch.setattr(msp_module, "span_table", spy)
    ext = extend_msp(thr4_of_8_dual)
    assert (ext.d, ext.e, ext.n) == (561, 436, 9)
    assert received[-1] == (561, 126)
    structure, expected = msp_structure(ext), msp_structure(thr4_of_8_dual).extend_selfdual()
    assert structure == expected
    for b in random.Random(9).sample(range(1 << 9), 12):
        assert int(not structure.is_member(b)) == msp_eval(ext, b), b


def test_span_table_runs_on_the_narrower_form(thr3_of_7_dual):
    _, (form,) = derive(thr3_of_7_dual)
    assert form.shape == (105, 21)
    orand = compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5)
    # rank 2 of 3 columns: the rule's width test alone would pick N
    deficient = unchecked_msp(GF5, Matrix.from_rows(GF5, [[1, 0, 0], [0, 1, 0], [1, 1, 0]]), (1, 2, 3), 3)
    shapes = []
    for m in [shamir_msp(5, 2, GF7), orand, extend_msp(orand), deficient]:
        _, (form,) = derive(m)
        assert np.array_equal(form, np.array(m.matrix.data).reshape(m.d, m.e))
        shapes.append(form.shape)
    assert shapes == [(5, 3), (4, 3), (8, 5), (3, 3)]


@pytest.mark.parametrize("corrupt", ["solution", "kernel"])
def test_dual_form_refuses_a_wrong_certificate(monkeypatch, thr3_of_7_dual, corrupt):
    eliminate, p = galois.left_solve_and_kernel, thr3_of_7_dual.field.p

    def wrong(m, target):
        # a 1 added on a pivot row keeps K the identity on the free rows
        pivots, u, kernel = eliminate(m, target)
        bump = lambda v: tuple((x + (i == pivots[0])) % p for i, x in enumerate(v))
        if corrupt == "solution":
            return pivots, bump(u), kernel
        return pivots, u, (bump(kernel[0]),) + kernel[1:]

    calls = []
    monkeypatch.setattr(msp_module, "left_solve_and_kernel", wrong)
    monkeypatch.setattr(msp_module, "span_table", lambda *args: calls.append(args))
    m = thr3_of_7_dual
    with pytest.raises(RuntimeError, match="^dual form fails its certificate; the linear algebra layer is broken$"):
        msp_structure(unchecked_msp(m.field, m.matrix, m.psi, m.n))
    assert calls == []


def test_span_table_raises_when_the_criteria_disagree(monkeypatch):
    add_rows = galois._add_rows

    def lose_the_kernel(span, kernel, rows, p, inv):
        add_rows(span, kernel, rows, p, inv)
        kernel[...] = 0

    monkeypatch.setattr(galois, "_add_rows", lose_the_kernel)
    with pytest.raises(RuntimeError, match="disagree on subset 1;"):
        table_of(shamir_msp(3, 1, GF5))


def test_structure_derived_once_per_msp(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return span_table(*args)

    monkeypatch.setattr(msp_module, "span_table", counted)
    m = compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5)  # checks itself
    assert len(calls) == 1
    dual = dual_msp(m)  # reads m's structure, compiles and checks the dual
    assert len(calls) == 2
    assert msp_structure(dual) == msp_structure(m).dual()
    assert len(calls) == 2


def test_msp_refuses_17_players_before_any_linear_algebra(monkeypatch):
    calls = []
    monkeypatch.setattr(msp_module, "rank", lambda *args: calls.append(args))
    monkeypatch.setattr(msp_module, "span_table", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"^player count must lie in 1\.\.16, got 17$"):
        MSP(GF5, Matrix.from_rows(GF5, [(1,)], 1), (1,), 17)
    with pytest.raises(FormatError, match=r"^player count must lie in 1\.\.16, got 100000000$"):
        parse_msp("msp field=5 d=1 e=1 n=100000000\nrow 1 1\n")
    assert calls == []


def _or_heads(arity):
    return [(1,)] * arity


def test_compile_formula_refuses_a_wrong_program(monkeypatch):
    monkeypatch.setattr(msp_module, "_and_heads", _or_heads)
    with pytest.raises(RuntimeError, match=r"^compiled MSP disagrees with formula on 1$"):
        compile_formula(parse_formula("and(1,2)"), GF5)


def test_dual_msp_refuses_a_wrong_program(monkeypatch):
    # the maximal sets themselves, not their complements, become the minimal qualified sets
    monkeypatch.setattr(msp_module, "complement", lambda mask, n: mask)
    with pytest.raises(RuntimeError, match="^dual MSP does not compute the dual structure$"):
        dual_msp(shamir_msp(3, 1, GF5))


def test_extend_msp_refuses_a_wrong_program(monkeypatch):
    # the dual of and(1,2) is or(1,2), compiled without an and gate, so
    # only the extension's own gate (f* and tau) becomes an or
    monkeypatch.setattr(msp_module, "_and_heads", _or_heads)
    with pytest.raises(RuntimeError, match="^extended MSP does not compute the extended structure$"):
        extend_msp(shamir_msp(2, 1, GF5))


def test_extend_msp_refuses_before_the_dualizer(monkeypatch):
    calls = []
    monkeypatch.setattr(extend_msp, "__defaults__", (calls.append,))
    with pytest.raises(ValueError, match="^structure is not Q2\\*; no-cloning forbids QSS$"):
        extend_msp(compile_formula(parse_formula("or(1,2)"), GF5))
    # threshold 8 of 16 is Q2*, but its extension would have 17 players
    with pytest.raises(ValueError, match=r"^player count must lie in 1\.\.16, got 17$"):
        extend_msp(shamir_msp(16, 8, Field(17)))
    assert calls == []


@pytest.mark.parametrize("call, message", [
    (lambda: MSP(GF5, Matrix(GF5, ((),), 0), (1,), 1), "an MSP needs at least one column"),
    (lambda: shamir_msp(3, 3, GF5), "degree must satisfy 0 <= k < n, got k=3, n=3"),
], ids=["no-columns", "shamir-degree"])
def test_refusals_name_the_mismatch(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
