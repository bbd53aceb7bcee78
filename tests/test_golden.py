"""Golden outputs of the constructions, pinned byte for byte.

Each construction (gate composition, dualization, extension, dealing
tables, seeded table generation, the counterexample search, the seeded
quantum verification reports) is pinned
by the SHA-256 of its exact text, including dict insertion order, so a
refactor that reorders rows, deals or candidates fails here even when
every semantic check still passes.
"""

import hashlib

import pytest

from spanshare import condition
from spanshare.classical import verify_classical
from spanshare.cli import main
from spanshare.condition import format_scheme, generate_valid_schemes, scheme_from_msp
from spanshare.galois import Field, Matrix
from spanshare.msp import compile_formula, dual_msp, dump_msp, extend_msp, msp_structure, shamir_msp
from spanshare.quantum import qss_pure
from spanshare.structures import parse_formula, threshold_structure

from conftest import unchecked_msp

GF5 = Field(5)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GENERATED = {
    0: "5152e0bdbe2e039c26cb064384269b8bd9067b81acf53819d2f7eb15ce8b206b",
    1: "278dc56c0cf134266b461a2b0bbd6a18613ca8a14ea61c166cd7e744105295e0",
    2026: "2600037d12f0f2b2a6463077fade92901bbd96dd32a42a9b956d46cf53780d64",
}


@pytest.mark.parametrize("seed", sorted(GENERATED))
def test_generate_valid_schemes_golden(seed):
    schemes = generate_valid_schemes(60, seed, max_secrets=4, max_share_size=6, max_denominator=24)
    text = "".join(format_scheme(s) + repr(list(s.table)) + "\n" for s in schemes)
    assert digest(text) == GENERATED[seed]


FORMULAS = [
    "or(1,2)",
    "and(1,2,3)",
    "thr2(1,2,3)",
    "or(and(1,3),and(2,3))",
    "and(or(1,2),or(3,4))",
    "thr2(and(1,2),or(3,4),5)",
    "thr3(1,2,3,4)",
    "or(thr2(1,2,3),and(3,4))",
]

COMPILED = {
    5: "72ae971b143a39e3525bb8f6cb4e172ef0596c0be99da99a6868a38c3ca9bdc9",
    7: "40cf4797a79850b9eb50e1fcbcdb6ce894309408cc70f92503bf219ad9800197",
    11: "83207442f39f91bc9f30962d4feaa68e664d114cd988a24a8790fef12e080911",
}


@pytest.mark.parametrize("p", sorted(COMPILED))
def test_compiled_dual_and_extended_dumps_golden(p):
    out = []
    for f in FORMULAS:
        msp = compile_formula(parse_formula(f), Field(p))
        out += [dump_msp(msp), dump_msp(dual_msp(msp))]
        if msp_structure(msp).is_q2star():
            out.append(dump_msp(extend_msp(msp)))
    assert digest("".join(out)) == COMPILED[p]


def test_shamir_dual_dumps_golden():
    params = [(2, 0, 5), (2, 1, 5), (3, 1, 5), (3, 2, 5), (4, 1, 5), (4, 2, 5), (4, 3, 5),
              (3, 1, 7), (4, 2, 7), (5, 2, 7), (5, 1, 7), (5, 3, 7), (4, 1, 11), (5, 2, 11),
              (6, 2, 7)]
    text = "".join(dump_msp(dual_msp(shamir_msp(n, k, Field(p)))) for n, k, p in params)
    assert digest(text) == "dbe38faa05edb5fa7d2263379d7b27602c4045f5c0fe12b6643861320aa73c93"


def test_scheme_from_msp_tables_golden():
    msps = [
        shamir_msp(3, 1, GF5),
        compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5),
        shamir_msp(4, 2, GF5),
        compile_formula(parse_formula("and(1,or(2,3))"), Field(7)),
        shamir_msp(1, 0, GF5),
    ]
    text = "".join(repr(list(scheme_from_msp(m).table.items())) + format_scheme(scheme_from_msp(m)) for m in msps)
    assert digest(text) == "6c6675b765df6b8a8750527b66256485c38f34a1af593f2f537fece4b9d974c3"


def _corrupted(rows):
    shamir = shamir_msp(3, 1, GF5)
    return unchecked_msp(GF5, Matrix.from_rows(GF5, rows, 2), shamir.psi, 3)


def test_verify_classical_failure_messages_golden():
    no_secret = _corrupted([(0, r[1]) for r in shamir_msp(3, 1, GF5).matrix.data])
    assert str(verify_classical(no_secret, structure=threshold_structure(3, 1))) == (
        "classical verification: fail (25 deals)\n"
        "  counterexample: qualified set {1,2} cannot reconstruct at all"
    )
    leaky = _corrupted([(1, 0), (1, 1), (1, 2)])
    assert str(verify_classical(leaky, structure=threshold_structure(3, 1))) == (
        "classical verification: fail (25 deals)\n"
        "  counterexample: B={1} share distribution differs between secrets 0 and 1"
    )
    assert str(verify_classical(shamir_msp(3, 2, GF5))) == "classical verification: pass (125 deals)"


COUNTEREXAMPLE = "3676858d9054c8815de68fa8dcd65a9c9aa2df27a45b07cbdb5013ccb3b3a451"


@pytest.fixture
def search_calls(monkeypatch):
    """Count the criterion, oracle and homomorphic-table calls of a search."""
    calls = {"eq1": 0, "precondition": 0, "oracle": 0, "specs": 0, "non_injective": 0}
    eq1, oracle, build = condition.eq1_check, condition.lift_report, condition.homomorphic_scheme

    def counted_eq1(*args, **kwargs):
        calls["eq1"] += 1
        try:
            return eq1(*args, **kwargs)
        except condition.PreconditionError:
            calls["precondition"] += 1
            raise

    def counted_oracle(*args, **kwargs):
        calls["oracle"] += 1
        return oracle(*args, **kwargs)

    def counted_build(*args, **kwargs):
        calls["specs"] += 1
        try:
            return build(*args, **kwargs)
        except ValueError:
            calls["non_injective"] += 1
            raise

    monkeypatch.setattr(condition, "eq1_check", counted_eq1)
    monkeypatch.setattr(condition, "lift_report", counted_oracle)
    monkeypatch.setattr(condition, "homomorphic_scheme", counted_build)
    return calls


@pytest.mark.parametrize(
    "kwargs, found, counts",
    [
        ({}, COUNTEREXAMPLE, {"eq1": 11, "precondition": 0, "oracle": 1, "specs": 0, "non_injective": 0}),
        ({"max_secrets": 3, "max_share_size": 4, "max_denominator": 3}, COUNTEREXAMPLE,
         {"eq1": 11, "precondition": 0, "oracle": 1, "specs": 0, "non_injective": 0}),
        ({"max_denominator": 4, "family": "function"}, None,
         {"eq1": 390, "precondition": 0, "oracle": 0, "specs": 0, "non_injective": 0}),
        ({"max_share_size": 3, "family": "homomorphic"}, None,
         {"eq1": 54, "precondition": 40, "oracle": 0, "specs": 97, "non_injective": 43}),
    ],
)
def test_search_candidate_stream_golden(search_calls, kwargs, found, counts):
    result = condition.search_counterexample(**kwargs)
    assert (None if result is None else digest(format_scheme(result) + repr(list(result.table)))) == found
    assert search_calls == counts



QSS_REPORTS = {
    "pure": "7fea61f005eec529cd1e121e0095fe274ae7052bdfc138eb955f82d44254f221",
    "mixed": "24d024750c75719d25f3a380e2cad54f4a504cefd885a8233a88af79bdc869e5",
}


def test_qss_reports_golden(tmp_path, capsys):
    # every probe line's fidelity or distance, as printed, is pinned
    report = qss_pure(shamir_msp(5, 2, Field(7))).verify_all(seed=2026)
    assert digest(report.to_machine()) == QSS_REPORTS["pure"]
    path = tmp_path / "orand.msp"
    assert main(["msp", "from-formula", "or(and(1,3),and(2,3))", "--field", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["qss", "verify-mixed", str(path), "--seed", "2026", "--format", "machine"]) == 0
    assert digest(capsys.readouterr().out) == QSS_REPORTS["mixed"]
