"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as
they complete. Tolerances are pinned here and never loosened: 1e-9
for recovery fidelity and secrecy trace distance, exact equality for
all classical and rational checks.
"""

import itertools
import random
import time
from contextlib import contextmanager
from pathlib import Path

from conftest import all_antichains, lagrange_at_zero, mask, msp_corpus, shares_of
from reference_classical import homomorphic_dichotomy_check
from reference_msp import msp_eval

from spanshare.galois import Field
from spanshare.classical import reconstruct, share, verify_classical
from spanshare.condition import (
    HomomorphicSpec,
    eq1_check,
    format_scheme,
    generate_valid_schemes,
    homomorphic_scheme,
    lift_report,
    scheme_from_msp,
    search_counterexample,
)
from spanshare.msp import (
    compile_formula,
    dual_msp,
    extend_msp,
    msp_structure,
    shamir_msp,
)
from spanshare.quantum import qss_mixed, qss_pure
from spanshare.structures import AdversaryStructure, full_mask, parse_formula

SEED = 2026
RECOVERY_TOL = 1e-9
SECRECY_TOL = 1e-9

GF5 = Field(5)
GF7 = Field(7)

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    print(f"criterion {number:2d} ({label}): PASS [{time.monotonic() - start:.1f}s]")


def orand_msp():
    return compile_formula(parse_formula("or(and(1,3),and(2,3))"), GF5)


def test_criterion_01_pure_threshold_qss():
    with criterion(1, "pure-state threshold QSS"):
        start = time.monotonic()
        for n, t, p in [(3, 1, 5), (5, 2, 7)]:
            scheme = qss_pure(shamir_msp(n, t, Field(p)))
            expected = {
                mask(*combo, n=n)
                for size in range(t + 1)
                for combo in itertools.combinations(range(1, n + 1), size)
            }
            assert set(scheme.plans) == expected
            report = scheme.verify_all(seed=SEED)
            # full probe family: p basis states, uniform, 20 random
            inputs = {line.label for line in report.lines if line.check == "recovery"}
            assert len(inputs) == p + 21
            assert report.passed
            for line in report.lines:
                if line.metric == "fidelity":
                    assert line.value >= 1 - RECOVERY_TOL
                else:
                    assert line.value <= SECRECY_TOL
        assert time.monotonic() - start <= 60


def test_criterion_02_general_structure_pure_scheme():
    with criterion(2, "pure scheme for the self-dual extension"):
        extended = extend_msp(orand_msp())
        assert msp_structure(extended).is_selfdual()
        scheme = qss_pure(extended)
        report = scheme.verify_all(seed=SEED)
        assert report.passed


def test_criterion_03_mixed_state_qss():
    with criterion(3, "mixed-state QSS for a Q2* non-self-dual structure"):
        base = orand_msp()
        assert not msp_structure(base).is_selfdual()
        scheme = qss_mixed(base)
        assert sorted(scheme.plans) == sorted(
            [mask(1, 3, n=3), mask(2, 3, n=3), mask(1, 2, 3, n=3)]
        )
        assert sorted(scheme.structure.members()) == sorted(
            [0, mask(1, n=3), mask(2, n=3), mask(3, n=3), mask(1, 2, n=3)]
        )
        report = scheme.verify_all(seed=SEED)
        assert report.passed
        for line in report.lines:
            if line.metric == "fidelity":
                assert line.value >= 1 - RECOVERY_TOL
            else:
                assert line.value <= SECRECY_TOL


def test_criterion_04_msp_semantics():
    with criterion(4, "MSP semantics and Remark-criteria agreement"):
        start = time.monotonic()
        base = msp_corpus()
        everything = list(base)
        everything += [dual_msp(m) for m in base]
        everything += [extend_msp(m) for m in base if msp_structure(m).is_q2star()]
        for m in everything:
            structure = msp_structure(m)
            for b in range(1 << m.n):
                # msp_eval raises internally if the span and kernel
                # criteria ever disagree
                assert msp_eval(m, b) == (0 if structure.is_member(b) else 1)
        assert time.monotonic() - start <= 10


def test_criterion_05_classical_exhaustive():
    with criterion(5, "exhaustive classical verification + Lagrange oracle"):
        assert verify_classical(shamir_msp(3, 1, GF5)).passed
        assert verify_classical(orand_msp()).passed
        for n in range(2, 6):
            for k in range(n):
                m = shamir_msp(n, k, GF7)
                for s in range(7):
                    a = tuple((3 * s + i + 1) % 7 for i in range(k))
                    entries = share(m, s, a)
                    for q_players in itertools.combinations(range(1, n + 1), k + 1):
                        q = mask(*q_players, n=n)
                        points = [(i, entries[i - 1]) for i in q_players]
                        assert lagrange_at_zero(GF7, points) == s
                        assert reconstruct(m, q, shares_of(m, entries, q)) == s


def test_criterion_06_oracle_equivalence():
    with criterion(6, "eq1_check equals the density-matrix oracle"):
        start = time.monotonic()
        schemes = generate_valid_schemes(120, seed=SEED)
        assert len(schemes) >= 100
        disagreements = 0
        failing = 0
        for sch in schemes:
            verdict = eq1_check(sch, 0b01)
            oracle = lift_report(sch, 0b01, seed=SEED).passed
            disagreements += verdict != oracle
            failing += not verdict
        assert disagreements == 0
        assert 0 < failing < len(schemes)  # the sample exercises both verdicts
        assert time.monotonic() - start <= 300


def test_criterion_07_special_cases():
    with criterion(7, "function-of-Yq and homomorphic schemes pass"):
        from spanshare.galois import Matrix
        from spanshare.msp import MSP

        msp_derived = [
            scheme_from_msp(shamir_msp(3, 1, GF5)),
            scheme_from_msp(orand_msp()),
            scheme_from_msp(shamir_msp(1, 0, GF5)),
            scheme_from_msp(
                MSP(Field(2), Matrix.from_rows(Field(2), [[1, 1], [0, 1]]), (1, 2), 2)
            ),
        ]
        homomorphic = [
            homomorphic_scheme(HomomorphicSpec((2,), 1, ((0, 1), (1, 1)))),
            homomorphic_scheme(
                HomomorphicSpec((3,), 2, ((0, 1, 0), (0, 0, 1), (1, 2, 2)))
            ),
            homomorphic_scheme(
                HomomorphicSpec((5,), 1, ((1, 1), (1, 2), (1, 3)))
            ),  # Shamir GF(5) as a homomorphic scheme
        ]
        for sch in msp_derived + homomorphic:
            structure = sch.structure
            dual = structure.dual()
            splits = [u for u in structure.members() if dual.is_member(u)]
            assert splits  # at least the empty set
            for u in splits:
                assert eq1_check(sch, u)
                assert homomorphic_dichotomy_check(sch, u)


def test_criterion_08_counterexample():
    with criterion(8, "a classically secure scheme fails the condition"):
        found = search_counterexample()
        assert found is not None
        assert not eq1_check(found, 0b01)
        report = lift_report(found, 0b01, seed=0)
        assert not report.passed
        assert report.max_distance > 1e-6
        # the committed fixture is exactly what the deterministic search finds
        fixture = (FIXTURES / "counterexample.scheme").read_text()
        assert format_scheme(found) == fixture
        cert = (FIXTURES / "counterexample.cert").read_text()
        assert "eq1=false" in cert and "oracle=false" in cert
        assert f"max_distance={report.max_distance:.6f}" in cert
        assert f"witness={report.witness[0]}|{report.witness[1]}" in cert


def test_criterion_09_structure_algebra():
    with criterion(9, "structure algebra, exhaustive and randomized"):
        for n in range(1, 6):
            for chain in all_antichains(n):
                a = AdversaryStructure(n, chain)
                dual = a.dual()
                assert dual.dual() == a
                members = set(a.members())
                dual_members = set(dual.members())
                assert a.is_q2() == (members <= dual_members)
                assert a.is_q2star() == (dual_members <= members)
                assert a.is_selfdual() == (a.is_q2() and a.is_q2star())
                if a.is_q2star():
                    ext = a.extend_selfdual()
                    assert ext.is_selfdual()
                    assert ext.restrict(n) == a
        rng = random.Random(SEED)
        for _ in range(200):
            n = rng.randint(1, 10)
            count = rng.randint(0, 8)
            masks = [rng.randint(0, full_mask(n)) for _ in range(count)]
            a = AdversaryStructure(n, tuple(masks))
            dual = a.dual()
            assert dual.dual() == a
            members = set(a.members())
            dual_members = set(dual.members())
            assert a.is_q2() == (members <= dual_members)
            assert a.is_q2star() == (dual_members <= members)
            assert a.is_selfdual() == (a.is_q2() and a.is_q2star())
            if a.is_q2star():
                ext = a.extend_selfdual()
                assert ext.is_selfdual()
                assert ext.restrict(n) == a


def test_criterion_10_determinism(tmp_path, capsys):
    with criterion(10, "seeded outputs are byte-identical"):
        from spanshare.cli import main

        msp_path = tmp_path / "shamir.msp"
        assert main(["msp", "from-formula", "thr2(1,2,3)", "--field", "5",
                     "--out", str(msp_path)]) == 0
        dump_a = msp_path.read_bytes()
        assert main(["msp", "from-formula", "thr2(1,2,3)", "--field", "5",
                     "--out", str(msp_path)]) == 0
        assert msp_path.read_bytes() == dump_a

        share_a, share_b = tmp_path / "a.shares", tmp_path / "b.shares"
        for out in (share_a, share_b):
            assert main(["share", str(msp_path), "--secret", "4", "--seed", "11",
                         "--out", str(out)]) == 0
        assert share_a.read_bytes() == share_b.read_bytes()

        capsys.readouterr()
        args = ["qss", "verify-pure", str(msp_path), "--seed", "7", "--random", "3",
                "--format", "machine"]
        assert main(args) == 0
        report_a = capsys.readouterr().out
        assert main(args) == 0
        report_b = capsys.readouterr().out
        assert report_a == report_b

        fix_a, fix_b = tmp_path / "c1.scheme", tmp_path / "c2.scheme"
        for out in (fix_a, fix_b):
            assert main(["condition", "search", "--out", str(out)]) == 0
        assert fix_a.read_bytes() == fix_b.read_bytes()
        assert fix_a.read_text() == (FIXTURES / "counterexample.scheme").read_text()
