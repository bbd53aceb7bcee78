import contextlib
import io
import itertools
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from spanshare import cli
from spanshare.cli import SplitMix64, main
from spanshare.galois import Field
from spanshare.msp import compile_formula, dump_msp, shamir_msp
from spanshare import msp as msp_module, quantum
from spanshare.quantum import PROBE_PAIR_GUARD, probe_family
from spanshare.structures import (
    format_structure,
    full_mask,
    parse_formula,
    players_from_mask,
    threshold_structure,
)

from conftest import NumpyWithout, msp_corpus
from reference_msp import msp_eval

ORAND = "or(and(1,3),and(2,3))"


@pytest.fixture
def orand_msp_file(tmp_path):
    path = tmp_path / "orand.msp"
    assert main(["msp", "from-formula", ORAND, "--field", "5", "--out", str(path)]) == 0
    return path


@pytest.fixture
def shamir_msp_file(tmp_path):
    path = tmp_path / "shamir13.msp"
    assert main(["msp", "from-formula", "thr2(1,2,3)", "--field", "5", "--out", str(path)]) == 0
    return path


@pytest.fixture
def structure_file(tmp_path):
    path = tmp_path / "nonsd.adv"
    path.write_text("players 3\nmaximal 1 2\nmaximal 3\n")
    return path


def test_splitmix64_reference_values():
    gen = SplitMix64(0)
    # reference sequence of SplitMix64 seeded with 0
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4
    assert SplitMix64(0).elements(5, 3) == SplitMix64(0).elements(5, 3)


def test_structure_check(structure_file, capsys):
    assert main(["structure", "check", str(structure_file)]) == 0
    out = capsys.readouterr().out
    assert "q2=false q2star=true selfdual=false" in out

    assert main(["structure", "check", str(structure_file), "--require", "q2star"]) == 0
    assert main(["structure", "check", str(structure_file), "--require", "selfdual"]) == 1


def test_structure_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.adv"
    bad.write_text("players x\n")
    assert main(["structure", "check", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_structure_dual_and_extend(structure_file, tmp_path, capsys):
    assert main(["structure", "dual", str(structure_file)]) == 0
    out = capsys.readouterr().out
    assert "maximal 1\nmaximal 2" in out

    ext = tmp_path / "ext.adv"
    assert main(["structure", "extend", str(structure_file), "--out", str(ext)]) == 0
    text = ext.read_text()
    assert "players 4" in text
    assert main(["structure", "check", str(ext), "--require", "selfdual"]) == 0


def test_structure_commands_on_sixteen_players(tmp_path, capsys):
    path = tmp_path / "thr16_7.adv"
    path.write_text(format_structure(threshold_structure(16, 7)))
    start = time.perf_counter()
    assert main(["structure", "check", str(path)]) == 0
    assert capsys.readouterr().out == "q2=true q2star=false selfdual=false\n"
    assert main(["structure", "dual", str(path)]) == 0
    assert capsys.readouterr().out == format_structure(threshold_structure(16, 8))
    assert time.perf_counter() - start < 10


def test_structure_extend_rejects_non_q2star(tmp_path, capsys):
    bad = tmp_path / "nq.adv"
    bad.write_text("players 2\nmaximal\n")  # only the empty set: {1},{2} disjoint qualified
    assert main(["structure", "extend", str(bad)]) == 1
    assert "no-cloning" in capsys.readouterr().err


def test_msp_from_formula_and_eval(orand_msp_file, capsys):
    text = orand_msp_file.read_text()
    assert text.startswith("msp field=5 d=4 e=3 n=3")

    assert main(["msp", "eval", str(orand_msp_file), "--set", "2,3"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["msp", "eval", str(orand_msp_file), "--set", "1,2"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_msp_eval_command_matches_the_per_set_oracle(tmp_path, capsys):
    # every set of the corpus, then on Shamir(16, 7) and Shamir(16, 15)
    # over GF(17) the sets at and below the threshold, both ends and four drawn sets
    rng = random.Random(25)
    cases = [(m, range(1 << m.n)) for m in msp_corpus()]
    for k in (7, 15):
        sets = [full_mask(k + 1), full_mask(k), full_mask(16), 0] + rng.sample(range(1 << 16), 4)
        cases.append((shamir_msp(16, k, Field(17)), sets))
    for i, (m, masks) in enumerate(cases):
        path = tmp_path / f"{i}.msp"
        path.write_text(dump_msp(m))
        for b in masks:
            players = ",".join(str(p) for p in players_from_mask(b)) or "-"
            assert main(["msp", "eval", str(path), "--set", players]) == 0
            assert capsys.readouterr() == (f"{msp_eval(m, b)}\n", ""), (i, b)


def test_msp_from_formula_field_too_small(capsys):
    assert main(["msp", "from-formula", "thr2(1,2,3)", "--field", "2"]) == 2
    assert "too small" in capsys.readouterr().err


def test_msp_from_formula_nesting_bound(capsys):
    formula = "or(1,2)"
    for _ in range(199):
        formula = f"or({formula},1)"
    assert main(["msp", "from-formula", formula, "--field", "5"]) == 0
    assert capsys.readouterr().out.startswith("msp field=5 d=201 e=1 n=2")
    assert main(["msp", "from-formula", f"or({formula},1)", "--field", "5"]) == 2
    assert capsys.readouterr().err == "error: gates nested deeper than 200 at position 603\n"


def test_msp_dual_and_extend(orand_msp_file, tmp_path, capsys):
    assert main(["msp", "dual", str(orand_msp_file)]) == 0
    assert capsys.readouterr().out.startswith("msp field=5")

    ext = tmp_path / "ext.msp"
    assert main(["msp", "extend", str(orand_msp_file), "--out", str(ext)]) == 0
    assert "n=4" in ext.read_text().splitlines()[0]

    bad = tmp_path / "or12.msp"
    assert main(["msp", "from-formula", "or(1,2)", "--field", "5", "--out", str(bad)]) == 0
    assert main(["msp", "extend", str(bad)]) == 1
    assert "no-cloning" in capsys.readouterr().err


def test_share_and_reconstruct(shamir_msp_file, tmp_path, capsys):
    shares = tmp_path / "shares.txt"
    assert main(["share", str(shamir_msp_file), "--secret", "3", "--seed", "7", "--out", str(shares)]) == 0
    text = shares.read_text()
    assert "# seed 7" in text
    assert "field 5" in text

    assert main(["reconstruct", str(shamir_msp_file), str(shares), "--set", "2,3"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["reconstruct", str(shamir_msp_file), str(shares), "--set", "1,3"]) == 0
    assert capsys.readouterr().out.strip() == "3"

    assert main(["reconstruct", str(shamir_msp_file), str(shares), "--set", "1"]) == 1
    assert "cannot reconstruct" in capsys.readouterr().err


def test_reconstruct_refuses_a_relabelled_row(orand_msp_file, tmp_path, capsys):
    shares = tmp_path / "shares.txt"
    assert main(["share", str(orand_msp_file), "--secret", "3", "--seed", "7", "--out", str(shares)]) == 0
    text = shares.read_text()
    assert "share 3 2 1\n" in text
    shares.write_text(text.replace("share 3 2 1\n", "share 1 2 1\n"))
    assert main(["reconstruct", str(orand_msp_file), str(shares), "--set", "1,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: share file row 2 is labelled player 1, but the MSP gives it to player 3\n"
    shares.write_text(text + "share 3 5 0\n")
    assert main(["reconstruct", str(orand_msp_file), str(shares), "--set", "1,3"]) == 2
    assert capsys.readouterr().err == "error: share file row 5 is past the MSP's 4 rows\n"


def test_share_determinism(shamir_msp_file, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main(["share", str(shamir_msp_file), "--secret", "2", "--seed", "99", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.txt"
    assert main(["share", str(shamir_msp_file), "--secret", "2", "--seed", "100", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_qss_verify_pure(shamir_msp_file, orand_msp_file, capsys):
    assert main(["qss", "verify-pure", str(shamir_msp_file), "--random", "2"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out

    assert main(["qss", "verify-pure", str(orand_msp_file), "--random", "2"]) == 1
    err = capsys.readouterr().err
    assert "verify-mixed" in err


def test_qss_verify_pure_budget_refusal_has_no_hint(tmp_path, capsys):
    # Shamir(5,2) over GF(127) is self-dual but needs 127**3 > 2e6 amplitudes
    path = tmp_path / "big.msp"
    assert main(["msp", "from-formula", "thr3(1,2,3,4,5)", "--field", "127", "--out", str(path)]) == 0
    assert main(["qss", "verify-pure", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: encoding needs 2048383 amplitudes, beyond the simulation guard (2000000)\n"


def one_player_msp_text(p, e, extra):
    """An MSP over GF(p) whose one player holds the e x e identity and extra all-ones rows."""
    rows = [[int(i == j) for j in range(e)] for i in range(e)] + [[1] * e] * extra
    body = "".join("row 1 " + " ".join(map(str, row)) + "\n" for row in rows)
    return f"msp field={p} d={len(rows)} e={e} n=1\n" + body


def test_qss_verify_deal_memory_guard_is_exit_2(tmp_path, monkeypatch, capsys):
    # 8 deals of 3 inputs and 6 shares: 72 int64 entries
    small = tmp_path / "small.msp"
    small.write_text(one_player_msp_text(2, 3, 3))
    monkeypatch.setattr(msp_module, "DEAL_ENTRY_GUARD", 72)
    assert main(["qss", "verify-pure", str(small)]) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")
    monkeypatch.setattr(msp_module, "DEAL_ENTRY_GUARD", 71)
    assert main(["qss", "verify-pure", str(small)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 8 deals of 6 shares make 72 int64 entries, past the deal memory guard (71)\n"
    )
    monkeypatch.undo()
    # 2**20 amplitudes pass the simulation guard, but 24 shares of each deal
    # beside its 20 inputs would peak near 570 MB: refused before any array
    big = tmp_path / "big.msp"
    big.write_text(one_player_msp_text(2, 20, 4))
    monkeypatch.setattr(msp_module.np, "indices", lambda *args: pytest.fail("allocated"))
    assert main(["qss", "verify-pure", str(big)]) == 2
    assert capsys.readouterr().err == (
        "error: 1048576 deals of 24 shares make 46137344 int64 entries, "
        "past the deal memory guard (16777216)\n"
    )


def test_qss_verify_mixed_budget_refusal_is_exit_2(tmp_path, capsys):
    # or-and over GF(127) is Q2*, but its extension needs 127**5 amplitudes
    path = tmp_path / "orand127.msp"
    assert main(["msp", "from-formula", ORAND, "--field", "127", "--out", str(path)]) == 0
    assert main(["qss", "verify-mixed", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: encoding needs 33038369407 amplitudes, beyond the simulation guard (2000000)\n"


def test_extension_past_the_player_cap_is_exit_2(tmp_path, capsys):
    # thr8 of 16 and thr9 of 16 are Q2*, but their extensions need 17 players
    adv = tmp_path / "thr16_8.adv"
    adv.write_text(format_structure(threshold_structure(16, 8)))
    msp = tmp_path / "thr9.msp"
    players = ",".join(map(str, range(1, 17)))
    assert main(["msp", "from-formula", f"thr9({players})", "--field", "17", "--out", str(msp)]) == 0
    for argv in (["structure", "extend", str(adv)], ["msp", "extend", str(msp)],
                 ["qss", "verify-mixed", str(msp)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: player count must lie in 1..16, got 17\n"


def test_verify_mixed_not_q2star_is_a_failed_check(tmp_path, capsys):
    path = tmp_path / "or12.msp"
    assert main(["msp", "from-formula", "or(1,2)", "--field", "5", "--out", str(path)]) == 0
    assert main(["qss", "verify-mixed", str(path)]) == 1
    assert capsys.readouterr().err == "error: structure is not Q2*; no-cloning forbids QSS\n"


def test_qss_refuses_a_negative_random_count(shamir_msp_file, capsys):
    for command in ("verify-pure", "verify-mixed"):
        assert main(["qss", command, str(shamir_msp_file), "--random", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: random probe count must be nonnegative, got -3\n"


def test_probe_commands_refuse_a_negative_seed_before_other_work(shamir_msp_file, tmp_path, capsys, monkeypatch):
    # the files do not exist and the search must not run: the seed is refused first
    monkeypatch.setattr("spanshare.cli.search_counterexample", lambda **kwargs: pytest.fail("searched"))
    missing = str(tmp_path / "missing")
    for argv in (["qss", "verify-pure", missing], ["qss", "verify-mixed", missing],
                 ["condition", "check", missing, "--set", "1"], ["condition", "search"]):
        assert main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be nonnegative, got -1\n"
    # the library refuses it too, before any vector is built
    monkeypatch.setattr(quantum, "np", NumpyWithout("eye", "full", "random"))
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        probe_family(5, seed=-1)
    # share keeps its SplitMix64 seed, taken mod 2**64
    monkeypatch.undo()
    assert main(["share", str(shamir_msp_file), "--secret", "1", "--seed", "-1"]) == 0
    assert "# seed -1\n" in capsys.readouterr().out


def test_qss_refuses_a_random_count_past_the_pair_guard(shamir_msp_file, capsys, monkeypatch):
    # the numpy calls that build probe vectors fail: none may run before the refusal
    monkeypatch.setattr(quantum, "np", NumpyWithout("eye", "full", "random"))
    # GF(5): 5 + 1 + N probes make (6 + N)(5 + N)/2 pairs per coalition;
    # the largest N inside the guard is the one whose N + 1 passes it
    largest = next(n for n in itertools.count() if (7 + n) * (6 + n) // 2 > PROBE_PAIR_GUARD)
    for command in ("verify-pure", "verify-mixed"):
        for n in (largest + 1, 10**30):
            assert main(["qss", command, str(shamir_msp_file), "--random", str(n)]) == 2
            captured = capsys.readouterr()
            probes = 6 + n
            assert captured.out == ""
            assert captured.err == (
                f"error: {probes} probes make {probes * (probes - 1) // 2} pairs per coalition, "
                f"beyond the probe-pair guard ({PROBE_PAIR_GUARD})\n"
            )
    monkeypatch.undo()
    family = probe_family(5, n_random=largest)
    assert len(family) * (len(family) - 1) // 2 <= PROBE_PAIR_GUARD


def test_qss_verify_pure_player_cap_refusal_has_no_hint(tmp_path, capsys):
    # verify-mixed refuses a 17-player MSP the same way, so the hint would mislead
    path = tmp_path / "p17.msp"
    path.write_text("msp field=2 d=17 e=1 n=17\n" + "".join(f"row {i} 1\n" for i in range(1, 18)))
    assert main(["qss", "verify-pure", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: player count must lie in 1..16, got 17\n"
    assert main(["qss", "verify-mixed", str(path)]) == 2
    assert capsys.readouterr().err == err


def test_msp_past_the_player_cap_is_refused_as_input(tmp_path, capsys):
    path = tmp_path / "huge.msp"
    path.write_text("msp field=5 d=1 e=1 n=100000000\nrow 1 1\n")
    for argv in (["msp", "eval", str(path), "--set", "1"], ["qss", "verify-pure", str(path)],
                 ["qss", "verify-mixed", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: player count must lie in 1..16, got 100000000\n"


def test_qss_verify_mixed(orand_msp_file, capsys):
    assert main(["qss", "verify-mixed", str(orand_msp_file), "--random", "2", "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert "check=recovery" in out and "result=pass" in out


def test_qss_machine_format_deterministic(shamir_msp_file, capsys):
    args = ["qss", "verify-pure", str(shamir_msp_file), "--random", "3", "--seed", "5", "--format", "machine"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "seed=5" in first


def test_condition_check_and_search(tmp_path, capsys):
    fixture = tmp_path / "counter.scheme"
    assert main(["condition", "search", "--out", str(fixture)]) == 0
    out = capsys.readouterr().out
    assert "counterexample found" in out
    assert "max_distance=0.5" in out

    assert main(["condition", "check", str(fixture), "--set", "1"]) == 1
    assert "eq1=false oracle=false agree=true" in capsys.readouterr().out


def test_condition_check_reports_a_disagreement(monkeypatch, capsys):
    monkeypatch.setattr(cli, "eq1_check", lambda *args: True)
    fixture = Path(__file__).parent / "fixtures" / "counterexample.scheme"
    assert main(["condition", "check", str(fixture), "--set", "1"]) == 1
    assert capsys.readouterr() == (
        "eq1=true oracle=false agree=false\n",
        "error: criterion and oracle disagree; please report this\n",
    )


def test_condition_check_shamir(tmp_path, capsys):
    from spanshare.condition import format_scheme, scheme_from_msp
    from spanshare.galois import Field
    from spanshare.msp import shamir_msp

    path = tmp_path / "shamir.scheme"
    path.write_text(format_scheme(scheme_from_msp(shamir_msp(3, 1, Field(5)))))
    assert main(["condition", "check", str(path), "--set", "1"]) == 0
    assert "eq1=true oracle=true agree=true" in capsys.readouterr().out


def test_condition_check_invalid_table(tmp_path, capsys):
    bad = tmp_path / "bad.scheme"
    # normalized rows but the full share vector does not determine s
    bad.write_text(
        "scheme n=2 secrets=2\nspace 1 2\nspace 2 2\n"
        "p 0 0 0 1/1\np 1 0 0 1/1\n"
    )
    assert main(["condition", "check", str(bad), "--set", "1"]) == 2
    assert "not a valid secret-sharing table" in capsys.readouterr().err


def test_condition_check_bad_split(tmp_path, capsys):
    from spanshare.condition import format_scheme, scheme_from_msp
    from spanshare.galois import Field
    from spanshare.msp import shamir_msp

    path = tmp_path / "shamir.scheme"
    path.write_text(format_scheme(scheme_from_msp(shamir_msp(3, 1, Field(5)))))
    assert main(["condition", "check", str(path), "--set", "2,3"]) == 2
    assert "not correct" in capsys.readouterr().err


def test_condition_search_function_family_finds_nothing(capsys):
    assert main(["condition", "search", "--den", "3", "--family", "function"]) == 1
    assert "no counterexample" in capsys.readouterr().out


def test_missing_file_is_exit_2(capsys):
    assert main(["msp", "eval", "/nonexistent.msp", "--set", "1"]) == 2


@pytest.mark.parametrize("target, reason", [("missing/out.txt", "No such file or directory"),
                                            (".", "Is a directory")])
def test_unwritable_out_is_exit_2(structure_file, orand_msp_file, tmp_path, capsys, target, reason):
    out = tmp_path / target
    for argv in (
        ["structure", "dual", str(structure_file)],
        ["structure", "extend", str(structure_file)],
        ["msp", "from-formula", "or(1,2)", "--field", "5"],
        ["msp", "dual", str(orand_msp_file)],
        ["msp", "extend", str(orand_msp_file)],
        ["share", str(orand_msp_file), "--secret", "3"],
        ["condition", "search"],
    ):
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}\n")


@pytest.mark.parametrize(
    "content",
    ["\x00\x01garbage\xff", "msp field=banana", "players 99\nmaximal 1\n",
     "scheme n=2\np 0 0 0 1/0\n", "field five\nshare a b c\n",
     "scheme n=2 secrets=2\nspace x 2\nspace 2 2\n", "and(1,0)",
     pytest.param("or(" * 1200 + "1,2" + ")" * 1200, id="or-nested-1200")],
)
def test_malformed_files_never_traceback(tmp_path, capsys, content):
    path = tmp_path / "junk"
    path.write_text(content)
    for argv in (
        ["structure", "check", str(path)],
        ["msp", "eval", str(path), "--set", "1"],
        ["condition", "check", str(path), "--set", "1"],
        ["reconstruct", str(path), str(path), "--set", "1"],
        ["msp", "from-formula", content, "--field", "5"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_console_entry_point():
    # the subprocess imports the package this suite imported, installed or not
    package_root = str(Path(cli.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "spanshare.cli", "msp", "from-formula", "or(1,2)", "--field", "5"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert result.stdout.startswith("msp field=5 d=2 e=1 n=2")


@st.composite
def scheme_texts(draw):
    """A scheme file and a --set value. The table is correct and secret
    for U = every player but the last, whose share names the secret; its
    shares may pass int64 and both sides of each probability may carry
    a huge factor. Then comes at most one malformation."""
    n, secrets = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    offset = draw(st.sampled_from([0, 0, 0, 2**64, 10**40]))  # added to every share
    scale = draw(st.sampled_from([1, 3, 2**64 + 1, 10**30]))  # multiplies both sides of p
    span = draw(st.integers(1, 2))  # last player's shares per secret
    sizes = [draw(st.integers(1, 3)) for _ in range(n - 1)] + [secrets * span]
    lines = [f"scheme n={n} secrets={secrets}"]
    lines += [f"space {i} {offset + size}" for i, size in enumerate(sizes, start=1)]
    u_words = st.tuples(*(st.integers(offset, offset + size - 1) for size in sizes[:-1]))
    u_rows = draw(st.lists(st.tuples(u_words, st.integers(1, 4)), min_size=1, max_size=3))
    den = sum(weight for _, weight in u_rows)
    for s in range(secrets):
        for y, weight in u_rows:  # the same U-marginal for every secret
            first = draw(st.integers(0, weight))
            for q, part in ((0, first), (span - 1, weight - first)):
                shares = " ".join(map(str, y + (offset + s * span + q,)))
                lines.append(f"p {s} {shares} {part * scale}/{den * scale}")
    junk = st.sampled_from(["x", "-1", "0", "1/0", "3/2", str(2**70), "1" * 5000, "p", "space"])
    mutation = draw(st.sampled_from(["none"] * 4 + ["drop", "token", "append", "repeat"]))
    at = draw(st.integers(0, len(lines) - 1))
    if mutation == "drop":
        del lines[at]
    elif mutation == "token":
        tokens = lines[at].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(junk)
        lines[at] = " ".join(tokens)
    elif mutation == "append":
        lines.append(" ".join(draw(st.lists(junk, min_size=1, max_size=n + 3))))
    elif mutation == "repeat":
        lines.append(lines[at])
    designed = ",".join(map(str, range(1, n))) or "-"
    ids = st.lists(st.integers(1, n), min_size=1, unique=True).map(lambda ps: ",".join(map(str, ps)))
    players = draw(st.just(designed) | ids | st.sampled_from(["-", "0", str(n + 1), "x", "1,1"]))
    return "\n".join(lines) + "\n", players


COUNTEREXAMPLE_CASE = ("scheme n=2 secrets=2\nspace 1 2\nspace 2 3\n"
                       "p 0 0 1 1/2\np 0 1 0 1/2\np 1 0 2 1/2\np 1 1 2 1/2\n", "1")


@given(case=scheme_texts(), seed=st.sampled_from([None, "0", "5", "-1", str(2**70)]))
@settings(max_examples=200, deadline=None)
@example(case=COUNTEREXAMPLE_CASE, seed=None)
@example(case=COUNTEREXAMPLE_CASE, seed="-1")
@example(case=(f"scheme n=1 secrets=1\nspace 1 {2**70}\np 0 {2**70 - 1} {10**30}/{10**30}\n", "1"), seed=None)
@example(case=(  # a reduced denominator past int64; eq1 factors 2**70 - 1
    f"scheme n=2 secrets=2\nspace 1 2\nspace 2 2\np 0 0 0 1/{2**70}\np 0 1 0 {2**70 - 1}/{2**70}\n"
    f"p 1 0 1 1/{2**70}\np 1 1 1 {2**70 - 1}/{2**70}\n", "1"), seed=None)
def test_condition_check_exit_codes(tmp_path_factory, case, seed):
    text, players = case
    path = tmp_path_factory.getbasetemp() / "generated.scheme"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    argv = ["condition", "check", str(path), "--set", players] + (["--seed", seed] if seed else [])
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert re.fullmatch(r"eq1=(true|false) oracle=(true|false) agree=true\n", out)
        assert err == ""


@st.composite
def structure_texts(draw):
    n = draw(st.integers(1, 5))
    ids = st.lists(st.integers(1, n), max_size=n, unique=True)
    lines = [f"players {n}"] + [
        " ".join(["maximal", *map(str, s)]) for s in draw(st.lists(ids, max_size=4))
    ]
    return lines


@st.composite
def msp_texts(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n, e = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    d = draw(st.integers(n, n + 2))
    players = list(range(1, n + 1)) + [draw(st.integers(1, n)) for _ in range(d - n)]
    lines = [f"msp field={p} d={d} e={e} n={n}"]
    for player in draw(st.permutations(players)):
        lines.append(" ".join(map(str, ["row", player, *draw(st.lists(st.integers(0, p - 1),
                                                                           min_size=e, max_size=e))])))
    return lines


FORMULAS = ["1", "and(1,2)", "or(1,2)", ORAND, "thr2(1,2,3)", "thr3(1,2,3,4,5)",
            "and(or(1,2),or(3,4))", "thr0(1)", "and(1,", "or()", "thr9(1,2)", "5"]
OUTS = ["out.txt", "out.txt", "missing/out.txt", "."]  # a writable path, or one that is not
JUNK = ["x", "-1", "0", "17", "1,1", "-", "", "2**70", "1" * 5000, "--set", "--field",
        "--out", "--require", "--players", "-h", "maximal", "row"]


def _mutated(draw, lines, words):
    """The lines with at most one malformation: a line dropped, a token
    replaced by junk or one of the format's words, a junk line appended or
    a line repeated."""
    junk = st.sampled_from(["x", "-1", "0", "17", str(2**70), "1" * 5000, *words])
    mutation = draw(st.sampled_from(["none"] * 3 + ["drop", "token", "append", "repeat"]))
    at = draw(st.integers(0, len(lines) - 1))
    if mutation == "drop":
        del lines[at]
    elif mutation == "token":
        tokens = lines[at].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(junk)
        lines[at] = " ".join(tokens)
    elif mutation == "append":
        lines.append(" ".join(draw(st.lists(junk, min_size=1, max_size=4))))
    elif mutation == "repeat":
        lines.append(lines[at])
    return lines


@st.composite
def structure_and_msp_argvs(draw, directory):
    """An argv of a structure or msp subcommand with a file to read: the
    file is mostly of the subcommand's own kind, else a structure, an MSP
    or any text, then at most one malformation; the arguments are the
    subcommand's own, drawn from valid and junk values, then at most two
    extra tokens."""
    command = draw(st.sampled_from(["structure check", "structure dual", "structure extend",
                                    "msp from-formula", "msp dual", "msp extend", "msp eval"]))
    own = "structure" if command.startswith("structure") else "msp"
    kind = draw(st.sampled_from([own] * 3 + ["structure", "msp", "text"]))
    if kind == "text":
        lines = draw(st.text(max_size=80)).split("\n")
    else:
        lines = draw(structure_texts() if kind == "structure" else msp_texts())
        lines = _mutated(draw, lines, ["maximal", "row", "players", "field=5"])
    path = directory / "generated.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = command.split()
    if command == "msp from-formula":
        argv.append(draw(st.sampled_from(FORMULAS) | st.text(max_size=12)))
        argv += ["--field", draw(st.sampled_from(["2", "5", "7", "4", "0", "257", "263", "x"]))]
        if draw(st.booleans()):
            argv += ["--players", draw(st.sampled_from(["1", "3", "5", "16", "17", "0", "-2"]))]
    else:
        argv.append(str(path))
    if command == "structure check" and draw(st.booleans()):
        argv += ["--require", draw(st.sampled_from(["q2", "q2star", "selfdual", "q3"]))]
    if command == "msp eval":
        argv += ["--set", draw(st.sampled_from(["1", "1,2", "2,3,4", "-", "0", "9", "x", "1,1"]))]
    if command.split()[1] in ("dual", "extend", "from-formula") and draw(st.booleans()):
        argv += ["--out", str(directory / draw(st.sampled_from(OUTS)))]
    extra = draw(st.sampled_from([0, 0, 0, 1, 2]))
    return argv + [draw(st.sampled_from(JUNK) | st.text(max_size=6)) for _ in range(extra)]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_structure_and_msp_commands_exit_codes(tmp_path_factory, data):
    directory = tmp_path_factory.getbasetemp()
    _check_exit_contract(data.draw(structure_and_msp_argvs(directory)), directory)


def _check_exit_contract(argv, directory):
    """main, run in directory, exits 0, 1 or 2 and never with a traceback;
    exit 2 prints one error line."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(directory)  # an extra "--out" token writes its junk path here
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse refuses the arguments (or prints -h)
        code = exc.code
    finally:
        os.chdir(home)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err
    if code == 2:
        # the handlers write "error: ...", argparse "usage: ..." then "prog: error: ..."
        assert sum("error: " in line for line in err.splitlines()) == 1
        assert err.startswith(("error: ", "usage: "))


SETS = ["1", "1,2", "2,3,4", "1,2,3", "-", "0", "9", "x", "1,1"]


@st.composite
def dealing_and_qss_argvs(draw, directory):
    """An argv of share, reconstruct or qss verify-* with an MSP file, mostly
    an MSP, else any text, then at most one malformation; reconstruct also
    reads a share file of that MSP's rows with random values, malformed the
    same way; the arguments are drawn from valid and junk values, then at most
    two extra tokens."""
    command = draw(st.sampled_from(["share", "reconstruct", "qss verify-pure", "qss verify-mixed"]))
    kind = draw(st.sampled_from(["formula"] * 3 + ["msp"] * 2 + ["text"]))
    if kind == "text":
        lines = draw(st.text(max_size=80)).split("\n")
    else:
        if kind == "formula":  # a valid MSP; the fields keep every mixed sweep short
            formula = draw(st.sampled_from(["1", "and(1,2)", "or(1,2)", ORAND, "thr2(1,2,3)",
                                            "and(or(1,2),or(3,4))"]))
            field = Field(draw(st.sampled_from([2, 3, 5] if formula != "thr2(1,2,3)" else [5])))
            lines = dump_msp(compile_formula(parse_formula(formula), field)).splitlines()
        else:
            lines = draw(msp_texts())
        lines = _mutated(draw, lines, ["row", "field=5", "e=0", "n=17"])
    msp_path = directory / "generated.msp"
    msp_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = command.split() + [str(msp_path)]
    if command == "share":
        argv += ["--secret", draw(st.sampled_from(["0", "1", "4", "-3", str(2**70), "x"]))]
        if draw(st.booleans()):
            argv += ["--seed", draw(st.sampled_from(["0", "7", "-1", str(2**70), "x"]))]
        if draw(st.booleans()):
            argv += ["--out", str(directory / draw(st.sampled_from(OUTS)))]
    elif command == "reconstruct":
        header = re.search(r"field=(\d+)", lines[0] if lines else "")
        p = int(header.group(1)) if header and draw(st.integers(0, 4)) else draw(st.sampled_from([2, 7]))
        rows = [fields for fields in map(str.split, lines) if fields[:1] == ["row"]]
        players = [fields[1] for fields in rows if len(fields) > 1] or ["1"]
        shares = [f"field {p}"] + [
            f"share {player} {row} {draw(st.integers(0, p - 1))}"
            for row, player in enumerate(players, 1) if draw(st.integers(0, 5))
        ]
        shares_path = directory / "generated.shares"
        shares_path.write_text("\n".join(_mutated(draw, shares, ["share", "field"])) + "\n")
        argv += [str(shares_path), "--set", draw(st.sampled_from(SETS))]
    else:
        # few random probes keep each sweep short
        argv += ["--random", draw(st.sampled_from(["0", "1", "2", "-1", "1000000000", "x"]))]
        if draw(st.booleans()):
            argv += ["--seed", draw(st.sampled_from(["0", "3", "-1", "x"]))]
        if draw(st.booleans()):
            argv += ["--format", draw(st.sampled_from(["text", "machine", "json"]))]
    extra = draw(st.sampled_from([0, 0, 0, 1, 2]))
    return argv + [draw(st.sampled_from(JUNK) | st.text(max_size=6)) for _ in range(extra)]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_dealing_and_qss_commands_exit_codes(tmp_path_factory, data):
    directory = tmp_path_factory.getbasetemp()
    _check_exit_contract(data.draw(dealing_and_qss_argvs(directory)), directory)


@st.composite
def condition_search_argvs(draw, directory):
    """An argv of condition search whose search ends in well under a second:
    at most 3 secrets, shares of at most 3 values and denominators up to 6,
    or homomorphic schemes over Z_m with m up to 5, each bound drawn from
    junk too; then at most two extra tokens."""
    family = draw(st.sampled_from(["all", "function", "homomorphic", "none"]))
    argv = ["condition", "search", "--family", family]
    for flag, top in (("--secrets", 3), ("--share-size", 5 if family == "homomorphic" else 3),
                      ("--den", 6)):
        argv += [flag, draw(st.sampled_from([str(v) for v in range(-1, top + 1)] + ["x", "2.5"]))]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["0", "3", "-1", str(2**70), "x"]))]
    if draw(st.booleans()):
        argv += ["--out", str(directory / draw(st.sampled_from(OUTS)))]
    extra = draw(st.sampled_from([0, 0, 0, 1, 2]))
    return argv + [draw(st.sampled_from(JUNK) | st.text(max_size=6)) for _ in range(extra)]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_condition_search_exit_codes(tmp_path_factory, data):
    directory = tmp_path_factory.getbasetemp()
    _check_exit_contract(data.draw(condition_search_argvs(directory)), directory)
