"""The README's library tour and command-line examples run as written,
and its file-format examples parse and round-trip byte for byte."""

import re
import shlex
from pathlib import Path

from spanshare.classical import format_share_file, parse_share_file
from spanshare.cli import main
from spanshare.condition import format_scheme, parse_scheme
from spanshare.galois import Field
from spanshare.msp import dump_msp, parse_msp, shamir_msp
from spanshare.structures import format_structure, parse_structure

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README has no python block under 'Library tour'"
    exec(compile(block.group(1), f"{README}:library-tour", "exec"), {})


def file_format_examples():
    """The structure, MSP, share and scheme examples, in README order."""
    section = README.read_text(encoding="utf-8").split("## File formats", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```\n(.*?)```", section, re.S)


def test_file_format_examples_round_trip():
    structure, msp_text, shares, scheme = file_format_examples()
    assert format_structure(parse_structure(structure)) == structure
    msp = parse_msp(msp_text)
    assert dump_msp(msp) == msp_text
    # the share file is a deal of that MSP, with the seed as its comment
    p, entries = parse_share_file(shares)
    assert p == msp.field.p and [entries[i][0] for i in range(msp.d)] == list(msp.psi)
    comment = shares.split("\n", 1)[0].removeprefix("# ")
    assert format_share_file(msp, [entries[i][1] for i in range(msp.d)], comment) == shares
    assert format_scheme(parse_scheme(scheme)) == scheme


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    """Each line of the "Command line" block, run in a fresh directory that
    holds the files it reads: its stated output, the exit code that the
    README's rules give it, no refusal, and the files it writes."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)
    assert block is not None, "README has no sh block under 'Command line'"
    structure, msp_text, shares, scheme = file_format_examples()
    monkeypatch.chdir(tmp_path)
    Path("nonsd.adv").write_text(structure)
    Path("scheme.table").write_text(scheme)
    Path("shamir.msp").write_text(dump_msp(shamir_msp(3, 1, Field(5))))
    lines = [line for line in block.group(1).splitlines() if line.startswith("spanshare ")]
    assert len(lines) == 14
    for line in lines:
        argv = shlex.split(line.partition("#")[0])[1:]
        stated = line.partition("#")[2].strip()
        code = main(argv)
        out, err = capsys.readouterr()
        assert err == "", line
        if stated.startswith("prints "):
            assert out == stated.removeprefix("prints ") + "\n", line
        elif "..." in stated:
            shape = re.escape(stated).replace(re.escape("..."), "(true|false)")
            match = re.fullmatch(shape + "\n", out)
            assert match, line
            # a check that failed exits 1
            assert code == (0 if match.group(1) == match.group(3) == "true" else 1), line
            continue
        elif stated:
            assert out == stated + "\n", line
        assert code == 0, line
        if "--out" in argv:
            assert Path(argv[argv.index("--out") + 1]).is_file(), line
    assert Path("orand.msp").read_text() == msp_text
    assert Path("shares.txt").read_text() == shares
    assert Path("counter.scheme").read_text() == scheme
