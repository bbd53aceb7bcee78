"""The README's library tour runs as written, and its file-format
examples parse and round-trip byte for byte."""

import re
from pathlib import Path

from spanshare.classical import ShareVector, format_share_file, parse_share_file
from spanshare.condition import format_scheme, parse_scheme
from spanshare.msp import dump_msp, parse_msp
from spanshare.structures import format_structure, parse_structure

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README has no python block under 'Library tour'"
    exec(compile(block.group(1), f"{README}:library-tour", "exec"), {})


def test_file_format_examples_round_trip():
    section = README.read_text(encoding="utf-8").split("## File formats", 1)[1].split("\n## ", 1)[0]
    structure, msp_text, shares, scheme = re.findall(r"```\n(.*?)```", section, re.S)
    assert format_structure(parse_structure(structure)) == structure
    msp = parse_msp(msp_text)
    assert dump_msp(msp) == msp_text
    # the share file is a deal of that MSP, with the seed as its comment
    p, entries = parse_share_file(shares)
    assert p == msp.field.p and [entries[i][0] for i in range(msp.d)] == list(msp.psi)
    comment = shares.split("\n", 1)[0].removeprefix("# ")
    assert format_share_file(ShareVector(msp, tuple(entries[i][1] for i in range(msp.d))), comment) == shares
    assert format_scheme(parse_scheme(scheme)) == scheme
