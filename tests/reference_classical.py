"""Slow deal-at-a-time references for the classical dealing paths.

These are the loops that ``verify_classical`` and ``scheme_from_msp``
ran before both read the deals from the MSP's label table: every
(s, a) comes from itertools.product and is dealt with ``Matrix.matvec``.
They return the report text and the table items, so the table-backed
paths can be compared with them exactly.
"""

import itertools
from collections import Counter
from fractions import Fraction

from spanshare.galois import solve_left
from spanshare.msp import rows_of
from spanshare.structures import format_players


def _deals(msp):
    p = msp.field.p
    for s in range(p):
        for a in itertools.product(range(p), repeat=msp.e - 1):
            yield s, a, msp.matrix.matvec((s,) + a)


def ref_verify_classical(msp, structure):
    """(passed, failures) of the exhaustive classical check."""
    p = msp.field.p
    members = list(structure.members())
    qualified = [q for q in range(1 << msp.n) if q not in set(members)]
    recombinators = {q: solve_left(rows_of(msp, q), msp.eps) for q in qualified}
    tallies = {b: {} for b in members}
    for s, a, dealt in _deals(msp):
        for q in qualified:
            u1 = recombinators[q]
            if u1 is None:
                return False, [f"qualified set {{{format_players(q)}}} cannot reconstruct at all"]
            got = sum(c * dealt[i] for c, i in zip(u1, msp.row_indices(q))) % p
            if got != s:
                return False, [
                    f"set {{{format_players(q)}}} reconstructed {got} for secret {s}, a={a}"
                ]
        for b in members:
            view = tuple(dealt[i] for i in msp.row_indices(b))
            tallies[b].setdefault(s, Counter())[view] += 1
    for b in members:
        for s, counter in tallies[b].items():
            if counter != tallies[b][0]:
                return False, [
                    f"B={{{format_players(b)}}} share distribution differs between secrets 0 and {s}"
                ]
    return True, []


def ref_scheme_table(msp):
    """The items of scheme_from_msp's table, in insertion order."""
    p = msp.field.p
    per_player = [msp.row_indices(1 << i) for i in range(msp.n)]
    weight = Fraction(1, p ** (msp.e - 1))
    table = {}
    for s, _, dealt in _deals(msp):
        y = []
        for rows in per_player:
            idx = 0
            for r in rows:
                idx = idx * p + dealt[r]
            y.append(idx)
        key = (s, tuple(y))
        table[key] = table.get(key, Fraction(0)) + weight
    return list(table.items())
