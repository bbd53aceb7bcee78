"""Shared helpers for the test suite."""

import random

import numpy as np

from spanshare.galois import Field, Matrix
from spanshare.msp import MSP, compile_formula, shamir_msp
from spanshare.structures import mask_from_players, parse_formula

from reference_galois import add, div, mul, sub


def mask(*players, n):
    return mask_from_players(players, n)


def all_antichains(n):
    """Every antichain of subsets of {1..n} (Dedekind-number many)."""
    subsets = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    out = []

    def rec(i, chosen):
        if i == len(subsets):
            out.append(tuple(chosen))
            return
        rec(i + 1, chosen)
        s = subsets[i]
        if all(not (s & ~t == 0 or t & ~s == 0) for t in chosen):
            chosen.append(s)
            rec(i + 1, chosen)
            chosen.pop()

    rec(0, [])
    return out


class NumpyWithout:
    """numpy with the named functions failing: set as a module's ``np``,
    it lets a test assert that the module refuses an input before it
    calls them."""

    def __init__(self, *names):
        self.names = names

    def __getattr__(self, name):
        if name in self.names:
            raise AssertionError(f"numpy.{name} was called before the refusal")
        return getattr(np, name)


def lagrange_at_zero(field, points):
    """Interpolate (x, y) pairs at x = 0; independent Shamir oracle."""
    total = 0
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for j, (xj, _) in enumerate(points):
            if i != j:
                num = mul(field, num, xj)
                den = mul(field, den, sub(field, xj, xi))
        total = add(field, total, mul(field, yi, div(field, num, den)))
    return total


def shares_of(sv, q_mask):
    """{row index: share} for every row of a dealt share vector owned by the set."""
    return {i: sv.entries[i] for i in sv.msp.row_indices(q_mask)}


def random_msps(count, seed):
    """Small MSPs with arbitrary matrices, rank-deficient ones included."""
    rng = random.Random(seed)
    for _ in range(count):
        field = Field(rng.choice((2, 3, 5)))
        n, e, d = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 5)
        rows = [[rng.randrange(field.p) for _ in range(e)] for _ in range(d)]
        psi = tuple(rng.randint(1, n) for _ in range(d))
        yield MSP._unchecked(field, Matrix.from_rows(field, rows, e), psi, n)


def msp_corpus():
    """Shamir over GF(7) for 2 to 5 players, and compiled formulas over GF(5)."""
    corpus = []
    for n in range(2, 6):
        for k in range(n):
            corpus.append(shamir_msp(n, k, Field(7)))
    for text in ["1", "and(1,2)", "or(1,2)", "thr2(1,2,3)",
                 "or(and(1,3),and(2,3))", "and(or(1,2),or(3,4))"]:
        corpus.append(compile_formula(parse_formula(text), Field(5)))
    return corpus
