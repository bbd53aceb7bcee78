"""Shared helpers for the test suite."""

import random

from spanshare.galois import Field, Matrix
from spanshare.msp import MSP
from spanshare.structures import mask_from_players


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


def lagrange_at_zero(field, points):
    """Interpolate (x, y) pairs at x = 0; independent Shamir oracle."""
    total = 0
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for j, (xj, _) in enumerate(points):
            if i != j:
                num = field.mul(num, xj)
                den = field.mul(den, field.sub(xj, xi))
        total = field.add(total, field.mul(yi, field.div(num, den)))
    return total


def random_msps(count, seed):
    """Small MSPs with arbitrary matrices, rank-deficient ones included."""
    rng = random.Random(seed)
    for _ in range(count):
        field = Field(rng.choice((2, 3, 5)))
        n, e, d = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 5)
        rows = [[rng.randrange(field.p) for _ in range(e)] for _ in range(d)]
        psi = tuple(rng.randint(1, n) for _ in range(d))
        yield MSP._unchecked(field, Matrix.from_rows(field, rows, e), psi, n)
