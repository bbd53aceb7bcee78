"""Slow deal-at-a-time references for the classical dealing paths.

These are the loops that ``verify_classical`` and ``scheme_from_msp``
ran before both read the deals from the MSP's label table: every
(s, a) comes from itertools.product and is dealt with ``Matrix.matvec``.
``ref_homomorphic_table`` is the loop ``homomorphic_scheme`` ran before
it read the same vectorized deals: a kernel scan, then one Python
evaluation of h per input. They return the report text and the table
items, so the table-backed paths can be compared with them exactly.
``ref_eq1_check`` and ``ref_homomorphic_dichotomy_check`` are the
all-pairs-of-U-words loops that ``eq1_check`` and
``homomorphic_dichotomy_check`` ran before both summed the table once
over Q-words.
"""

import itertools
from collections import Counter
from fractions import Fraction

from spanshare.classical import ENUMERATION_GUARD
from spanshare.condition import _split_preconditions, _sqrt_sum
from spanshare.galois import solve_left
from spanshare.msp import rows_of
from spanshare.structures import complement, format_players


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


def _apply(spec, inputs):
    """h applied to (s, v1, ..., vm), componentwise mod each modulus."""
    return [
        tuple(
            sum(c * x[l] for c, x in zip(row, inputs)) % md
            for l, md in enumerate(spec.moduli)
        )
        for row in spec.matrix
    ]


def _index(spec, element):
    idx = 0
    for value, md in zip(element, spec.moduli):
        idx = idx * md + value
    return idx


def ref_homomorphic_table(spec):
    """(share_sizes, table items in insertion order) of homomorphic_scheme,
    raising its ValueError texts for the guard and for a nontrivial kernel."""
    order = spec.group_order
    total = order ** (spec.m + 1)
    if total > ENUMERATION_GUARD:
        raise ValueError(
            f"{total} group inputs exceed the enumeration guard ({ENUMERATION_GUARD})"
        )
    elements = list(itertools.product(*(range(md) for md in spec.moduli)))
    zero = tuple(0 for _ in spec.moduli)
    kernel = sum(
        all(y == zero for y in _apply(spec, inputs))
        for inputs in itertools.product(elements, repeat=spec.m + 1)
    )
    if kernel != 1:
        raise ValueError(f"homomorphism is not injective (kernel size {kernel})")
    weight = Fraction(1, order**spec.m)
    table = {}
    for s_elt in elements:
        s = _index(spec, s_elt)
        for vs in itertools.product(elements, repeat=spec.m):
            y = tuple(_index(spec, e) for e in _apply(spec, (s_elt,) + vs))
            key = (s, y)
            table[key] = table.get(key, Fraction(0)) + weight
    return (order,) * len(spec.matrix), list(table.items())


def ref_eq1_check(sch, u_mask):
    """eq1_check with one canonical sum per pair of U-words and secret."""
    _split_preconditions(sch, u_mask)
    q_mask = complement(u_mask, sch.n)
    joint = {}
    for (s, y), pr in sch.table.items():
        yu = sch.project(y, u_mask)
        yq = sch.project(y, q_mask)
        joint.setdefault(yu, {}).setdefault(s, {})[yq] = pr
    words = sorted(joint)
    for i, yu1 in enumerate(words):
        for yu2 in words[i:]:
            reference = None
            for s in range(sch.secret_count):
                by_q1 = joint.get(yu1, {}).get(s, {})
                by_q2 = joint.get(yu2, {}).get(s, {})
                value = _sqrt_sum(
                    by_q1[yq] * by_q2[yq] for yq in by_q1 if yq in by_q2
                )
                if reference is None:
                    reference = value
                elif value != reference:
                    return False
    return True


def ref_homomorphic_dichotomy_check(sch, u_mask):
    """The dichotomy on the conditionals of every pair of U-words."""
    q_mask = complement(u_mask, sch.n)
    marginal_q = {}
    joint = {}
    for (s, y), pr in sch.table.items():
        yq = sch.project(y, q_mask)
        yu = sch.project(y, u_mask)
        marginal_q[yq] = marginal_q.get(yq, Fraction(0)) + pr
        bucket = joint.setdefault(yq, {})
        bucket[yu] = bucket.get(yu, Fraction(0)) + pr
    words_u = sorted({yu for by_u in joint.values() for yu in by_u})
    for yq, by_u in joint.items():
        total = marginal_q[yq]
        for i, yu1 in enumerate(words_u):
            p1 = by_u.get(yu1, Fraction(0)) / total
            for yu2 in words_u[i + 1 :]:
                p2 = by_u.get(yu2, Fraction(0)) / total
                if p1 * p2 != 0 and p1 != p2:
                    return False
    return True
