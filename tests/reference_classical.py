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
over Q-words; ``_sqrt_sum`` is the canonical form the first sums in,
over the squarefree parts that ``_sqrt_decompose`` finds by trial
division, as ``eq1_check`` did before it wrote weights over a coprime
base instead.
``ref_lift_report`` is ``lift_report`` as it ran before it sliced
arrays of the table: one dict of lifted amplitudes per probe, and one
``trace_distance`` call per pair of probes. ``ref_eigvalsh_lift_report``
is ``lift_report`` as it ran before it read diagonal views' distances
off their sorted diagonals: a fully checked state and a dense view per
probe, and one stacked ``eigvalsh`` call per probe against every later
probe.
``ref_probe_views`` is each probe's U-view as ``ref_per_probe_lift_report``
traces it, one state at a time, so a pair's reference distance can be
read off by ``trace_distance``.

``check_secrecy``, ``reconstruction_map`` and ``ref_derive_structure``
are the dict walks ``condition`` ran before a scheme stored arrays:
every check projected each row of ``table`` through ``project``, and
the structure was read off one secrecy check per player set.

``ref_check_correctness`` and ``ref_tally_verify_classical`` are
``check_correctness`` and ``verify_classical`` as they ran before both
compared sorted int64 keys: distinct keys counted by ``np.unique``, and
each secret's B-share tuples tallied by ``np.unique(axis=0,
return_counts=True)``.

``ref_compositions`` is the first-part-then-the-rest recursion that
``condition._compositions`` ran before it read cut points off
``itertools.combinations_with_replacement``.
"""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np

from spanshare.classical import ClassicalVerifyReport
from spanshare.msp import ENUMERATION_GUARD
from spanshare.condition import LiftReport, _keys, _split_preconditions
from spanshare.galois import solve_left
from spanshare.msp import msp_structure, rows_of
from spanshare.quantum import SECRECY_TOL, QuantumState, partial_trace, probe_family
from spanshare.structures import AdversaryStructure, complement, format_players

from reference_quantum import state_of, trace_distance


def coords(n, mask):
    """0-based share coordinates of a player set."""
    return tuple(i for i in range(n) if mask >> i & 1)


def project(y, mask):
    return tuple(y[i] for i in coords(len(y), mask))


def check_secrecy(sch, u_mask):
    """True iff the U-share marginal is the same exact distribution
    for every secret."""
    marginals = [{} for _ in range(sch.secret_count)]
    for (s, y), pr in sch.table.items():
        yu = project(y, u_mask)
        marginals[s][yu] = marginals[s].get(yu, Fraction(0)) + pr
    return all(m == marginals[0] for m in marginals[1:])


def reconstruction_map(sch, q_mask):
    """The function g with S = g(Y_q), or None if Q cannot reconstruct."""
    g = {}
    for (s, y), _ in sch.table.items():
        if g.setdefault(project(y, q_mask), s) != s:
            return None
    return g


def ref_derive_structure(sch):
    """The structure of every player set passing check_secrecy, all 2**n tested."""
    return AdversaryStructure.from_table(sch.n, [check_secrecy(sch, b) for b in range(1 << sch.n)])


def _deals(msp):
    p = msp.field.p
    for s in range(p):
        for a in itertools.product(range(p), repeat=msp.e - 1):
            yield s, a, msp.matrix.matvec((s,) + a)


def ref_verify_classical(msp, structure):
    """(passed, first counterexample or None) of the exhaustive classical check."""
    p = msp.field.p
    members = list(structure.members())
    qualified = [q for q in range(1 << msp.n) if q not in set(members)]
    recombinators = {q: solve_left(rows_of(msp, q), msp.eps) for q in qualified}
    tallies = {b: {} for b in members}
    for s, a, dealt in _deals(msp):
        for q in qualified:
            u1 = recombinators[q]
            if u1 is None:
                return False, f"qualified set {{{format_players(q)}}} cannot reconstruct at all"
            got = sum(c * dealt[i] for c, i in zip(u1, msp.row_indices(q))) % p
            if got != s:
                return False, f"set {{{format_players(q)}}} reconstructed {got} for secret {s}, a={a}"
        for b in members:
            view = tuple(dealt[i] for i in msp.row_indices(b))
            tallies[b].setdefault(s, Counter())[view] += 1
    for b in members:
        for s, counter in tallies[b].items():
            if counter != tallies[b][0]:
                return False, (
                    f"B={{{format_players(b)}}} share distribution differs between secrets 0 and {s}"
                )
    return True, None


def ref_tally_verify_classical(msp, structure=None):
    """verify_classical with one np.unique tally of B's share tuples per secret."""
    table = msp._label_table
    p, block, _ = table.shape
    if structure is None:
        structure = msp_structure(msp)
    deals = p * block
    members = list(structure.members())
    member_set = set(members)
    qualified = [q for q in range(1 << msp.n) if q not in member_set]
    recombinators = {q: solve_left(rows_of(msp, q), msp.eps) for q in qualified}
    for q, u1 in recombinators.items():
        if u1 is None:
            return ClassicalVerifyReport(
                deals, f"qualified set {{{format_players(q)}}} cannot reconstruct at all"
            )
    first = None
    for q, u1 in recombinators.items():
        got = table[:, :, msp.row_indices(q)] @ np.array(u1, dtype=np.int64) % p
        wrong = np.flatnonzero(got != np.arange(p)[:, None])
        if wrong.size and (first is None or wrong[0] < first[0]):
            first = (int(wrong[0]), q, int(got.flat[wrong[0]]))
    if first is not None:
        deal, q, got = first
        s, *a = (int(x) for x in np.unravel_index(deal, (p,) * msp.e))
        return ClassicalVerifyReport(
            deals, f"set {{{format_players(q)}}} reconstructed {got} for secret {s}, a={tuple(a)}"
        )
    for b in members:
        views = table[:, :, msp.row_indices(b)]
        tallies = [np.unique(view, axis=0, return_counts=True) for view in views]
        for s in range(1, p):
            if not all(np.array_equal(x, y) for x, y in zip(tallies[s], tallies[0])):
                return ClassicalVerifyReport(
                    deals, f"B={{{format_players(b)}}} share distribution differs between secrets 0 and {s}"
                )
    return ClassicalVerifyReport(deals)


def ref_check_correctness(sch, q_mask):
    """check_correctness counting distinct keys with np.unique."""
    return len(np.unique(_keys(sch, q_mask))) == len(np.unique(_keys(sch, q_mask, secret=True)))


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
        raise ValueError(f"{total} deals exceed the enumeration guard ({ENUMERATION_GUARD})")
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


def _sqrt_decompose(n):
    """n = a*a*k with k squarefree; returns (a, k). Trial division."""
    a, k, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            a *= d
        if n % d == 0:
            n //= d
            k *= d
        d += 1
    return (a, k * n) if n > 1 else (a, k)


def _sqrt_sum(terms):
    """Canonical form of sum(sqrt(t)): {squarefree k: rational coefficient}.

    Square roots of distinct squarefree integers are linearly
    independent over the rationals, so two sums are equal iff these
    maps are equal.
    """
    acc = {}
    for t in terms:
        if t == 0:
            continue
        a, k = _sqrt_decompose(t.numerator * t.denominator)
        coeff = Fraction(a, t.denominator)
        acc[k] = acc.get(k, Fraction(0)) + coeff
        if acc[k] == 0:
            del acc[k]
    return acc


def ref_eq1_check(sch, u_mask):
    """eq1_check with one canonical sum per pair of U-words and secret."""
    _split_preconditions(sch, u_mask)
    q_mask = complement(u_mask, sch.n)
    joint = {}
    for (s, y), pr in sch.table.items():
        yu = project(y, u_mask)
        yq = project(y, q_mask)
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
        yq = project(y, q_mask)
        yu = project(y, u_mask)
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


def ref_lift_report(sch, u_mask, seed=0):
    """lift_report on the default probes, walking the table once per probe."""
    _split_preconditions(sch, u_mask)
    family = probe_family(sch.secret_count, seed, n_random=10)
    reduced = []
    for name, alpha in family:
        amps = {}
        for (s, y), pr in sch.table.items():
            if alpha[s] != 0:
                amps[y] = alpha[s] * float(pr) ** 0.5
        state = state_of(sch.share_sizes, amps)
        reduced.append((name, partial_trace(state, coords(sch.n, u_mask))))
    worst, witness = 0.0, None
    for (name1, rho1), (name2, rho2) in itertools.combinations(reduced, 2):
        dist = trace_distance(rho1, rho2)
        if dist > worst:
            worst, witness = dist, (name1, name2)
    return LiftReport(worst <= SECRECY_TOL, worst, witness)


def ref_eigvalsh_lift_report(sch, u_mask, seed=0):
    """lift_report on the default probes, every distance from eigvalsh."""
    _split_preconditions(sch, u_mask)
    family = probe_family(sch.secret_count, seed, n_random=10)
    values = [np.array(v, dtype=np.int64) for v in sch.share_values]
    words = np.column_stack([v[c] for v, c in zip(values, sch.codes.T)])
    roots = np.array([(w / sch.denominator) ** 0.5 for w in sch.numerators.tolist()])
    mats = []
    for _, alpha in family:
        state = QuantumState(sch.share_sizes, words, alpha[sch.secrets] * roots)
        mats.append(partial_trace(state, coords(sch.n, u_mask)).mat)
    mats = np.array(mats)
    names = [name for name, _ in family]
    worst, witness = 0.0, None
    for a in range(len(mats) - 1):
        dists = 0.5 * np.abs(np.linalg.eigvalsh(mats[a] - mats[a + 1 :])).sum(axis=1)
        b = int(dists.argmax())
        if dists[b] > worst:
            worst, witness = float(dists[b]), (names[a], names[a + 1 + b])
    return LiftReport(worst <= SECRECY_TOL, worst, witness)


def ref_per_probe_lift_report(sch, u_mask, seed=0):
    """lift_report on the default probes, one state and one partial trace per
    probe: the diagonal read-off when every view shares the reused plan's
    index array and it is diagonal, else one eigvalsh stack per probe but the
    last, and the witness kept by a loop over the probes."""
    _split_preconditions(sch, u_mask)
    family = probe_family(sch.secret_count, seed, n_random=10)
    values = [np.array(v, dtype=np.int64) for v in sch.share_values]
    words = np.column_stack([v[c] for v, c in zip(values, sch.codes.T)])
    roots = np.array([(w / sch.denominator) ** 0.5 for w in sch.numerators.tolist()])
    u_coords = coords(sch.n, u_mask)
    views = [
        partial_trace(QuantumState(sch.share_sizes, words, alpha[sch.secrets] * roots), u_coords)
        for _, alpha in family
    ]
    index = views[0].index
    u_dim = views[0].dim
    if all(view.index is index for view in views) and not (index % (u_dim + 1)).any():
        diagonals = np.zeros((len(views), u_dim))
        diagonals[:, index // (u_dim + 1)] = [view.values.real for view in views]
        spectra = (np.sort(diagonals[a] - diagonals[a + 1 :], axis=1) for a in range(len(views) - 1))
    else:
        mats = np.array([view.mat for view in views])
        spectra = (np.linalg.eigvalsh(mats[a] - mats[a + 1 :]) for a in range(len(mats) - 1))
    names = [name for name, _ in family]
    worst, witness = 0.0, None
    for a, spectrum in enumerate(spectra):
        dists = 0.5 * np.abs(spectrum).sum(axis=1)
        b = int(dists.argmax())
        if dists[b] > worst:
            worst, witness = float(dists[b]), (names[a], names[a + 1 + b])
    return LiftReport(worst <= SECRECY_TOL, worst, witness)


def ref_probe_views(sch, u_mask, seed=0):
    """{name: U-view} of the default probes, each from one single-state
    partial trace of its lifted state on the table's share words."""
    family = probe_family(sch.secret_count, seed, n_random=10)
    values = [np.array(v, dtype=np.int64) for v in sch.share_values]
    words = np.column_stack([v[c] for v, c in zip(values, sch.codes.T)])
    roots = np.array([(w / sch.denominator) ** 0.5 for w in sch.numerators.tolist()])
    return {
        name: partial_trace(QuantumState(sch.share_sizes, words, alpha[sch.secrets] * roots),
                            coords(sch.n, u_mask))
        for name, alpha in family
    }


def ref_compositions(total, parts):
    """All nonnegative tuples of the given length summing to total,
    lexicographically ascending, by recursion on the first part."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in ref_compositions(total - first, parts - 1):
            yield (first,) + rest
