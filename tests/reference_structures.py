"""The adversary-structure algorithms that ``spanshare.structures`` ran
before a structure became one membership bitset, kept as its oracle.

A structure is given here as ``(n, maximal)``: the player count and any
family of bitmasks. The maximal sets come from a size-ordered antichain
filter or from a per-subset scan of a byte table, the byte table from a
per-subset closure loop, and Q2 and Q2* from loops over pairs of
maximal sets.

``format_formula`` prints a formula in the syntax ``parse_formula``
reads, for the parser's round-trip tests.
"""

from spanshare.structures import And, Or, Var


def is_subset(a, b):
    return a & ~b == 0


def ref_antichain(masks):
    """Maximal elements of a family, sorted ascending as ints; each set
    is tested only against the kept sets of strictly larger size."""
    kept = []
    size, larger = -1, 0  # kept[:larger] are larger than the current size
    for count, m in sorted(((bin(m).count("1"), m) for m in set(masks)), reverse=True):
        if count != size:
            size, larger = count, len(kept)
        if not any(is_subset(m, k) for k in kept[:larger]):
            kept.append(m)
    return tuple(sorted(kept))


def ref_table(n, maximal):
    """Membership of every subset, by downward closure of the sets."""
    table = bytearray(1 << n)
    for m in maximal:
        table[m] = 1
    for i in range(n):
        for b in range(1 << n):
            table[b] |= table[b | 1 << i]
    return bytes(table)


def ref_maximal_from_table(n, table):
    """The members of a membership table with no member one player larger."""
    maximal = [
        b
        for b in range(1 << n)
        if table[b] and not any(table[b | 1 << i] for i in range(n) if not b >> i & 1)
    ]
    return ref_antichain(maximal)


def ref_members(n, maximal):
    return [b for b, member in enumerate(ref_table(n, maximal)) if member]


def ref_dual(n, maximal):
    """Maximal sets of {B : complement(B) not a member}."""
    return ref_maximal_from_table(n, bytes(1 - x for x in reversed(ref_table(n, maximal))))


def ref_is_q2(n, maximal):
    """No two maximal sets cover the full player set."""
    full = (1 << n) - 1
    maximal = ref_antichain(maximal)
    return not any(m1 | m2 == full for m1 in maximal for m2 in maximal)


def ref_is_q2star(n, maximal):
    """The dual is Q2: no two qualified sets are disjoint."""
    return ref_is_q2(n, ref_dual(n, maximal))


def ref_restrict(n, maximal, k):
    return ref_maximal_from_table(k, ref_table(n, maximal)[: 1 << k])


def ref_extend_selfdual(n, maximal):
    """The members, plus B + {n+1} for every maximal set B of the dual."""
    return ref_antichain(list(maximal) + [m | 1 << n for m in ref_dual(n, maximal)])


def format_formula(f):
    if isinstance(f, Var):
        return str(f.player)
    inner = ",".join(format_formula(c) for c in f.children)
    if isinstance(f, And):
        return f"and({inner})"
    if isinstance(f, Or):
        return f"or({inner})"
    return f"thr{f.k}({inner})"
