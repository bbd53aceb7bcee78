"""Slow dict-loop references for the quantum fast paths.

These are the label-at-a-time implementations that spanshare.quantum
used before it switched to whole-array numpy work. They read only
``state.amps`` and return plain dicts or arrays, so the fast paths can
be compared with them entry by entry.
"""

import itertools

import numpy as np


def ravel(label, dims):
    index = 0
    for value, dim in zip(label, dims):
        index = index * dim + value
    return index


def ref_qencode(msp, state):
    """{label: amplitude} of the encoding, in the fast path's order."""
    p = msp.field.p
    scale = 1.0 / (p ** (msp.e - 1)) ** 0.5
    amps = {}
    for (s,), alpha in state.amps.items():
        for a in itertools.product(range(p), repeat=msp.e - 1):
            amps[msp.matrix.matvec((s,) + a)] = alpha * scale
    return amps


def ref_apply_plan(state, plan):
    """{label: amplitude} after relabeling the A coordinates by U."""
    amps = {}
    for label, amp in state.amps.items():
        transformed = plan.u.matvec([label[i] for i in plan.a_rows])
        new_label = list(label)
        for i, value in zip(plan.a_rows, transformed):
            new_label[i] = value
        amps[tuple(new_label)] = amp
    return amps


def ref_partial_trace(state, keep):
    """The reduced density matrix on the sorted keep coordinates."""
    keep = tuple(sorted(keep))
    rest = tuple(c for c in range(len(state.dims)) if c not in keep)
    kdims = tuple(state.dims[c] for c in keep)
    dim = 1
    for d in kdims:
        dim *= d
    groups = {}
    for label, amp in state.amps.items():
        kidx = ravel([label[c] for c in keep], kdims)
        groups.setdefault(tuple(label[c] for c in rest), []).append((kidx, amp))
    mat = np.zeros((dim, dim), dtype=complex)
    for entries in groups.values():
        for i1, a1 in entries:
            for i2, a2 in entries:
                mat[i1, i2] += a1 * a2.conjugate()
    return mat
