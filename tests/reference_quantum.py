"""Slow dict-loop references for the quantum fast paths.

These are the label-at-a-time implementations that spanshare.quantum
used before it switched to whole-array numpy work. They read only
``state.amps`` and return plain dicts or arrays, so the fast paths can
be compared with them entry by entry.

``validate_psd``, ``projector``, ``schmidt_rank`` and
``support_in_image`` are checks that only tests use; they moved here
from spanshare.quantum, whose own code never called them.
``ref_trace_distance_within`` is the dense secrecy check that
spanshare.quantum used before density matrices were stored on their
support, and ``dense_dm`` builds such a matrix from a dense array.
``trace_distance``, one dense ``eigvalsh`` per pair of states, is what
``condition.lift_report`` called before it took one probe's distances
to every later probe in one call. ``normalized`` and ``probe`` build
normalized test states, the norm summed in Python in key order, as
``probe_family`` sums the norms of its random probes, and ``state_of``
builds a ``QuantumState`` from a dict of label tuples.
"""

import itertools
import math

import numpy as np

from spanshare.galois import solve_left
from spanshare.quantum import DensityMatrix, QuantumState, _row_keys

from reference_galois import ref_transpose


def ravel(label, dims):
    index = 0
    for value, dim in zip(label, dims):
        index = index * dim + value
    return index


def normalized(amps):
    """{label: amplitude / norm}, the norm summed in Python in key order."""
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return {label: a / norm for label, a in amps.items()}


def probe(dim, amps):
    """The amplitude vector of length dim of {secret: amplitude}, normalized."""
    alpha = np.zeros(dim, dtype=complex)
    for s, a in normalized(amps).items():
        alpha[s] = a
    return alpha


def state_of(dims, amps):
    """The QuantumState of {label tuple: amplitude}, in key order; zero
    amplitudes are dropped."""
    cleaned = {tuple(k): complex(v) for k, v in amps.items() if v != 0}
    values = np.array(list(cleaned.values()), dtype=complex)
    return QuantumState(tuple(dims), np.array(list(cleaned)), values)


def ref_qencode(msp, alpha):
    """{label: amplitude} of the encoding, in the fast path's order."""
    p = msp.field.p
    scale = 1.0 / (p ** (msp.e - 1)) ** 0.5
    amps = {}
    for s, alpha_s in enumerate(alpha.tolist()):
        if alpha_s == 0:
            continue
        for a in itertools.product(range(p), repeat=msp.e - 1):
            amps[msp.matrix.matvec((s,) + a)] = alpha_s * scale
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


def dense_dm(dims, mat):
    """DensityMatrix of a dense array, on the entries where it or its
    transpose is nonzero."""
    mat = np.asarray(mat, dtype=complex)
    index = np.flatnonzero((mat != 0) | (mat.T != 0))
    return DensityMatrix(tuple(dims), index, mat.reshape(-1)[index])


def trace_distance(r1, r2):
    """Half the sum of the absolute eigenvalues of the difference."""
    if r1.dim != r2.dim:
        raise ValueError("trace distance of density matrices with different dimensions")
    return float(0.5 * np.abs(np.linalg.eigvalsh(r1.mat - r2.mat)).sum())


def ref_trace_distance_within(r1, r2, tol):
    """The dense Frobenius-bound check, with eigvalsh when it does not certify."""
    if r1.dim != r2.dim:
        raise ValueError("trace distance of density matrices with different dimensions")
    delta = r1.mat - r2.mat
    bound = 0.5 * math.sqrt(delta.shape[0]) * float(np.linalg.norm(delta))
    if bound <= tol:
        return True, bound
    value = float(0.5 * np.abs(np.linalg.eigvalsh(delta)).sum())
    return value <= tol, value


def validate_psd(dm, atol=1e-9):
    lowest = float(np.linalg.eigvalsh(dm.mat)[0])
    if lowest < -atol:
        raise ValueError(f"density matrix has negative eigenvalue {lowest}")


def projector(psi):
    """|psi><psi| of an amplitude vector."""
    return dense_dm((len(psi),), np.outer(psi, psi.conj()))


def schmidt_rank(state, first, tol=1e-9):
    """Schmidt rank across the cut (first coordinates) vs (the rest)."""
    first = tuple(sorted(first))
    rest = tuple(c for c in range(len(state.dims)) if c not in set(first))
    d1 = math.prod(state.dims[c] for c in first) if first else 1
    d2 = math.prod(state.dims[c] for c in rest) if rest else 1
    labels, values = state.labels, state.values
    mat = np.zeros((d1, d2), dtype=complex)
    mat[_row_keys(labels, first, state.dims), _row_keys(labels, rest, state.dims)] = values
    singular = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(singular > tol))


def support_in_image(enc):
    """Every support label of an encoded state is M w for some w."""
    mt = ref_transpose(enc.msp.matrix)
    return all(solve_left(mt, label) is not None for label in enc.state.amps)
