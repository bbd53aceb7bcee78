"""Exact simulation of the quantum lifting of MSP schemes.

A secret qudit is encoded by padding it with a uniform superposition
over the dealer randomness and relabeling basis states through the
MSP matrix: the state dealt for secret s is the uniform superposition
over the labels M (s, a). The map is injective (``MSP`` checks full
column rank when it is built), so the simulation stays sparse and
exact. Erasure of a tolerable set B with qualified complement A is
corrected by relabeling the A coordinates through the classical
reconstruction plan's invertible matrix U, after which the first A
coordinate factors out as the secret. ``QuantumScheme`` holds the pure scheme of a self-dual
MSP (``qss_pure``), the mixed one, which is the pure scheme of the
self-dual extension with the extra share discarded (``qss_mixed``), and
the pure scheme on one erased set (``verify_erasure``).

A secret qudit state, such as a sweep's probe, is a read-only vector of
its p amplitudes. The shares' states are sparse: an N x k int64 array of
distinct basis labels and their N complex amplitudes, one state each. The
density-matrix oracle of ``condition`` serves all its probes with one such
state, on a secret register R beside a table's shares, and one trace on
R + U, block-diagonal because Q is correct. An encoded state is the
secrets' blocks of the MSP's cached deal table of every M (s, a), and
recovery deals the same amplitudes through the plan's program, the MSP
whose A rows are U M_A. Partial traces group the amplitudes by their
traced-out labels with numpy sorts. Reduced states keep only the entries
on their support, where secrecy checks compare them. Only fidelity and
exact trace distances build dense matrices, where numpy does the
eigenvalue work. Labels are valid where they are dealt: a deal table's
rows are distinct (full column rank) and no view of it can be written, so
a dealt state runs no label check, and the last dealt state's one-chunk
trace plan is held with its checked support under its deal (the MSP and
the secrets a probe touches), as the last plan's program is. A caller's
states and matrices are checked in full and traced afresh every time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .classical import ReconstructionPlan, build_reconstruction_plan
from .galois import Matrix
from .msp import MSP, _read_only, _row_keys, extend_msp, msp_structure
from .structures import AdversaryStructure, NoSchemeError, format_players

NORM_ATOL = 1e-12
RECOVERY_TOL = 1e-9
SECRECY_TOL = 1e-9
# the sparse simulation materializes at most p**e amplitudes (p**(e-1)
# share vectors per basis secret), so that is what the guard bounds
AMPLITUDE_GUARD = 2_000_000
REDUCTION_DIM_GUARD = 4096
# a sweep compares every pair of probes on each coalition: one trace
# distance and one report line per pair
PROBE_PAIR_GUARD = 100_000
# partial_trace expands at most about this many amplitude pairs at once
_PAIR_CHUNK = 1 << 20


_held_program: tuple | None = None  # (plan, its program) of apply_plan's last call
_held_trace: tuple | None = None  # ((MSP, secrets, keep, _PAIR_CHUNK), plan, support) of a dealt trace


def _certified(cls, name: str, certificate, *fields):
    """cls(*fields), its __post_init__ reading a check's certificate (or None) in attribute name."""
    obj = cls.__new__(cls)
    object.__setattr__(obj, name, certificate)
    obj.__init__(*fields)
    return obj


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Sparse state over a tuple of qudit coordinates.

    Row i of ``labels`` (N x k int64, distinct rows) is a basis label,
    one entry per coordinate, with amplitude ``values[i]``; both arrays are
    read-only. An array that already has the stored dtype (int64 labels,
    complex values) is kept, not copied, and made read-only in place, so a
    caller who wants to keep writing it passes a copy. The norm is checked
    to be 1 within 1e-12 at construction, and the labels, unless dealt, to be
    in range and distinct. Compare states through their arrays, not ==. The
    oracle's one state per report is one of these: secret register R first,
    then the table's codes, so its one trace on R + U is block-diagonal.
    """

    dims: tuple[int, ...]
    labels: np.ndarray
    values: np.ndarray
    _deal = None  # (MSP, secrets) of a dealt state: its rows of the MSP's deal table

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or labels.shape[1] != len(self.dims):
            raise ValueError("basis label arity does not match coordinate count")
        if labels.size and labels.dtype.kind not in "biu":
            raise ValueError(f"basis labels must be int tuples within int64, got {labels.dtype}")
        labels = labels.astype(np.int64, copy=False)
        if self._deal is None:
            _check_labels(labels, self.dims)
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (len(labels),):
            raise ValueError("labels and values differ in length")
        labels.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)
        norm = _norm(values)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm} is not 1 within {NORM_ATOL}")

    @cached_property
    def amps(self) -> dict[tuple[int, ...], complex]:
        """The amplitudes as a dict from label tuples, in row order."""
        return dict(zip(map(tuple, self.labels.tolist()), self.values.tolist()))


def _check_labels(labels: np.ndarray, dims: tuple[int, ...]) -> None:
    """Refuse int64 label rows out of range for dims or not distinct."""
    bad = (labels < 0) | (labels >= np.array(dims, dtype=np.int64))
    if np.count_nonzero(bad):
        label = tuple(labels[int(np.argmax(bad.any(axis=1)))].tolist())
        raise ValueError(f"basis label {label} out of range for dims {dims}")
    keys = np.sort(_row_keys(labels, range(len(dims)), dims))
    if np.count_nonzero(keys[1:] == keys[:-1]):
        raise ValueError("duplicate basis labels")


def _norm(values: np.ndarray) -> float:
    """The norm of an amplitude vector."""
    # compensated: a naive sum of ~10**6 squares drifts past NORM_ATOL
    return math.sqrt(math.fsum((np.abs(values) ** 2).tolist()))


def _trace_atol(terms: int) -> float:
    """How far from 1 the trace of a partial trace of a state with this many
    amplitudes may lie; NORM_ATOL for a matrix given entry by entry (0 terms).

    The state's fsum norm is within NORM_ATOL of 1, so the exact sum E of its
    N squared magnitudes is within 2 NORM_ATOL + NORM_ATOL**2 + 6u of 1 (u =
    eps / 2, eps = ulp(1.0); hypot, squaring and fsum round). The trace adds the same terms,
    each rounded twice, through sequential bincount sums per diagonal entry
    and one sum over the entries: at most N - 1 additions per term. A fused
    multiply may leave each term an imaginary part of u / 2 of it. To first
    order that is (1.5 N + 7) u E, which (N + 8) eps bounds with room for the
    second-order terms.
    """
    if not terms:
        return NORM_ATOL
    return 2 * NORM_ATOL + (terms + 8) * math.ulp(1.0)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Reduced state on its support: ``index`` holds sorted, distinct row-major
    flat indices closed under transpose, ``values`` the complex entries there
    (both read-only); all other entries are exact zeros. An array that already
    has the stored dtype (int64 index, complex values) is kept, not copied,
    and made read-only in place, so a caller who wants to keep writing it
    passes a copy. ``terms`` is the amplitude count of the state it was traced
    from, 0 for a matrix given entry by entry; the trace check's tolerance
    grows with it. The support is checked unless traced by a held plan. The
    oracle's one trace on R + U is one of these, block-diagonal because Q is
    correct: block s is secret s's U-view over S.
    """

    dims: tuple[int, ...]
    index: np.ndarray
    values: np.ndarray
    terms: int = 0
    _support = None  # (order, diagonal) of the checked support

    def __post_init__(self) -> None:
        dim = self.dim
        index = np.asarray(self.index, dtype=np.int64)
        values = np.asarray(self.values, dtype=complex)
        if index.ndim != 1 or values.shape != index.shape:
            raise ValueError("density matrix index and values differ in shape")
        if self._support is None:
            if len(index) and (index[0] < 0 or index[-1] >= dim * dim):
                raise ValueError(f"density matrix index out of range for dims {self.dims}")
            # values[order[k]] is the transpose of entry k: np.isclose(mat, mat^H) on the support
            rows, cols = np.divmod(index, dim)
            transposed = cols * dim + rows
            order = transposed.argsort()
            if (index[1:] <= index[:-1]).any() or (transposed[order] != index).any():
                raise ValueError("density matrix is not Hermitian: support unsorted or not symmetric")
            object.__setattr__(self, "_support", (order, np.flatnonzero(rows == cols)))
        order, diagonal = self._support
        if not (abs(values[order] - values.conj()) <= NORM_ATOL + 1e-5 * abs(values)).all():
            raise ValueError("density matrix is not Hermitian")
        if abs(values[diagonal].sum() - 1.0) > _trace_atol(self.terms):
            raise ValueError("density matrix trace is not 1")
        index.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "values", values)

    @cached_property
    def dim(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def mat(self) -> np.ndarray:
        """The dense, read-only dim x dim matrix, built on first read."""
        mat = _scatter(self.dim, self.index, self.values)
        mat.flags.writeable = False
        return mat


def _scatter(dim: int, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The dense dim x dim matrix with the given entries at the flat indices."""
    out = np.zeros(dim * dim, dtype=complex)
    out[index] = values
    return out.reshape(dim, dim)


@dataclass(frozen=True, eq=False)
class EncodedState:
    """A dealt quantum secret: one coordinate per MSP row, and the read-only amplitudes dealt."""

    state: QuantumState
    msp: MSP
    alpha: np.ndarray


def _encode(msp: MSP, alpha: np.ndarray) -> QuantumState:
    """The state msp deals for the amplitudes alpha: a basis secret becomes
    the uniform superposition of its block of the MSP's deal table, and
    general states extend by linearity, over alpha's nonzero entries in
    ascending order."""
    p = msp.field.p
    if alpha.shape != (p,):
        raise ValueError(f"input state must be a single GF({p}) coordinate")
    secrets = np.flatnonzero(alpha).tolist()  # none for the zero vector, refused by the norm check
    table = msp._label_table  # entry (s, r) is the label M (s, a)
    block = table.shape[1]
    if secrets and secrets[-1] - secrets[0] == len(secrets) - 1:
        # consecutive secrets (basis and full-support probes): a view
        labels = table[secrets[0] : secrets[-1] + 1].reshape(-1, msp.d)
    else:
        labels = _read_only(table[secrets]).reshape(-1, msp.d)
    values = np.repeat(alpha[secrets] * (1.0 / math.sqrt(block)), block)
    return _certified(QuantumState, "_deal", (msp, tuple(secrets)), (p,) * msp.d, labels, values)


def qencode(msp: MSP, alpha: np.ndarray) -> EncodedState:
    """Encode the single-qudit state of amplitudes alpha into one coordinate per MSP
    row: unitary, as M is a bijection on labels (``MSP`` checks full column rank)."""
    return EncodedState(_encode(msp, alpha), msp, _read_only(alpha.copy()))


def _program(plan: ReconstructionPlan) -> MSP:
    """M with its A rows replaced by U M_A: it deals each (s, a) as M does
    with U applied to the A shares; ``MSP`` checks its full column rank."""
    msp = plan.msp
    rows = list(msp.matrix.data)
    m_a = [rows[i] for i in plan.a_rows]
    for i, u_row in zip(plan.a_rows, plan.u.data):
        rows[i] = tuple(sum(c * x for c, x in zip(u_row, col)) % msp.field.p for col in zip(*m_a))
    return MSP(msp.field, Matrix(msp.field, tuple(rows), msp.e), msp.psi, msp.n)


def apply_plan(enc: EncodedState, plan: ReconstructionPlan) -> QuantumState:
    """Relabel the A coordinates by the plan's matrix U: deal enc's alpha
    through the plan's program, built once per run of calls with one plan.
    Afterwards the coordinate at plan.a_rows[0] holds the secret state and
    factors out from everything else."""
    global _held_program
    if plan.msp != enc.msp:
        raise ValueError("plan was built for a different MSP")
    if _held_program is None or _held_program[0] != plan:
        _held_program = None  # dropped before the next one is built
        _held_program = plan, _program(plan)
    return _encode(_held_program[1], enc.alpha)


def _pair_chunks(labels: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...], dim: int):
    """The label work of a partial trace, a chunk of at most _PAIR_CHUNK terms
    at a time: rows i, j of each amplitude pair's term a_i conj(a_j), the
    support so far, and the bins where the earlier sums then the chunk's terms
    fall, as float pairs: entry k takes its real part in bin 2 k and its
    imaginary part in the next; then three work buffers for the chunk's terms,
    so a trace that reuses a held plan allocates no array of its pairs' size.
    """
    kidx = _row_keys(labels, keep, dims)
    # A group is the amplitudes sharing one traced-out label. Groups are
    # numbered by first appearance and members kept in row order.
    rest_keys = _row_keys(labels, [c for c in range(len(dims)) if c not in keep], dims)
    _, first, where = np.unique(rest_keys, return_index=True, return_inverse=True)
    gid = first.argsort().argsort()[where]
    order = gid.argsort(kind="stable")
    sizes = np.bincount(gid)
    # Row i of a group adds a_i conj(a_j) into entry (kidx_i, kidx_j) for every
    # member j: pair t, of the member at position r of order, pairs it with the
    # member at position t + shift[r]. np.bincount sums in sequence, with each
    # chunk's terms after the sums so far, so entries sum their terms as a
    # label-at-a-time loop does, wherever the chunks cut a group.
    width = sizes.repeat(sizes)
    ends = width.cumsum()
    shift = (sizes.cumsum() - sizes).repeat(sizes) - (ends - width)
    total = int(ends[-1]) if len(ends) else 0
    index = np.empty(0, dtype=np.int64)
    for lo in range(0, total, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, total)
        # the members r0 .. r1 whose pairs lo .. hi - 1 are: all their pairs,
        # cut to those, so a chunk expands at most two members' pairs beyond it
        r0, r1 = np.searchsorted(ends, [lo, hi - 1], "right").tolist()
        w = width[r0 : r1 + 1]
        first = int(ends[r0] - w[0])
        i = order[r0 : r1 + 1].repeat(w)[lo - first : hi - first]
        j = order[np.arange(lo, hi) + shift[r0 : r1 + 1].repeat(w)[lo - first : hi - first]]
        index, where = np.unique(np.concatenate([index, kidx[i] * dim + kidx[j]]), return_inverse=True)
        index = _read_only(index)  # a held plan's support is handed out
        bins = np.empty((len(where), 2), dtype=np.int64)
        np.multiply(where, 2, out=bins[:, 0])
        np.add(bins[:, 0], 1, out=bins[:, 1])
        yield i, j, index, bins.ravel(), np.empty((3, hi - lo), dtype=complex)


def partial_trace(state: QuantumState, keep: Iterable[int]) -> DensityMatrix:
    """Exact reduction to the given coordinates (ascending order).

    A dealt state's label work is reused from the previous call when that
    traced a state of the same deal to the same coordinates in one chunk.
    """
    global _held_trace
    keep = tuple(sorted(keep))
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate coordinates in keep")
    if any(not 0 <= c < len(state.dims) for c in keep):
        raise ValueError("keep refers to a coordinate that does not exist")
    kdims = tuple(state.dims[c] for c in keep)
    dim = math.prod(kdims)
    if dim > REDUCTION_DIM_GUARD:
        raise ValueError(
            f"reduced dimension {dim} exceeds the exact-simulation guard ({REDUCTION_DIM_GUARD})"
        )
    labels, values = state.labels, state.values
    key = state._deal and (*state._deal, keep, _PAIR_CHUNK)
    held = _held_trace if key and _held_trace and _held_trace[0] == key else None
    _held_trace = held  # a miss drops the held plan before another is built
    chunks = [held[1]] if held else _pair_chunks(labels, state.dims, keep, dim)
    # the entries as (real, imaginary) float pairs, one bincount per chunk
    sums = np.empty(0)
    count, index = 0, np.empty(0, dtype=np.int64)
    for count, (i, j, index, bins, buffers) in enumerate(chunks, 1):
        a, c, terms = buffers
        values.take(i, out=a)
        values.conj().take(j, out=c)
        # into a third buffer: numpy's in-place complex multiply may round differently
        np.multiply(a, c, out=terms)
        # the first chunk has no sums before its terms
        parts = np.concatenate([sums, terms.view(float)]) if sums.size else terms.view(float)
        sums = np.bincount(bins, parts, 2 * len(index))
    rho = _certified(DensityMatrix, "_support", held and held[2], kdims, index, sums.view(complex), len(labels))
    if key and not held and count == 1:
        _held_trace = key, (i, j, index, bins, buffers), rho._support
    return rho


def fidelity(rho: DensityMatrix, psi: np.ndarray) -> float:
    """<psi| rho |psi> for a pure reference state's amplitude vector."""
    if psi.shape != (rho.dim,):
        raise ValueError("state and density matrix dimensions do not match")
    return float(np.real(np.vdot(psi, rho.mat @ psi)))


def trace_distance_within(r1: DensityMatrix, r2: DensityMatrix) -> tuple[bool, float]:
    """Certified (within SECRECY_TOL, value) check, cheap when the states agree.

    Uses the bound trace_norm <= sqrt(dim) * frobenius_norm first, on the
    union of the supports; the returned value is that upper bound when it
    certifies the tolerance, else the exact trace distance.
    """
    if r1.dim != r2.dim:
        raise ValueError("trace distance of density matrices with different dimensions")
    # views traced by one reused plan share their index array
    if r1.index is r2.index or np.array_equal(r1.index, r2.index):
        index, delta = r1.index, r1.values - r2.values
    else:
        index, where = np.unique(np.concatenate([r1.index, r2.index]), return_inverse=True)
        delta = np.zeros(len(index), dtype=complex)
        delta[where[: len(r1.index)]] = r1.values
        delta[where[len(r1.index) :]] -= r2.values
    # the 2-norm as np.linalg.norm computes it, without its dispatch
    bound = 0.5 * math.sqrt(r1.dim) * math.sqrt(delta.real.dot(delta.real) + delta.imag.dot(delta.imag))
    if bound <= SECRECY_TOL:
        return True, bound
    value = float(0.5 * np.abs(np.linalg.eigvalsh(_scatter(r1.dim, index, delta))).sum())
    return value <= SECRECY_TOL, value


@lru_cache(maxsize=64)
def probe_family(dim: int, seed: int = 0, n_random: int = 20) -> tuple[tuple[str, np.ndarray], ...]:
    """The standard probe family as read-only amplitude vectors of length
    dim: all basis states, the uniform superposition, and seeded random
    states; built once per arguments.

    Basis states alone would not detect phase damage on coalition
    views, hence the superpositions. A negative seed or count, or a family
    whose pairs would pass PROBE_PAIR_GUARD, is refused before any vector is
    built.
    """
    if seed < 0:
        raise ValueError(f"probe seed must be nonnegative, got {seed}")
    if n_random < 0:
        raise ValueError(f"random probe count must be nonnegative, got {n_random}")
    pairs = (dim + 1 + n_random) * (dim + n_random) // 2
    if pairs > PROBE_PAIR_GUARD:
        raise ValueError(
            f"{dim + 1 + n_random} probes make {pairs} pairs per coalition, "
            f"beyond the probe-pair guard ({PROBE_PAIR_GUARD})"
        )
    vectors = [*np.eye(dim, dtype=complex), np.full(dim, complex(1.0 / math.sqrt(dim)))]
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        raw = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)).tolist()
        norm = math.sqrt(sum(abs(a) ** 2 for a in raw))  # in Python, in index order
        vectors.append(np.array([a / norm for a in raw]))
    vectors = np.array(vectors)  # its rows are read-only views
    vectors.flags.writeable = False
    names = [f"basis:{s}" for s in range(dim)] + ["uniform"] + [f"random:{i}" for i in range(n_random)]
    return tuple(zip(names, vectors))


@lru_cache(maxsize=64)
def _probe_pairs(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices a < b of every pair of count probes, a-major, read-only; built once per count."""
    return tuple(_read_only(index) for index in np.triu_indices(count, 1))


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class CheckLine:
    check: str
    subset: str
    label: str
    metric: str
    value: float
    passed: bool

    def machine(self) -> str:
        return (
            f"check={self.check} set={self.subset} input={self.label} "
            f"{self.metric}={_value_text(self)} pass={'true' if self.passed else 'false'}"
        )


def _value_text(line: CheckLine) -> str:
    return f"{line.value:.12f}" if line.metric == "fidelity" else f"{line.value:.3e}"


@dataclass
class VerificationReport:
    """Outcome of a scheme-wide or single-set verification sweep."""

    kind: str
    descriptor: str
    seed: int
    applicable: bool = True
    reason: str = ""
    lines: list[CheckLine] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.applicable and all(line.passed for line in self.lines)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL" if self.applicable else "NOT_APPLICABLE"

    def add(self, check: str, subset: str, label: str, metric: str, value: float, passed: bool) -> None:
        """Record one line; subset is the set as ``format_players`` writes it."""
        self.lines.append(CheckLine(check, subset, label, metric, value, passed))

    def to_text(self) -> str:
        header = f"{self.kind} verification: {self.descriptor} seed={self.seed}"
        if not self.applicable:
            return f"{header}\nresult: NOT_APPLICABLE ({self.reason})\n"
        # per (check, set), in first-seen order: its worst line and whether all passed
        rows: dict[tuple[str, str], tuple[CheckLine, bool]] = {}
        for line in self.lines:
            worst, ok = rows.get((line.check, line.subset), (line, True))
            if line.value < worst.value if line.metric == "fidelity" else line.value > worst.value:
                worst = line
            rows[line.check, line.subset] = worst, ok and line.passed
        text = [
            f"  {check} set={{{subset}}}: {'min' if line.metric == 'fidelity' else 'max'} "
            f"{line.metric} {_value_text(line)}: {'pass' if ok else 'FAIL'}"
            for (check, subset), (line, ok) in rows.items()
        ]
        return "\n".join([header, *text, f"result: {self.status}"]) + "\n"

    def to_machine(self) -> str:
        head = f"report kind={self.kind} seed={self.seed}"
        if not self.applicable:
            return f"{head}\nresult=not_applicable reason={self.reason!r}\n"
        body = "\n".join(line.machine() for line in self.lines)
        return f"{head}\n{body}\nresult={'pass' if self.passed else 'fail'}\n"


class AmplitudeBudgetError(ValueError):
    """An encoding or a coalition's reduced state would exceed an
    exact-simulation guard."""


def _check_budget(msp: MSP, coalitions: Iterable[int] = ()) -> None:
    """Refuse, before any plan or encoding exists, an encoding past
    AMPLITUDE_GUARD or a secrecy coalition whose view of it would pass
    REDUCTION_DIM_GUARD."""
    amplitudes = msp.field.p**msp.e
    if amplitudes > AMPLITUDE_GUARD:
        raise AmplitudeBudgetError(
            f"encoding needs {amplitudes} amplitudes, beyond the "
            f"simulation guard ({AMPLITUDE_GUARD})"
        )
    for b in coalitions:
        dim = msp.field.p ** len(msp.row_indices(b))
        if dim > REDUCTION_DIM_GUARD:
            raise AmplitudeBudgetError(
                f"coalition {{{format_players(b)}}} has reduced dimension {dim}, "
                f"beyond the exact-simulation guard ({REDUCTION_DIM_GUARD})"
            )


# ---------------------------------------------------------------------------
# schemes


@dataclass(frozen=True, eq=False)
class QuantumScheme:
    """Quantum secret sharing: the encoding MSP, one reconstruction plan
    per set the caller names, and the blocks that verify it, each a list of
    plans to check recovery with and a list of coalitions to check secrecy on.

    A mixed scheme is the pure scheme of the self-dual extension with the
    extra player tau's share discarded: tau is ``hidden`` from coalition
    views, and its plans, keyed by qualified set, never touch tau's rows.
    """

    kind: str
    descriptor: str
    msp: MSP
    structure: AdversaryStructure
    plans: dict[int, ReconstructionPlan]
    blocks: list[tuple[list[int], list[int]]]
    hidden: int = 0

    def recover(self, mask: int, enc: EncodedState) -> tuple[QuantumState, int]:
        """Recovery by the plan for mask; returns (state, secret coordinate index)."""
        plan = self.plans.get(mask)
        if plan is None:
            word = "qualified" if self.hidden else "erasable"
            raise ValueError(f"set {{{format_players(mask)}}} is not {word} in this scheme")
        return apply_plan(enc, plan), plan.a_rows[0]

    def coalition_density(self, b_mask: int, enc: EncodedState) -> DensityMatrix:
        if b_mask & self.hidden:
            raise ValueError("the extra share is discarded and cannot be inspected")
        return partial_trace(enc.state, self.msp.row_indices(b_mask))

    def verify_all(
        self, inputs: Sequence[tuple[str, np.ndarray]] | None = None, seed: int = 0
    ) -> VerificationReport:
        """Encode every probe, then per block: every probe's recovery by each
        plan, then pairwise secrecy of the probes on each coalition."""
        report = VerificationReport(self.kind, self.descriptor, seed)
        family = inputs if inputs is not None else probe_family(self.msp.field.p, seed)
        # basis states alone cannot see phase damage
        if all(np.count_nonzero(alpha) < 2 for _, alpha in family):
            raise ValueError("probes must include non-basis amplitude assignments")
        encoded = [(name, alpha, qencode(self.msp, alpha)) for name, alpha in family]
        for recoveries, coalitions in self.blocks:
            for mask in recoveries:
                subset = format_players(mask)
                for name, alpha, enc in encoded:
                    recovered, coord = self.recover(mask, enc)
                    fide = fidelity(partial_trace(recovered, (coord,)), alpha)
                    report.add("recovery", subset, name, "fidelity", fide, fide >= 1 - RECOVERY_TOL)
            for b in coalitions:
                subset = format_players(b)
                views = [(name, self.coalition_density(b, enc)) for name, _, enc in encoded]
                for (name1, rho1), (name2, rho2) in itertools.combinations(views, 2):
                    ok, value = trace_distance_within(rho1, rho2)
                    report.add("secrecy", subset, f"{name1}|{name2}", "distance", value, ok)
        return report


def _pure(
    kind: str, descriptor: str, msp: MSP, structure: AdversaryStructure, sets: Iterable[int]
) -> QuantumScheme:
    """The pure scheme on msp with one block per erasable set: recovery, then secrecy."""
    plans = {b: build_reconstruction_plan(msp, b) for b in sets}
    return QuantumScheme(kind, descriptor, msp, structure, plans, [([b], [b]) for b in plans])


def qss_pure(msp: MSP) -> QuantumScheme:
    """Pure-state scheme; requires a self-dual structure."""
    _check_budget(msp)
    structure = msp_structure(msp)
    if not structure.is_selfdual():
        raise NoSchemeError(
            "structure is not self-dual; no pure-state scheme exists "
            "(use qss_mixed for a Q2* structure)"
        )
    _check_budget(msp, structure.members())
    descriptor = f"field={msp.field.p} d={msp.d} e={msp.e} n={msp.n}"
    return _pure("pure-qss", descriptor, msp, structure, structure.members())


def qss_mixed(msp: MSP) -> QuantumScheme:
    """Mixed-state scheme via the self-dual extension; requires Q2*, which
    ``extend_msp`` checks first."""
    structure = msp_structure(msp)
    extended = extend_msp(msp)
    _check_budget(extended, structure.members())
    tau = 1 << msp.n
    qualified = [q for q in range(tau) if not structure.is_member(q)]
    # q recovers from the extension with the complement of q, tau included, erased
    plans = {q: build_reconstruction_plan(extended, (2 * tau - 1) & ~q) for q in qualified}
    descriptor = f"field={msp.field.p} d={msp.d}->{extended.d} e={extended.e} n={msp.n}+tau"
    blocks = [(qualified, list(structure.members()))]
    return QuantumScheme("mixed-qss", descriptor, extended, structure, plans, blocks, hidden=tau)


def verify_erasure(
    msp: MSP, b_mask: int, inputs: Sequence[tuple[str, np.ndarray]] | None = None, seed: int = 0
) -> VerificationReport:
    """Erasure correction and secrecy for one erased set: the pure scheme's
    block for it. Returns a NOT_APPLICABLE report (distinct from failure)
    when the set is outside the intersection of the structure and its dual."""
    _check_budget(msp)
    structure = msp_structure(msp)
    descriptor = f"field={msp.field.p} d={msp.d} e={msp.e} n={msp.n} B={{{format_players(b_mask)}}}"
    for members, name in ((structure, "adversary"), (structure.dual(), "dual")):
        if not members.is_member(b_mask):
            reason = f"set is not in the {name} structure"
            return VerificationReport("erasure", descriptor, seed, applicable=False, reason=reason)
    _check_budget(msp, [b_mask])
    return _pure("erasure", descriptor, msp, structure, [b_mask]).verify_all(inputs, seed)
