"""Exact simulation of the quantum lifting of MSP schemes.

A secret qudit is encoded by padding it with a uniform superposition
over the dealer randomness and relabeling basis states through the
MSP matrix: the state dealt for secret s is the uniform superposition
over the labels M (s, a). The map is injective (M has full column
rank), so the simulation stays sparse and exact. Erasure of a
tolerable set B with qualified complement A is corrected by relabeling
the A coordinates through the classical reconstruction plan's
invertible matrix U, after which the first A coordinate factors out
as the secret.

States are sparse: an N x k int64 array of distinct basis labels and
their N complex amplitudes. An encoded state is rows of the MSP's cached
table of every M (s, a), and a plan multiplies the A columns by U mod p.
Partial traces group the amplitudes by their traced-out labels with
numpy sorts, and reduced states keep only the entries on their support,
where secrecy checks compare them. Only fidelity and exact trace
distances build dense matrices, where numpy does the eigenvalue work.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .classical import ReconstructionPlan, build_reconstruction_plan
from .galois import rank
from .msp import MSP, extend_msp, msp_structure
from .structures import format_players

NORM_ATOL = 1e-12
RECOVERY_TOL = 1e-9
SECRECY_TOL = 1e-9
# the sparse simulation materializes at most p**e amplitudes (p**(e-1)
# share vectors per basis secret), so that is what the guard bounds
AMPLITUDE_GUARD = 2_000_000
REDUCTION_DIM_GUARD = 4096
# row-major keys stay exact below this bound; past it they are
# compressed to dense group ids so int64 never overflows
_KEY_LIMIT = 2**40
# partial_trace expands at most about this many amplitude pairs at once
_PAIR_CHUNK = 1 << 20


def _row_keys(labels: np.ndarray, cols: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """One int64 per label row, equal exactly when the rows agree on cols.

    This is the row-major index of the cols (as numpy.ravel_multi_index)
    whenever the product of their dims is at most 2**40.
    """
    key = np.zeros(len(labels), dtype=np.int64)
    bound = 1
    for c in cols:
        if bound * dims[c] > _KEY_LIMIT:
            uniq, key = np.unique(key, return_inverse=True)
            bound = len(uniq)
        key = key * dims[c] + labels[:, c]
        bound *= dims[c]
    return key


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Sparse state over a tuple of qudit coordinates.

    Row i of ``labels`` (N x k int64, distinct rows) is a basis label,
    one entry per coordinate, with amplitude ``values[i]``; both arrays
    are read-only. States are normalized to unit norm within 1e-12 at
    construction. Compare states through their arrays, not ==.
    """

    dims: tuple[int, ...]
    labels: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or labels.shape[1] != len(self.dims):
            raise ValueError("basis label arity does not match coordinate count")
        if labels.size and labels.dtype.kind not in "biu":
            raise ValueError(f"basis labels must be int tuples within int64, got {labels.dtype}")
        labels = labels.astype(np.int64, copy=False)
        bad = (labels < 0) | (labels >= np.array(self.dims, dtype=np.int64))
        if np.count_nonzero(bad):
            label = tuple(labels[int(np.argmax(bad.any(axis=1)))].tolist())
            raise ValueError(f"basis label {label} out of range for dims {self.dims}")
        keys = np.sort(_row_keys(labels, range(len(self.dims)), self.dims))
        if np.count_nonzero(keys[1:] == keys[:-1]):
            raise ValueError("duplicate basis labels")
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (len(labels),):
            raise ValueError("labels and values differ in length")
        labels.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)
        if abs(self.norm() - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {self.norm()} is not 1 within {NORM_ATOL}")

    @cached_property
    def amps(self) -> dict[tuple[int, ...], complex]:
        """The amplitudes as a dict from label tuples, in row order."""
        return dict(zip(map(tuple, self.labels.tolist()), self.values.tolist()))

    @staticmethod
    def from_amplitudes(
        dims: Sequence[int], amps: Mapping[Sequence[int], complex], normalize: bool = False
    ) -> "QuantumState":
        """State from a dict of label tuples to amplitudes; zeros are dropped."""
        cleaned = {tuple(k): complex(v) for k, v in amps.items() if v != 0}
        if normalize:
            norm = math.sqrt(sum(abs(a) ** 2 for a in cleaned.values()))
            if norm == 0:
                raise ValueError("cannot normalize the zero vector")
            cleaned = {k: v / norm for k, v in cleaned.items()}
        dims = tuple(dims)
        if any(len(label) != len(dims) for label in cleaned):
            raise ValueError("basis label arity does not match coordinate count")
        labels = np.array(list(cleaned)).reshape(len(cleaned), len(dims))
        values = np.fromiter(cleaned.values(), dtype=complex, count=len(cleaned))
        return QuantumState(dims, labels, values)

    @staticmethod
    def basis(dims: Sequence[int], label: Sequence[int]) -> "QuantumState":
        return QuantumState(tuple(dims), np.array([tuple(label)]), np.ones(1, dtype=complex))

    @staticmethod
    def uniform(dim: int) -> "QuantumState":
        amp = 1.0 / math.sqrt(dim)
        return QuantumState((dim,), np.arange(dim).reshape(dim, 1), np.full(dim, complex(amp)))

    @staticmethod
    def random(dim: int, rng: np.random.Generator) -> "QuantumState":
        raw = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)).tolist()
        # normalized in Python, in label order, as from_amplitudes does
        norm = math.sqrt(sum(abs(a) ** 2 for a in raw))
        return QuantumState((dim,), np.arange(dim).reshape(dim, 1), [a / norm for a in raw])

    def norm(self) -> float:
        # compensated: a naive sum of ~10**6 squares drifts past NORM_ATOL
        return math.sqrt(math.fsum((np.abs(self.values) ** 2).tolist()))

    def dense(self) -> np.ndarray:
        keys = _row_keys(self.labels, range(len(self.dims)), self.dims)
        return _scatter(math.prod(self.dims), keys, self.values)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Reduced state on its support: ``index`` holds sorted, distinct row-major
    flat indices closed under transpose, ``values`` the complex entries there
    (both read-only); all other entries are exact zeros.
    """

    dims: tuple[int, ...]
    index: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        dim = self.dim
        index = np.asarray(self.index, dtype=np.int64)
        values = np.asarray(self.values, dtype=complex)
        if index.ndim != 1 or values.shape != index.shape:
            raise ValueError("density matrix index and values differ in shape")
        if len(index) and (index[0] < 0 or index[-1] >= dim * dim):
            raise ValueError(f"density matrix index out of range for dims {self.dims}")
        # values[order[k]] is the transpose of entry k: np.isclose(mat, mat^H) on the support
        rows, cols = np.divmod(index, dim)
        transposed = cols * dim + rows
        order = transposed.argsort()
        if (index[1:] <= index[:-1]).any() or (transposed[order] != index).any():
            raise ValueError("density matrix is not Hermitian: support unsorted or not symmetric")
        if not (abs(values[order] - values.conj()) <= NORM_ATOL + 1e-5 * abs(values)).all():
            raise ValueError("density matrix is not Hermitian")
        if abs(values[rows == cols].sum() - 1.0) > NORM_ATOL:
            raise ValueError("density matrix trace is not 1")
        index.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def mat(self) -> np.ndarray:
        """The dense, read-only dim x dim matrix, built on first read."""
        mat = _scatter(self.dim**2, self.index, self.values).reshape(self.dim, self.dim)
        mat.flags.writeable = False
        return mat


def _scatter(size: int, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.zeros(size, dtype=complex)
    out[index] = values
    return out


@dataclass(frozen=True)
class EncodedState:
    """A dealt quantum secret: one coordinate per MSP row."""

    state: QuantumState
    msp: MSP


def qencode(msp: MSP, state: QuantumState) -> EncodedState:
    """Encode a single-qudit state into one coordinate per MSP row.

    A basis secret becomes the uniform superposition of its dealt
    share vectors over all randomness; general states extend by
    linearity. Because the padded map is a bijection on labels this
    is unitary by construction.
    """
    p = msp.field.p
    if state.dims != (p,):
        raise ValueError(f"input state must be a single GF({p}) coordinate")
    if rank(msp.matrix) != msp.e:
        raise ValueError("MSP matrix lacks full column rank")
    block = p ** (msp.e - 1)
    scale = 1.0 / math.sqrt(block)
    table = msp._label_table
    secrets = state.labels[:, 0].tolist()
    if secrets == list(range(secrets[0], secrets[0] + len(secrets))):
        # ascending consecutive secrets (basis and full-support probes): a view
        labels = table[secrets[0] * block : (secrets[-1] + 1) * block]
    else:
        labels = np.concatenate([table[s * block : (s + 1) * block] for s in secrets])
    values = np.repeat(state.values * scale, block)
    return EncodedState(QuantumState((p,) * msp.d, labels, values), msp)


def apply_plan(enc: EncodedState, plan: ReconstructionPlan) -> QuantumState:
    """Relabel the A coordinates by the plan's matrix U.

    Afterwards the coordinate at plan.a_rows[0] holds the secret state
    and factors out from everything else.
    """
    if plan.msp != enc.msp:
        raise ValueError("plan was built for a different MSP")
    labels = enc.state.labels
    a_rows = list(plan.a_rows)
    u = np.array(plan.u.data, dtype=np.int64)
    out = labels.copy()
    out[:, a_rows] = labels[:, a_rows] @ u.T % enc.msp.field.p
    return QuantumState(enc.state.dims, out, enc.state.values)


def partial_trace(state: QuantumState, keep: Iterable[int]) -> DensityMatrix:
    """Exact reduction to the given coordinates (ascending order)."""
    keep = tuple(sorted(keep))
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate coordinates in keep")
    if any(not 0 <= c < len(state.dims) for c in keep):
        raise ValueError("keep refers to a coordinate that does not exist")
    rest = tuple(c for c in range(len(state.dims)) if c not in set(keep))
    kdims = tuple(state.dims[c] for c in keep)
    dim = math.prod(kdims)
    if dim > REDUCTION_DIM_GUARD:
        raise ValueError(
            f"reduced dimension {dim} exceeds the exact-simulation guard ({REDUCTION_DIM_GUARD})"
        )
    labels, values = state.labels, state.values
    kidx = _row_keys(labels, keep, state.dims)
    # A group is the amplitudes sharing one traced-out label. Groups are
    # numbered by first appearance and members kept in row order.
    rest_keys = _row_keys(labels, rest, state.dims)
    _, first, where = np.unique(rest_keys, return_index=True, return_inverse=True)
    gid = first.argsort().argsort()[where]
    order = gid.argsort(kind="stable")
    sizes = np.bincount(gid)
    # Row i of a group adds a_i conj(a_j) into entry (kidx_i, kidx_j) for every
    # member j. np.bincount sums in sequence, with each chunk's terms after the
    # sums so far, so entries sum their terms as a label-at-a-time loop does.
    width = sizes.repeat(sizes)
    row_start = (sizes.cumsum() - sizes).repeat(sizes)
    ends = width.cumsum()
    index, real, imag = np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
    lo = 0
    while lo < len(order):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - width[lo] + _PAIR_CHUNK, "right")))
        w = width[lo:hi]
        offsets = np.arange(int(w.sum())) - (w.cumsum() - w).repeat(w)
        i = order[lo:hi].repeat(w)
        j = order[row_start[lo:hi].repeat(w) + offsets]
        terms = values[i] * values[j].conj()
        index, where = np.unique(np.concatenate([index, kidx[i] * dim + kidx[j]]), return_inverse=True)
        real = np.bincount(where, np.concatenate([real, terms.real]))
        imag = np.bincount(where, np.concatenate([imag, terms.imag]))
        lo = hi
    entries = real.astype(complex)
    entries.imag = imag
    return DensityMatrix(kdims, index, entries)


def fidelity(rho: DensityMatrix, psi: QuantumState) -> float:
    """<psi| rho |psi> for a pure reference state."""
    if math.prod(psi.dims) != rho.dim:
        raise ValueError("state and density matrix dimensions do not match")
    v = psi.dense()
    return float(np.real(np.vdot(v, rho.mat @ v)))


def trace_distance_within(r1: DensityMatrix, r2: DensityMatrix, tol: float) -> tuple[bool, float]:
    """Certified (within_tol, value) check, cheap when the states agree.

    Uses the bound trace_norm <= sqrt(dim) * frobenius_norm first, on the
    union of the supports; the returned value is that upper bound when it
    certifies the tolerance, else the exact trace distance.
    """
    if r1.dim != r2.dim:
        raise ValueError("trace distance of density matrices with different dimensions")
    if np.array_equal(r1.index, r2.index):
        index, delta = r1.index, r1.values - r2.values
    else:
        index, where = np.unique(np.concatenate([r1.index, r2.index]), return_inverse=True)
        delta = np.zeros(len(index), dtype=complex)
        delta[where[: len(r1.index)]] = r1.values
        delta[where[len(r1.index) :]] -= r2.values
    bound = 0.5 * math.sqrt(r1.dim) * float(np.linalg.norm(delta))
    if bound <= tol:
        return True, bound
    dense = _scatter(r1.dim**2, index, delta).reshape(r1.dim, r1.dim)
    value = float(0.5 * np.abs(np.linalg.eigvalsh(dense)).sum())
    return value <= tol, value


def probe_family(dim: int, seed: int = 0, n_random: int = 20) -> list[tuple[str, QuantumState]]:
    """The standard probe family: all basis states, the uniform
    superposition, and seeded random states.

    Basis states alone would not detect phase damage on coalition
    views, hence the superpositions.
    """
    family: list[tuple[str, QuantumState]] = [
        (f"basis:{s}", QuantumState.basis((dim,), (s,))) for s in range(dim)
    ]
    family.append(("uniform", QuantumState.uniform(dim)))
    rng = np.random.default_rng(seed)
    family += [(f"random:{i}", QuantumState.random(dim, rng)) for i in range(n_random)]
    return family


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
        value = f"{self.value:.12f}" if self.metric == "fidelity" else f"{self.value:.3e}"
        return (
            f"check={self.check} set={self.subset} input={self.label} "
            f"{self.metric}={value} pass={'true' if self.passed else 'false'}"
        )


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
        if not self.applicable:
            return "NOT_APPLICABLE"
        return "PASS" if self.passed else "FAIL"

    def add(self, check: str, subset: int, label: str, metric: str, value: float, passed: bool) -> None:
        self.lines.append(CheckLine(check, format_players(subset), label, metric, value, passed))

    def to_text(self) -> str:
        header = f"{self.kind} verification: {self.descriptor} seed={self.seed}"
        if not self.applicable:
            return f"{header}\nresult: NOT_APPLICABLE ({self.reason})\n"
        rows = []
        worst: dict[tuple[str, str], CheckLine] = {}
        for line in self.lines:
            current = worst.setdefault((line.check, line.subset), line)
            if line.value < current.value if line.metric == "fidelity" else line.value > current.value:
                worst[line.check, line.subset] = line
        for (check, subset), line in worst.items():
            value = f"{line.value:.12f}" if line.metric == "fidelity" else f"{line.value:.3e}"
            word = "min" if line.metric == "fidelity" else "max"
            ok = "pass" if all(l.passed for l in self.lines if (l.check, l.subset) == (check, subset)) else "FAIL"
            rows.append(f"  {check} set={{{subset}}}: {word} {line.metric} {value}: {ok}")
        return "\n".join([header, *rows, f"result: {self.status}"]) + "\n"

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


def _sweep(
    report: VerificationReport,
    msp: MSP,
    family: list[tuple[str, QuantumState]],
    blocks: Iterable[tuple[Iterable[tuple[int, ReconstructionPlan]], Iterable[int]]],
) -> VerificationReport:
    """Encode every probe with msp, then check each block: recovery of
    every probe by each (mask, plan) pair, then pairwise secrecy of
    the probes on each coalition."""
    encoded = [(name, state, qencode(msp, state)) for name, state in family]
    for recoveries, coalitions in blocks:
        for mask, plan in recoveries:
            for name, state, enc in encoded:
                reduced = partial_trace(apply_plan(enc, plan), (plan.a_rows[0],))
                fide = fidelity(reduced, state)
                report.add("recovery", mask, name, "fidelity", fide, fide >= 1 - RECOVERY_TOL)
        for b in coalitions:
            rows = msp.row_indices(b)
            views = [(name, partial_trace(enc.state, rows)) for name, _, enc in encoded]
            for (name1, rho1), (name2, rho2) in itertools.combinations(views, 2):
                ok, value = trace_distance_within(rho1, rho2, SECRECY_TOL)
                report.add("secrecy", b, f"{name1}|{name2}", "distance", value, ok)
    return report


def verify_erasure(
    msp: MSP,
    b_mask: int,
    inputs: list[tuple[str, QuantumState]] | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Erasure correction and secrecy for one erased set.

    Returns a NOT_APPLICABLE report (distinct from failure) when the
    set is outside the intersection of the structure and its dual.
    """
    _check_budget(msp)
    structure = msp_structure(msp)
    dual = structure.dual()
    descriptor = f"field={msp.field.p} d={msp.d} e={msp.e} n={msp.n} B={{{format_players(b_mask)}}}"
    report = VerificationReport("erasure", descriptor, seed)
    for members, name in ((structure, "adversary"), (dual, "dual")):
        if not members.is_member(b_mask):
            report.applicable, report.reason = False, f"set is not in the {name} structure"
            return report
    _check_budget(msp, [b_mask])
    family = inputs if inputs is not None else probe_family(msp.field.p, seed)
    blocks = [([(b_mask, build_reconstruction_plan(msp, b_mask))], [b_mask])]
    return _sweep(report, msp, family, blocks)


# ---------------------------------------------------------------------------
# scheme handles


class PureScheme:
    """Pure-state quantum secret sharing from a self-dual MSP.

    Bundles the encoder with a reconstruction plan for every
    tolerable set; every qualified set can recover the secret and no
    tolerable coalition's reduced state depends on it.
    """

    def __init__(self, msp: MSP):
        _check_budget(msp)
        structure = msp_structure(msp)
        if not structure.is_selfdual():
            raise ValueError(
                "structure is not self-dual; no pure-state scheme exists "
                "(use qss_mixed for a Q2* structure)"
            )
        _check_budget(msp, structure.members())
        self.msp = msp
        self.structure = structure
        self.plans = {b: build_reconstruction_plan(msp, b) for b in structure.members()}

    def encode(self, state: QuantumState) -> EncodedState:
        return qencode(self.msp, state)

    def recover(self, b_mask: int, enc: EncodedState) -> tuple[QuantumState, int]:
        """Undo erasure of B; returns (state, secret coordinate index)."""
        plan = self.plans.get(b_mask)
        if plan is None:
            raise ValueError(f"set {{{format_players(b_mask)}}} is not erasable in this scheme")
        return apply_plan(enc, plan), plan.a_rows[0]

    def coalition_density(self, b_mask: int, enc: EncodedState) -> DensityMatrix:
        return partial_trace(enc.state, self.msp.row_indices(b_mask))

    def verify_all(
        self, inputs: list[tuple[str, QuantumState]] | None = None, seed: int = 0
    ) -> VerificationReport:
        descriptor = f"field={self.msp.field.p} d={self.msp.d} e={self.msp.e} n={self.msp.n}"
        report = VerificationReport("pure-qss", descriptor, seed)
        family = inputs if inputs is not None else probe_family(self.msp.field.p, seed)
        blocks = [([(b, plan)], [b]) for b, plan in self.plans.items()]
        return _sweep(report, self.msp, family, blocks)


class MixedScheme:
    """Mixed-state quantum secret sharing for a Q2* structure.

    Encodes with the self-dual extension's MSP; the coordinates of
    the extra player are discarded (traced out, which models both a
    destroyed and a dealer-kept extra share). Recovery by a qualified
    set only ever touches that set's own coordinates.
    """

    def __init__(self, msp: MSP):
        structure = msp_structure(msp)
        if not structure.is_q2star():
            raise ValueError("structure is not Q2*; no-cloning forbids QSS")
        self.base_msp = msp
        self.structure = structure
        self.extended = extend_msp(msp)
        self.extended_structure = msp_structure(self.extended)
        _check_budget(self.extended, structure.members())
        self.tau = self.extended.n
        self.qualified = [q for q in range(1 << msp.n) if not structure.is_member(q)]
        full_ext = (1 << self.extended.n) - 1
        self.plans = {
            q: build_reconstruction_plan(self.extended, full_ext & ~q) for q in self.qualified
        }

    def encode(self, state: QuantumState) -> EncodedState:
        return qencode(self.extended, state)

    def recover(self, q_mask: int, enc: EncodedState) -> tuple[QuantumState, int]:
        """Recover by a qualified set of the base structure."""
        plan = self.plans.get(q_mask)
        if plan is None:
            raise ValueError(f"set {{{format_players(q_mask)}}} is not qualified")
        return apply_plan(enc, plan), plan.a_rows[0]

    def coalition_density(self, b_mask: int, enc: EncodedState) -> DensityMatrix:
        """Reduced state of a coalition of base players (tau excluded)."""
        if b_mask >> (self.tau - 1) & 1:
            raise ValueError("the extra share is discarded and cannot be inspected")
        return partial_trace(enc.state, self.extended.row_indices(b_mask))

    def verify_all(
        self, inputs: list[tuple[str, QuantumState]] | None = None, seed: int = 0
    ) -> VerificationReport:
        descriptor = (
            f"field={self.base_msp.field.p} d={self.base_msp.d}->{self.extended.d} "
            f"e={self.extended.e} n={self.base_msp.n}+tau"
        )
        report = VerificationReport("mixed-qss", descriptor, seed)
        family = inputs if inputs is not None else probe_family(self.base_msp.field.p, seed)
        blocks = [(self.plans.items(), self.structure.members())]
        return _sweep(report, self.extended, family, blocks)


def qss_pure(msp: MSP) -> PureScheme:
    """Pure-state scheme; requires a self-dual structure."""
    return PureScheme(msp)


def qss_mixed(msp: MSP) -> MixedScheme:
    """Mixed-state scheme via the self-dual extension; requires Q2*."""
    return MixedScheme(msp)
