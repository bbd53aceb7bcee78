"""Exact simulation of the quantum lifting of MSP schemes.

A secret qudit is encoded by padding it with a uniform superposition
over the dealer randomness and relabeling basis states through the
MSP matrix (extended to an invertible map, multiplication by which is
a basis permutation, so the whole simulation stays sparse and exact).
Erasure of a tolerable set B with qualified complement A is corrected
by relabeling the A coordinates through the classical reconstruction
plan's matrix U, after which the first A coordinate factors out as
the secret.

States are sparse maps from basis labels to complex amplitudes; the
only dense objects are the small reduced density matrices used for
fidelity/trace-distance checks, where numpy does the eigenvalue work.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
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


def _ravel(label: Sequence[int], dims: Sequence[int]) -> int:
    index = 0
    for value, dim in zip(label, dims):
        index = index * dim + value
    return index


@dataclass(frozen=True)
class QuantumState:
    """Sparse state over a tuple of qudit coordinates.

    Amplitudes are keyed by basis labels (int tuples, one entry per
    coordinate); zero amplitudes are dropped. States are normalized
    to unit norm within 1e-12 at construction.
    """

    dims: tuple[int, ...]
    amps: dict[tuple[int, ...], complex]

    def __post_init__(self) -> None:
        for label in self.amps:
            if len(label) != len(self.dims):
                raise ValueError("basis label arity does not match coordinate count")
            if any(not 0 <= x < d for x, d in zip(label, self.dims)):
                raise ValueError(f"basis label {label} out of range for dims {self.dims}")
        if abs(self.norm() - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {self.norm()} is not 1 within {NORM_ATOL}")

    @staticmethod
    def from_amplitudes(
        dims: Sequence[int], amps: Mapping[Sequence[int], complex], normalize: bool = False
    ) -> "QuantumState":
        cleaned = {tuple(k): complex(v) for k, v in amps.items() if v != 0}
        if normalize:
            norm = math.sqrt(sum(abs(a) ** 2 for a in cleaned.values()))
            if norm == 0:
                raise ValueError("cannot normalize the zero vector")
            cleaned = {k: v / norm for k, v in cleaned.items()}
        return QuantumState(tuple(dims), cleaned)

    @staticmethod
    def basis(dims: Sequence[int], label: Sequence[int]) -> "QuantumState":
        return QuantumState.from_amplitudes(dims, {tuple(label): 1.0})

    @staticmethod
    def uniform(dim: int) -> "QuantumState":
        amp = 1.0 / math.sqrt(dim)
        return QuantumState.from_amplitudes((dim,), {(s,): amp for s in range(dim)})

    @staticmethod
    def random(dim: int, rng: np.random.Generator) -> "QuantumState":
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return QuantumState.from_amplitudes(
            (dim,), {(s,): raw[s] for s in range(dim)}, normalize=True
        )

    def norm(self) -> float:
        # compensated: a naive sum of ~10**6 squares drifts past NORM_ATOL
        return math.sqrt(math.fsum(abs(a) ** 2 for a in self.amps.values()))

    def dense(self) -> np.ndarray:
        out = np.zeros(math.prod(self.dims), dtype=complex)
        for label, amp in self.amps.items():
            out[_ravel(label, self.dims)] = amp
        return out


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense reduced state over a tuple of retained coordinates.

    Compare with trace_distance/fidelity, not ==; the payload is a
    numpy array.
    """

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self) -> None:
        dim = math.prod(self.dims) if self.dims else 1
        if self.mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.mat.shape} does not match dims {self.dims}")
        if not np.allclose(self.mat, self.mat.conj().T, atol=NORM_ATOL):
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(self.mat) - 1.0) > NORM_ATOL:
            raise ValueError("density matrix trace is not 1")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def validate_psd(self, atol: float = 1e-9) -> None:
        lowest = float(np.linalg.eigvalsh(self.mat)[0])
        if lowest < -atol:
            raise ValueError(f"density matrix has negative eigenvalue {lowest}")

    @staticmethod
    def projector(psi: QuantumState) -> "DensityMatrix":
        v = psi.dense()
        return DensityMatrix(psi.dims, np.outer(v, v.conj()))


@dataclass(frozen=True)
class EncodedState:
    """A dealt quantum secret: one coordinate per MSP row."""

    state: QuantumState
    msp: MSP

    def support_in_image(self) -> bool:
        """Every support label is M w for some w (sanity check)."""
        from .galois import solve_left

        mt = self.msp.matrix.transpose()
        return all(solve_left(mt, label) is not None for label in self.state.amps)


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
    scale = 1.0 / math.sqrt(p ** (msp.e - 1))
    amps: dict[tuple[int, ...], complex] = {}
    for (s,), alpha in state.amps.items():
        for a in itertools.product(range(p), repeat=msp.e - 1):
            label = msp.matrix.matvec((s,) + a)
            amps[label] = alpha * scale
    return EncodedState(QuantumState((p,) * msp.d, amps), msp)


def apply_plan(enc: EncodedState, plan: ReconstructionPlan) -> QuantumState:
    """Relabel the A coordinates by the plan's matrix U.

    Afterwards the coordinate at plan.a_rows[0] holds the secret state
    and factors out from everything else.
    """
    if plan.msp != enc.msp:
        raise ValueError("plan was built for a different MSP")
    a_rows = plan.a_rows
    amps: dict[tuple[int, ...], complex] = {}
    for label, amp in enc.state.amps.items():
        transformed = plan.u.matvec([label[i] for i in a_rows])
        new_label = list(label)
        for i, value in zip(a_rows, transformed):
            new_label[i] = value
        amps[tuple(new_label)] = amp
    return QuantumState(enc.state.dims, amps)


def partial_trace(state: QuantumState, keep: Iterable[int]) -> DensityMatrix:
    """Exact reduction to the given coordinates (ascending order)."""
    keep = tuple(sorted(keep))
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate coordinates in keep")
    if any(not 0 <= c < len(state.dims) for c in keep):
        raise ValueError("keep refers to a coordinate that does not exist")
    rest = tuple(c for c in range(len(state.dims)) if c not in set(keep))
    kdims = tuple(state.dims[c] for c in keep)
    dim = math.prod(kdims) if kdims else 1
    if dim > REDUCTION_DIM_GUARD:
        raise ValueError(
            f"reduced dimension {dim} exceeds the exact-simulation guard ({REDUCTION_DIM_GUARD})"
        )
    groups: dict[tuple[int, ...], list[tuple[int, complex]]] = {}
    for label, amp in state.amps.items():
        kidx = _ravel([label[c] for c in keep], kdims)
        groups.setdefault(tuple(label[c] for c in rest), []).append((kidx, amp))
    mat = np.zeros((dim, dim), dtype=complex)
    for entries in groups.values():
        for i1, a1 in entries:
            for i2, a2 in entries:
                mat[i1, i2] += a1 * a2.conjugate()
    return DensityMatrix(kdims, mat)


def fidelity(rho: DensityMatrix, psi: QuantumState) -> float:
    """<psi| rho |psi> for a pure reference state."""
    if math.prod(psi.dims) != rho.dim:
        raise ValueError("state and density matrix dimensions do not match")
    v = psi.dense()
    return float(np.real(np.vdot(v, rho.mat @ v)))


def trace_distance(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """Half the sum of the absolute eigenvalues of the difference."""
    if r1.dim != r2.dim:
        raise ValueError("trace distance of density matrices with different dimensions")
    return float(0.5 * np.abs(np.linalg.eigvalsh(r1.mat - r2.mat)).sum())


def trace_distance_within(r1: DensityMatrix, r2: DensityMatrix, tol: float) -> tuple[bool, float]:
    """Certified (within_tol, value) check, cheap when the states agree.

    Uses the bound trace_norm <= sqrt(dim) * frobenius_norm first; the
    returned value is that upper bound when it already certifies the
    tolerance, else the exact trace distance.
    """
    if r1.dim != r2.dim:
        raise ValueError("trace distance of density matrices with different dimensions")
    delta = r1.mat - r2.mat
    bound = 0.5 * math.sqrt(delta.shape[0]) * float(np.linalg.norm(delta))
    if bound <= tol:
        return True, bound
    value = float(0.5 * np.abs(np.linalg.eigvalsh(delta)).sum())
    return value <= tol, value


def schmidt_rank(state: QuantumState, first: Iterable[int], tol: float = 1e-9) -> int:
    """Schmidt rank across the cut (first coordinates) vs (the rest)."""
    first = tuple(sorted(first))
    rest = tuple(c for c in range(len(state.dims)) if c not in set(first))
    d1 = math.prod(state.dims[c] for c in first) if first else 1
    d2 = math.prod(state.dims[c] for c in rest) if rest else 1
    mat = np.zeros((d1, d2), dtype=complex)
    fdims = tuple(state.dims[c] for c in first)
    rdims = tuple(state.dims[c] for c in rest)
    for label, amp in state.amps.items():
        i = _ravel([label[c] for c in first], fdims)
        j = _ravel([label[c] for c in rest], rdims)
        mat[i, j] = amp
    singular = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(singular > tol))


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
            key = (line.check, line.subset)
            current = worst.get(key)
            extremal = (
                current is None
                or (line.metric == "fidelity" and line.value < current.value)
                or (line.metric != "fidelity" and line.value > current.value)
            )
            if extremal:
                worst[key] = line
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
    """An encoding would exceed the exact-simulation amplitude guard."""


def _check_budget(msp: MSP) -> None:
    amplitudes = msp.field.p**msp.e
    if amplitudes > AMPLITUDE_GUARD:
        raise AmplitudeBudgetError(
            f"encoding needs {amplitudes} amplitudes, beyond the "
            f"simulation guard ({AMPLITUDE_GUARD})"
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
    if not structure.is_member(b_mask):
        report.applicable = False
        report.reason = "set is not in the adversary structure"
        return report
    if not dual.is_member(b_mask):
        report.applicable = False
        report.reason = "set is not in the dual structure"
        return report
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
        _check_budget(self.extended)
        self.tau = self.extended.n
        self.qualified = [
            q for q in range(1 << msp.n) if not structure.is_member(q)
        ]
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
