"""MSP-based classical secret sharing.

Dealing multiplies the matrix by (s, a_2, ..., a_e); reconstruction by
a qualified set Q is the left solution u1 with u1^T M_Q = eps^T applied
to Q's shares. For an erased set B with qualified complement A, a
reconstruction plan packages the invertible share-space transformation
U whose first row extracts the secret and whose remaining rows span
the subspace orthogonal to M_A v for a kernel witness v of M_B; the
plan depends only on the MSP and B, never on dealt values.

Randomness is always an explicit argument so exhaustive sweeps and
golden tests control it fully; seeded generation lives in the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .galois import Matrix, kernel_basis, kernel_witness, rank, solve_left
from .msp import MSP, _row_keys, msp_structure, rows_of
from .structures import AdversaryStructure, FormatError, _read_ints, _read_lines, complement, format_players


class ReconstructionError(ValueError):
    """A player set that cannot reconstruct was asked to."""


def share(msp: MSP, secret: int, randomness: Sequence[int]) -> tuple[int, ...]:
    """Deal: extend the secret by the given e-1 field elements and
    multiply by the MSP matrix; entry i is the share of player psi[i]."""
    if len(randomness) != msp.e - 1:
        raise ValueError(f"need {msp.e - 1} random elements, got {len(randomness)}")
    vec = (secret % msp.field.p,) + tuple(a % msp.field.p for a in randomness)
    return msp.matrix.matvec(vec)


def reconstruct(msp: MSP, q_mask: int, shares_q: Mapping[int, int]) -> int:
    """Recover the secret from the shares of a qualified set.

    ``shares_q`` must cover exactly the rows labeled into the set. No
    consistency checking is performed: inconsistent inputs yield an
    unflagged field element.
    """
    indices = msp.row_indices(q_mask)
    if set(shares_q) != set(indices):
        missing = sorted(set(indices) - set(shares_q))
        extra = sorted(set(shares_q) - set(indices))
        raise ValueError(f"share rows mismatch (missing {missing}, unexpected {extra})")
    sub = rows_of(msp, q_mask)
    u1 = solve_left(sub, msp.eps)
    if u1 is None:
        raise ReconstructionError("set cannot reconstruct")
    values = [shares_q[i] for i in indices]
    return sum(c * v for c, v in zip(u1, values)) % msp.field.p


@dataclass(frozen=True)
class ReconstructionPlan:
    """The invertible transformation U on the shares of A = P - B.

    After applying U, the first A-share carries the secret and the
    joint distribution of everything else is independent of it. The
    first row u1 solves u1^T M_A = eps^T; the rest are the reduced
    echelon basis of W = {u : u . (M_A v) = 0}. A U not invertible on A's shares is refused.
    """

    msp: MSP
    a_rows: tuple[int, ...]
    u: Matrix

    def __post_init__(self) -> None:
        if not self.u.rows == self.u.cols == len(self.a_rows) == rank(self.u):
            raise ValueError("reconstruction plan transformation is not invertible")


def build_reconstruction_plan(msp: MSP, b_mask: int) -> ReconstructionPlan:
    """Construct the share transformation for an erased set B.

    Requires B to be tolerable (f(B) = 0) with a qualified complement
    (f(P-B) = 1), i.e. B is in the intersection of the structure and
    its dual.
    """
    a_mask = complement(b_mask, msp.n)
    v = kernel_witness(rows_of(msp, b_mask), msp.eps)
    if v is None:
        raise ValueError(
            f"set {{{format_players(b_mask)}}} is qualified, not in the adversary structure"
        )
    m_a = rows_of(msp, a_mask)
    u1 = solve_left(m_a, msp.eps)
    if u1 is None:
        raise ValueError(
            f"complement {{{format_players(a_mask)}}} cannot reconstruct; "
            "erased set is not in the dual structure"
        )
    w = m_a.matvec(v)
    basis = kernel_basis(Matrix(msp.field, (w,), len(w)))
    u = Matrix.from_rows(msp.field, [u1] + [list(r) for r in basis.data], len(w))
    return ReconstructionPlan(msp, msp.row_indices(a_mask), u)


@dataclass(frozen=True)
class ClassicalVerifyReport:
    """Outcome of the exhaustive dealing sweep: its first counterexample, if any."""

    deals: int
    failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None

    def __str__(self) -> str:
        status = "pass" if self.passed else "fail"
        line = f"classical verification: {status} ({self.deals} deals)"
        return line if self.passed else f"{line}\n  counterexample: {self.failure}"


def verify_classical(
    msp: MSP, structure: AdversaryStructure | None = None
) -> ClassicalVerifyReport:
    """Deal every (secret, randomness) vector and check the scheme.

    (i) every qualified set of the structure reconstructs the dealt
    secret; (ii) for every tolerable set B, the multiset of B-share
    tuples over the randomness is identical for all secrets. The
    structure defaults to the MSP's own; passing a different one over
    the same players turns this into a check that the MSP actually
    tolerates it. The dealt table (and its guard) comes before any solve.
    """
    if structure is not None and structure.n != msp.n:
        raise ValueError(f"structure over {structure.n} players for an MSP of {msp.n} players")
    table = msp._label_table  # entry (s, r) is the deal M (s, a) of secret s
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

    first: tuple[int, int, int] | None = None  # (deal, set, reconstructed value)
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
        rows = msp.row_indices(b)
        # one int64 key per deal for B's share tuple; each secret's sorted keys are its multiset
        keys = _row_keys(table[:, :, rows].reshape(deals, -1), range(len(rows)), (p,) * len(rows))
        keys = np.sort(keys.reshape(p, block), axis=1)
        for s in range(1, p):
            if not np.array_equal(keys[s], keys[0]):
                return ClassicalVerifyReport(
                    deals, f"B={{{format_players(b)}}} share distribution differs between secrets 0 and {s}"
                )
    return ClassicalVerifyReport(deals)


# ---------------------------------------------------------------------------
# share files


def format_share_file(msp: MSP, entries: Sequence[int], comment: str | None = None) -> str:
    """Serialize the d dealt entries: ``field <p>`` header then
    ``share <player> <row> <value>`` lines; rows are 1-based in the file."""
    if len(entries) != msp.d:
        raise ValueError("share vector length does not match the MSP")
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"field {msp.field.p}")
    for i, value in enumerate(entries):
        lines.append(f"share {msp.psi[i]} {i + 1} {value}")
    return "\n".join(lines) + "\n"


def parse_share_file(text: str) -> tuple[int, dict[int, tuple[int, int]]]:
    """Parse to (field modulus, {0-based row: (player, value)})."""
    p: int | None = None
    shares: dict[int, tuple[int, int]] = {}
    for lineno, fields in _read_lines(text):
        if fields[0] == "field":
            if p is not None:
                raise FormatError(f"line {lineno}: duplicate field line")
            (p,) = _read_ints(fields[1:], lineno, "field line", 1, decimal=True)
        elif fields[0] == "share":
            player, row, value = _read_ints(fields[1:], lineno, "share line", 3)
            if row < 1:
                raise FormatError(f"line {lineno}: rows are 1-based")
            if row - 1 in shares:
                raise FormatError(f"line {lineno}: duplicate row {row}")
            shares[row - 1] = (player, value)
        else:
            raise FormatError(f"line {lineno}: unknown directive {fields[0]!r}")
    if p is None:
        raise FormatError("missing field header")
    return p, shares
