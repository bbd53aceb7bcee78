"""Monotone span programs and their constructions.

An MSP is a field, a d x e matrix with full column rank, and a
labeling of each row by a player. A player set accepts when the
target vector (1, 0, ..., 0) lies in the span of its rows; by the
kernel/image duality this is equivalent to the absence of a kernel
witness. ``msp_structure`` reads the table of every set from
``galois.span_table``, which runs both criteria incrementally, one
player's rows at a time, and cross-checks them on every set; the
structure is derived once per MSP object and cached on it. The table
runs on M or, when that is narrower, on its dual form N = [u | K]
(u^T M = eps, K a left-kernel basis), since f_M(B) = 1 - f_N(complement
of B). N is read off the one elimination of [M^T | eps] that the MSP
caches for its rank check, and is certified in exact int64 (u M = eps,
K M = 0, K of d - e rows and the identity on M's non-pivot rows) before
it is used.

Constructions here: the Shamir/Vandermonde instance, compilation of
monotone threshold formulas by one block-insertion composer (each
child's secret entry times a head row of the gate: (1) for or, unit
vectors then (1, -1, ..., -1) for and, a Vandermonde row for
threshold) on plain (rows, psi) lists, a generic dualizer, the
one-extra-player self-dual extension, and ``_linear_deals``, the one
dealer of every linear scheme: the MSP label table and ``condition``'s
group-homomorphic schemes both read its array of h (s, r), indexed
(secret, randomness, share), and it alone enforces
``ENUMERATION_GUARD`` and ``DEAL_ENTRY_GUARD``. ``_row_keys`` gives the int64 row keys by which
``classical``, ``quantum`` and ``condition`` compare and group rows;
``_certified`` builds a dealt state or a valid-by-construction table
whose ``__post_init__`` reads its builder's certificate instead of checks.
``MSP`` alone checks its player count (1..16) and full column rank; each
constructor builds one, the one it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .galois import Field, Matrix, left_solve_and_kernel, span_table
from .structures import (
    AdversaryStructure,
    And,
    FormatError,
    Formula,
    Or,
    Var,
    _check_player_count,
    _read_header,
    _read_ints,
    _read_lines,
    complement,
    eval_formula,
    max_player,
    players_from_mask,
)


@dataclass(frozen=True)
class MSP:
    """Monotone span program (field, matrix, row labeling) over n players.

    ``psi[i]`` is the 1-based player owning row i. Column 0 is the
    secret coordinate. Construction enforces the player count 1..16,
    before any linear algebra, then full column rank (silently dropping
    dependent columns would move the secret coordinate, and the quantum
    encoding needs the dealt labels M (s, a) to be a bijection of the
    (s, a)).
    """

    field: Field
    matrix: Matrix
    psi: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if self.matrix.cols < 1:
            raise ValueError("an MSP needs at least one column")
        if len(self.psi) != self.matrix.rows:
            raise ValueError("row labeling length does not match the matrix")
        _check_player_count(self.n)
        if any(not 1 <= lbl <= self.n for lbl in self.psi):
            raise ValueError("row label out of range")
        if len(self._elimination[0]) != self.matrix.cols:
            raise ValueError("MSP matrix lacks full column rank")

    @property
    def d(self) -> int:
        return self.matrix.rows

    @property
    def e(self) -> int:
        return self.matrix.cols

    @property
    def eps(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.e - 1)

    @cached_property
    def _elimination(self) -> tuple:
        """``left_solve_and_kernel(M, eps)``, computed once per MSP."""
        return left_solve_and_kernel(self.matrix, self.eps)

    @cached_property
    def _label_table(self) -> np.ndarray:
        """Every dealt share vector: entry (s, r) is M (s, a) for the r-th
        randomness a in itertools.product order (``_linear_deals``)."""
        return _linear_deals(self.matrix.data, (self.field.p,))

    @cached_property
    def _structure(self) -> AdversaryStructure:
        """f^-1(0) from the all-subsets table of M or, when narrower, of
        its dual form N = [u | K], d x (d - e + 1).

        Here u^T M = eps and the rows of K are a basis of the left kernel
        of M, and f_M(B) = 1 - f_N(complement of B) (Fehr 1999; Cramer,
        Damgard and Maurer 2000). N is taken when M has rank e and
        2 (d - e + 1) <= e: each added row costs span_table about width**2
        per mask, and below that its per-row overhead outweighs the
        saving. ``_dual_form`` reads N off the rank check's elimination and
        certifies it before any table is run; on N, span_table
        cross-checks the same two criteria, each one the other's on M.
        """
        matrix = np.array(self.matrix.data, dtype=np.int64).reshape(self.d, self.e)
        narrow = _dual_form(self, matrix) if 2 * (self.d - self.e + 1) <= self.e else None
        if narrow is None:
            tolerable = 1 - span_table(self.field, matrix, self.psi, self.n)
        else:
            # reversing a 2**n table sends every mask to its complement
            tolerable = span_table(self.field, narrow, self.psi, self.n)[::-1]
        return AdversaryStructure.from_table(self.n, tolerable.tobytes())

    def row_indices(self, mask: int) -> tuple[int, ...]:
        """Indices of rows labeled into the given player set, in row order."""
        return tuple(i for i, lbl in enumerate(self.psi) if mask >> (lbl - 1) & 1)


def _dual_form(msp: MSP, matrix: np.ndarray) -> np.ndarray | None:
    """N = [u | K] of ``MSP._structure`` from the MSP's cached elimination
    of [M^T | eps], as a d x (d - e + 1) int64 array, or None when M
    (given also as the int64 array matrix) lacks full column rank.

    The certificate is never skipped: u M = eps and K M = 0 mod p, and
    K has d - e rows and is the identity on the rows of M that are not
    pivots, so K is a basis of the (d - e)-dimensional left kernel.
    """
    p, d, e = msp.field.p, msp.d, msp.e
    pivots, u, kernel = msp._elimination
    if len(pivots) != e:
        return None
    k = np.array(kernel, dtype=np.int64).reshape(-1, d)
    free = sorted(set(range(d)) - set(pivots))
    if (u is None or not np.array_equal(np.array(u, dtype=np.int64) @ matrix % p, msp.eps)
            or len(k) != d - e or (k @ matrix % p).any()
            or not np.array_equal(k[:, free], np.eye(d - e, dtype=np.int64))):
        raise RuntimeError("dual form fails its certificate; the linear algebra layer is broken")
    return np.column_stack([u, k.T])


ENUMERATION_GUARD = 10**7
# _linear_deals holds N deals' inputs and shares in int64 arrays of N (e k + d)
# entries (e inputs of k components, d shares) and peaks at about
# 8 N (e k + 2 d) bytes, at most 16 per entry: 2**24 entries stay under 256 MiB
DEAL_ENTRY_GUARD = 1 << 24
# row-major keys stay exact below this bound; past it they are
# compressed to dense group ids so int64 never overflows
_KEY_LIMIT = 2**40


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


def _linear_deals(h: tuple[tuple[int, ...], ...], moduli: tuple[int, ...]) -> np.ndarray:
    """h (x_0, ..., x_m) for every input over G = Z_moduli[0] x ..., as one
    read-only int64 array indexed (secret, randomness, share).

    Secret x_0 and randomness (x_1, ..., x_m) run in itertools.product
    order, each x_j in G's product order; a share packs its components by
    mixed radix, first modulus most significant. More than
    ENUMERATION_GUARD inputs, or inputs and shares of more than
    DEAL_ENTRY_GUARD entries, are refused before anything is allocated.
    """
    k, arity, order = len(moduli), len(h[0]), math.prod(moduli)
    total = order**arity
    if total > ENUMERATION_GUARD:
        raise ValueError(f"{total} deals exceed the enumeration guard ({ENUMERATION_GUARD})")
    entries = total * (arity * k + len(h))
    if entries > DEAL_ENTRY_GUARD:
        raise ValueError(
            f"{total} deals of {len(h)} shares make {entries} int64 entries, "
            f"past the deal memory guard ({DEAL_ENTRY_GUARD})"
        )
    inputs = np.indices(moduli * arity).reshape(arity * k, -1)
    deals = 0
    for j, md in enumerate(moduli):
        # entries may be any Python ints: reduce before the int64 product
        h_j = np.array([[c % md for c in row] for row in h], dtype=np.int64)
        deals = deals * md + inputs[j::k].T @ h_j.T % md
    return _read_only(deals).reshape(order, -1, len(h))


def _read_only(owner: np.ndarray) -> np.ndarray:
    """A view of an array that owns its memory, made read-only first: no view of it can be made writeable."""
    owner.flags.writeable = False
    return owner.view()


def _certified(cls, name: str, certificate, *fields):
    """cls(*fields), its __post_init__ reading a check's certificate (or None) in attribute name."""
    obj = cls.__new__(cls)
    object.__setattr__(obj, name, certificate)
    obj.__init__(*fields)
    return obj


def rows_of(msp: MSP, mask: int) -> Matrix:
    """The submatrix M_B of rows owned by the player set, order preserved."""
    return msp.matrix.take_rows(msp.row_indices(mask))


def msp_structure(msp: MSP) -> AdversaryStructure:
    """The adversary structure f^-1(0), by exhaustive enumeration.

    ``galois.span_table`` decides every subset in one pass, running the
    span and the kernel criterion incrementally and cross-checking them
    on each subset. The result is cached on the MSP object, so the
    constructions that check themselves and their callers derive it once.
    """
    return msp._structure


def shamir_msp(n: int, k: int, field: Field) -> MSP:
    """The degree-k Shamir scheme as an n x (k+1) Vandermonde MSP.

    Row i is (1, x, x^2, ..., x^k) at x = i, so the evaluation points
    1..n must be distinct and nonzero mod p, i.e. p > n. The identity
    labeling gives the threshold-k adversary structure.
    """
    if not 0 <= k < n:
        raise ValueError(f"degree must satisfy 0 <= k < n, got k={k}, n={n}")
    if field.p <= n:
        raise ValueError(f"field GF({field.p}) too small for {n} evaluation points")
    rows = [[pow(x, j, field.p) for j in range(k + 1)] for x in range(1, n + 1)]
    return MSP(field, Matrix.from_rows(field, rows, k + 1), tuple(range(1, n + 1)), n)


# ---------------------------------------------------------------------------
# composition


def _compose(p: int, heads: list[tuple[int, ...]], parts: list[tuple[list, list]]) -> tuple[list, list]:
    """The (rows, psi) of one gate of k = len(heads[i]) secret columns
    over the parts, each a (rows, psi) pair.

    Part i's secret entry a becomes a * heads[i] mod p on the first k
    columns, and its randomness columns go to fresh columns at the
    running offset, so the parts' randomness stays independent.
    """
    k = len(heads[0])
    cols = k + sum(len(rows[0]) - 1 for rows, _ in parts)
    out_rows, out_psi = [], []
    offset = k
    for head, (rows, psi) in zip(heads, parts):
        for a, *rest in rows:
            row = [a * h % p for h in head] + [0] * (cols - k)
            row[offset : offset + len(rest)] = rest
            out_rows.append(row)
        out_psi += psi
        offset += len(rows[0]) - 1
    return out_rows, out_psi


def _and_heads(arity: int) -> list[tuple[int, ...]]:
    """Split the secret additively: part i < arity-1 shares the fresh
    r_i, the last shares s - r_1 - ... - r_{arity-1}."""
    units = [tuple(int(j == i + 1) for j in range(arity)) for i in range(arity - 1)]
    return units + [(1,) + (-1,) * (arity - 1)]


_VERIFY_LIMIT = 12


def _compile(f: Formula, p: int) -> tuple[list, list]:
    if isinstance(f, Var):
        return [[1]], [f.player]
    parts = [_compile(c, p) for c in f.children]
    arity = len(parts)
    if isinstance(f, Or):
        return _compose(p, [(1,)] * arity, parts)
    if isinstance(f, And):
        return _compose(p, _and_heads(arity), parts)
    if p <= arity:
        raise ValueError(f"field GF({p}) too small for a threshold gate of arity {arity}")
    # one row of an arity x k Vandermonde block per part
    heads = [tuple(pow(x, j, p) for j in range(f.k)) for x in range(1, arity + 1)]
    return _compose(p, heads, parts)


def compile_formula(f: Formula, field: Field, n: int | None = None) -> MSP:
    """Compile a monotone threshold formula into an MSP computing it.

    For n <= 12 the builder verifies its own output against
    eval_formula on every subset before returning it.
    """
    needed = max_player(f)
    if n is None:
        n = needed
    if n < needed:
        raise ValueError(f"formula references player {needed} but n={n}")
    _check_player_count(n)
    rows, psi = _compile(f, field.p)
    out = MSP(field, Matrix.from_rows(field, rows), tuple(psi), n)
    if n <= _VERIFY_LIMIT:
        structure = msp_structure(out)
        for b in range(1 << n):
            if int(not structure.is_member(b)) != eval_formula(f, b):
                raise RuntimeError(f"compiled MSP disagrees with formula on {b:b}")
    return out


def dual_msp(msp: MSP) -> MSP:
    """An MSP computing the dual function f*.

    Generic construction: the minimal qualified sets of the dual
    structure are exactly the complements of the maximal sets of this
    MSP's structure, so compose the or of their ands, complements in
    ascending mask order, and check it once against the dual structure.
    Correct but not size-preserving; a size-optimal dualizer can be
    swapped in here without changing any caller.
    """
    structure = msp_structure(msp)
    p = msp.field.p
    conjuncts = []
    for mq in sorted(complement(m, msp.n) for m in structure.maximal):
        players = players_from_mask(mq)
        conjuncts.append(_compose(p, _and_heads(len(players)), [([[1]], [i]) for i in players]))
    rows, psi = _compose(p, [(1,)] * len(conjuncts), conjuncts)
    out = MSP(msp.field, Matrix.from_rows(msp.field, rows), tuple(psi), msp.n)
    if msp.n <= _VERIFY_LIMIT and msp_structure(out) != structure.dual():
        raise RuntimeError("dual MSP does not compute the dual structure")
    return out


def extend_msp(msp: MSP, dualizer=dual_msp) -> MSP:
    """An MSP for the self-dual extension of this MSP's structure.

    Player n+1 plays the extra role; the program computes
    f or (f* and f_tau) via the or/and compositions. ``extend_selfdual``
    refuses, before the dualizer runs, a structure that is not Q2* (no
    quantum scheme exists at all) or that has 16 players already.

    ``dualizer`` builds the f* component; the default is the generic
    one, and a size-preserving dualizer can be passed in to keep the
    extension within a constant factor of the input.
    """
    expected = msp_structure(msp).extend_selfdual()
    n2, p = msp.n + 1, msp.field.p
    dual = dualizer(msp)
    dual_and_tau = _compose(p, _and_heads(2), [(dual.matrix.data, dual.psi), ([[1]], [n2])])
    rows, psi = _compose(p, [(1,), (1,)], [(msp.matrix.data, msp.psi), dual_and_tau])
    out = MSP(msp.field, Matrix.from_rows(msp.field, rows), tuple(psi), n2)
    if msp_structure(out) != expected:
        raise RuntimeError("extended MSP does not compute the extended structure")
    return out


# ---------------------------------------------------------------------------
# dump format


def dump_msp(msp: MSP) -> str:
    """Serialize: header line, then one ``row <player> <entries>`` per row."""
    lines = [f"msp field={msp.field.p} d={msp.d} e={msp.e} n={msp.n}"]
    for i in range(msp.d):
        entries = " ".join(str(x) for x in msp.matrix.row(i))
        lines.append(f"row {msp.psi[i]} {entries}")
    return "\n".join(lines) + "\n"


def parse_msp(text: str) -> MSP:
    """Parse a dump: the ``msp field= d= e= n=`` header line, then one
    ``row <player> <entries>`` line per matrix row."""
    lines = _read_lines(text)
    header = _read_header(lines, "msp", ("field", "d", "e", "n"))
    rows: list[list[int]] = []
    for lineno, fields in lines:
        if fields[0] != "row":
            raise FormatError(f"line {lineno}: unknown directive {fields[0]!r}")
        rows.append(_read_ints(fields[1:], lineno, "row line", 1 + header["e"]))
    if len(rows) != header["d"]:
        raise FormatError(f"{len(rows)} rows, header says {header['d']}")
    try:
        field = Field(header["field"])
        matrix = Matrix.from_rows(field, [row[1:] for row in rows], header["e"])
        return MSP(field, matrix, tuple(row[0] for row in rows), header["n"])
    except ValueError as exc:
        raise FormatError(str(exc)) from None
