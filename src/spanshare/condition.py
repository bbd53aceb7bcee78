"""General (possibly nonlinear) classical schemes and their quantum lifting.

A scheme is an exact rational probability table P(Y = y | S = s) over
finite share spaces, held as arrays: one row per supported (s, y) with
integer weights over one denominator, and every check groups the rows
by integer keys of the shares it reads. For an adversary set U with qualified complement
Q, the direct quantum lifting (amplitudes sqrt of probabilities)
corrects erasures on U exactly when, for every pair of U-share words,
the sum over reconstructing Q-words of the square-root products is
independent of the secret. ``eq1_check`` evaluates that criterion in
exact arithmetic (sums of rationals times square roots of integers
have canonical forms, so equality is decidable);
``lift_report`` is the independent brute-force oracle that builds
the lifted states and compares the reduced density matrices.

``scheme_from_msp`` and ``homomorphic_scheme`` both tally the array of
``msp``'s one linear dealer into a table.

Not every classically secure scheme passes: ``search_counterexample``
finds, by deterministic enumeration, a two-player table that is
perfectly correct and secret yet fails the criterion, and the oracle
confirms the leak.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import InitVar, dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .msp import ENUMERATION_GUARD, MSP, _linear_deals, _read_only, _row_keys, msp_structure
from . import quantum
from .quantum import SECRECY_TOL, QuantumState, partial_trace, probe_family
from .structures import AdversaryStructure, FormatError, complement, format_players, full_mask
from .structures import _check_player_count, _read_header, _read_ints, _read_lines


class PreconditionError(ValueError):
    """A conversion check was asked about an invalid split."""


SPLIT_PAIR_GUARD = 2**18
SEARCH_BUDGET = 10**5


def _groups(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each distinct key, ascending: its first row and the exact sum
    of its rows' weights."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate(([len(keys) > 0], ordered[1:] != ordered[:-1])))
    return order[starts], np.add.reduceat(weights[order], starts)


class _DerivedOnRead(cached_property):
    """A cached property that reads None on its class, so that a dataclass
    takes None as the default of the init-only field it is assigned to; a
    value given at construction is stored on the instance and read first."""

    def __get__(self, instance, owner=None):
        return None if instance is None else super().__get__(instance, owner)


@dataclass(frozen=True, eq=False)
class ClassicalScheme:
    """Exact conditional probability table of an n-player scheme.

    Secrets are 0..secret_count-1; player i's share is an int below
    share_sizes[i-1]. Row r deals secret ``secrets[r]`` with probability
    ``numerators[r] / denominator`` (int64 numerators when no sum of them
    passes int64, else Python ints). ``shares`` gives each player's
    column of shares; it is kept as ``codes`` (R x n int64), each
    share's rank among its player's distinct values ``share_values[i]``
    (ascending Python ints, exact past int64). Construction merges the
    rows of one (s, y) in first-row order, drops zero rows, checks that
    each secret's probabilities sum to exactly 1 and makes the arrays
    read-only. ``structure`` is the adversary structure the scheme
    claims to tolerate; when not given it is derived on first read as the
    family of all subsets whose share marginal is secret-independent (the
    maximal tolerable structure), but a table too large for that is refused
    at construction. One verdict per split (None or its precondition
    message) is cached on the table, keyed by U.
    """

    n: int
    secret_count: int
    share_sizes: tuple[int, ...]
    secrets: np.ndarray
    shares: InitVar[Sequence[Sequence[int]]]
    numerators: np.ndarray
    denominator: int
    structure: InitVar[AdversaryStructure | None] = _DerivedOnRead(lambda sch: _derive_structure(sch))
    codes: np.ndarray = dc_field(init=False)
    share_values: tuple[tuple[int, ...], ...] = dc_field(init=False)

    def __post_init__(self, shares: Sequence[Sequence[int]], structure: AdversaryStructure | None) -> None:
        if self.n < 1 or len(self.share_sizes) != self.n:
            raise ValueError("share_sizes must list one space per player")
        _check_player_count(self.n)  # before the enumeration guard's player sets
        if structure is not None and structure.n != self.n:
            raise ValueError(
                f"structure over {structure.n} players for a scheme of {self.n} players"
            )
        if self.secret_count < 1:
            raise ValueError("need at least one secret")
        # integers past int64 become object arrays of Python ints
        secrets, nums = np.asarray(self.secrets), np.asarray(self.numerators)
        columns = [np.asarray(col) for col in shares]
        if len(columns) != self.n or secrets.ndim != 1 or self.denominator < 1:
            raise ValueError("need one share column per player, 1-D secrets and a positive denominator")
        if any(a.shape != secrets.shape for a in [nums, *columns]):
            raise ValueError("need one numerator and one share per player in every row")
        ranked = [np.unique(col, return_inverse=True) for col in columns]
        values = tuple(tuple(v.tolist()) for v, _ in ranked)
        ranks = [len(v) for v in values]
        codes = np.array([inverse for _, inverse in ranked], dtype=np.int64).reshape(self.n, -1).T
        # merge the rows of one (s, y) in first-row order, summing exactly
        keys = _row_keys(np.column_stack([np.unique(secrets, return_inverse=True)[1], codes]),
                         range(self.n + 1), [len(secrets)] + ranks)
        first, nums = _groups(keys, nums.astype(object))
        secrets, codes, nums = (a[first.argsort()] for a in (secrets[first], codes[first], nums))
        bad_share = np.zeros(len(secrets), dtype=bool)
        for v, size, col in zip(values, self.share_sizes, codes.T):
            bad_share |= np.array([not 0 <= x < size for x in v], dtype=bool)[col]
        bad = [(secrets < 0) | (secrets >= self.secret_count), bad_share, nums < 0]
        bad_rows = np.flatnonzero(bad[0] | bad[1] | bad[2])
        if len(bad_rows):  # the first bad row, checked for its secret, then its shares, then its sign
            r = int(bad_rows[0])
            word = tuple(v[c] for v, c in zip(values, codes[r].tolist()))
            errors = [f"secret {secrets[r]} out of range", f"share word {word} out of range",
                      "negative probability"]
            raise ValueError(next(error for error, flags in zip(errors, bad) if flags[r]))
        keep = nums != 0
        secrets, codes, nums = secrets[keep], codes[keep], nums[keep]
        first, totals = _groups(secrets, nums)
        totals = dict(zip(secrets[first].tolist(), totals.tolist()))
        # with k secrets present, one of the first k + 1 secrets is missing or wrong
        for s in range(min(self.secret_count, len(totals) + 1)):
            if (total := Fraction(totals.get(s, 0), self.denominator)) != 1:
                raise ValueError(f"probabilities for secret {s} sum to {total}, not 1")
        # no numerator passes the denominator, so no sum passes rows * denominator
        nums = nums.astype(np.int64 if len(nums) * self.denominator < 2**63 else object)
        labels = _read_only(np.column_stack([secrets.astype(np.int64), codes]))
        nums = _read_only(nums)
        dims = [self.secret_count] + ranks
        names = ("_labels", "secrets", "codes", "numerators", "share_values", "_dims", "_verdicts")
        for name, value in zip(names, (labels, labels[:, 0], labels[:, 1:], nums, values, dims, {})):
            object.__setattr__(self, name, value)
        if structure is not None:
            object.__setattr__(self, "structure", structure)
        elif len(nums) << self.n > ENUMERATION_GUARD:  # the derivation may test every player set
            raise ValueError(
                f"{len(nums)} rows times {1 << self.n} player sets exceed "
                f"the enumeration guard ({ENUMERATION_GUARD})"
            )

    @classmethod
    def from_table(
        cls, n: int, secret_count: int, share_sizes: tuple[int, ...], table: Mapping | Iterable,
        structure: AdversaryStructure | None = None,
    ) -> "ClassicalScheme":
        """The scheme of a dict from (s, y) to P(Y = y | S = s), or of its
        items, where a repeated (s, y) adds up; exact over the least
        common denominator of the probabilities."""
        items = list(table.items() if isinstance(table, Mapping) else table)
        for (_, y), _ in items:
            if len(y) != n:
                raise ValueError(f"share word {y} out of range")
        weights = [Fraction(pr) for _, pr in items]
        den = math.lcm(*(w.denominator for w in weights))
        shares = [[y[i] for (_, y), _ in items] for i in range(n)]
        numerators = [w.numerator * (den // w.denominator) for w in weights]
        secrets = [s for (s, _), _ in items]
        return cls(n, secret_count, share_sizes, secrets, shares, numerators, den, structure)

    @cached_property
    def table(self) -> Mapping[tuple[int, tuple[int, ...]], Fraction]:
        """Read-only dict from (s, y) to P(Y = y | S = s) in row order,
        built on first read."""
        shares = [[v[c] for c in col] for v, col in zip(self.share_values, self.codes.T.tolist())]
        probs = [Fraction(w, self.denominator) for w in self.numerators.tolist()]
        return MappingProxyType(dict(zip(zip(self.secrets.tolist(), zip(*shares)), probs)))


def _keys(sch: ClassicalScheme, mask: int, secret: bool = False) -> np.ndarray:
    """One int64 per row, equal exactly when the rows agree on the shares
    of the players in mask (and on the secret). Keys ascend as the rows
    do, by secret first and then by share values."""
    cols = [0] * secret + [i + 1 for i in range(sch.n) if mask >> i & 1]
    return _row_keys(sch._labels, cols, sch._dims)


def _same_marginals(sch: ClassicalScheme, u: np.ndarray, su: np.ndarray) -> bool:
    """True iff every secret has the same exact distribution of the keys u,
    given them and the (secret, u) keys su of the rows."""
    first, mass = _groups(su, sch.numerators)
    # groups ascend by secret, then by U-word: every secret needs the same list
    counts = np.bincount(sch.secrets[first], minlength=sch.secret_count)
    if (counts != counts[0]).any():
        return False
    words = u[first].reshape(sch.secret_count, -1)
    mass = mass.reshape(sch.secret_count, -1)
    return bool((words == words[0]).all() and (mass == mass[0]).all())


def check_secrecy(sch: ClassicalScheme, u_mask: int) -> bool:
    """True iff the U-share marginal is the same exact distribution
    for every secret."""
    return _same_marginals(sch, _keys(sch, u_mask), _keys(sch, u_mask, secret=True))


def _distinct(keys: np.ndarray) -> int:
    """How many distinct keys there are, by one sort and a count of changes."""
    keys = np.sort(keys)
    return int(np.count_nonzero(keys[1:] != keys[:-1])) + (len(keys) > 0)


def check_correctness(sch: ClassicalScheme, q_mask: int) -> bool:
    """True iff every supported Q-share word determines the secret."""
    return _distinct(_keys(sch, q_mask)) == _distinct(_keys(sch, q_mask, secret=True))


def _derive_structure(sch: ClassicalScheme) -> AdversaryStructure:
    if sch.secret_count == 1:  # every marginal is the one secret's
        return AdversaryStructure(sch.n, (full_mask(sch.n),))
    return AdversaryStructure.from_predicate(sch.n, lambda b: check_secrecy(sch, b))


def _tally(share_sizes: tuple[int, ...], columns,
           structure: AdversaryStructure | None = None) -> ClassicalScheme:
    """The table of a linear dealer: columns[j][s, r] is player j's share
    of secret s under randomness r, and every r has equal weight."""
    secret_count, block = np.shape(columns[0])
    secrets = np.arange(secret_count).repeat(block)
    columns = [np.ravel(col) for col in columns]
    return ClassicalScheme(len(share_sizes), secret_count, share_sizes, secrets, columns,
                           np.ones_like(secrets), block, structure)


def scheme_from_msp(msp: MSP) -> ClassicalScheme:
    """Marginalize an MSP scheme over uniform randomness into a table.

    Player i's share (the tuple of their row values) is packed into a
    single label by mixed radix, so share space i has size p**rows_i.
    """
    table = msp._label_table
    p = msp.field.p
    per_player = [msp.row_indices(1 << i) for i in range(msp.n)]
    sizes = tuple(p ** len(rows) for rows in per_player)
    shares = []
    for rows in per_player:
        # an object radix packs in Python ints: many rows pass 2**63
        radix = np.array([p**j for j in reversed(range(len(rows)))], dtype=object)
        shares.append((table[:, :, list(rows)] @ radix).tolist())
    return _tally(sizes, shares, msp_structure(msp))


# ---------------------------------------------------------------------------
# the exact square-root criterion


def _square_classes(numbers: Iterable[int]) -> dict[int, tuple[int, int]]:
    """{n: (a, k)} with n = a*a*k for each positive n, k a product of
    distinct elements of one base of pairwise coprime non-squares, so that
    distinct k lie in distinct square classes. The base comes by gcd
    refinement, each element replaced by its root while a perfect square
    (math.isqrt): nothing is factored."""
    numbers, base = set(numbers), set()
    pending = numbers - {1}
    while pending:
        x = pending.pop()
        b = next((b for b in base if math.gcd(x, b) > 1), None)
        if b is None:
            while math.isqrt(x) ** 2 == x:  # a root is coprime wherever x is
                x = math.isqrt(x)
            base.add(x)
        else:
            g = math.gcd(x, b)
            base.remove(b)
            pending |= {g, b // g, x // g} - {1}
    classes = {}
    for n in numbers:
        rest, k = n, 1
        for b in base:
            while rest % (b * b) == 0:
                rest //= b * b
            if rest % b == 0:
                rest //= b
                k *= b
        classes[n] = (math.isqrt(n // k), k)
    return classes


def _decide_split(sch: ClassicalScheme, u_mask: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Raise the split's ``PreconditionError`` (Q reconstructs, U learns
    nothing, U lies in the structure and its dual), then, on every call, the
    split pair guard: eq1 makes one Gram term per pair of rows sharing a
    Q-word, and the oracle's views hold one entry per such pair.

    The first call for U decides the verdict from the Q, (secret, Q), U and
    (secret, U) keys, caches it on the table and returns the (secret, Q)
    and U keys; a later call reads the verdict and returns None.
    """
    q_mask = complement(u_mask, sch.n)
    q = None
    if u_mask not in sch._verdicts:
        q, sq, u, su = (_keys(sch, mask, secret) for mask in (q_mask, u_mask) for secret in (False, True))
        structure = vars(sch).get("structure")  # given, or derived and read
        verdict = None
        if _distinct(q) != _distinct(sq):
            verdict = f"scheme is not correct: Q={{{format_players(q_mask)}}} cannot reconstruct"
        elif not _same_marginals(sch, u, su):
            verdict = f"scheme is not secret for U={{{format_players(u_mask)}}}"
        # a derived structure by its definition: U is in it, being secret, and in its
        # dual when Q is not; Q's words never mix secrets, so it is not unless S = 1
        elif not (sch.secret_count > 1 if structure is None
                  else structure.is_member(u_mask) and structure.dual().is_member(u_mask)):
            verdict = (f"U={{{format_players(u_mask)}}} is not in the intersection of the "
                       "structure and its dual")
        sch._verdicts[u_mask] = verdict
    if (message := sch._verdicts[u_mask]) is not None:
        raise PreconditionError(message)
    rows = len(sch.secrets)
    if rows * (rows - 1) // 2 > SPLIT_PAIR_GUARD:  # fewer rows make fewer pairs: no count needed
        keys = np.sort(_keys(sch, q_mask) if q is None else q)
        counts = np.diff(np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1], [True]))))
        pairs = int((counts * (counts - 1)).sum()) // 2
        if pairs > SPLIT_PAIR_GUARD:
            raise ValueError(f"{pairs} pairs of rows share a Q-word, "
                             f"past the split pair guard ({SPLIT_PAIR_GUARD})")
    return None if q is None else (sq, u)


def eq1_check(sch: ClassicalScheme, u_mask: int) -> bool:
    """The exact square-root criterion for erasure correction on U.

    Secret s has the Gram table G_s[yu1, yu2], the sum over Q-words yq
    reconstructing to s of sqrt(P(yu1, yq | s)) * sqrt(P(yu2, yq | s));
    the criterion holds iff every secret has the same table. Each entry
    is kept in canonical form, a map {k: rational c} for the sum of
    c * sqrt(k) with no two k in one square class: such roots are linearly
    independent over the rationals, so two sums are equal iff their maps
    are. Two U-words meet in a term only inside one Q-word's column, so
    all tables are summed in one pass over the rows sorted by secret,
    Q-word and U-word, and a row alone in its column adds no term: only
    columns of two or more rows are walked (none on a linear table, where
    Q determines U's shares). Each weight is written once as n = a*a*k
    (``_square_classes``, which factors nothing); a term is then
    sqrt(n1 n2) = a1 a2 g sqrt((k1/g)(k2/g)) with g = gcd(k1, k2), whose k
    is of the same kind. Every term is positive, so no form cancels to
    empty and a pair that shares no Q-word, the empty (zero) sum, is simply
    absent. The diagonal is left out: G_s[yu, yu] = P(yu | s) is the
    U-marginal, which the secrecy precondition already found equal for
    every secret. The base is refined from the weights of the walked rows
    only; every form of one call is written over that one base.
    """
    keys = _decide_split(sch, u_mask)
    sq, u = keys or (_keys(sch, complement(u_mask, sch.n), secret=True), _keys(sch, u_mask))
    order = np.lexsort((u, sq))
    new_column = np.diff(sq[order]) != 0
    alone = np.ones(len(order), dtype=bool)
    alone[1:] &= new_column
    alone[:-1] &= new_column
    order = order[~alone]
    columns = [a[order].tolist() for a in (sq, sch.secrets, u, sch.numerators)]
    # every term sqrt(n1 n2) / denominator shares the denominator: forms keep integer coefficients
    grams: list[dict[tuple[int, int], dict[int, int]]] = [{} for _ in range(sch.secret_count)]
    roots = _square_classes(columns[3])
    rows = zip(*columns)
    for _, column in itertools.groupby(rows, key=lambda row: row[0]):
        column = list(column)
        for i, (_, s, u1, n1) in enumerate(column):
            a1, k1 = roots[n1]
            for _, _, u2, n2 in column[i + 1 :]:
                a2, k2 = roots[n2]
                g = math.gcd(k1, k2)
                k = k1 // g * (k2 // g)
                form = grams[s].setdefault((u1, u2), {})
                form[k] = form.get(k, 0) + a1 * a2 * g
    return all(gram == grams[0] for gram in grams[1:])


# ---------------------------------------------------------------------------
# the brute-force density-matrix oracle


@dataclass
class LiftReport:
    """Outcome of the lifted-state density-matrix comparison."""

    passed: bool
    max_distance: float
    witness: tuple[str, str] | None


def lift_report(sch: ClassicalScheme, u_mask: int, seed: int = 0) -> LiftReport:
    """Trace the lift of the maximally entangled input once, on the secret
    register R and U, and compare every pair of probes' exact views on U.

    This is the ground truth that validates eq1_check; it shares only the
    table and the split's one cached verdict with it. The probes are
    ``probe_family(secret_count, seed, n_random=10)``, which always holds
    the uniform superposition: reduced states that agree on basis secrets
    alone do not establish erasure correction. The lifted state has the
    amplitude sqrt(P(y | s) / S) on each row (s, y), over R and the table's
    codes (share ranks, so a view spans the shares dealt). Its one trace on
    R + U is block-diagonal because Q is correct: block s is V_s / S, V_s the
    U-view of basis probe s, so a probe alpha's view is the sum of
    |alpha_s|**2 V_s. Every trace distance is exact: half the abs-sum of a
    pair's difference when every block is diagonal (Q determines U's shares,
    as on linear tables), else of its eigenvalues from ``eigvalsh``.
    """
    _decide_split(sch, u_mask)
    s_count = sch.secret_count
    family = probe_family(s_count, seed, n_random=10)
    roots = np.array([(w / (sch.denominator * s_count)) ** 0.5 for w in sch.numerators.tolist()])
    keep = [0] + [i + 1 for i in range(sch.n) if u_mask >> i & 1]
    trace = partial_trace(QuantumState(tuple(sch._dims), sch._labels, roots), keep)
    u_dim = trace.dim // s_count
    rows, cols = np.divmod(trace.index, trace.dim)
    # block s of the trace, times S, is V_s: its diagonal when every block is
    # diagonal, else its dense matrix; real, as the amplitudes are
    diagonal = (rows == cols).all()
    if diagonal:
        views = np.zeros((s_count, u_dim))
        views[rows // u_dim, rows % u_dim] = trace.values.real * s_count
    else:
        views = np.zeros((s_count, u_dim, u_dim))
        views[rows // u_dim, rows % u_dim, cols % u_dim] = trace.values.real * s_count
    weights = np.abs(np.array([alpha for _, alpha in family])) ** 2
    # every pair a < b of probes, a-major, at most max(a pair's entries,
    # _PAIR_CHUNK) entries at a time
    first, second = quantum._probe_pairs(len(family))
    step = max(quantum._PAIR_CHUNK // math.prod(views.shape[1:]), 1)
    dists = [np.empty(0)]
    for lo in range(0, len(first), step):
        diffs = np.tensordot(weights[first[lo : lo + step]] - weights[second[lo : lo + step]], views, 1)
        dists.append(0.5 * np.abs(diffs if diagonal else np.linalg.eigvalsh(diffs)).sum(axis=1))
    dists = np.concatenate(dists)
    # the first pair in that order at the largest distance, if it is above 0
    worst, witness = 0.0, None
    if len(dists) and dists.max() > 0:
        k = int(dists.argmax())
        worst, witness = float(dists[k]), (family[first[k]][0], family[second[k]][0])
    return LiftReport(worst <= SECRECY_TOL, worst, witness)


# ---------------------------------------------------------------------------
# group-homomorphic schemes


@dataclass(frozen=True)
class HomomorphicSpec:
    """Shares h(s, v) for an integer matrix h acting on G x G^m.

    G is the product of cyclic groups Z_moduli[0] x ... ; the matrix
    has one row per share and m+1 columns (secret first), applied
    componentwise mod each modulus.
    """

    moduli: tuple[int, ...]
    m: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.moduli or any(md < 2 for md in self.moduli):
            raise ValueError("group moduli must all be at least 2")
        if self.m < 0:
            raise ValueError("negative randomness arity")
        if any(len(row) != self.m + 1 for row in self.matrix):
            raise ValueError("matrix rows must have m+1 entries")
        if not self.matrix:
            raise ValueError("need at least one share")

    @property
    def group_order(self) -> int:
        return math.prod(self.moduli)


def homomorphic_scheme(spec: HomomorphicSpec) -> ClassicalScheme:
    """Exact table of a homomorphic scheme by enumerating the randomness.

    Raises if h is not injective (a nontrivial kernel would make two
    different (s, v) collide and reconstruction ill-defined).
    """
    deals = _linear_deals(spec.matrix, spec.moduli)
    kernel = int(np.count_nonzero(~deals.any(axis=2)))
    if kernel != 1:
        raise ValueError(f"homomorphism is not injective (kernel size {kernel})")
    return _tally((spec.group_order,) * len(spec.matrix), np.moveaxis(deals, 2, 0))


# ---------------------------------------------------------------------------
# scheme generation and the counterexample search


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer tuples of the given length (at least one)
    summing to total, lexicographically ascending: stars and bars, with
    the cut points ascending."""
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(hi - lo for lo, hi in zip((0,) + cuts, cuts + (total,)))


def _surjections(size: int, onto: int) -> Iterator[tuple[int, ...]]:
    for g in itertools.product(range(onto), repeat=size):
        if len(set(g)) == onto:
            yield g


def _scheme_from_numerators(
    den: int, size_u: int, size_q: int, rows: list[tuple[int, int, int, int]], s_count: int
) -> ClassicalScheme:
    secrets, us, qs, nums = zip(*rows)
    return ClassicalScheme(2, s_count, (size_u, size_q), secrets, [us, qs], nums, den)


def _function_given_q(rows: list[tuple[int, int, int, int]]) -> bool:
    """True when each Q-word appears with at most one U-word."""
    support = [yq for _, _, yq, num in rows if num]
    return len(set(support)) == len(support)


def _enumerate_tables(
    den: int, s_count: int, size_u: int, size_q: int, g: tuple[int, ...],
    compositions: Callable[[int, int], Iterable[tuple[int, ...]]] = _compositions,
) -> Iterator[list[tuple[int, int, int, int]]]:
    """Valid-by-construction tables, lexicographically, as rows
    (s, y_u, y_q, numerator over den).

    The secret-0 slice ranges over the compositions of den on its
    cells; every other slice is constrained, row by row in y_u, to
    reproduce slice 0's exact U-marginal, which enforces secrecy.
    Correctness holds because slice s only populates g^-1(s).
    ``compositions(total, parts)`` is asked once for slice 0 and then
    once per row in (s, y_u) order; the default yields all of them.
    """
    preimages = [tuple(yq for yq in range(size_q) if g[yq] == s) for s in range(s_count)]
    cells = [[(yu, yq) for yu in range(size_u) for yq in preimage] for preimage in preimages]
    width = len(preimages[0])
    for comp0 in compositions(den, len(cells[0])):
        marginal = [sum(comp0[yu * width : (yu + 1) * width]) for yu in range(size_u)]
        choice_space = [
            list(compositions(marginal[yu], len(preimages[s])))
            for s in range(1, s_count)
            for yu in range(size_u)
        ]
        for combo in itertools.product(*choice_space):
            nums = itertools.chain(comp0, *combo)
            yield [(s, yu, yq, next(nums)) for s in range(s_count) for yu, yq in cells[s]]


def _table_candidates(
    max_secrets: int, max_share_size: int, max_denominator: int, functional: bool
) -> Iterator[ClassicalScheme]:
    """Every valid table in search order; with ``functional`` only
    those where Y_1 is determined by Y_2."""
    for den in range(2, max_denominator + 1):
        for s_count in range(2, max_secrets + 1):
            for size_u in range(2, max_share_size + 1):
                for size_q in range(s_count, max_share_size + 1):
                    for g in _surjections(size_q, s_count):
                        for rows in _enumerate_tables(den, s_count, size_u, size_q, g):
                            if not functional or _function_given_q(rows):
                                yield _scheme_from_numerators(den, size_u, size_q, rows, s_count)


def _table_count(max_secrets: int, max_share_size: int, max_denominator: int, cap: int) -> int:
    """How many tables ``_table_candidates`` builds before its function
    filter, or a number past cap once the running count passes it.

    A map g whose preimages have sizes w yields, for each U-marginal
    (m_yu) composing den, the product over y_u and s of the compositions
    of m_yu into w_s parts: the coefficient of x**den in F(x)**size_u,
    where F has the coefficients F[m] = prod_s C(m + w_s - 1, w_s - 1).
    The surjections with preimage sizes w number size_q! / prod_s w_s!.
    Coefficients are clipped at cap + 1, so int64 convolutions suffice.
    """
    top_secrets = min(max_secrets, max_share_size)  # a surjection needs size_q >= s_count
    if top_secrets < 2:
        return 0
    total = 0
    for den in range(2, max_denominator + 1):
        for s_count in range(2, top_secrets + 1):
            for size_q in range(s_count, max_share_size + 1):
                for cuts in itertools.combinations(range(1, size_q), s_count - 1):
                    w = [hi - lo for lo, hi in zip((0,) + cuts, cuts + (size_q,))]
                    maps = math.factorial(size_q) // math.prod(map(math.factorial, w))
                    f = np.array([min(math.prod(math.comb(m + k - 1, k - 1) for k in w), cap + 1)
                                  for m in range(den + 1)])
                    power = f
                    for _ in range(2, max_share_size + 1):  # size_u
                        power = np.minimum(np.convolve(power, f)[: den + 1], cap + 1)
                        total += maps * int(power[den])
                        if total > cap:
                            return total
    return total


def _homomorphic_candidates(max_modulus: int) -> Iterator[ClassicalScheme]:
    """Every injective two-share homomorphic scheme over Z_m, m up to
    max_modulus. Only randomness arity 1 can be injective: a spec of arity
    a has m**(a + 1) inputs and m**2 share pairs."""
    for modulus in range(2, max_modulus + 1):
        entry_space = itertools.product(range(modulus), repeat=2)
        for rows in itertools.product(list(entry_space), repeat=2):
            try:
                sch = homomorphic_scheme(HomomorphicSpec((modulus,), 1, rows))
            except ValueError:
                continue  # not injective
            yield sch


def search_counterexample(
    max_secrets: int = 2, max_share_size: int = 3, max_denominator: int = 8, family: str = "all"
) -> ClassicalScheme | None:
    """First (lexicographically) valid 2-player scheme failing eq1_check.

    The split is U = {1}, Q = {2}: player 2 reconstructs alone, player
    1 learns nothing classically. Schemes are enumerated in the order
    (denominator, secret count, |Y_1|, |Y_2|, reconstruction map,
    numerator table); the first table that is classically perfect but
    fails the square-root criterion is confirmed against the oracle
    and returned. family='function' restricts to tables where Y_1 is
    determined by Y_2; family='all' is unrestricted. Returns None when
    the bounds are exhausted.

    Single-valued U-spaces are skipped: with |Y_1| = 1 the criterion
    reduces to total probability and can never fail.

    family='homomorphic' searches the injective two-share homomorphic
    schemes over Z_m (m up to max_share_size) instead of raw tables;
    only randomness arity 1 can be injective, so only those specs are
    dealt. Those schemes provably satisfy the criterion, so it exhausts
    its bounds and returns None.

    The candidates (tables, or homomorphic specs) are counted from the
    bounds before any is built: past SEARCH_BUDGET the search is refused,
    and with none it returns None at once.
    """
    if family not in ("all", "function", "homomorphic"):
        raise ValueError(f"unknown search family {family!r}")
    if family == "homomorphic":  # m**4 specs per modulus m: the sum of m**4 over 2..max_share_size
        m = max_share_size
        count = max(0, m * (m + 1) * (2 * m + 1) * (3 * m * m + 3 * m - 1) // 30 - 1)
    else:
        count = _table_count(max_secrets, max_share_size, max_denominator, SEARCH_BUDGET)
    if count > SEARCH_BUDGET:
        raise ValueError(f"the bounds admit more than {SEARCH_BUDGET} candidates, past the search budget")
    if not count:  # the loops would find nothing, however many denominators they run through
        return None
    u_mask = 0b01
    if family == "homomorphic":
        candidates = _homomorphic_candidates(max_share_size)
        # a spec's split may fail the eq1 preconditions; the tables meet them by construction
        skip: tuple[type[Exception], ...] = (PreconditionError,)
    else:
        functional = family == "function"
        candidates = _table_candidates(max_secrets, max_share_size, max_denominator, functional)
        skip = ()
    for sch in candidates:
        try:
            if eq1_check(sch, u_mask):
                continue
        except skip:
            continue
        if lift_report(sch, u_mask, seed=0).passed:
            raise RuntimeError(
                "eq1_check rejected a scheme the oracle accepts; criterion and oracle disagree"
            )
        return sch
    return None


def generate_valid_schemes(
    count: int, seed: int, max_secrets: int = 3, max_share_size: int = 3, max_denominator: int = 8
) -> list[ClassicalScheme]:
    """Seeded random 2-player schemes, perfect for the U={1} split.

    Drawn through the search's own table construction with one seeded
    composition per slice row, so correctness and secrecy hold by
    construction; the mix contains both schemes that pass the
    square-root criterion and schemes that fail it.
    """
    rng = random.Random(seed)
    out: list[ClassicalScheme] = []

    def composition(total: int, parts: int) -> list[tuple[int, ...]]:
        cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
        return [tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [total]))]

    while len(out) < count:
        s_count = rng.randint(2, max_secrets)
        size_u = rng.randint(1, max_share_size)
        size_q = rng.randint(s_count, max_share_size)
        assignment = list(range(s_count)) + [rng.randrange(s_count) for _ in range(size_q - s_count)]
        rng.shuffle(assignment)
        g = tuple(assignment)
        den = rng.randint(2, max_denominator)
        rows = next(_enumerate_tables(den, s_count, size_u, size_q, g, composition))
        out.append(_scheme_from_numerators(den, size_u, size_q, rows, s_count))
    return out


# ---------------------------------------------------------------------------
# scheme table files


def format_scheme(sch: ClassicalScheme) -> str:
    """Serialize: header, ``space`` lines, sparse ``p`` rows with exact
    rationals; missing rows mean probability zero."""
    lines = [f"scheme n={sch.n} secrets={sch.secret_count}"]
    for i, sz in enumerate(sch.share_sizes, start=1):
        lines.append(f"space {i} {sz}")
    for (s, y), pr in sorted(sch.table.items()):
        y_text = " ".join(str(v) for v in y)
        lines.append(f"p {s} {y_text} {pr.numerator}/{pr.denominator}")
    return "\n".join(lines) + "\n"


def parse_scheme(text: str) -> ClassicalScheme:
    """Parse a table: the ``scheme n= secrets=`` header line, one
    ``space <player> <size>`` line per player and ``p <secret> <shares>
    <num>[/<den>]`` rows, where a repeated (secret, shares) adds up."""
    lines = _read_lines(text)
    header = _read_header(lines, "scheme", ("n", "secrets"))
    n = header["n"]
    sizes: dict[int, int] = {}
    rows: list[tuple[tuple[int, tuple[int, ...]], Fraction]] = []
    for lineno, fields in lines:
        if fields[0] == "space":
            i, size = _read_ints(fields[1:], lineno, "space line", 2)
            if i in sizes:
                raise FormatError(f"line {lineno}: duplicate space line for player {i}")
            sizes[i] = size
        elif fields[0] == "p":
            s, *y = _read_ints(fields[1:-1], lineno, "secret and shares", n + 1)
            num_den = _read_ints(fields[-1].split("/", 1), lineno, "probability")
            if num_den[1:] == [0]:
                raise FormatError(f"line {lineno}: bad probability: zero denominator")
            rows.append(((s, tuple(y)), Fraction(*num_den)))
        else:
            raise FormatError(f"line {lineno}: unknown directive {fields[0]!r}")
    if len(sizes) != n or sorted(sizes) != list(range(1, n + 1)):
        raise FormatError("need one space line per player")
    try:
        return ClassicalScheme.from_table(n, header["secrets"], tuple(sizes[i] for i in sorted(sizes)), rows)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
