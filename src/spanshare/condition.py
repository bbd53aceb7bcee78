"""General (possibly nonlinear) classical schemes and their quantum lifting.

A scheme is an exact rational probability table P(Y = y | S = s) over
finite share spaces. For an adversary set U with qualified complement
Q, the direct quantum lifting (amplitudes sqrt of probabilities)
corrects erasures on U exactly when, for every pair of U-share words,
the sum over reconstructing Q-words of the square-root products is
independent of the secret. ``eq1_check`` evaluates that criterion in
exact arithmetic (sums of rationals times square roots of squarefree
integers have canonical forms, so equality is decidable);
``lift_and_test`` is the independent brute-force oracle that builds
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
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from .classical import ENUMERATION_GUARD
from .msp import MSP, _linear_deals, msp_structure
from .quantum import SECRECY_TOL, QuantumState, partial_trace, probe_family, trace_distance
from .structures import MAX_PLAYERS, AdversaryStructure, complement, format_players


class SchemeFormatError(ValueError):
    """Raised for malformed scheme table files."""


class PreconditionError(ValueError):
    """A conversion check was asked about an invalid split."""


ORACLE_DIMENSION_GUARD = 10**6


@dataclass(frozen=True)
class ClassicalScheme:
    """Exact conditional probability table of an n-player scheme.

    Secrets are 0..secret_count-1; player i's share is an int below
    share_sizes[i-1]; the sparse table maps (s, y) to a positive
    Fraction and each per-secret slice sums to exactly 1. ``structure``
    is the adversary structure the scheme claims to tolerate; when not
    given it is derived as the family of all subsets whose share
    marginal is secret-independent (the maximal tolerable structure).
    """

    n: int
    secret_count: int
    share_sizes: tuple[int, ...]
    table: dict[tuple[int, tuple[int, ...]], Fraction]
    structure: AdversaryStructure | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.share_sizes) != self.n:
            raise ValueError("share_sizes must list one space per player")
        if self.n > MAX_PLAYERS:  # before _derive_structure's 2**n secrecy checks
            raise ValueError(f"player count must lie in 1..{MAX_PLAYERS}, got {self.n}")
        if self.structure is not None and self.structure.n != self.n:
            raise ValueError(
                f"structure over {self.structure.n} players for a scheme of {self.n} players"
            )
        if self.secret_count < 1:
            raise ValueError("need at least one secret")
        sums: dict[int, Fraction] = {}
        cleaned: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        for (s, y), pr in self.table.items():
            if not 0 <= s < self.secret_count:
                raise ValueError(f"secret {s} out of range")
            if len(y) != self.n or any(not 0 <= yi < sz for yi, sz in zip(y, self.share_sizes)):
                raise ValueError(f"share word {y} out of range")
            pr = Fraction(pr)
            if pr < 0:
                raise ValueError("negative probability")
            if pr > 0:
                cleaned[(s, tuple(y))] = pr
                sums[s] = sums.get(s, 0) + pr
        for s in range(self.secret_count):
            total = sums.get(s, 0)
            if total != 1:
                raise ValueError(f"probabilities for secret {s} sum to {total}, not 1")
        object.__setattr__(self, "table", cleaned)
        if self.structure is None:
            # _derive_structure makes 2**n passes over the table
            if len(cleaned) << self.n > ENUMERATION_GUARD:
                raise ValueError(
                    f"{len(cleaned)} rows times {1 << self.n} player sets exceed "
                    f"the enumeration guard ({ENUMERATION_GUARD})"
                )
            object.__setattr__(self, "structure", _derive_structure(self))

    def coords(self, mask: int) -> tuple[int, ...]:
        """0-based share coordinates of a player set."""
        return tuple(i for i in range(self.n) if mask >> i & 1)

    def project(self, y: tuple[int, ...], mask: int) -> tuple[int, ...]:
        return tuple(y[i] for i in self.coords(mask))


def check_secrecy(sch: ClassicalScheme, u_mask: int) -> bool:
    """True iff the U-share marginal is the same exact distribution
    for every secret."""
    marginals: list[dict[tuple[int, ...], Fraction]] = [
        {} for _ in range(sch.secret_count)
    ]
    for (s, y), pr in sch.table.items():
        yu = sch.project(y, u_mask)
        marginals[s][yu] = marginals[s].get(yu, Fraction(0)) + pr
    return all(m == marginals[0] for m in marginals[1:])


def reconstruction_map(sch: ClassicalScheme, q_mask: int) -> dict[tuple[int, ...], int] | None:
    """The function g with S = g(Y_q), or None if Q cannot reconstruct."""
    g: dict[tuple[int, ...], int] = {}
    for (s, y), _ in sch.table.items():
        yq = sch.project(y, q_mask)
        if g.setdefault(yq, s) != s:
            return None
    return g


def check_correctness(sch: ClassicalScheme, q_mask: int) -> bool:
    """True iff every supported Q-share word determines the secret."""
    return reconstruction_map(sch, q_mask) is not None


def _derive_structure(sch: ClassicalScheme) -> AdversaryStructure:
    return AdversaryStructure.from_table(sch.n, [check_secrecy(sch, b) for b in range(1 << sch.n)])


def _tally(words: Iterable[tuple[int, ...]], block: int) -> dict[tuple[int, tuple[int, ...]], Fraction]:
    """The table of a linear dealer: word i is dealt for secret i // block
    with weight 1/block, keys in first-dealt order."""
    weight = Fraction(1, block)
    table: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for i, y in enumerate(words):
        key = (i // block, y)
        table[key] = table.get(key, Fraction(0)) + weight
    return table


def scheme_from_msp(msp: MSP) -> ClassicalScheme:
    """Marginalize an MSP scheme over uniform randomness into a table.

    Player i's share (the tuple of their row values) is packed into a
    single label by mixed radix, so share space i has size p**rows_i.
    """
    p = msp.field.p
    total = p**msp.e
    if total > ENUMERATION_GUARD:
        raise ValueError(f"{total} deals exceed the enumeration guard ({ENUMERATION_GUARD})")
    per_player = [msp.row_indices(1 << i) for i in range(msp.n)]
    sizes = tuple(p ** len(rows) for rows in per_player)
    shares = []
    for rows in per_player:
        # an object radix packs in Python ints: many rows pass 2**63
        radix = np.array([p**j for j in reversed(range(len(rows)))], dtype=object)
        shares.append((msp._label_table[:, list(rows)] @ radix).tolist())
    table = _tally(zip(*shares), p ** (msp.e - 1))
    return ClassicalScheme(msp.n, p, sizes, table, structure=msp_structure(msp))


# ---------------------------------------------------------------------------
# the exact square-root criterion


def _sqrt_decompose(n: int) -> tuple[int, int]:
    """n = a*a*k with k squarefree; returns (a, k). Trial division."""
    a, k = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            count = 0
            while n % d == 0:
                n //= d
                count += 1
            a *= d ** (count // 2)
            if count % 2:
                k *= d
        d += 1
    if n > 1:
        k *= n
    return a, k


def _sqrt_sum(terms: Iterable[Fraction]) -> dict[int, Fraction]:
    """Canonical form of sum(sqrt(t)): {squarefree k: rational coefficient}.

    Square roots of distinct squarefree integers are linearly
    independent over the rationals, so two sums are equal iff these
    maps are equal.
    """
    acc: dict[int, Fraction] = {}
    for t in terms:
        if t == 0:
            continue
        a, k = _sqrt_decompose(t.numerator * t.denominator)
        coeff = Fraction(a, t.denominator)
        acc[k] = acc.get(k, Fraction(0)) + coeff
        if acc[k] == 0:
            del acc[k]
    return acc


def _split_preconditions(sch: ClassicalScheme, u_mask: int) -> dict[tuple[int, ...], int]:
    """Shared eq1/oracle preconditions; returns the reconstruction map."""
    q_mask = complement(u_mask, sch.n)
    g = reconstruction_map(sch, q_mask)
    if g is None:
        raise PreconditionError(
            f"scheme is not correct: Q={{{format_players(q_mask)}}} cannot reconstruct"
        )
    if not check_secrecy(sch, u_mask):
        raise PreconditionError(
            f"scheme is not secret for U={{{format_players(u_mask)}}}"
        )
    structure = sch.structure
    assert structure is not None
    if not (structure.is_member(u_mask) and structure.dual().is_member(u_mask)):
        raise PreconditionError(
            f"U={{{format_players(u_mask)}}} is not in the intersection of the "
            "structure and its dual"
        )
    return g


def eq1_check(sch: ClassicalScheme, u_mask: int) -> bool:
    """The exact square-root criterion for erasure correction on U.

    Secret s has the Gram table G_s[yu1, yu2], the sum over Q-words yq
    reconstructing to s of sqrt(P(yu1, yq | s)) * sqrt(P(yu2, yq | s));
    the criterion holds iff every secret has the same table. Two
    U-words meet in a term only inside one Q-word's column, so each
    table is summed in one pass over that secret's columns, in the
    canonical form of ``_sqrt_sum``. Every term is positive, so no
    form cancels to empty and a pair that shares no Q-word, the empty
    (zero) sum, is simply absent. All tables here are rational, so the
    comparison is exact.
    """
    _split_preconditions(sch, u_mask)
    q_mask = complement(u_mask, sch.n)
    columns: list[dict[tuple[int, ...], list[tuple[tuple[int, ...], Fraction]]]] = [
        {} for _ in range(sch.secret_count)
    ]
    for (s, y), pr in sch.table.items():
        columns[s].setdefault(sch.project(y, q_mask), []).append((sch.project(y, u_mask), pr))
    reference: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, Fraction]] | None = None
    for by_q in columns:
        gram: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, Fraction]] = {}
        for column in by_q.values():
            column.sort()
            for i, (yu1, p1) in enumerate(column):
                for yu2, p2 in column[i:]:
                    t = p1 * p2
                    a, k = _sqrt_decompose(t.numerator * t.denominator)
                    form = gram.setdefault((yu1, yu2), {})
                    form[k] = form.get(k, Fraction(0)) + Fraction(a, t.denominator)
        if reference is None:
            reference = gram
        elif gram != reference:
            return False
    return True


# ---------------------------------------------------------------------------
# the brute-force density-matrix oracle


@dataclass
class LiftReport:
    """Outcome of the lifted-state density-matrix comparison."""

    passed: bool
    max_distance: float
    witness: tuple[str, str] | None
    inputs: list[str]
    seed: int


def lift_report(
    sch: ClassicalScheme,
    u_mask: int,
    inputs: list[tuple[str, np.ndarray]] | None = None,
    seed: int = 0,
) -> LiftReport:
    """Build the lifted state for each amplitude assignment and compare
    the exact reduced density matrices on U.

    This is the ground truth that validates eq1_check; it never shares
    code with it beyond the table itself. The input family must probe
    superpositions: reduced states that agree on basis secrets alone
    do not establish erasure correction.
    """
    _split_preconditions(sch, u_mask)
    dim = 1
    for sz in sch.share_sizes:
        dim *= sz
    if dim > ORACLE_DIMENSION_GUARD:
        raise ValueError(f"lifted state dimension {dim} exceeds the oracle guard")
    family = inputs if inputs is not None else [
        (name, psi.dense()) for name, psi in probe_family(sch.secret_count, seed, n_random=10)
    ]
    if sch.secret_count > 1 and all(int(np.count_nonzero(alpha)) < 2 for _, alpha in family):
        raise ValueError("oracle inputs must include non-basis amplitude assignments")
    u_coords = sch.coords(u_mask)
    reduced = []
    for name, alpha in family:
        amps: dict[tuple[int, ...], complex] = {}
        for (s, y), pr in sch.table.items():
            if alpha[s] != 0:
                amps[y] = alpha[s] * float(pr) ** 0.5
        state = QuantumState(sch.share_sizes, amps)
        reduced.append((name, partial_trace(state, u_coords)))
    worst = 0.0
    witness: tuple[str, str] | None = None
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            dist = trace_distance(reduced[i][1], reduced[j][1])
            if dist > worst:
                worst = dist
                witness = (reduced[i][0], reduced[j][0])
    return LiftReport(worst <= SECRECY_TOL, worst, witness, [n for n, _ in family], seed)


def lift_and_test(
    sch: ClassicalScheme,
    u_mask: int,
    inputs: list[tuple[str, np.ndarray]] | None = None,
    seed: int = 0,
) -> bool:
    return lift_report(sch, u_mask, inputs=inputs, seed=seed).passed


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
        order = 1
        for md in self.moduli:
            order *= md
        return order


def homomorphic_scheme(spec: HomomorphicSpec) -> ClassicalScheme:
    """Exact table of a homomorphic scheme by enumerating the randomness.

    Raises if h is not injective (a nontrivial kernel would make two
    different (s, v) collide and reconstruction ill-defined).
    """
    order = spec.group_order
    total = order ** (spec.m + 1)
    if total > ENUMERATION_GUARD:
        raise ValueError(
            f"{total} group inputs exceed the enumeration guard ({ENUMERATION_GUARD})"
        )
    deals = _linear_deals(spec.matrix, spec.moduli)
    kernel = int(np.count_nonzero(~deals.any(axis=1)))
    if kernel != 1:
        raise ValueError(f"homomorphism is not injective (kernel size {kernel})")
    n = len(spec.matrix)
    table = _tally(map(tuple, deals.tolist()), order**spec.m)
    return ClassicalScheme(n, order, (order,) * n, table)


def homomorphic_dichotomy_check(sch: ClassicalScheme, u_mask: int) -> bool:
    """For every Q-word, all U-words seen with it are equiprobable: two
    conditional probabilities are either never jointly positive or
    exactly equal.

    Conditionals are taken under the uniform secret prior, which makes
    the check a property of the scheme itself; on splits where the
    complement reconstructs, conditioning on Y_q pins the secret down
    and this coincides with the per-secret conditional. Every joint
    entry is positive and dividing by the Q-marginal keeps equality,
    so the joint table alone decides it. Homomorphic schemes satisfy
    the dichotomy (conditioned on a Q-word, the compatible U-words
    form a coset and are equiprobable), which is what makes them pass
    the square-root criterion.
    """
    q_mask = complement(u_mask, sch.n)
    joint: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for (s, y), pr in sch.table.items():
        by_u = joint.setdefault(sch.project(y, q_mask), {})
        yu = sch.project(y, u_mask)
        by_u[yu] = by_u.get(yu, Fraction(0)) + pr
    return all(len(set(by_u.values())) == 1 for by_u in joint.values())


# ---------------------------------------------------------------------------
# scheme generation and the counterexample search


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer tuples of the given length summing to
    total, lexicographically ascending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _surjections(size: int, onto: int) -> Iterator[tuple[int, ...]]:
    for g in itertools.product(range(onto), repeat=size):
        if len(set(g)) == onto:
            yield g


def _scheme_from_numerators(
    den: int,
    size_u: int,
    size_q: int,
    numerators: dict[int, dict[tuple[int, int], int]],
    s_count: int,
) -> ClassicalScheme:
    table = {
        (s, (yu, yq)): Fraction(num, den)
        for s, cells in numerators.items()
        for (yu, yq), num in cells.items()
        if num
    }
    return ClassicalScheme(2, s_count, (size_u, size_q), table)


def _function_given_q(cells: dict[tuple[int, int], int]) -> bool:
    """True when each Q-word appears with at most one U-word."""
    seen: dict[int, int] = {}
    for (yu, yq), num in cells.items():
        if num and seen.setdefault(yq, yu) != yu:
            return False
    return True


def _enumerate_tables(
    den: int,
    s_count: int,
    size_u: int,
    size_q: int,
    g: tuple[int, ...],
    compositions: Callable[[int, int], Iterable[tuple[int, ...]]] = _compositions,
) -> Iterator[dict[int, dict[tuple[int, int], int]]]:
    """Valid-by-construction numerator tables, lexicographically.

    The secret-0 slice ranges over the compositions of den on its
    cells; every other slice is constrained, row by row in y_u, to
    reproduce slice 0's exact U-marginal, which enforces secrecy.
    Correctness holds because slice s only populates g^-1(s).
    ``compositions(total, parts)`` is asked once for slice 0 and then
    once per row in (s, y_u) order; the default yields all of them.
    """
    preimages = [tuple(yq for yq in range(size_q) if g[yq] == s) for s in range(s_count)]
    cells0 = [(yu, yq) for yu in range(size_u) for yq in preimages[0]]
    for comp0 in compositions(den, len(cells0)):
        slice0 = dict(zip(cells0, comp0))
        marginal = [sum(slice0.get((yu, yq), 0) for yq in preimages[0]) for yu in range(size_u)]
        row_options: list[list[list[tuple[int, ...]]]] = []
        feasible = True
        for s in range(1, s_count):
            per_row = [list(compositions(marginal[yu], len(preimages[s]))) for yu in range(size_u)]
            if any(not opts for opts in per_row):
                feasible = False
                break
            row_options.append(per_row)
        if not feasible:
            continue
        choice_space = [opts for per_row in row_options for opts in per_row]
        for combo in itertools.product(*choice_space):
            numerators = {0: slice0}
            idx = 0
            for s in range(1, s_count):
                cells: dict[tuple[int, int], int] = {}
                for yu in range(size_u):
                    for yq, num in zip(preimages[s], combo[idx]):
                        cells[(yu, yq)] = num
                    idx += 1
                numerators[s] = cells
            yield numerators


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
                        for numerators in _enumerate_tables(den, s_count, size_u, size_q, g):
                            if functional and not all(
                                _function_given_q(cells) for cells in numerators.values()
                            ):
                                continue
                            yield _scheme_from_numerators(
                                den, size_u, size_q, numerators, s_count
                            )


def _homomorphic_candidates(max_modulus: int) -> Iterator[ClassicalScheme]:
    """Every injective two-share homomorphic scheme over Z_m, m up to
    max_modulus, with randomness arity 1 or 2."""
    for modulus in range(2, max_modulus + 1):
        for arity in (1, 2):
            entry_space = itertools.product(range(modulus), repeat=arity + 1)
            for rows in itertools.product(list(entry_space), repeat=2):
                spec = HomomorphicSpec((modulus,), arity, rows)
                try:
                    sch = homomorphic_scheme(spec)
                except ValueError:
                    continue  # not injective
                yield sch


def search_counterexample(
    max_secrets: int = 2,
    max_share_size: int = 3,
    max_denominator: int = 8,
    family: str = "all",
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

    family='homomorphic' searches two-share homomorphic schemes over
    Z_m (m up to max_share_size, randomness arity up to 2) instead of
    raw tables; those provably satisfy the criterion, so it exhausts
    its bounds and returns None.
    """
    if family not in ("all", "function", "homomorphic"):
        raise ValueError(f"unknown search family {family!r}")
    u_mask = 0b01
    if family == "homomorphic":
        candidates = _homomorphic_candidates(max_share_size)
        # a spec's split may fail the eq1 preconditions; the tables meet them by construction
        skip: tuple[type[Exception], ...] = (PreconditionError,)
    else:
        candidates = _table_candidates(
            max_secrets, max_share_size, max_denominator, family == "function"
        )
        skip = ()
    for sch in candidates:
        try:
            if eq1_check(sch, u_mask):
                continue
        except skip:
            continue
        if lift_report(sch, u_mask, seed=0).passed:
            raise RuntimeError(
                "eq1_check rejected a scheme the oracle accepts; "
                "criterion and oracle disagree"
            )
        return sch
    return None


def generate_valid_schemes(
    count: int,
    seed: int,
    max_secrets: int = 3,
    max_share_size: int = 3,
    max_denominator: int = 8,
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
        assignment = list(range(s_count)) + [
            rng.randrange(s_count) for _ in range(size_q - s_count)
        ]
        rng.shuffle(assignment)
        g = tuple(assignment)
        den = rng.randint(2, max_denominator)
        numerators = next(_enumerate_tables(den, s_count, size_u, size_q, g, composition))
        out.append(_scheme_from_numerators(den, size_u, size_q, numerators, s_count))
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
    lines = [
        ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln
    ]
    if not lines or not lines[0].startswith("scheme "):
        raise SchemeFormatError("missing scheme header line")
    header: dict[str, int] = {}
    for token in lines[0].split()[1:]:
        key, _, value = token.partition("=")
        try:
            if not value.isdecimal():
                raise ValueError
            header[key] = int(value)  # fails past the interpreter's digit limit
        except ValueError:
            raise SchemeFormatError(f"bad header token {token!r}") from None
    if "n" not in header or "secrets" not in header:
        raise SchemeFormatError("scheme header needs n= and secrets=")
    n = header["n"]
    sizes: dict[int, int] = {}
    table: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "space":
            try:
                if len(parts) != 3:
                    raise ValueError
                sizes[int(parts[1])] = int(parts[2])
            except ValueError:
                raise SchemeFormatError(f"bad space line {ln!r}") from None
        elif parts[0] == "p":
            if len(parts) != n + 3:
                raise SchemeFormatError(f"p line needs secret, {n} shares and a probability")
            try:
                s = int(parts[1])
                y = tuple(int(x) for x in parts[2 : 2 + n])
                num, _, dencount = parts[-1].partition("/")
                pr = Fraction(int(num), int(dencount)) if dencount else Fraction(int(num))
            except (ValueError, ZeroDivisionError):
                raise SchemeFormatError(f"bad probability row {ln!r}") from None
            key = (s, y)
            table[key] = table.get(key, Fraction(0)) + pr
        else:
            raise SchemeFormatError(f"unknown directive {parts[0]!r}")
    if len(sizes) != n or sorted(sizes) != list(range(1, n + 1)):
        raise SchemeFormatError("need one space line per player")
    try:
        return ClassicalScheme(
            n, header["secrets"], tuple(sizes[i] for i in range(1, n + 1)), table
        )
    except ValueError as exc:
        raise SchemeFormatError(str(exc)) from None
