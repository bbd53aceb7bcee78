"""Adversary structures over small player sets, and monotone formulas.

An adversary structure is a downward-closed family of player subsets,
stored as the antichain of its maximal sets. Player sets are bitmasks
over players 1..n (bit i-1 is player i); n is capped at 16 so duals
and membership sweeps can simply enumerate all 2**n subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union

MAX_PLAYERS = 16


class StructureFormatError(ValueError):
    """Raised for malformed structure files."""


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_from_players(players: Iterable[int], n: int) -> int:
    mask = 0
    for i in players:
        if not 1 <= i <= n:
            raise ValueError(f"player id {i} out of range 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def players_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def format_players(mask: int) -> str:
    """Comma-joined 1-based player ids; '-' for the empty set."""
    ids = players_from_mask(mask)
    return ",".join(str(i) for i in ids) if ids else "-"


def complement(mask: int, n: int) -> int:
    return full_mask(n) & ~mask


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def _antichain(masks: Iterable[int]) -> tuple[int, ...]:
    """Maximal elements of a family, sorted ascending as ints."""
    unique = sorted(set(masks), key=lambda m: (bin(m).count("1"), m), reverse=True)
    kept: list[int] = []
    for m in unique:
        if not any(is_subset(m, k) for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


@dataclass(frozen=True)
class AdversaryStructure:
    """Downward-closed family of tolerable player coalitions.

    Construction canonicalizes: redundant (non-maximal) input sets are
    pruned and the remaining antichain is sorted, so structural
    equality coincides with equality of the set families.
    """

    n: int
    maximal: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_PLAYERS:
            raise ValueError(f"player count must lie in 1..{MAX_PLAYERS}, got {self.n}")
        for m in self.maximal:
            if m & ~full_mask(self.n):
                raise ValueError("maximal set contains a player id out of range")
        object.__setattr__(self, "maximal", _antichain(self.maximal))

    @classmethod
    def from_table(cls, n: int, table: Sequence[int]) -> "AdversaryStructure":
        """The structure whose members are the truthy entries of a
        downward-closed 2**n membership table indexed by bitmask."""
        maximal = [
            b
            for b in range(1 << n)
            if table[b] and not any(table[b | 1 << i] for i in range(n) if not b >> i & 1)
        ]
        return cls(n, tuple(maximal))

    @cached_property
    def _table(self) -> bytes:
        """Membership of every subset, by downward closure of the maximal sets."""
        table = bytearray(1 << self.n)
        for m in self.maximal:
            table[m] = 1
        for i in range(self.n):
            for b in range(1 << self.n):
                table[b] |= table[b | 1 << i]
        return bytes(table)

    @cached_property
    def _dual(self) -> "AdversaryStructure":
        # B is in the dual iff complement(B) = full - B is not a member
        return AdversaryStructure.from_table(self.n, bytes(1 - x for x in reversed(self._table)))

    def is_member(self, mask: int) -> bool:
        if mask & ~full_mask(self.n):
            raise ValueError("subset contains a player id out of range")
        return self._table[mask] == 1

    def members(self) -> Iterator[int]:
        """All member subsets, ascending as ints (2**n sweep)."""
        for b, member in enumerate(self._table):
            if member:
                yield b

    def dual(self) -> "AdversaryStructure":
        """The structure {B : complement(B) not a member}."""
        return self._dual

    def is_q2(self) -> bool:
        """True iff no two member sets cover the full player set."""
        full = full_mask(self.n)
        pairwise = not any(
            m1 | m2 == full for m1 in self.maximal for m2 in self.maximal
        )
        # cross-check against the inclusion characterization: Q2 iff A is
        # contained in its dual
        dual = self.dual()
        inclusion = all(dual.is_member(m) for m in self.maximal)
        if pairwise != inclusion:
            raise RuntimeError("Q2 criteria disagree; structure algebra is broken")
        return pairwise

    def is_q2star(self) -> bool:
        """True iff the dual is Q2, i.e. any two qualified sets intersect."""
        dual = self.dual()
        result = dual.is_q2()
        inclusion = all(self.is_member(m) for m in dual.maximal)
        if result != inclusion:
            raise RuntimeError("Q2* criteria disagree; structure algebra is broken")
        return result

    def is_selfdual(self) -> bool:
        return self.is_q2() and self.is_q2star()

    def extend_selfdual(self) -> "AdversaryStructure":
        """Self-dual extension with one extra player (index n+1).

        The new structure keeps every member of this one and adds
        B + {n+1} for every member B of the dual; it is self-dual and
        restricting it back to the original players recovers this
        structure. Only defined for Q2* inputs: a structure that is
        not Q2* has two disjoint qualified sets, and no-cloning then
        rules out any quantum scheme for it.
        """
        if not self.is_q2star():
            raise ValueError("structure is not Q2*; no-cloning forbids QSS")
        tau_bit = 1 << self.n
        dual = self.dual()
        maximal = list(self.maximal) + [m | tau_bit for m in dual.maximal]
        out = AdversaryStructure(self.n + 1, tuple(maximal))
        if not out.is_selfdual():
            raise RuntimeError("self-dual extension failed its own check")
        return out

    def restrict(self, n: int) -> "AdversaryStructure":
        """The structure {B member : B within 1..n}, over n players."""
        if n > self.n:
            raise ValueError("restriction cannot grow the player set")
        return AdversaryStructure.from_table(n, self._table[: 1 << n])


def build_structure(n: int, maximal: Iterable[Iterable[int]]) -> AdversaryStructure:
    """Structure over n players from explicit sets of 1-based player ids."""
    return AdversaryStructure(n, tuple(mask_from_players(s, n) for s in maximal))


def threshold_structure(n: int, t: int) -> AdversaryStructure:
    """All coalitions of size at most t."""
    if not 0 <= t <= n:
        raise ValueError(f"threshold {t} out of range for {n} players")
    if t == 0:
        return AdversaryStructure(n, (0,))
    from itertools import combinations

    maximal = [mask_from_players(c, n) for c in combinations(range(1, n + 1), t)]
    return AdversaryStructure(n, tuple(maximal))


# ---------------------------------------------------------------------------
# structure files


def parse_structure(text: str) -> AdversaryStructure:
    """Parse the plain-text structure format.

    One directive per line: ``players <n>`` once, then ``maximal <ids>``
    lines (a bare ``maximal`` denotes the empty set). ``#`` starts a
    comment.
    """
    n: int | None = None
    sets: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "players":
            if n is not None:
                raise StructureFormatError(f"line {lineno}: duplicate players directive")
            try:
                if len(parts) != 2 or not parts[1].isdecimal():
                    raise ValueError
                n = int(parts[1])  # fails past the interpreter's digit limit
            except ValueError:
                raise StructureFormatError(f"line {lineno}: expected 'players <n>'") from None
        elif parts[0] == "maximal":
            if n is None:
                raise StructureFormatError(f"line {lineno}: 'maximal' before 'players'")
            try:
                sets.append([int(x) for x in parts[1:]])
            except ValueError:
                raise StructureFormatError(f"line {lineno}: non-integer player id") from None
        else:
            raise StructureFormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise StructureFormatError("missing players directive")
    try:
        return build_structure(n, sets)
    except ValueError as exc:
        raise StructureFormatError(str(exc)) from None


def format_structure(a: AdversaryStructure) -> str:
    lines = [f"players {a.n}"]
    for m in a.maximal:
        ids = players_from_mask(m)
        lines.append("maximal" + ("" if not ids else " " + " ".join(str(i) for i in ids)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# monotone threshold formulas


@dataclass(frozen=True)
class Var:
    player: int

    def __post_init__(self) -> None:
        if self.player < 1:
            raise ValueError("player ids are 1-based")


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("and() needs at least two children")


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("or() needs at least two children")


@dataclass(frozen=True)
class Threshold:
    k: int
    children: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("thr() needs at least two children")
        if not 1 <= self.k <= len(self.children):
            raise ValueError(f"threshold {self.k} out of range 1..{len(self.children)}")


Formula = Union[Var, And, Or, Threshold]


def make_and(children: Sequence[Formula]) -> Formula:
    """And over children, collapsing the single-child case."""
    return children[0] if len(children) == 1 else And(tuple(children))


def make_or(children: Sequence[Formula]) -> Formula:
    return children[0] if len(children) == 1 else Or(tuple(children))


def eval_formula(f: Formula, mask: int) -> int:
    """Evaluate on the player set given as a bitmask; returns 0 or 1."""
    if isinstance(f, Var):
        return mask >> (f.player - 1) & 1
    values = [eval_formula(c, mask) for c in f.children]
    if isinstance(f, And):
        return min(values)
    if isinstance(f, Or):
        return max(values)
    return 1 if sum(values) >= f.k else 0


def max_player(f: Formula) -> int:
    if isinstance(f, Var):
        return f.player
    return max(max_player(c) for c in f.children)


def format_formula(f: Formula) -> str:
    if isinstance(f, Var):
        return str(f.player)
    inner = ",".join(format_formula(c) for c in f.children)
    if isinstance(f, And):
        return f"and({inner})"
    if isinstance(f, Or):
        return f"or({inner})"
    return f"thr{f.k}({inner})"


class FormulaError(ValueError):
    """Syntax error in a formula, with a 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


# deepest gate nesting the parser accepts; the parser, the compiler and
# the evaluators recurse once or twice per level, far below Python's limit
_MAX_NESTING = 200


class _FormulaParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise FormulaError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise FormulaError("expected an integer", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's digit limit
            raise FormulaError("integer too long", start) from None

    def _arguments(self) -> list[Formula]:
        self._expect("(")
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise FormulaError(f"gates nested deeper than {_MAX_NESTING}", self.pos)
        args = [self.expr()]
        while self._peek() == ",":
            self.pos += 1
            args.append(self.expr())
        self._expect(")")
        self.depth -= 1
        if len(args) < 2:
            raise FormulaError("gate needs at least two arguments", self.pos)
        return args

    def expr(self) -> Formula:
        ch = self._peek()
        start = self.pos
        if ch.isdecimal():
            player = self._integer()
            try:
                return Var(player)
            except ValueError as exc:
                raise FormulaError(str(exc), start) from None
        for keyword in ("and", "or", "thr"):
            if self.text.startswith(keyword, self.pos):
                self.pos += len(keyword)
                if keyword == "thr":
                    k = self._integer()
                    args = self._arguments()
                    try:
                        return Threshold(k, tuple(args))
                    except ValueError as exc:
                        raise FormulaError(str(exc), start) from None
                args = self._arguments()
                return And(tuple(args)) if keyword == "and" else Or(tuple(args))
        raise FormulaError("expected a player id or gate", self.pos)

    def parse(self) -> Formula:
        out = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise FormulaError("trailing input", self.pos)
        return out


def parse_formula(text: str) -> Formula:
    """Parse ``1``, ``and(...)``, ``or(...)``, ``thrK(...)`` expressions."""
    return _FormulaParser(text).parse()
