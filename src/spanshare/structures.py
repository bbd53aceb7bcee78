"""Adversary structures over small player sets, and monotone formulas.

An adversary structure is a downward-closed family of player subsets,
stored as one 2**n-bit membership set: an int whose bit b is set iff
player set b is a member. Player sets are bitmasks over players 1..n
(bit i-1 is player i); n is capped at 16, so that set has 65,536 bits
at most. The input-file reader that all four file formats parse with
lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, Sequence, Union

MAX_PLAYERS = 16


class FormatError(ValueError):
    """Raised for malformed input text, in every input format."""


class NoSchemeError(ValueError):
    """The verdict that a structure admits no quantum scheme of the kind
    asked for: it is not Q2*, or not self-dual for a pure scheme."""


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_from_players(players: Iterable[int], n: int) -> int:
    mask = 0
    for i in players:
        if not 1 <= i <= n:
            raise ValueError(f"player id {i} out of range 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def _positions(bits: int) -> list[int]:
    """The set bits, ascending."""
    return [b for b, digit in enumerate(bin(bits)[:1:-1]) if digit == "1"]


def players_from_mask(mask: int) -> tuple[int, ...]:
    return tuple(b + 1 for b in _positions(mask))


def format_players(mask: int) -> str:
    """Comma-joined 1-based player ids; '-' for the empty set."""
    ids = players_from_mask(mask)
    return ",".join(str(i) for i in ids) if ids else "-"


def complement(mask: int, n: int) -> int:
    return full_mask(n) & ~mask


def _check_player_count(n: int) -> None:
    if not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"player count must lie in 1..{MAX_PLAYERS}, got {n}")


@cache
def _with_player(n: int) -> tuple[int, ...]:
    """Per player bit i, the membership set of the subsets holding it."""
    every = (1 << (1 << n)) - 1
    return tuple(every // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1 << (1 << i)) for i in range(n))


def _down_closure(bits: int, n: int) -> int:
    """Add every subset of a member, dropping one player at a time."""
    for i, upper in enumerate(_with_player(n)):
        bits |= (bits & upper) >> (1 << i)
    return bits


def _reflect(bits: int, n: int) -> int:
    """Bit b moves to bit full_mask(n) - b: each set to its complement."""
    return int(format(bits, f"0{1 << n}b")[::-1], 2)


@dataclass(frozen=True)
class AdversaryStructure:
    """Downward-closed family of tolerable player coalitions.

    Construction closes the given sets downward into the membership
    set and reads ``maximal`` back off it (the members with no member
    one player larger, ascending), so structural equality coincides
    with equality of the set families.
    """

    n: int
    maximal: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_player_count(self.n)
        bits = 0
        for m in self.maximal:
            if m & ~full_mask(self.n):
                raise ValueError("maximal set contains a player id out of range")
            bits |= 1 << m
        self._settle(_down_closure(bits, self.n))

    def _settle(self, bits: int) -> None:
        """Store a downward-closed membership set and its maximal sets."""
        covered = 0
        for i, upper in enumerate(_with_player(self.n)):
            covered |= (bits & upper) >> (1 << i)
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "maximal", tuple(_positions(bits & ~covered)))

    @classmethod
    def _from_bits(cls, n: int, bits: int) -> "AdversaryStructure":
        """The structure whose downward-closed membership set is bits."""
        _check_player_count(n)
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        out._settle(bits)
        return out

    @classmethod
    def from_table(cls, n: int, table: Sequence[int]) -> "AdversaryStructure":
        """The structure generated by the truthy entries of a 2**n
        membership table indexed by bitmask (byte values or bools)."""
        digits = bytes(table).translate(b"0" + b"1" * 255)[::-1]
        return cls._from_bits(n, _down_closure(int(digits, 2), n))

    @classmethod
    def from_predicate(cls, n: int, tolerable: Callable[[int], bool]) -> "AdversaryStructure":
        """The sets passing a downward-closed test, grown one player at a
        time: a set is tested only when every subset one player smaller
        passed, so a failed set's supersets are never tested."""
        _check_player_count(n)
        every = (1 << (1 << n)) - 1
        bits = tested = 0
        while True:
            # the untested sets whose every one-player-smaller subset is a member
            fresh = every & ~tested
            for i, upper in enumerate(_with_player(n)):
                fresh &= (every ^ upper) | (bits & ~upper) << (1 << i)
            if not fresh:
                return cls._from_bits(n, bits)
            tested |= fresh
            for b in _positions(fresh):
                if tolerable(b):
                    bits |= 1 << b

    @cached_property
    def _dual(self) -> "AdversaryStructure":
        # B is in the dual iff complement(B) = full - B is not a member
        every = (1 << (1 << self.n)) - 1
        return AdversaryStructure._from_bits(self.n, every ^ _reflect(self._bits, self.n))

    def is_member(self, mask: int) -> bool:
        if mask & ~full_mask(self.n):
            raise ValueError("subset contains a player id out of range")
        return self._bits >> mask & 1 == 1

    def members(self) -> Iterator[int]:
        """All member subsets, ascending as ints."""
        yield from _positions(self._bits)

    def dual(self) -> "AdversaryStructure":
        """The structure {B : complement(B) not a member}."""
        return self._dual

    def is_q2(self) -> bool:
        """True iff no two member sets cover the full player set, i.e.
        (the family being downward closed) no member's complement is one."""
        result = self._bits & _reflect(self._bits, self.n) == 0
        # cross-check against the inclusion characterization: Q2 iff A is
        # contained in its dual
        dual = self.dual()
        inclusion = all(dual.is_member(m) for m in self.maximal)
        if result != inclusion:
            raise RuntimeError("Q2 criteria disagree; structure algebra is broken")
        return result

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
            raise NoSchemeError("structure is not Q2*; no-cloning forbids QSS")
        # the upper half of the new set: B + {n+1} for every member B of the dual
        out = AdversaryStructure._from_bits(self.n + 1, self._bits | self.dual()._bits << (1 << self.n))
        if not out.is_selfdual():
            raise RuntimeError("self-dual extension failed its own check")
        return out

    def restrict(self, n: int) -> "AdversaryStructure":
        """The structure {B member : B within 1..n}, over n players."""
        if n > self.n:
            raise ValueError("restriction cannot grow the player set")
        _check_player_count(n)
        return AdversaryStructure._from_bits(n, self._bits & (1 << (1 << n)) - 1)


def build_structure(n: int, maximal: Iterable[Iterable[int]]) -> AdversaryStructure:
    """Structure over n players from explicit sets of 1-based player ids."""
    return AdversaryStructure(n, tuple(mask_from_players(s, n) for s in maximal))


def threshold_structure(n: int, t: int) -> AdversaryStructure:
    """All coalitions of size at most t."""
    if not 0 <= t <= n:
        raise ValueError(f"threshold {t} out of range for {n} players")
    _check_player_count(n)  # before any of the 2**n sets is looked at
    return AdversaryStructure.from_table(n, [b.bit_count() <= t for b in range(1 << n)])


# ---------------------------------------------------------------------------
# the input-file reader, shared by the structure, MSP, share and scheme formats


def _read_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, fields) of every line that keeps a field once
    its ``#`` comment is cut; lines end at ``\n`` only, as in a file read as text."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields


def _read_ints(tokens: Sequence[str], lineno: int, what: str,
               count: int | None = None, decimal: bool = False) -> list[int]:
    """The tokens as ints, or a FormatError naming the line: with
    count, exactly that many; with decimal, nonnegative decimals only."""
    if count is not None and len(tokens) != count:
        raise FormatError(f"line {lineno}: bad {what}: expected {count} numbers, got {len(tokens)}")
    try:
        if decimal and not all(t.isdecimal() for t in tokens):
            raise ValueError
        return [int(t) for t in tokens]  # int() also fails past the interpreter's digit limit
    except ValueError:
        kind = "nonnegative decimals" if decimal else "integers"
        raise FormatError(f"line {lineno}: bad {what}: expected {kind}") from None


def _read_header(lines: Iterator[tuple[int, list[str]]], name: str, keys: tuple[str, ...]) -> dict[str, int]:
    """The first line, ``name key=value ...``: every key exactly once and
    no other, each value a nonnegative decimal."""
    lineno, fields = next(lines, (0, [""]))
    if fields[0] != name:
        raise FormatError(f"line {lineno}: missing {name} header line" if lineno
                          else f"missing {name} header line")
    header: dict[str, int] = {}
    for token in fields[1:]:
        key, _, value = token.partition("=")
        if key not in keys or key in header:
            kind = "duplicate" if key in header else "unknown"
            raise FormatError(f"line {lineno}: {kind} header key {key!r}")
        (header[key],) = _read_ints([value], lineno, f"header value {key}=", decimal=True)
    for key in keys:
        if key not in header:
            raise FormatError(f"line {lineno}: header missing {key}=")
    return header


# ---------------------------------------------------------------------------
# structure files


def parse_structure(text: str) -> AdversaryStructure:
    """Parse the plain-text structure format.

    One directive per line: ``players <n>`` once, then ``maximal <ids>``
    lines (a bare ``maximal`` denotes the empty set).
    """
    n: int | None = None
    sets: list[list[int]] = []
    for lineno, fields in _read_lines(text):
        if fields[0] == "players":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate players directive")
            (n,) = _read_ints(fields[1:], lineno, "players line", 1, decimal=True)
            if n > MAX_PLAYERS:  # before any player id becomes a mask of n bits
                raise FormatError(f"player count must lie in 1..{MAX_PLAYERS}, got {n}")
        elif fields[0] == "maximal":
            if n is None:
                raise FormatError(f"line {lineno}: 'maximal' before 'players'")
            sets.append(_read_ints(fields[1:], lineno, "maximal line"))
        else:
            raise FormatError(f"line {lineno}: unknown directive {fields[0]!r}")
    if n is None:
        raise FormatError("missing players directive")
    try:
        return build_structure(n, sets)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


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


class FormulaError(FormatError):
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
