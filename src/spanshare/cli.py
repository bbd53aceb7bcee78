"""The ``spanshare`` command-line front end.

Subcommands map one-to-one onto the library layers: ``structure``
(predicates, dual, self-dual extension), ``msp`` (compile, dualize,
extend, evaluate), ``share``/``reconstruct`` (classical dealing),
``qss`` (pure/mixed quantum verification sweeps) and ``condition``
(the square-root criterion, its oracle, and the counterexample
search).

Exit codes: 0 all checks passed, 1 a check failed (including the
verdict that no quantum scheme exists), 2 usage or file format error or
an input past a size guard. Handlers raise and ``main`` alone maps the
exceptions: ``NoSchemeError`` and ``ReconstructionError`` give 1, any
other ``ValueError`` gives 2. Dealing randomness comes from SplitMix64
(frozen here, seeded via --seed, recorded in every output) so share
files and reports are byte-reproducible.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .classical import (
    ReconstructionError,
    ShareFormatError,
    format_share_file,
    parse_share_file,
    reconstruct,
    share,
)
from .condition import (
    check_correctness,
    eq1_check,
    format_scheme,
    lift_report,
    parse_scheme,
    search_counterexample,
)
from .msp import (
    compile_formula,
    dual_msp,
    dump_msp,
    extend_msp,
    msp_eval,
    parse_msp,
)
from .quantum import probe_family, qss_mixed, qss_pure
from .structures import (
    AdversaryStructure,
    FormatError,
    NoSchemeError,
    format_structure,
    full_mask,
    mask_from_players,
    parse_formula,
    parse_structure,
)

class SplitMix64:
    """Frozen 64-bit generator for reproducible dealing randomness.

    The algorithm is pinned here (not delegated to a library) because
    share files are golden-tested: state advances by 0x9E3779B97F4A7C15
    and the output mix is the standard SplitMix64 finalizer. Field
    elements are taken as next() mod p.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def elements(self, p: int, count: int) -> tuple[int, ...]:
        return tuple(self.next_u64() % p for _ in range(count))


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a decoding error has no strerror
        raise FormatError(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _parse_set(text: str, n: int) -> int:
    if text in ("-", ""):
        return 0
    try:
        ids = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"--set must be comma-separated player ids, got {text!r}") from None
    return mask_from_players(ids, n)


def _cmd_transform(args: argparse.Namespace) -> int:
    """Read a file, transform what it holds and write the result: the
    dual and extend subcommands of ``structure`` and ``msp``."""
    _emit(args.dump(args.transform(args.parse(_read(args.file)))), args.out)
    return 0


# ---------------------------------------------------------------------------
# structure


def _cmd_structure_check(args: argparse.Namespace) -> int:
    structure = parse_structure(_read(args.file))
    verdicts = {
        "q2": structure.is_q2(),
        "q2star": structure.is_q2star(),
        "selfdual": structure.is_selfdual(),
    }
    print(" ".join(f"{k}={'true' if v else 'false'}" for k, v in verdicts.items()))
    if args.require:
        if not verdicts[args.require]:
            print(f"required predicate {args.require} does not hold", file=sys.stderr)
            return 1
    return 0


# ---------------------------------------------------------------------------
# msp


def _cmd_msp_from_formula(args: argparse.Namespace) -> int:
    formula = parse_formula(args.formula)
    from .galois import Field

    msp = compile_formula(formula, Field(args.field), n=args.players)
    _emit(dump_msp(msp), args.out)
    return 0


def _cmd_msp_eval(args: argparse.Namespace) -> int:
    msp = parse_msp(_read(args.file))
    print(msp_eval(msp, _parse_set(args.set, msp.n)))
    return 0


# ---------------------------------------------------------------------------
# classical dealing


def _cmd_share(args: argparse.Namespace) -> int:
    msp = parse_msp(_read(args.msp))
    randomness = SplitMix64(args.seed).elements(msp.field.p, msp.e - 1)
    sv = share(msp, args.secret, randomness)
    _emit(format_share_file(sv, comment=f"seed {args.seed}"), args.out)
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    msp = parse_msp(_read(args.msp))
    p, entries = parse_share_file(_read(args.shares))
    if p != msp.field.p:
        raise ShareFormatError(f"share file field {p} does not match MSP field {msp.field.p}")
    for i, (player, _) in entries.items():
        if i >= msp.d:
            raise ShareFormatError(f"share file row {i + 1} is past the MSP's {msp.d} rows")
        if player != msp.psi[i]:
            raise ShareFormatError(f"share file row {i + 1} is labelled player {player}, "
                                   f"but the MSP gives it to player {msp.psi[i]}")
    q = _parse_set(args.set, msp.n)
    wanted = msp.row_indices(q)
    missing = [i + 1 for i in wanted if i not in entries]
    if missing:
        raise ShareFormatError(f"share file lacks rows {missing} needed by the set")
    print(reconstruct(msp, q, {i: entries[i][1] for i in wanted}))
    return 0


# ---------------------------------------------------------------------------
# quantum verification


def _require_probe_seed(args: argparse.Namespace) -> None:
    """Refuse a negative --seed of a command that draws probes, before any
    other work: the probes' generator takes no negative seed."""
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")


def _cmd_qss_verify(args: argparse.Namespace) -> int:
    _require_probe_seed(args)
    msp = parse_msp(_read(args.file))
    family = probe_family(msp.field.p, seed=args.seed, n_random=args.random)
    try:
        scheme = args.builder(msp)
    except NoSchemeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.builder is qss_pure:  # verify-mixed gets past a structure that is not self-dual
            print("hint: use verify-mixed", file=sys.stderr)
        return 1
    report = scheme.verify_all(inputs=family, seed=args.seed)
    print(report.to_machine() if args.format == "machine" else report.to_text(), end="")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# conversion condition


def _cmd_condition_check(args: argparse.Namespace) -> int:
    _require_probe_seed(args)
    scheme = parse_scheme(_read(args.file))
    if not check_correctness(scheme, full_mask(scheme.n)):
        raise ValueError("not a valid secret-sharing table")
    u = _parse_set(args.set, scheme.n)
    eq1 = eq1_check(scheme, u)
    oracle = lift_report(scheme, u, seed=args.seed)
    agree = eq1 == oracle.passed
    print(
        f"eq1={'true' if eq1 else 'false'} "
        f"oracle={'true' if oracle.passed else 'false'} "
        f"agree={'true' if agree else 'false'}"
    )
    if not agree:
        print("error: criterion and oracle disagree; please report this", file=sys.stderr)
        return 1
    return 0 if eq1 else 1


def _cmd_condition_search(args: argparse.Namespace) -> int:
    _require_probe_seed(args)
    found = search_counterexample(
        max_secrets=args.secrets,
        max_share_size=args.share_size,
        max_denominator=args.den,
        family=args.family,
    )
    if found is None:
        print("no counterexample within the given bounds")
        return 1
    certificate = lift_report(found, 0b01, seed=args.seed)
    _emit(format_scheme(found), args.out)
    print(
        f"counterexample found: eq1=false oracle=false "
        f"max_distance={certificate.max_distance:.6f} "
        f"witness={certificate.witness[0]}|{certificate.witness[1]} seed={args.seed}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanshare",
        description="secret sharing from monotone span programs, classical and quantum",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_structure = sub.add_parser("structure", help="adversary structure operations")
    s_sub = p_structure.add_subparsers(dest="subcommand", required=True)
    p = s_sub.add_parser("check", help="print Q2/Q2*/self-dual verdicts")
    p.add_argument("file")
    p.add_argument("--require", choices=["q2", "q2star", "selfdual"])
    p.set_defaults(handler=_cmd_structure_check)
    for name, text, transform in [("dual", "compute the dual structure", AdversaryStructure.dual),
                                  ("extend", "one-extra-player self-dual extension",
                                   AdversaryStructure.extend_selfdual)]:
        p = s_sub.add_parser(name, help=text)
        p.add_argument("file")
        p.add_argument("--out")
        p.set_defaults(handler=_cmd_transform, parse=parse_structure, transform=transform,
                       dump=format_structure)

    p_msp = sub.add_parser("msp", help="monotone span program operations")
    m_sub = p_msp.add_subparsers(dest="subcommand", required=True)
    p = m_sub.add_parser("from-formula", help="compile a monotone threshold formula")
    p.add_argument("formula")
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--players", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_msp_from_formula)
    for name, text, transform in [("dual", "MSP for the dual structure", dual_msp),
                                  ("extend", "MSP for the self-dual extension", extend_msp)]:
        p = m_sub.add_parser(name, help=text)
        p.add_argument("file")
        p.add_argument("--out")
        p.set_defaults(handler=_cmd_transform, parse=parse_msp, transform=transform, dump=dump_msp)
    p = m_sub.add_parser("eval", help="evaluate f(B) for a player set")
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p.set_defaults(handler=_cmd_msp_eval)

    p = sub.add_parser("share", help="deal a secret with seeded randomness")
    p.add_argument("msp")
    p.add_argument("--secret", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_share)

    p = sub.add_parser("reconstruct", help="recover a secret from a share file")
    p.add_argument("msp")
    p.add_argument("shares")
    p.add_argument("--set", required=True)
    p.set_defaults(handler=_cmd_reconstruct)

    p_qss = sub.add_parser("qss", help="quantum scheme verification")
    q_sub = p_qss.add_subparsers(dest="subcommand", required=True)
    for name, builder in [("verify-pure", qss_pure), ("verify-mixed", qss_mixed)]:
        p = q_sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--random", type=int, default=20, help="random probe states")
        p.add_argument("--format", choices=["text", "machine"], default="text")
        p.set_defaults(handler=_cmd_qss_verify, builder=builder)

    p_cond = sub.add_parser("condition", help="classical-to-quantum conversion condition")
    c_sub = p_cond.add_subparsers(dest="subcommand", required=True)
    p = c_sub.add_parser("check", help="run eq1 and the oracle on a scheme file")
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_condition_check)
    p = c_sub.add_parser("search", help="search for a scheme failing the condition")
    p.add_argument("--secrets", type=int, default=2)
    p.add_argument("--share-size", type=int, default=3)
    p.add_argument("--den", type=int, default=8)
    p.add_argument("--family", choices=["all", "function", "homomorphic"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_condition_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # every format error subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (NoSchemeError, ReconstructionError)) else 2


if __name__ == "__main__":
    sys.exit(main())
