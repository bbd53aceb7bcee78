"""The per-node MSP composer that ``spanshare.msp`` ran before a gate's
parts became plain (rows, psi) lists, kept as its oracle.

Here every formula variable, every gate, every dual conjunct and each
re-labelled part of the extension is a fully checked ``MSP``, and the
dual is compiled through ``ref_compile_formula`` from the or-of-ands
formula of the complements of the maximal sets, so it passes that
function's formula check before its own structure check.
"""

from spanshare.galois import Field, Matrix
from spanshare.msp import MSP, _VERIFY_LIMIT, msp_structure
from spanshare.structures import (
    And,
    Formula,
    Or,
    Var,
    complement,
    eval_formula,
    max_player,
    players_from_mask,
)


def _var_msp(field: Field, player: int, n: int) -> MSP:
    return MSP(field, Matrix.from_rows(field, [(1,)], 1), (player,), n)


def _compose(field: Field, heads: list[tuple[int, ...]], parts: list[MSP], n: int) -> MSP:
    """Insert the parts into one gate of k = len(heads[i]) secret columns;
    part i's secret entry a becomes a * heads[i], its randomness columns
    go to fresh columns at the running offset."""
    k = len(heads[0])
    cols = k + sum(part.e - 1 for part in parts)
    rows: list[list[int]] = []
    psi: list[int] = []
    offset = k
    for head, part in zip(heads, parts):
        for r in range(part.d):
            a, *rest = part.matrix.row(r)
            row = [a * h for h in head] + [0] * (cols - k)
            row[offset : offset + part.e - 1] = rest
            rows.append(row)
            psi.append(part.psi[r])
        offset += part.e - 1
    return MSP(field, Matrix.from_rows(field, rows, cols), tuple(psi), n)


def _and_heads(arity: int) -> list[tuple[int, ...]]:
    units = [tuple(int(j == i + 1) for j in range(arity)) for i in range(arity - 1)]
    return units + [(1,) + (-1,) * (arity - 1)]


def _compile(f: Formula, field: Field, n: int) -> MSP:
    if isinstance(f, Var):
        return _var_msp(field, f.player, n)
    parts = [_compile(c, field, n) for c in f.children]
    arity = len(parts)
    if isinstance(f, Or):
        return _compose(field, [(1,)] * arity, parts, n)
    if isinstance(f, And):
        return _compose(field, _and_heads(arity), parts, n)
    if field.p <= arity:
        raise ValueError(
            f"field GF({field.p}) too small for a threshold gate of arity {arity}"
        )
    heads = [tuple(pow(x, j, field.p) for j in range(f.k)) for x in range(1, arity + 1)]
    return _compose(field, heads, parts, n)


def ref_compile_formula(f: Formula, field: Field, n: int | None = None) -> MSP:
    needed = max_player(f)
    if n is None:
        n = needed
    if n < needed:
        raise ValueError(f"formula references player {needed} but n={n}")
    out = _compile(f, field, n)
    if n <= _VERIFY_LIMIT:
        structure = msp_structure(out)
        for b in range(1 << n):
            if int(not structure.is_member(b)) != eval_formula(f, b):
                raise RuntimeError(f"compiled MSP disagrees with formula on {b:b}")
    return out


def _collapse(gate, children: list[Formula]) -> Formula:
    """The gate over the children; a single child stands for itself."""
    return children[0] if len(children) == 1 else gate(tuple(children))


def ref_dual_msp(msp: MSP) -> MSP:
    structure = msp_structure(msp)
    min_qualified = sorted(complement(m, msp.n) for m in structure.maximal)
    conjuncts = [
        _collapse(And, [Var(i) for i in players_from_mask(mq)]) for mq in min_qualified
    ]
    out = ref_compile_formula(_collapse(Or, conjuncts), msp.field, msp.n)
    if msp.n <= _VERIFY_LIMIT and msp_structure(out) != structure.dual():
        raise RuntimeError("dual MSP does not compute the dual structure")
    return out


def ref_extend_msp(msp: MSP) -> MSP:
    expected = msp_structure(msp).extend_selfdual()
    n2 = msp.n + 1
    base = MSP(msp.field, msp.matrix, msp.psi, n2)
    dual_part = ref_dual_msp(msp)
    dual_lifted = MSP(msp.field, dual_part.matrix, dual_part.psi, n2)
    tau = _var_msp(msp.field, n2, n2)
    dual_and_tau = _compose(msp.field, _and_heads(2), [dual_lifted, tau], n2)
    out = _compose(msp.field, [(1,), (1,)], [base, dual_and_tau], n2)
    if msp_structure(out) != expected:
        raise RuntimeError("extended MSP does not compute the extended structure")
    return out
