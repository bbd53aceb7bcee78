"""The three benchmark workloads: inputs, verdict calls and verdict checks.

Each workload has four steps, run in this order by ``worker.py``:

- ``generate(seed)``: the benchmark's own input generation (antichain
  lists, random masks, expected answers). Plain Python, no spanshare;
  excluded from both ``setup_s`` and ``verify_s``.
- ``setup(api, gen, seed, workdir)``: the spanshare calls that build the
  verdict calls' inputs (MSPs, scheme handles, probe families, tables).
  Timed as part of ``setup_s``.
- ``calls(inputs)``: the verdict calls of one timed pass, as
  ``(name, thunk)`` pairs. ``verify_s`` is the wall time of one pass.
- ``check(gen, inputs, outputs)``: compares every verdict against
  expectations computed here, independently of the code under test.
  Returns ``(attempted, failed, messages)``. A call that raised has the
  exception as its output and counts all of its verdicts as failed.

spanshare functions are always reached through their module
(``api.quantum.qss_pure``), never bound to a local name at import, so
the tracer's patches see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import re

FIDELITY_MIN = 1 - 1e-9
DISTANCE_MAX = 1e-9


# ---------------------------------------------------------------------------
# independent helpers (no spanshare)


def fmt_set(mask: int) -> str:
    """Player set as the reports print it: '1,3', or '-' when empty."""
    ids = [str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1]
    return ",".join(ids) if ids else "-"


def members_of(n: int, tolerable) -> frozenset[int]:
    """All subsets of n players for which the predicate holds."""
    return frozenset(b for b in range(1 << n) if tolerable(b))


def down_closure(n: int, maximal) -> frozenset[int]:
    return members_of(n, lambda b: any(b & ~m == 0 for m in maximal))


def dual_of(n: int, members: frozenset[int]) -> frozenset[int]:
    """{B : complement(B) is not a member}."""
    full = (1 << n) - 1
    return members_of(n, lambda b: (full & ~b) not in members)


def selfdual_extension(n: int, members: frozenset[int]) -> frozenset[int]:
    """Members of A plus B+{n+1} for every member B of the dual."""
    dual = dual_of(n, members)
    tau = 1 << n
    return members | frozenset(b | tau for b in dual)


def all_antichains(n: int) -> list[tuple[int, ...]]:
    """Every antichain of subsets of n players, in a fixed order."""
    subsets = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    out: list[tuple[int, ...]] = []

    def rec(i: int, chosen: list[int]) -> None:
        if i == len(subsets):
            out.append(tuple(chosen))
            return
        rec(i + 1, chosen)
        s = subsets[i]
        if all(s & ~t and t & ~s for t in chosen):
            chosen.append(s)
            rec(i + 1, chosen)
            chosen.pop()

    rec(0, [])
    return out


def probe_names(p: int, n_random: int = 20) -> list[str]:
    return [f"basis:{s}" for s in range(p)] + ["uniform"] + [f"random:{i}" for i in range(n_random)]


def sweep_keys(recovery_sets, secrecy_sets, names) -> list[tuple[str, str, str]]:
    """(check, set, input) of every report line, in report order."""
    keys = [("recovery", fmt_set(q), name) for q in recovery_sets for name in names]
    pairs = [f"{a}|{b}" for a, b in itertools.combinations(names, 2)]
    keys += [("secrecy", fmt_set(b), pair) for b in secrecy_sets for pair in pairs]
    return keys


def pure_sweep_keys(recovery_and_secrecy_sets, names) -> list[tuple[str, str, str]]:
    """Pure sweeps interleave: per erasable set, recovery then secrecy."""
    out = []
    for b in recovery_and_secrecy_sets:
        out += sweep_keys([b], [b], names)
    return out


def line_ok(metric: str, value: float, passed: bool) -> bool:
    if metric == "fidelity":
        return passed and value >= FIDELITY_MIN
    return metric == "distance" and passed and value <= DISTANCE_MAX


def count_line_failures(expected_keys, got) -> int:
    """got: (check, set, input, metric, value, passed) per line, in order."""
    failed = abs(len(expected_keys) - len(got))
    for key, line in zip(expected_keys, got):
        if tuple(line[:3]) != key or not line_ok(*line[3:]):
            failed += 1
    return min(failed, len(expected_keys))


# ---------------------------------------------------------------------------
# qss: the quantum lifting


class Qss:
    """Two quantum sweeps: many coalitions over small states (pure,
    Shamir 5,2 over GF(7), 343 amplitudes) and few coalitions over
    large states (mixed, or-and over GF(5) through the CLI, 3,125
    amplitudes)."""

    name = "qss"
    FORMULA = "or(and(1,3),and(2,3))"

    def generate(self, seed: int) -> dict:
        # Shamir(5,2): tolerable = at most 2 players; self-dual.
        pure_sets = sorted(members_of(5, lambda b: bin(b).count("1") <= 2))
        orand_qualified = lambda b: (b & 0b101) == 0b101 or (b & 0b110) == 0b110
        mixed_members = sorted(members_of(3, lambda b: not orand_qualified(b)))
        mixed_qualified = sorted(set(range(8)) - set(mixed_members))
        return {
            "pure_keys": pure_sweep_keys(pure_sets, probe_names(7)),
            "mixed_keys": sweep_keys(mixed_qualified, mixed_members, probe_names(5)),
        }

    def setup(self, api, gen: dict, seed: int, workdir) -> dict:
        gf5, gf7 = api.galois.Field(5), api.galois.Field(7)
        shamir = api.msp.shamir_msp(5, 2, gf7)
        orand = api.msp.compile_formula(api.structures.parse_formula(self.FORMULA), gf5)
        msp_file = workdir / "orand.msp"
        msp_file.write_text(api.msp.dump_msp(orand), encoding="utf-8")
        return {
            "pure": api.quantum.qss_pure(shamir),
            "probes": api.quantum.probe_family(7, seed=seed),
            # Not used by the calls: cli.main builds its own handle. Building
            # one here makes set-up pay for the extension MSP and its plans.
            "mixed": api.quantum.qss_mixed(orand),
            "argv": ["qss", "verify-mixed", str(msp_file), "--seed", str(seed),
                     "--format", "machine"],
            "seed": seed,
            "cli": api.cli,
        }

    def calls(self, inputs: dict):
        def pure():
            return inputs["pure"].verify_all(inputs=inputs["probes"], seed=inputs["seed"])

        def mixed():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = inputs["cli"].main(inputs["argv"])
            return code, out.getvalue()

        return [("qss.pure", pure), ("qss.mixed", mixed)]

    LINE = re.compile(
        r"check=(\S+) set=(\S+) input=(\S+) (fidelity|distance)=(\S+) pass=(true|false)$"
    )

    def check(self, gen: dict, inputs: dict, outputs: dict):
        messages = []
        pure_keys, mixed_keys = gen["pure_keys"], gen["mixed_keys"]
        attempted = len(pure_keys) + len(mixed_keys)
        failed = 0

        report = outputs["qss.pure"]
        if isinstance(report, Exception):
            failed += len(pure_keys)
            messages.append(f"qss.pure raised {report!r}")
        else:
            got = [(l.check, l.subset, l.label, l.metric, l.value, l.passed) for l in report.lines]
            bad = count_line_failures(pure_keys, got)
            failed += bad
            if bad:
                messages.append(f"qss.pure: {bad} of {len(pure_keys)} lines wrong or missing")

        result = outputs["qss.mixed"]
        if isinstance(result, Exception) or result[0] != 0:
            failed += len(mixed_keys)
            messages.append(f"qss.mixed failed: {result!r:.200}")
        else:
            text = result[1].splitlines()
            head_ok = text[:1] == [f"report kind=mixed-qss seed={inputs['seed']}"]
            tail_ok = text[-1:] == ["result=pass"]
            got = []
            for raw in text[1:-1]:
                m = self.LINE.match(raw)
                if m is None:
                    got.append(("?", "?", "?", "?", 0.0, False))
                else:
                    c, s, i, metric, value, passed = m.groups()
                    got.append((c, s, i, metric, float(value), passed == "true"))
            bad = count_line_failures(mixed_keys, got)
            if not (head_ok and tail_ok):
                bad = len(mixed_keys)
            failed += bad
            if bad:
                messages.append(f"qss.mixed: {bad} of {len(mixed_keys)} lines wrong or missing")
        return attempted, failed, messages


# ---------------------------------------------------------------------------
# access: structure and MSP algebra


class Access:
    """Structure algebra and MSP algebra, with no quantum simulation."""

    name = "access"
    N5_SAMPLE = 800
    RANDOM_STRUCTURES = 250
    # (label, formula text, field, players, qualified predicate over a mask)
    FORMULAS = [
        ("orand", "or(and(1,3),and(2,3))", 5, 3,
         lambda b: (b & 0b101) == 0b101 or (b & 0b110) == 0b110),
        ("andor", "and(or(1,2),or(3,4))", 5, 4,
         lambda b: bool(b & 0b0011) and bool(b & 0b1100)),
        ("thr3of5", "thr3(1,2,3,4,5)", 7, 5, lambda b: bin(b).count("1") >= 3),
        ("thr3of7", "thr3(1,2,3,4,5,6,7)", 11, 7, lambda b: bin(b).count("1") >= 3),
    ]

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        chains = [(n, c) for n in range(1, 5) for c in all_antichains(n)]
        chains += [(5, c) for c in rng.sample(all_antichains(5), self.N5_SAMPLE)]
        # Player counts and set counts follow a fixed schedule (each n from
        # 1 to 10 equally often) so that the seed moves the sets, not the
        # amount of work: one n = 10 structure costs as much as hundreds
        # of small ones.
        for i in range(self.RANDOM_STRUCTURES):
            n, count = 1 + i % 10, (i // 10) % 9
            chains.append((n, tuple(rng.randint(0, (1 << n) - 1) for _ in range(count))))
        msps = []
        for n in range(1, 6):
            for k in range(n):
                players = ",".join(str(i) for i in range(1, n + 1))
                formula = f"thr{k + 1}({players})" if n > 1 else players
                msps.append((f"shamir{n},{k}", formula, 7, n,
                             lambda b, k=k: bin(b).count("1") > k, (n, k)))
        msps += [(label, text, p, n, q, None) for label, text, p, n, q in self.FORMULAS]
        return {"chains": chains, "msps": msps}

    def setup(self, api, gen: dict, seed: int, workdir) -> dict:
        structures = [api.structures.AdversaryStructure(n, c) for n, c in gen["chains"]]
        fields = {p: api.galois.Field(p) for p in (5, 7, 11)}
        msps = []
        for label, text, p, n, _, shamir in gen["msps"]:
            formula = api.structures.parse_formula(text)
            base = api.msp.shamir_msp(*shamir, fields[p]) if shamir else None
            msps.append((label, formula, fields[p], base))
        return {"structures": structures, "msps": msps, "api": api}

    @staticmethod
    def _structure_ops(a):
        dual = a.dual()
        out = {
            "dualdual": dual.dual(),
            "members": frozenset(a.members()),
            "dual_members": frozenset(dual.members()),
            "q2": a.is_q2(),
            "q2star": a.is_q2star(),
            "selfdual": a.is_selfdual(),
        }
        if out["q2star"]:
            ext = a.extend_selfdual()
            out["ext_selfdual"] = ext.is_selfdual()
            out["restricted"] = ext.restrict(a.n)
        return out

    @staticmethod
    def _msp_ops(api, formula, field, base):
        m = api.msp
        compiled = m.compile_formula(formula, field)
        program = base if base is not None else compiled
        structure = m.msp_structure(program)
        out = {
            "compiled": m.msp_structure(compiled) if base is not None else structure,
            "structure": structure,
            "dual": m.msp_structure(m.dual_msp(program)),
            "q2star": structure.is_q2star(),
        }
        if out["q2star"]:
            ext = m.msp_structure(m.extend_msp(program))
            out["ext"] = ext
            out["ext_selfdual"] = ext.is_selfdual()
            out["restricted"] = ext.restrict(program.n)
        return out

    def calls(self, inputs: dict):
        out = [
            (f"access.structure.{i}", lambda a=a: self._structure_ops(a))
            for i, a in enumerate(inputs["structures"])
        ]
        api = inputs["api"]
        out += [
            (f"access.msp.{label}", lambda f=f, fd=fd, b=b: self._msp_ops(api, f, fd, b))
            for label, f, fd, b in inputs["msps"]
        ]
        return out

    def check(self, gen: dict, inputs: dict, outputs: dict):
        attempted = failed = 0
        messages = []

        def verdicts(name, items):
            nonlocal attempted, failed
            attempted += len(items)
            bad = [what for what, ok in items if not ok]
            failed += len(bad)
            if bad:
                messages.append(f"{name}: {', '.join(bad)}")

        def raised(name, out, count):
            nonlocal attempted, failed
            attempted += count
            failed += count
            messages.append(f"{name} raised {out!r}")

        for i, ((n, chain), a) in enumerate(zip(gen["chains"], inputs["structures"])):
            name = f"access.structure.{i}"
            members = down_closure(n, chain)
            dual = dual_of(n, members)
            q2star = dual <= members
            out = outputs[name]
            if isinstance(out, Exception):
                raised(name, out, 7 if q2star else 5)
                continue
            m, dm = out["members"], out["dual_members"]
            items = [
                ("members", m == members),
                ("dual().dual()", out["dualdual"] == a),
                ("Q2 <=> A in A*", out["q2"] == (m <= dm)),
                ("Q2* <=> A* in A", out["q2star"] == (dm <= m) == q2star),
                ("self-dual", out["selfdual"] == (out["q2"] and out["q2star"])),
            ]
            if q2star:
                items += [
                    ("extension self-dual", out.get("ext_selfdual") is True),
                    ("extension restricts back", out.get("restricted") == a),
                ]
            verdicts(name, items)

        for label, _, _, n, qualified, shamir in gen["msps"]:
            name = f"access.msp.{label}"
            members = members_of(n, lambda b: not qualified(b))
            dual = dual_of(n, members)
            q2star = dual <= members
            out = outputs[name]
            if isinstance(out, Exception):
                raised(name, out, 7 if q2star else 4)
                continue
            items = [
                ("msp_structure", set(out["structure"].members()) == members),
                ("compiled formula", set(out["compiled"].members()) == members),
                ("dual_msp computes the dual", set(out["dual"].members()) == dual),
                ("Q2*", out["q2star"] == q2star),
            ]
            if q2star:
                items += [
                    ("extension", set(out["ext"].members()) == selfdual_extension(n, members)),
                    ("extension self-dual", out["ext_selfdual"] is True),
                    ("extension restricts back", out["restricted"] == out["structure"]),
                ]
            verdicts(name, items)
        return attempted, failed, messages


# ---------------------------------------------------------------------------
# convert: the conversion condition


class Convert:
    """The square-root criterion, its density-matrix oracle, MSP-derived
    tables, exhaustive classical dealing and the homomorphic search."""

    name = "convert"
    TABLES = 200
    FORMULA = "or(and(1,3),and(2,3))"

    def generate(self, seed: int) -> dict:
        shamir_members = members_of(5, lambda b: bin(b).count("1") <= 2)
        orand_members = members_of(
            3, lambda b: not ((b & 0b101) == 0b101 or (b & 0b110) == 0b110)
        )
        ext_members = selfdual_extension(3, orand_members)
        return {
            "shamir_splits": sorted(shamir_members & dual_of(5, shamir_members)),
            "ext_splits": sorted(ext_members & dual_of(4, ext_members)),
        }

    def setup(self, api, gen: dict, seed: int, workdir) -> dict:
        gf5, gf7 = api.galois.Field(5), api.galois.Field(7)
        orand = api.msp.compile_formula(api.structures.parse_formula(self.FORMULA), gf5)
        return {
            "shamir": api.msp.shamir_msp(5, 2, gf7),
            "ext": api.msp.extend_msp(orand),
            "tables": api.condition.generate_valid_schemes(
                self.TABLES, seed=seed, max_secrets=4, max_share_size=6, max_denominator=24
            ),
            "shamir_splits": gen["shamir_splits"],
            "ext_splits": gen["ext_splits"],
            "seed": seed,
            "api": api,
        }

    def calls(self, inputs: dict):
        api, seed = inputs["api"], inputs["seed"]
        cond, cls = api.condition, api.classical
        tables = {}

        def from_msp(key):
            def call():
                tables[key] = cond.scheme_from_msp(inputs[key])
                return True
            return call

        out = [("convert.table.shamir", from_msp("shamir")), ("convert.table.ext", from_msp("ext"))]
        for i, sch in enumerate(inputs["tables"]):
            out.append((f"convert.eq1.random.{i}", lambda s=sch: cond.eq1_check(s, 0b01)))
            out.append((f"convert.oracle.random.{i}",
                        lambda s=sch: cond.lift_report(s, 0b01, seed=seed).passed))
        for key, splits in (("shamir", inputs["shamir_splits"]), ("ext", inputs["ext_splits"])):
            for u in splits:
                out.append((f"convert.eq1.{key}.{u}", lambda k=key, u=u: cond.eq1_check(tables[k], u)))
        for u in inputs["shamir_splits"]:
            out.append((f"convert.oracle.shamir.{u}",
                        lambda u=u: cond.lift_report(tables["shamir"], u, seed=seed).passed))
        out.append(("convert.classical.shamir", lambda: cls.verify_classical(inputs["shamir"]).passed))
        out.append(("convert.classical.ext", lambda: cls.verify_classical(inputs["ext"]).passed))
        out.append(("convert.search.homomorphic",
                    lambda: cond.search_counterexample(family="homomorphic", max_share_size=4)))
        return out

    def check(self, gen: dict, inputs: dict, outputs: dict):
        attempted = failed = 0
        messages = []

        def verdict(name, ok):
            nonlocal attempted, failed
            attempted += 1
            if not ok:
                failed += 1
                messages.append(f"{name}: {outputs.get(name)!r:.200}")

        for key in ("shamir", "ext"):
            verdict(f"convert.table.{key}", outputs[f"convert.table.{key}"] is True)
        verdicts = []
        for i in range(len(inputs["tables"])):
            eq1, oracle = outputs[f"convert.eq1.random.{i}"], outputs[f"convert.oracle.random.{i}"]
            agree = isinstance(eq1, bool) and eq1 == oracle
            verdict(f"convert.eq1.random.{i}", agree)
            verdict(f"convert.oracle.random.{i}", agree)
            verdicts.append(eq1)
        verdict("convert.random.both_verdicts", True in verdicts and False in verdicts)
        for key in ("shamir", "ext"):
            for u in inputs[f"{key}_splits"]:
                verdict(f"convert.eq1.{key}.{u}", outputs[f"convert.eq1.{key}.{u}"] is True)
        for u in inputs["shamir_splits"]:
            name = f"convert.oracle.shamir.{u}"
            verdict(name, outputs[name] is True and outputs[f"convert.eq1.shamir.{u}"] is True)
        for key in ("shamir", "ext"):
            verdict(f"convert.classical.{key}", outputs[f"convert.classical.{key}"] is True)
        verdict("convert.search.homomorphic", outputs["convert.search.homomorphic"] is None)
        return attempted, failed, messages


WORKLOADS = {w.name: w for w in (Qss(), Access(), Convert())}
