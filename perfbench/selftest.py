"""Self-test of the benchmark's tracer and traced counts.

    python3 perfbench/selftest.py

Reports every failed check and exits 1 if any failed. It checks that:

- ``Tracer.restore()`` puts back every patched module attribute, class
  attribute and default argument value.
- The traced ``qss`` run at seed 2026 gives the pinned counts below, and
  the counts that are only reachable through spanshare's own by-name
  imports and default arguments are seen.
- Each workload's dominant layer by self time is the one the benchmark
  was built to stress: ``quantum`` on qss, ``structures``+``msp``+``galois``
  on access, ``condition`` on convert.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SEED = 2026

PINNED_QSS = {
    "quantum.qencode.calls": 54,
    "quantum.apply_plan.calls": 526,
    "quantum.partial_trace.calls": 1104,
    "quantum.trace_distance.calls": 7673,
    "quantum.amplitudes": 76296,
    # quantum calls build_reconstruction_plan through its own import:
    # 16 pure plans and 3 mixed plans in set-up, 3 more inside cli.main
    "classical.build_reconstruction_plan.calls": 22,
    # dual_msp is reached only as extend_msp's default dualizer:
    # the or-and dual has 3 rows, built in set-up and inside cli.main
    "msp.dual_msp.rows_out": 6,
    "cli.main.calls": 1,
}


def snapshot(modules) -> dict:
    state = {}
    for module in modules:
        for name, value in vars(module).items():
            state[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, raw in vars(value).items():
                    state[(module.__name__, name, attr)] = raw
            defaults = getattr(value, "__defaults__", None)
            if defaults:
                state[(module.__name__, name, "__defaults__")] = defaults
    return state


def check_restore() -> list[str]:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(CHECKOUT / "src"))
    from tracer import LAYERS, Tracer
    import importlib

    modules = [importlib.import_module(f"spanshare.{layer}") for layer in LAYERS]
    modules.append(importlib.import_module("spanshare"))
    before = snapshot(modules)
    tracer = Tracer({layer: m for layer, m in zip(LAYERS, modules)})
    tracer.install()
    msp = modules[LAYERS.index("msp")]
    patched = msp.extend_msp.__wrapped__.__defaults__[0] is msp.dual_msp
    tracer.restore()
    after = snapshot(modules)
    errors = [] if patched else ["extend_msp's default dualizer was not patched"]
    changed = [key for key in before if before[key] is not after.get(key)]
    if changed:
        errors.append(f"restore() left {len(changed)} patches, e.g. {changed[:3]}")
    return errors


def traced(workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}


def main() -> int:
    errors = check_restore()
    runs = {w: traced(w) for w in ("qss", "access", "convert")}
    for name, expected in PINNED_QSS.items():
        if runs["qss"][name] != expected:
            errors.append(f"qss {name} = {runs['qss'][name]}, pinned at {expected}")
    if not runs["convert"]["quantum.partial_trace.calls"]:
        errors.append("convert: condition's imported partial_trace was not traced")

    layers = ("galois", "structures", "msp", "classical", "quantum", "condition", "cli")
    for workload, dominant in (("qss", ("quantum",)), ("access", ("structures", "msp", "galois")),
                               ("convert", ("condition",))):
        own = sum(runs[workload][f"{layer}.self_s"] for layer in dominant)
        others = {l: runs[workload][f"{l}.self_s"] for l in layers if l not in dominant}
        if own <= max(others.values()):
            errors.append(f"{workload}: {'+'.join(dominant)} self time {own:.3f} s is not "
                          f"above every other layer: {others}")
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("FAIL" if errors else "pass"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
