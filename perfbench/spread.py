"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads qss access convert --seeds 1-10 \
        [--trace-seed 2026] [--out trajectory.json]

Each run measures ``run_seconds`` from BENCHMARK.json. For every
workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(third minus first quartile, as a share of the median), next to the
metric's bound from BENCHMARK.json. With ``--trace-seed`` it adds one
traced run per workload. With ``--out`` it writes everything as JSON,
which is how a point of the trajectory is recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=["qss", "access", "convert"])
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        entry = record["workloads"][workload] = {}
        for seed in args.seeds:
            result, env = run(workload, seed, seconds, 0)
            record["environment"] = env
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: wrong verdicts")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        entry["end_to_end"] = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            entry["end_to_end"][name] = {"median": median, "q1": q1, "q3": q3, "runs": len(vals),
                                         "spread": spread, "bound": bounds[name], "values": vals}
            print(f"  {workload:8s} {name:12s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {spread:6.2%}  bound {bounds[name]:.0%}", flush=True)
        if args.trace_seed is not None:
            result, _ = run(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed,
                                  **{k: v["value"] for k, v in result["metrics"].items()}}
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
