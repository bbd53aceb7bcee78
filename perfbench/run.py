"""spanshare benchmark: run one workload with one seed and report its metrics.

    python3 perfbench/run.py --workload qss --seed 1 --seconds 20 --trace 0

Workloads: qss, access, convert (see perfbench/README.md). Run from the
root of a checkout; the package is imported from its src/ directory.

With ``--trace 0`` it reports the end-to-end metrics: ``verify_s``
(median pass time), ``setup_s`` (median over several fresh processes),
``peak_rss_mb`` and, on a summary line, ``error_rate``. Times are
corrected for the host's speed drift by ``speed.py``; the summary also
prints them as measured. With
``--trace 1`` it reports the per-layer metrics of one traced pass.
Every workload runs in fresh single-threaded processes. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
verdict was right, 1 when some verdict was wrong, and 2 (with no JSON
line) when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKLOADS = ("qss", "access", "convert")
# Fresh processes that only set up, half before and half after the
# measuring process so that they sample the machine at different times;
# with the measuring process they give the setup_s samples.
SETUP_PROBES = 6
# A run must end within 180 s; a worker that has not ended by then is
# killed and the run fails.
RUN_DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker process and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=CHECKOUT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed nothing:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{mode} worker printed no result:\n{proc.stdout[-2000:]}") from None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment(numpy_version: str) -> dict:
    def cpu_model() -> str:
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def commit() -> str:
        try:
            # the ceiling keeps git from reporting an enclosing repository
            env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(CHECKOUT.parent))
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, env=env,
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return out.stdout.strip() if out.returncode == 0 else "unknown"

    digest = hashlib.sha256()
    for path in sorted((CHECKOUT / "src").rglob("*.py")):
        digest.update(path.relative_to(CHECKOUT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu_model(), "commit": commit(),
            "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="pass time to measure in the measuring process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "spanshare" / "__init__.py").is_file():
        print(f"error: no spanshare sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S

    try:
        if args.trace:
            result = spawn(args, "trace", deadline)
            metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else
                           ("ratio" if k.endswith("_ratio") else "count")}
                       for k, v in result["per_layer"].items()}
            summary = [f"traced set-up and pass: {result['spans']}"]
        else:
            setups = [spawn(args, "setup", deadline) for _ in range(SETUP_PROBES // 2)]
            result = spawn(args, "measure", deadline)
            setups.append(result)
            setups += [spawn(args, "setup", deadline) for _ in range(SETUP_PROBES // 2)]
            verify = quartiles(result["passes"])
            setup = quartiles([r["setup_s"] for r in setups])
            metrics = {
                "verify_s": {"value": verify[1], "unit": "s"},
                "setup_s": {"value": setup[1], "unit": "s"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            }
            summary = [
                f"verify_s    median {verify[1]:.4f} s  quartiles {verify[0]:.4f} .. {verify[2]:.4f}"
                f"  n={len(result['passes'])} passes",
                f"setup_s     median {setup[1]:.4f} s  quartiles {setup[0]:.4f} .. {setup[2]:.4f}"
                f"  n={len(setups)} processes",
                f"peak_rss_mb {result['peak_rss_mb']:.1f} MB",
                f"as measured, before speed correction: verify {statistics.median(result['works']):.4f} s,"
                f" setup {statistics.median(r['setup_wall_s'] for r in setups):.4f} s",
            ]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed = result["attempted"], result["failed"]
    summary.append(f"error_rate  {failed / attempted:.6f} ratio  ({failed} of {attempted} verdicts)")
    for message in result["messages"]:
        print(f"mismatch: {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in summary:
        print(line)
    print("env " + json.dumps(environment(result["numpy"])))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
