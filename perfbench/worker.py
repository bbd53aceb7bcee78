"""One benchmark process: set up one workload, time its passes, check them.

Started by ``run.py``; each process runs one workload once, so its peak
resident memory belongs to that workload alone. Modes:

- ``setup``: build the inputs and report ``setup_s`` only.
- ``measure``: build the inputs, run timed passes until ``--seconds`` of
  pass time is spent, check every verdict of every pass.
- ``trace``: build the inputs under the tracer, run untraced passes for
  half of ``--seconds``, then one traced pass.

Pass and set-up times are corrected for the host's speed drift by
``speed.py``; the probe's ring is left out of the peak memory.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# eigvalsh runs in the trace-distance step: pin BLAS/OpenMP to one
# thread before numpy is imported, so runs do not depend on idle cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

CHECKOUT = HERE.parent


class Api:
    """The spanshare layer modules, imported from the checkout's src/."""

    def __init__(self, src: Path):
        sys.path.insert(0, str(src))
        package = importlib.import_module("spanshare")
        if Path(package.__file__).resolve().parent != (src / "spanshare").resolve():
            raise ImportError(f"spanshare was imported from {package.__file__}, not {src}")
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"spanshare.{layer}"))

    def modules(self) -> dict:
        return {layer: getattr(self, layer) for layer in LAYERS}


def run_pass(workload, inputs, probe, root=None):
    """One timed pass: (outputs by call name, wall seconds, work seconds,
    corrected seconds).

    The machine speed is probed right before and after the pass and, in
    an untraced pass, every ``speed.PERIOD_S`` during it. A traced pass
    is not probed during the pass, since a probe would land in the self
    time of whatever call it interrupted. Work is the wall time without
    the probes' own time; corrected is the work at the reference speed
    (``speed.corrected``).
    """
    calls = workload.calls(inputs)
    outputs = {}
    gc.collect()
    traced = root is not None
    edges = [probe.median(5) if traced else probe.once()]
    with contextlib.nullcontext() if traced else probe.sampling():
        start = time.perf_counter()
        for name, thunk in calls:
            try:
                if root is None:
                    outputs[name] = thunk()
                else:
                    with root(name):
                        outputs[name] = thunk()
            except Exception as exc:  # a raising verdict call is a failed verdict, not a crash
                outputs[name] = exc
        end = time.perf_counter()
    inside = [] if traced else [seconds for started, seconds in probe.inside if started < end]
    edges.append(probe.median(5) if traced else probe.once())
    work = end - start - sum(inside)
    return outputs, end - start, work, speed.corrected(work, inside + edges)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter() of the parent just before it started this process")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    started = time.perf_counter()
    probe = speed.SpeedProbe()
    gen = workload.generate(args.seed)
    excluded_s = time.perf_counter() - started

    api = Api(CHECKOUT / "src")
    workdir = CHECKOUT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer(api.modules()) if args.mode == "trace" else None
        if tracer is None:
            inputs = workload.setup(api, gen, args.seed, workdir)
        else:
            tracer.install()
            with tracer.root("setup"):
                inputs = workload.setup(api, gen, args.seed, workdir)
            tracer.restore()
        setup_wall_s = time.perf_counter() - args.t0 - excluded_s
        result = {"setup_wall_s": setup_wall_s,
                  "setup_s": speed.corrected(setup_wall_s, [probe.median(5)])}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        budget = args.seconds / 2 if tracer else args.seconds
        passes, attempted, failed, messages = [], 0, 0, []

        def checked(outputs):
            nonlocal attempted, failed
            a, f, msgs = workload.check(gen, inputs, outputs)
            attempted += a
            failed += f
            messages.extend(msgs[:20])

        walls, works = [], []
        while not walls or sum(walls) < budget:
            outputs, wall, work, corrected = run_pass(workload, inputs, probe)
            walls.append(wall)
            works.append(work)
            passes.append(corrected)
            checked(outputs)
            del outputs
        if tracer:
            tracer.install()
            outputs, _, work, traced_s = run_pass(workload, inputs, probe, tracer.root)
            tracer.restore()
            checked(outputs)
            del outputs
            result["per_layer"] = tracer.metrics(traced_s / work, traced_s - statistics.median(passes))
            spans = CHECKOUT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans)
            result["spans"] = f"{len(tracer.spans)} spans in {spans.relative_to(CHECKOUT)}"
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        result.update({
            "passes": passes,
            "works": works,
            "attempted": attempted,
            "failed": failed,
            "messages": messages[:20],
            "numpy": sys.modules["numpy"].__version__,
            "peak_rss_mb": (peak - probe.resident) / 2**20,
        })
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
