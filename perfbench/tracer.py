"""Per-layer tracing of spanshare, done entirely from outside the package.

``Tracer.install()`` replaces every public function and public method of
the layer modules by a timing wrapper, in every place that holds a
reference to it: module namespaces (``quantum`` imports ``msp_structure``,
``extend_msp`` and ``build_reconstruction_plan`` by name, ``condition``
imports ``partial_trace`` and ``trace_distance``, ``cli`` imports most of
the package) and default argument values (``extend_msp`` holds
``dual_msp`` as the default of ``dualizer``). ``restore()`` undoes every
patch. No source file changes.

Each wrapped call records a span (name, start, end, parent span) kept in
memory. Methods called hundreds of thousands of times per pass (listed
in ``HOT``) and generator functions get aggregate counters instead of
one span per call. A layer's self time is the duration of its calls
minus the time covered by the wrapped calls they make; time spent in
private helpers stays with the public function that called them.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("galois", "structures", "msp", "classical", "quantum", "condition", "cli")

# Aggregate counters only: too many calls for one span each.
HOT = frozenset({
    "galois.Matrix.__post_init__",
    "galois.Matrix.matvec",
    "galois.Matrix.take_rows",
    "galois.Matrix.transpose",
    "galois.Matrix.from_rows",
    "galois.Field.dot",
    "galois.rref",
    "galois.rank",
    "structures.AdversaryStructure.is_member",
    "structures.AdversaryStructure.__post_init__",
    "msp.MSP.row_indices",
    "msp.rows_of",
    "quantum.CheckLine.machine",
    "quantum.VerificationReport.add",
    "condition.ClassicalScheme.project",
    "condition.ClassicalScheme.coords",
    "condition.HomomorphicSpec.apply",
    "condition.HomomorphicSpec.index",
})

# Not wrapped at all: one-line bit helpers called millions of times,
# whose cost stays with their caller.
SKIP = frozenset({
    "galois.Field.element",
    "galois.Field.add",
    "galois.Field.sub",
    "galois.Field.neg",
    "galois.Field.mul",
    "structures.full_mask",
    "structures.is_subset",
    "structures.complement",
    "structures.players_from_mask",
    "structures.mask_from_players",
    "structures.format_players",
})


def _targets(module, layer):
    """(owner, attribute, raw class-dict value, function, key) to wrap."""
    path = module.__file__
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj, obj, f"{layer}.{name}"
        elif inspect.isclass(obj):
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_") and attr not in ("__init__", "__post_init__"):
                    continue
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if inspect.isfunction(fn) and fn.__code__.co_filename == path:
                    yield obj, attr, raw, fn, f"{layer}.{name}.{attr}"


class Tracer:
    """Spans and counters for one traced run; install() before the
    traced work, restore() after it."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # per function key: [calls, self seconds]
        self.stats: dict[str, list] = {}
        self.layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
        self.counters = dict.fromkeys(
            ("quantum.amplitudes", "quantum.reduced_dim_sum", "msp.dual_msp.rows_out",
             "msp.extend_msp.rows_out", "classical.deals", "condition.table_rows"), 0)
        self.distinct: dict[str, set] = {"structures.AdversaryStructure.dual": set(),
                                         "msp.msp_structure": set()}
        self._stack = [[0.0, -1]]
        self._undo: list = []
        self._wrappers: dict[int, object] = {}

    # -- counters computed from arguments and results -------------------

    def _after_hooks(self):
        c, d = self.counters, self.distinct

        def add(name, value):
            c[name] += value

        return {
            "quantum.qencode": lambda a, k, r: add("quantum.amplitudes", len(r.state.amps)),
            "quantum.partial_trace": lambda a, k, r: add("quantum.reduced_dim_sum", r.dim),
            "msp.dual_msp": lambda a, k, r: add("msp.dual_msp.rows_out", r.d),
            "msp.extend_msp": lambda a, k, r: add("msp.extend_msp.rows_out", r.d),
            "classical.verify_classical": lambda a, k, r: add("classical.deals", r.deals),
            "condition.eq1_check": lambda a, k, r: add("condition.table_rows", len(a[0].table)),
            "condition.lift_report": lambda a, k, r: add("condition.table_rows", len(a[0].table)),
            "structures.AdversaryStructure.dual":
                lambda a, k, r: d["structures.AdversaryStructure.dual"].add(a[0]),
            "msp.msp_structure": lambda a, k, r: d["msp.msp_structure"].add(a[0]),
        }

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, key, layer, after):
        name_id = self._name_id(key)
        stat = self.stats[key]
        layer_self, stack, spans = self.layer_self, self._stack, self.spans
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                stat[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    parent = stack[-1]
                    frame = [0.0, parent[1]]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dur = clock() - t0
                        stack.pop()
                        parent[0] += dur
                        stat[1] += dur - frame[0]
                        layer_self[layer] += dur - frame[0]
                    yield item

            return gen_wrapper

        hot = key in HOT

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, len(spans)]
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                stat[0] += 1
                stat[1] += dur - frame[0]
                layer_self[layer] += dur - frame[0]
                if not hot:
                    spans[frame[1]] = (name_id, t0, t1, parent[1])
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _name_id(self, key: str) -> int:
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
            self.stats[key] = [0, 0.0]
        return self._ids[key]

    @contextmanager
    def root(self, name: str):
        """Root span of one verdict call; its self time is benchmark glue."""
        name_id = self._name_id(name)
        stat, stack, spans = self.stats[name], self._stack, self.spans
        frame = [0.0, len(spans)]
        spans.append(None)
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            stat[0] += 1
            stat[1] += t1 - t0 - frame[0]
            self.layer_self["bench"] += t1 - t0 - frame[0]
            spans[frame[1]] = (name_id, t0, t1, -1)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        hooks = self._after_hooks()
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "spanshare" or name.startswith("spanshare."))]
        functions = list(self._package_functions(package))
        replaced: dict[int, tuple] = {}
        for layer in LAYERS:
            for owner, attr, raw, fn, key in _targets(self.modules[layer], layer):
                if key in SKIP:
                    continue
                wrapper = self._wrappers.get(id(fn))
                if wrapper is None:
                    wrapper = self._wrap(fn, key, layer, hooks.get(key))
                    self._wrappers[id(fn)] = wrapper
                replaced[id(fn)] = (fn, wrapper)
                if owner is not self.modules[layer]:
                    new = type(raw)(wrapper) if isinstance(raw, (staticmethod, classmethod)) else wrapper
                    setattr(owner, attr, new)
                    self._undo.append((owner, attr, raw))

        def swap(value):
            hit = replaced.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for module in package:
            for name, value in list(vars(module).items()):
                if swap(value) is not value:
                    setattr(module, name, swap(value))
                    self._undo.append((module, name, value))
        for fn in functions:
            defaults = fn.__defaults__
            if defaults and any(swap(v) is not v for v in defaults):
                fn.__defaults__ = tuple(swap(v) for v in defaults)
                self._undo.append((fn, "__defaults__", defaults))

    @staticmethod
    def _package_functions(package):
        for module in package:
            for value in vars(module).values():
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    yield value
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for raw in vars(value).values():
                        fn = getattr(raw, "__func__", raw)
                        if inspect.isfunction(fn):
                            yield fn

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object per span; ``parent`` is a span index, -1 for a root."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name_id, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": self.names[name_id],
                                      "start": start, "end": end, "parent": parent}) + "\n")

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0, 0.0])[0]

    def self_s(self, key: str) -> float:
        return self.stats.get(key, [0, 0.0])[1]

    def metrics(self, scale: float, overhead_s: float) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json; every time is
        multiplied by ``scale``, the traced pass's speed correction."""
        m: dict[str, float] = {f"{layer}.self_s": self.layer_self[layer] for layer in LAYERS}
        for name in ("qencode", "apply_plan", "partial_trace"):
            m[f"quantum.{name}.calls"] = self.calls(f"quantum.{name}")
            m[f"quantum.{name}.self_s"] = self.self_s(f"quantum.{name}")
        distance = ("quantum.trace_distance", "quantum.trace_distance_within")
        m["quantum.trace_distance.calls"] = sum(self.calls(k) for k in distance)
        m["quantum.trace_distance.self_s"] = sum(self.self_s(k) for k in distance)
        m["quantum.fidelity.calls"] = self.calls("quantum.fidelity")
        dual_calls = self.calls("structures.AdversaryStructure.dual")
        m["structures.dual.calls"] = dual_calls
        m["structures.dual.distinct_ratio"] = (
            len(self.distinct["structures.AdversaryStructure.dual"]) / dual_calls if dual_calls else 0.0
        )
        m["structures.is_member.calls"] = self.calls("structures.AdversaryStructure.is_member")
        m["msp.msp_eval.calls"] = self.calls("msp.msp_eval")
        structure_calls = self.calls("msp.msp_structure")
        m["msp.msp_structure.calls"] = structure_calls
        m["msp.msp_structure.distinct_ratio"] = (
            len(self.distinct["msp.msp_structure"]) / structure_calls if structure_calls else 0.0
        )
        m["galois.rref.calls"] = self.calls("galois.rref")
        m["galois.matvec.calls"] = self.calls("galois.Matrix.matvec")
        m["classical.build_reconstruction_plan.calls"] = self.calls(
            "classical.build_reconstruction_plan"
        )
        for name in ("eq1_check", "lift_report"):
            m[f"condition.{name}.calls"] = self.calls(f"condition.{name}")
            m[f"condition.{name}.self_s"] = self.self_s(f"condition.{name}")
        m["condition.scheme_from_msp.self_s"] = self.self_s("condition.scheme_from_msp")
        m["cli.main.calls"] = self.calls("cli.main")
        m.update(self.counters)
        # root spans' self time: traced wall time minus every layer's self time
        m["bench.unattributed_s"] = self.layer_self["bench"]
        m = {k: v * scale if k.endswith("_s") else v for k, v in m.items()}
        m["trace.overhead_s"] = overhead_s
        return m
