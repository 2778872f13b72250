"""Spans around calls into the package's modules, recorded from outside.

``Tracer.install`` replaces each function named in ``TRACED`` by a timing
wrapper wherever a ``seqmanip`` module holds a reference to it, so calls
between modules are caught too (``is_crucial`` calling
``choice_tree_best``, ``check_spec`` calling ``build_instance``).  The
source is not changed; ``uninstall`` puts the originals back.  Spans (name,
start, end, parent, instance id) stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (span name, module, attribute).  The span is named after the layer whose
# work it measures.  ``dp._build`` is the table build behind both
# ``build_opt_table`` and ``best_response_with_table``; if the DP entry
# points are merged, this table is the one place to update.
TRACED = (
    ("sweeps.check_spec", "seqmanip.sweeps", "check_spec"),
    ("model.build_instance", "seqmanip.sweeps", "build_instance"),
    ("model.parse_instance", "seqmanip.model", "parse_instance"),
    ("model.with_policy", "seqmanip.model", "Instance.with_policy"),
    ("policy.decompose", "seqmanip.policy", "decompose"),
    ("policy.enumerate_dominated", "seqmanip.policy", "enumerate_dominated"),
    ("engine.execute", "seqmanip.engine", "execute"),
    ("greedy.greedy_alg", "seqmanip.greedy", "greedy_alg"),
    ("dp.best_response_with_table", "seqmanip.dp", "best_response_with_table"),
    ("dp.build_opt_table", "seqmanip.dp", "_build"),
    ("oracle.choice_tree_best", "seqmanip.oracle", "choice_tree_best"),
    ("oracle.dominated_greedy_best", "seqmanip.oracle", "dominated_greedy_best"),
    ("oracle.is_crucial", "seqmanip.oracle", "is_crucial"),
    ("responses.truthful_response", "seqmanip.responses", "truthful_response"),
    ("cli.main", "seqmanip.cli", "main"),
)
GENERATORS = {"policy.enumerate_dominated"}
# Mean time per instance is given in microseconds for these, milliseconds
# for the others.
MICROSECONDS = {"model.with_policy", "engine.execute", "policy.decompose"}
CALL_COUNTS = {"model.with_policy", "engine.execute"}
GRID_LABELS = ("n2m200", "n3m90", "n4m40", "n5m24")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for name, _module, _attribute in TRACED:
        scale = "us" if name in MICROSECONDS else "ms"
        units[f"{name}.{scale}"] = scale
        units[f"{name}.share"] = "frac"
        if name in CALL_COUNTS:
            units[f"{name}.calls"] = "count"
    for label in GRID_LABELS:
        units[f"dp.build_opt_table.ms.{label}"] = "ms"
    units.update(
        {
            "policy.enumerate_dominated.count": "count",
            "dp.finish.ms": "ms",
            "dp.states": "count",
            "dp.states_per_s": "1/s",
            "dp.state_bound_frac": "frac",
            "cli.interpreter_ms": "ms",
            "cli.import_ms": "ms",
            "trace.overhead_frac": "frac",
        }
    )
    return units


class Tracer:
    def __init__(self):
        self.names = [name for name, _module, _attribute in TRACED]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_instance = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")
        self.stack = [-1]
        self.depth = [0] * len(self.names)
        self.instance = -1
        self.active = True
        self.yields = 0
        self.states = 0
        self.bound_fracs: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_instance.append(self.instance)
        self.span_outer.append(self.depth[name_id] == 0)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.depth[name_id] += 1
        self.stack.append(index)
        return index

    def _close(self, index: int, name_id: int, start: float) -> None:
        self.span_end[index] = perf_counter()
        self.span_start[index] = start
        self.depth[name_id] -= 1
        self.stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self.name_ids[name]
        tracer = self
        observe = self._observe_dp if name == "dp.best_response_with_table" else None

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, name_id, start)
            if observe is not None:
                observe(args[0], result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """One span per step of the generator, counted in ``yields``."""
        name_id = self.name_ids[name]
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not tracer.active:
                return inner

            def steps():
                while True:
                    index = tracer._open(name_id)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index, name_id, start)
                    tracer.yields += 1
                    yield item

            return steps()

        return wrapper

    def _observe_dp(self, inst, result) -> None:
        states = len(result[1])
        self.states += states
        bound = (1 + inst.m) ** (inst.n_agents - 1) * (inst.m_prime + 1) * (inst.k1 + 1)
        self.bound_fracs.append(states / bound)

    def install(self) -> None:
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == "seqmanip" or key.startswith("seqmanip."))
        ]
        for name, module_name, attribute in TRACED:
            owner = sys.modules[module_name]
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
                holders = [owner]
            else:
                holders = modules
            original = getattr(owner, attribute)
            make = self._wrap_generator if name in GENERATORS else self._wrap
            wrapper = make(name, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def metrics(self, instances: int, wall: float, labels: list[str]) -> dict[str, float]:
        """Per-layer metrics over ``instances`` traced units taking ``wall`` s.

        A ``.ms`` or ``.us`` metric is the mean time per instance, counting
        only the outermost span of a name; ``.share`` is the self time of
        all spans of a name (their time minus their child spans' time) as a
        fraction of ``wall``.
        """
        count = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += duration[i]
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        build_by_label = {label: 0.0 for label in GRID_LABELS}
        build_id = self.name_ids["dp.build_opt_table"]
        for i in range(count):
            name_id = self.span_name[i]
            own[name_id] += duration[i] - child[i]
            calls[name_id] += 1
            if self.span_outer[i]:
                total[name_id] += duration[i]
                if name_id == build_id and self.span_instance[i] >= 0:
                    label = labels[self.span_instance[i]]
                    if label in build_by_label:
                        build_by_label[label] += duration[i]
        out = {}
        for name_id, name in enumerate(self.names):
            if name in MICROSECONDS:
                out[f"{name}.us"] = total[name_id] / instances * 1e6
            else:
                out[f"{name}.ms"] = total[name_id] / instances * 1e3
            out[f"{name}.share"] = own[name_id] / wall
            if name in CALL_COUNTS:
                out[f"{name}.calls"] = calls[name_id]
        for label, seconds in build_by_label.items():
            per_label = labels.count(label)
            out[f"dp.build_opt_table.ms.{label}"] = seconds / per_label * 1e3 if per_label else 0.0
        build = total[build_id]
        out["policy.enumerate_dominated.count"] = self.yields
        out["dp.finish.ms"] = out["dp.best_response_with_table.ms"] - out["dp.build_opt_table.ms"]
        out["dp.states"] = self.states
        out["dp.states_per_s"] = self.states / build if build else 0.0
        out["dp.state_bound_frac"] = (
            sum(self.bound_fracs) / len(self.bound_fracs) if self.bound_fracs else 0.0
        )
        return out

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: id, name, start, end, parent, instance."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("id,name,start_s,end_s,parent,instance\n")
            for i in range(len(self.span_start)):
                handle.write(
                    f"{i},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i] - origin:.9f},{self.span_end[i] - origin:.9f},"
                    f"{self.span_parent[i]},{self.span_instance[i]}\n"
                )
