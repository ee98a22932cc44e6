"""Run-time tracing shims around the program's layer boundaries.

Nothing under ``src/`` is edited: :class:`Tracer` patches class and
module attributes when a traced pass starts and restores the very same
objects afterwards (``install`` / ``uninstall``; ``leftovers`` proves
the restore).  Every shim pushes a frame on one stack, so a boundary's
*self* time is its duration minus the time its child frames cover, and
the self times of all frames sum to the traced wall time exactly.

Boundaries called O(homes) or O(routines) times also keep their
durations (for percentiles) and, during the first traced pass, an
individual span record ``(id, parent id, name, start, end, context)``.
Boundaries called O(events) times only aggregate count / total / self
per ``(name, parent)``.  Simulator callbacks are charged to the layer
of the module that defines them by wrapping ``call_at`` /
``call_after``, so ``sim`` self time is ``Simulator.run`` minus
callbacks (plus the event pushes).

A span name is ``<layer>.<Owner>.<attr>``; the layer is the prefix.
"""

import importlib
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = ("sim", "devices", "core", "hub", "metrics", "workloads",
          "durability", "fleet", "serve")

#: Module prefix -> layer, most specific first.
_MODULE_LAYERS = (
    ("repro.hub.durability", "durability"),
    ("repro.sim", "sim"), ("repro.devices", "devices"),
    ("repro.core", "core"), ("repro.hub", "hub"),
    ("repro.metrics", "metrics"), ("repro.workloads", "workloads"),
    ("repro.fleet", "fleet"), ("repro.serve", "serve"),
)

ROOT = "harness.pass"

# (module, owner class or None, attribute, span name, flags)
# flags: "s" keep duration samples (and span records), "r" sum the
# return value (counts of granted / pumped), "h" context is a home id.
PATCHES: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run", "sim.Simulator.run", "s"),
    ("repro.devices.driver", "Driver", "issue", "devices.Driver.issue", ""),
    ("repro.devices.registry", "DeviceRegistry", "clear",
     "devices.DeviceRegistry.clear", "s"),
    ("repro.core.controller", "Controller", "submit",
     "core.Controller.submit", "s"),
    ("repro.core.controller", "RunResult", "from_controller",
     "core.RunResult.from_controller", "s"),
    ("repro.core.execution.locks", "LockTable", "acquire",
     "core.LockTable.acquire", "r"),
    ("repro.core.execution.locks", "LockTable", "release",
     "core.LockTable.release", ""),
    ("repro.core.schedulers.timeline", "TimelineScheduler", "on_arrive",
     "core.TimelineScheduler.on_arrive", "s"),
    ("repro.core.lineage", "Lineage", "try_acquire",
     "core.Lineage.try_acquire", "r"),
    ("repro.hub.safehome", "SafeHome", "__init__", "hub.SafeHome.build", "s"),
    ("repro.hub.safehome", "SafeHome", "reset", "hub.SafeHome.build", "s"),
    ("repro.hub.safehome", "SafeHome", "load_workload",
     "hub.SafeHome.load_workload", "s"),
    ("repro.hub.safehome", "SafeHome", "run", "hub.SafeHome.run", "s"),
    ("repro.hub.safehome", "SafeHome", "report", "hub.SafeHome.report", "s"),
    ("repro.hub.safehome", "SafeHome", "recover",
     "hub.SafeHome.recover", "s"),
    ("repro.hub.safehome", "SafeHome", "close_wal",
     "hub.SafeHome.close_wal", "s"),
    ("repro.hub.safehome", None, "analyze", "metrics.analyze", "s"),
    ("repro.fleet.engine", None, "aggregate_homes",
     "metrics.aggregate_homes", "s"),
    ("repro.fleet.engine", None, "merge_accumulators",
     "metrics.merge_accumulators", "s"),
    ("repro.fleet.pool", None, "accumulate_rows",
     "metrics.accumulate_rows", "s"),
    ("repro.fleet.worker", None, "build_fleet_workload",
     "workloads.build_fleet_workload", "s"),
    ("repro.hub.durability.recovery", "DurabilityManager", "record_input",
     "durability.DurabilityManager.record_input", ""),
    ("repro.hub.durability.recovery", "DurabilityManager", "observe",
     "durability.DurabilityManager.observe", ""),
    ("repro.hub.durability.recovery", "DurabilityManager",
     "on_event_processed",
     "durability.DurabilityManager.on_event_processed", ""),
    ("repro.hub.durability.recovery", "DurabilityManager",
     "take_checkpoint", "durability.DurabilityManager.take_checkpoint", "s"),
    ("repro.hub.durability.wal", "WriteAheadLog", "flush",
     "durability.WriteAheadLog.flush", "r"),
    ("repro.hub.durability.storage", "SegmentedWalWriter", "append",
     "durability.SegmentedWalWriter.append", ""),
    ("repro.hub.durability.storage", "SegmentedWalWriter", "seal",
     "durability.SegmentedWalWriter.seal", ""),
    ("repro.hub.durability.storage", "SegmentedWalWriter", "flush",
     "durability.SegmentedWalWriter.flush", ""),
    ("repro.fleet.worker", "HomeFactory", "run_task",
     "fleet.HomeFactory.run_task", "sh"),
    ("repro.fleet.pool", "SerialPool", "run", "fleet.pool.run", "s"),
    ("repro.fleet.pool", "ProcessPool", "run", "fleet.pool.run", "s"),
    ("repro.fleet.worker", None, "home_wal_record",
     "fleet.home_wal_record", "s"),
    ("repro.fleet.spool", "SpoolWriter", "write",
     "fleet.SpoolWriter.write", "s"),
    ("repro.fleet.engine", None, "merge_spool", "fleet.merge_spool", "s"),
    ("repro.serve.hub", "ServeHub", "submit", "serve.ServeHub.submit", "s"),
    ("repro.serve.hub", "ServeHub", "serve_until_idle",
     "serve.ServeHub.serve_until_idle", "s"),
    ("repro.serve.admission", "AdmissionControl", "drain",
     "serve.AdmissionControl.drain", ""),
    ("repro.serve.pacing", "RealTimeDriver", "pump",
     "serve.RealTimeDriver.pump", "r"),
    ("repro.serve.slo", "LatencyTracker", "add",
     "serve.LatencyTracker.add", "s"),
)


def layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "harness"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """One stack of frames, online aggregates, and the patch set."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        #: frame = [name, child_ns, span_id]
        self.stack: List[list] = []
        #: (name, parent name) -> [count, total_ns, self_ns]
        self.agg: Dict[Tuple[str, str], List[int]] = {}
        self.samples: Dict[str, List[int]] = {}
        self.sums: Dict[str, float] = {}
        #: (id, parent id, name, start_ns, end_ns, context) when kept.
        self.spans: List[tuple] = []
        self.keep_spans = False
        self._next_span = 1
        self._saved: List[Tuple[Any, str, Any]] = []
        self._callback_names: Dict[Any, str] = {}
        self._wrapper_code = None
        self._pid = os.getpid()

    # -- frames ----------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, flags: str = "") -> Callable:
        stack, agg, clock = self.stack, self.agg, self.clock
        samples = self.samples.setdefault(name, []) if "s" in flags \
            else None
        sum_result = "r" in flags
        home_context = "h" in flags
        if sum_result:
            self.sums.setdefault(name, 0)
        tracer = self

        def traced(*args, **kwargs):
            if not stack:               # outside a traced pass
                return fn(*args, **kwargs)
            parent = stack[-1]
            span_id = parent[2]
            if samples is not None and tracer.keep_spans:
                span_id = tracer._next_span
                tracer._next_span += 1
            frame = [name, 0, span_id]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
                if sum_result and result:
                    tracer.sums[name] += result
                return result
            finally:
                duration = clock() - started
                stack.pop()
                parent[1] += duration
                key = (name, parent[0])
                record = agg.get(key)
                if record is None:
                    agg[key] = [1, duration, duration - frame[1]]
                else:
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration - frame[1]
                if samples is not None:
                    samples.append(duration)
                    if span_id != parent[2]:
                        context = args[1][0] if home_context else None
                        tracer.spans.append(
                            (span_id, parent[2], name, started,
                             started + duration, context))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        self._wrapper_code = traced.__code__
        return traced

    def begin_pass(self) -> None:
        self.stack.append([ROOT, 0, 0])
        self._pass_started = self.clock()

    def end_pass(self) -> int:
        """Close the root frame; returns the pass wall time in ns."""
        duration = self.clock() - self._pass_started
        frame = self.stack.pop()
        if self.stack:
            raise RuntimeError(f"unbalanced trace stack: {self.stack}")
        record = self.agg.setdefault((ROOT, ""), [0, 0, 0])
        record[0] += 1
        record[1] += duration
        record[2] += duration - frame[1]
        return duration

    # -- simulator callbacks ---------------------------------------------------

    def _callback_name(self, callback: Callable) -> str:
        fn = getattr(callback, "__func__", callback)
        code = getattr(fn, "__code__", None)
        if code is self._wrapper_code:
            fn = fn.__wrapped__
            code = fn.__code__
        key = code if code is not None else type(fn)
        name = self._callback_names.get(key)
        if name is None:
            module = getattr(fn, "__module__", "") or ""
            qualname = getattr(fn, "__qualname__", type(fn).__name__)
            name = f"{layer_of_module(module)}.{qualname}"
            self._callback_names[key] = name
        return name

    def _patch_simulator(self) -> None:
        from repro.sim.engine import Simulator

        stack, agg, clock = self.stack, self.agg, self.clock
        callback_name = self._callback_name

        def fire(callback, args):
            if not stack:
                return callback(*args)
            name = callback_name(callback)
            parent = stack[-1]
            frame = [name, 0, parent[2]]
            stack.append(frame)
            started = clock()
            try:
                return callback(*args)
            finally:
                duration = clock() - started
                stack.pop()
                parent[1] += duration
                key = (name, parent[0])
                record = agg.get(key)
                if record is None:
                    agg[key] = [1, duration, duration - frame[1]]
                else:
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration - frame[1]

        call_at = Simulator.call_at
        call_after = Simulator.call_after

        def traced_call_at(sim, when, callback, *args, label=""):
            return call_at(sim, when, fire, callback, args, label=label)

        def traced_call_after(sim, delay, callback, *args, label=""):
            return call_after(sim, delay, fire, callback, args, label=label)

        self._set(Simulator, "call_at",
                  self.wrap("sim.Simulator.call_at", traced_call_at))
        self._set(Simulator, "call_after",
                  self.wrap("sim.Simulator.call_after", traced_call_after))

    # -- patching --------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attr, name, flags in PATCHES:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(
                    self.wrap(name, raw.__func__, flags))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(name, raw.__func__, flags))
            else:
                wrapped = self.wrap(name, raw, flags)
            self._set(owner, attr, wrapped)
        self._patch_simulator()

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def uninstall_in_child(self) -> None:
        """Forked pool workers run the unpatched program."""
        if os.getpid() != self._pid:
            self.uninstall()
            self.stack.clear()

    @staticmethod
    def leftovers() -> List[str]:
        """Patch targets that still hold a shim (recognised by its
        ``__wrapped__`` marker); must be empty after ``uninstall``."""
        left = []
        targets = [(m, o, a) for m, o, a, _n, _f in PATCHES]
        targets += [("repro.sim.engine", "Simulator", "call_at"),
                    ("repro.sim.engine", "Simulator", "call_after")]
        for module_name, owner_name, attr in targets:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            raw = vars(owner)[attr]
            raw = getattr(raw, "__func__", raw)
            if hasattr(raw, "__wrapped__"):
                left.append(f"{module_name}:{owner_name}.{attr}")
        return left

    # -- read-out ----------------------------------------------------------------

    def by_name(self) -> Dict[str, List[int]]:
        """name -> [count, total_ns, self_ns] summed over parents."""
        out: Dict[str, List[int]] = {}
        for (name, _parent), (count, total, self_ns) in self.agg.items():
            record = out.setdefault(name, [0, 0, 0])
            record[0] += count
            record[1] += total
            record[2] += self_ns
        return out

    def layer_self_ns(self) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYERS + ("harness",)}
        for name, (_count, _total, self_ns) in self.by_name().items():
            out[layer_of(name)] = out.get(layer_of(name), 0) + self_ns
        return out
