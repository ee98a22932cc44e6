"""Run one ledger workload in this process and measure it.

Protocol (README.md, "Run protocol"): imports -> input generation ->
one untimed warm pass at 1/10 size -> timed passes over the identical
seeded input until ``--seconds`` have been measured (at least three)
-> untimed verification -> the set-up again in fresh processes, for a
median set-up time.  With tracing, the first part of the time
budget is spent untraced (the base of ``trace.overhead_x`` and the
source of every host-time number that is not a layer share) and the
rest with the shims of :mod:`trace` installed.
"""

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from perf_ledger import layers
from perf_ledger import trace as ledger_trace
from perf_ledger.workloads import WORKLOADS, PassResult, Verdict

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: Fresh processes that repeat the set-up after an untraced run at full
#: size, so that ``setup_s`` is a median of this many + 1 samples.
SETUP_REPEATS = 4
#: Share of ``--seconds`` a traced run spends untraced.
UNTRACED_SHARE = 0.4
WARM_SCALE = 0.1

Metric = Tuple[float, str]


class Ledger:
    """What a workload sees of the harness: timed calls and scratch
    directories inside the checkout."""

    def __init__(self) -> None:
        self.tracer: Optional[ledger_trace.Tracer] = None
        self.tracing = False
        self.phase = "setup"
        #: phase -> name -> durations in seconds
        self.samples: Dict[str, Dict[str, List[float]]] = {}
        self._tmp_root: Optional[str] = None
        self._tmp_dirs: List[str] = []

    def record(self, name: str, seconds: float) -> None:
        self.samples.setdefault(self.phase, {}).setdefault(
            name, []).append(seconds)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Time one call the harness makes into the program (and give
        it a trace frame while tracing)."""
        if self.tracing:
            fn = self.tracer.wrap(name, fn, "s")
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.record(name, time.perf_counter() - started)

    def tmpdir(self) -> str:
        if self._tmp_root is None:
            os.makedirs(OUT_DIR, exist_ok=True)
            self._tmp_root = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
        path = tempfile.mkdtemp(dir=self._tmp_root)
        self._tmp_dirs.append(path)
        return path

    def drop_tmpdirs(self) -> None:
        for path in self._tmp_dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._tmp_dirs = []

    def close(self) -> None:
        if self._tmp_root is not None:
            shutil.rmtree(self._tmp_root, ignore_errors=True)
            self._tmp_root = None


def digest_of(outputs: List[str]) -> str:
    sha = hashlib.sha256()
    for text in sorted(outputs):
        sha.update(text.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def _timed_pass(led: Ledger, workload) -> Tuple[float, PassResult]:
    tracer = led.tracer if led.tracing else None
    if tracer is not None:
        tracer.begin_pass()
    started = time.perf_counter()
    try:
        out = workload.run_pass(led)
        wall = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.end_pass()
    led.drop_tmpdirs()
    return wall, out


def _release(out: PassResult) -> None:
    """Only a run's last pass is verified: what an earlier one kept
    alive must not weigh on the next one's heap."""
    out.keep = None
    gc.collect()


def _run_passes(led: Ledger, workload, seconds: float, min_passes: int
                ) -> List[Tuple[float, PassResult]]:
    """Timed passes until ``seconds`` of pass time have been measured."""
    passes: List[Tuple[float, PassResult]] = []
    measured = 0.0
    while len(passes) < min_passes or measured < seconds:
        if passes:
            _release(passes[-1][1])
        wall, out = _timed_pass(led, workload)
        passes.append((wall, out))
        measured += wall
    return passes


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def _repeat_setup(name: str, seed: int, scale: float) -> float:
    """Set-up time of one fresh process that does imports + generation
    + warm pass and stops there (``run.py --setup-only``)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", name, "--seed", str(seed),
               "--scale", repr(scale), "--setup-only"]
    done = subprocess.run(command, check=True, capture_output=True,
                          text=True, timeout=170)
    return float(done.stdout.strip().splitlines()[-1])


def prepare(name: str, seed: int, scale: float):
    """Imports are done; generate inputs and run the warm pass."""
    led = Ledger()
    workload = WORKLOADS[name]()
    workload.setup(led, seed, scale)
    warm = WORKLOADS[name]()
    led.phase = "warm"
    warm.setup(led, seed, scale * WARM_SCALE)
    warm.run_pass(led)
    led.drop_tmpdirs()
    return led, workload


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float, process_started: float,
                 declared: Dict[str, Dict[str, str]]) -> Dict[str, Any]:
    """Measure one workload; returns the result record (see README,
    "Output").  ``declared`` maps every BENCHMARK.json metric name to
    its unit, per section."""
    led, workload = prepare(name, seed, scale)
    setup_own = time.perf_counter() - process_started
    try:
        return _measure(led, workload, name, seed, seconds, trace, scale,
                        setup_own, declared)
    finally:
        led.close()


def _measure(led: Ledger, workload, name: str, seed: int, seconds: float,
             trace: bool, scale: float, setup_own: float,
             declared: Dict[str, Dict[str, str]]) -> Dict[str, Any]:
    hard_errors: List[str] = []
    led.phase = "untraced"
    budget = seconds * UNTRACED_SHARE if trace else seconds
    untraced = _run_passes(led, workload, budget,
                           MIN_TRACED_PASSES if trace else MIN_PASSES)
    traced: List[Tuple[float, PassResult]] = []
    extras: Dict[str, float] = {}
    tracer: Optional[ledger_trace.Tracer] = None
    if trace:
        tracer = led.tracer = ledger_trace.Tracer()
        os.register_at_fork(after_in_child=tracer.uninstall_in_child)
        led.phase = "traced"
        tracer.install()
        try:
            led.tracing = True
            tracer.keep_spans = True
            _release(untraced[-1][1])
            traced.append(_timed_pass(led, workload))
            tracer.keep_spans = False
            _release(traced[0][1])
            traced += _run_passes(led, workload, seconds - budget
                                  - traced[0][0], MIN_TRACED_PASSES - 1)
        finally:
            led.tracing = False
            tracer.uninstall()
        left = tracer.leftovers()
        if left:
            hard_errors.append(f"tracing left patched attributes: {left}")
        led.phase = "extras"
        extras = workload.trace_extras(led)

    every = untraced + traced
    digests = {digest_of(out.outputs) for _wall, out in every}
    if len(digests) != 1:
        hard_errors.append(
            f"outputs differ between passes: {sorted(digests)}")
    last = every[-1][1]
    led.phase = "verify"
    verdict: Verdict = workload.verify(led, last)
    hard_errors += verdict.hard_errors
    last.keep = None
    peak_rss = _peak_rss_mb()
    # Set-up repeats come last: they are children too, and must not
    # reach the peak RSS read above.  Traced runs report no set-up time.
    setups = [setup_own]
    if not trace and scale >= 1.0:
        setups += [_repeat_setup(name, seed, scale)
                   for _ in range(SETUP_REPEATS)]

    attempted = sum(out.ops for _wall, out in every)
    failed = sum(out.failed for _wall, out in every)
    # Best-pass figures come from the first passes only, so that every
    # run draws the same number of them however fast the program is.
    judged = untraced[:MIN_PASSES]
    e2e: Dict[str, Metric] = {
        "setup_s": (statistics.median(setups), "s"),
        "routines_per_s": (layers.fast_rate(
            [out.routines / wall for wall, out in judged]), "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    # One pass's operations, and those of them that count as failed:
    # operations the program failed plus homes the oracle faults.
    faulted = {violation["home"] for violation in verdict.violations}
    ops_failed = last.failed + len(faulted)
    own = layers.workload_metrics(name, judged, untraced, led, ops_failed)
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "scale": scale,
        "seconds": seconds, "clients": workload.clients,
        "correct": not hard_errors, "hard_errors": hard_errors,
        "attempted": attempted, "failed": failed,
        "ops_attempted": last.ops, "ops_failed": ops_failed,
        "digest": digests.pop() if len(digests) == 1 else None,
        "e2e": _as_json(e2e), "own": _as_json(own),
        "setup_samples_s": setups,
        "passes": [{"wall_s": wall, "routines": out.routines,
                    "routines_per_s": out.routines / wall,
                    "traced": index >= len(untraced)}
                   for index, (wall, out) in enumerate(every)],
        "oracle": {"homes_checked": verdict.oracle_checked,
                   "routines_checked": verdict.oracle_routines,
                   "violations": len(verdict.violations),
                   "specs": verdict.violations[:20]},
    }
    if trace:
        metrics, table = layers.layer_metrics(
            workload, untraced, traced, led, tracer, verdict, extras, own)
        unknown = sorted(set(metrics) - set(declared["per_layer"]))
        if unknown:
            raise RuntimeError(f"undeclared per-layer metrics: {unknown}")
        full = {metric: metrics.get(metric, (0.0, unit))
                for metric, unit in declared["per_layer"].items()}
        record["layers"] = _as_json(full)
        record["attribution"] = table
        record["trace_file"] = _write_spans(name, tracer)
    return record


def _as_json(metrics: Dict[str, Metric]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def _write_spans(name: str, tracer: ledger_trace.Tracer) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace_{name}.json")
    origin = tracer.spans[0][3] if tracer.spans else 0
    payload = {
        "workload": name,
        "columns": ["id", "parent", "name", "start_us", "end_us",
                    "home_id"],
        "spans": [[span_id, parent, span_name,
                   (start - origin) / 1e3, (end - origin) / 1e3, context]
                  for span_id, parent, span_name, start, end, context
                  in tracer.spans],
        "aggregates": [
            {"name": span_name, "parent": parent, "count": count,
             "total_us": total / 1e3, "self_us": self_ns / 1e3}
            for (span_name, parent), (count, total, self_ns)
            in sorted(tracer.agg.items())],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return os.path.relpath(path, os.path.dirname(HERE))
