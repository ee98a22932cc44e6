"""Ablation experiments for SafeHome's design choices.

DESIGN.md calls out several tunables the paper fixes by fiat; these
sweeps characterize each one:

* **leniency factor** (§4.1, fixed at 1.1×) — revocation aggressiveness
  vs abort rate and latency under noisy duration estimates;
* **estimate error** — how wrong the Timeline scheduler's duration
  estimates can be before placements degrade;
* **detector ping period** (§6, fixed at 1 s) — detection latency vs
  abort timing under failures;
* **network jitter** — how link quality moves WV's incongruence and
  EV's latency overhead.

The four register as tables of the one ``ablations`` sweep
(``repro ablations`` prints them); ``occ_vs_ev`` is the extension sweep
behind the paper's choice of pessimistic locking.
"""

from dataclasses import replace
from typing import Any, Dict, List

from repro.bench.registry import parts, scaled_trials, sweep
from repro.core.controller import ControllerConfig
from repro.devices.network import LatencyModel
from repro.experiments.runner import (ExperimentSetup, run_trials,
                                      run_workload)
from repro.hub.safehome import SafeHome
from repro.metrics.stats import mean
from repro.sim.random import RandomStreams
from repro.workloads.lights import lights_workload
from repro.workloads.micro import MicroParams, generate_microbenchmark


def _sweep_micro(params: MicroParams, setup: ExperimentSetup,
                 trials: int, seed: int) -> List:
    return run_trials(
        lambda trial: generate_microbenchmark(params,
                                              seed=seed * 97 + trial),
        setup, trials)


@sweep("leniency", "Leniency factor (noisy estimates)",
       part_of="ablations", cli=scaled_trials())
def ablate_leniency(trials: int = 6, seed: int = 21,
                    leniencies=(1.0, 1.1, 1.5, 3.0),
                    estimate_error: float = 0.5
                    ) -> List[Dict[str, Any]]:
    """Leniency factor vs spurious revocations (with noisy estimates)."""
    params = MicroParams(routines=30, concurrency=4, devices=10,
                         long_duration_s=120.0, short_duration_s=5.0)
    rows = []
    for leniency in leniencies:
        config = ControllerConfig(leniency_factor=leniency,
                                  revoke_slack_s=0.0,
                                  estimate_error=estimate_error)
        setup = ExperimentSetup(model="ev", scheduler="timeline",
                                config=config, seed=seed,
                                check_final=False)
        reports = _sweep_micro(params, setup, trials, seed)
        rows.append({
            "leniency": leniency,
            "abort_rate": mean([r.abort_rate for r in reports]),
            "lat_p50": mean([r.latency["p50"] for r in reports]),
        })
    return rows


@sweep("estimate_error", "Duration-estimate error (Timeline)",
       part_of="ablations", cli=scaled_trials())
def ablate_estimate_error(trials: int = 6, seed: int = 22,
                          errors=(0.0, 0.25, 0.5, 1.0)
                          ) -> List[Dict[str, Any]]:
    """Timeline placement quality vs duration-estimate error."""
    params = MicroParams(routines=30, concurrency=4, devices=10,
                         long_duration_s=120.0, short_duration_s=5.0)
    rows = []
    for error in errors:
        config = ControllerConfig(estimate_error=error)
        setup = ExperimentSetup(model="ev", scheduler="timeline",
                                config=config, seed=seed,
                                check_final=False)
        reports = _sweep_micro(params, setup, trials, seed)
        stretches = [s for r in reports for s in r.stretch]
        rows.append({
            "estimate_error": error,
            "lat_p50": mean([r.latency["p50"] for r in reports]),
            "stretch_mean": mean(stretches),
            "abort_rate": mean([r.abort_rate for r in reports]),
        })
    return rows


@sweep("detector_period", "Failure-detector ping period",
       part_of="ablations", cli=scaled_trials())
def ablate_detector_period(trials: int = 6, seed: int = 23,
                           periods=(0.25, 1.0, 4.0)
                           ) -> List[Dict[str, Any]]:
    """Ping period vs detection latency and rollback overhead."""
    params = MicroParams(routines=30, concurrency=4, devices=10,
                         failed_device_pct=25.0, long_duration_s=120.0,
                         short_duration_s=5.0)
    rows = []
    for period in periods:
        detection_lags, abort_rates = [], []
        for trial in range(trials):
            workload = generate_microbenchmark(params,
                                               seed=seed * 97 + trial)
            home = SafeHome(seed=RandomStreams(seed).spawn(trial).seed,
                            detector_ping_period_s=period)
            # Every routine submitted up front, not closed-loop.
            home.load_workload(replace(
                workload, streams=[],
                arrivals=[(routine, 0.0) for stream in workload.streams
                          for routine in stream]))
            result = home.run(detector=True, max_events=2_000_000)
            fail_times = {plan.device_id: plan.fail_at
                          for plan in workload.failure_plans}
            for kind, device_id, when in result.detection_events:
                if kind == "failure" and device_id in fail_times:
                    detection_lags.append(when - fail_times[device_id])
            abort_rates.append(result.abort_rate)
        rows.append({
            "ping_period_s": period,
            "detection_lag_mean_s": mean(detection_lags),
            "abort_rate": mean(abort_rates),
        })
    return rows


@sweep("network_jitter", "Network jitter vs WV incongruence",
       part_of="ablations")
def ablate_network_jitter(trials: int = 20, seed: int = 24,
                          sigmas=(0.0, 0.4, 0.8, 1.2)
                          ) -> List[Dict[str, Any]]:
    """Link jitter vs WV incongruence on the Fig 1 workload."""
    rows = []
    for sigma in sigmas:
        incongruent = 0
        latency = LatencyModel(median_ms=150.0, sigma=sigma,
                               floor_ms=20.0)
        for trial in range(trials):
            workload = lights_workload(10, offset_s=0.0)
            setup = ExperimentSetup(model="wv", latency=latency,
                                    seed=seed + trial, check_final=False)
            result, _report, _c = run_workload(workload, setup,
                                               trial=trial)
            if len(set(result.end_state.values())) > 1:
                incongruent += 1
        rows.append({
            "sigma": sigma,
            "incongruent_fraction": incongruent / trials,
        })
    return rows


@sweep("ablations", "Ablations", trials=3, jitter_trials=None,
       sweeps=tuple(spec.name for spec in parts("ablations")))
def ablations(trials: int = 3, sweeps=(), jitter_trials=None
              ) -> Dict[str, List[Dict[str, Any]]]:
    """Design-choice sweeps: leniency, estimate error, detector, jitter."""
    drivers = {spec.name: spec.fn for spec in parts("ablations")}
    counts = dict.fromkeys(sweeps or drivers, trials)
    if "network_jitter" in counts:
        # A fraction of coin-flip outcomes, not a mean of latencies.
        counts["network_jitter"] = jitter_trials or max(10, trials)
    return {name: drivers[name](trials=count)
            for name, count in counts.items()}


@sweep("occ_extension", "Extension: OCC vs EV", trials=3, seed=31,
       alphas=(0.0, 0.5, 1.5))
def occ_vs_ev(trials: int = 6, seed: int = 31,
              alphas=(0.0, 0.5, 1.5)) -> List[Dict[str, Any]]:
    """Optimistic vs pessimistic control across contention (Zipf alpha)."""
    rows = []
    for model in ("occ", "ev"):
        for alpha in alphas:
            params = MicroParams(routines=30, concurrency=4, devices=12,
                                 zipf_alpha=alpha, long_routine_pct=10,
                                 long_duration_s=120.0,
                                 short_duration_s=5.0)
            latencies, aborts, undo = [], [], []
            for trial in range(trials):
                workload = generate_microbenchmark(
                    params, seed=seed * 37 + trial)
                setup = ExperimentSetup(model=model, seed=seed + trial,
                                        check_final=False)
                result, report, _c = run_workload(workload, setup,
                                                  trial=trial)
                latencies.append(report.latency["p50"])
                aborts.append(report.abort_rate)
                undo.append(sum(r.rolled_back_commands
                                for r in result.runs))
            rows.append({
                "model": model, "alpha": alpha,
                "lat_p50": mean(latencies),
                "abort_rate": mean(aborts),
                "undo_commands_per_run": mean(undo),
            })
    return rows
