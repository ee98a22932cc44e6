"""Compile a :class:`SynthSpec` into a runnable :class:`Workload`.

The generator draws a random device graph from the catalog and a
routine set from the spec's distributions, using the repo's named
random streams so every draw is deterministic in (spec, seed).  The
result is an ordinary :class:`~repro.workloads.base.Workload` — it runs
through :class:`~repro.hub.safehome.SafeHome`, the experiment runner,
the fleet engine and the sweep registry with no special casing.

Determinism contract: ``compile_spec(spec, seed=s)`` is a pure
function.  ``seed=None`` uses ``spec.seed`` (the replay path); the
fleet passes each home's split seed instead, so one spec fans out into
N distinct-but-reproducible homes.
"""

import random
from typing import List, Optional, Tuple

from repro.core.command import Command
from repro.core.routine import Routine
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.failures import FailureInjector
from repro.sim.random import RandomStreams, positive_normal
from repro.workloads.base import Workload
from repro.workloads.micro import _sample_devices
from repro.workloads.synth.spec import SynthSpec

_SIGMA_SCALE = 1.0 / 3.0


def _draw_devices(spec: SynthSpec,
                  rng: random.Random) -> List[Tuple[str, str]]:
    pool = list(spec.device_pool) or sorted(DEVICE_CATALOG)
    unknown = sorted(set(pool) - set(DEVICE_CATALOG))
    if unknown:
        raise ValueError(f"unknown device types in pool: {unknown}")
    return [(type_name, f"{type_name}-{index}")
            for index, type_name in enumerate(
                rng.choice(pool) for _ in range(spec.devices))]


def _draw_routine(index: int, spec: SynthSpec,
                  devices: List[Tuple[str, str]],
                  rng: random.Random) -> Routine:
    n_commands = max(1, round(rng.normalvariate(
        spec.fanout_mean, spec.fanout_mean * _SIGMA_SCALE)))
    n_commands = min(n_commands, spec.fanout_max, spec.devices)
    # Zipf-weighted sampling *without replacement*: each device appears
    # in at most one contiguous group, satisfying the routine-spec
    # contiguity constraint by construction.
    chosen = _sample_devices(rng, n_commands, spec.devices,
                             spec.contention_alpha)
    is_long = rng.uniform(0, 100) < spec.long_pct
    long_slot = rng.randrange(len(chosen)) if is_long else -1
    commands = []
    for slot, device_id in enumerate(chosen):
        states = DEVICE_CATALOG[devices[device_id][0]].states
        if slot == long_slot:
            duration = positive_normal(
                rng, spec.long_duration_s,
                spec.long_duration_s * _SIGMA_SCALE, floor=30.0)
        else:
            duration = positive_normal(
                rng, spec.short_duration_s,
                spec.short_duration_s * _SIGMA_SCALE, floor=0.5)
        commands.append(Command(
            device_id=device_id,
            value=rng.choice(states),
            duration=duration,
            must=rng.uniform(0, 100) < spec.must_pct,
        ))
    return Routine(name=f"S{index}", commands=commands)


def estimated_horizon(spec: SynthSpec) -> float:
    """Rough virtual run length (failure placement + horizon hint)."""
    mean_routine = spec.fanout_mean * spec.short_duration_s \
        + (spec.long_pct / 100.0) * spec.long_duration_s
    closed = spec.routines * (100.0 - spec.trigger_open_pct) / 100.0
    serial_tail = (closed / spec.streams) * mean_routine
    return spec.arrival_window_s + mean_routine * 2.0 + serial_tail + 60.0


def compile_spec(spec: SynthSpec,
                 seed: Optional[int] = None) -> Workload:
    """Generate the workload for ``spec`` (deterministic in spec + seed).

    ``seed=None`` replays the spec's own seed; the fleet engine passes
    the per-home split seed instead.
    """
    seed = spec.seed if seed is None else seed
    streams_rng = RandomStreams(seed=seed)
    devices = _draw_devices(spec, streams_rng.stream("synth-devices"))
    routine_rng = streams_rng.stream("synth-routines")
    routines = [_draw_routine(i, spec, devices, routine_rng)
                for i in range(spec.routines)]

    n_open = round(spec.routines * spec.trigger_open_pct / 100.0)
    arrival_rng = streams_rng.stream("synth-arrivals")
    arrivals = [(routine, round(
                    arrival_rng.uniform(0.0, spec.arrival_window_s), 3))
                for routine in routines[:n_open]]
    streams: List[List[Routine]] = [[] for _ in range(spec.streams)]
    for offset, routine in enumerate(routines[n_open:]):
        streams[offset % spec.streams].append(routine)
    if not arrivals and not any(streams):   # degenerate trigger mix
        arrivals = [(routines[0], 0.0)]

    horizon = estimated_horizon(spec)
    failure_plans = []
    if spec.failed_device_pct > 0:
        failure_plans = FailureInjector.random_plans(
            streams_rng.stream("synth-failures"),
            list(range(spec.devices)),
            spec.failed_device_pct / 100.0,
            horizon * 0.6,
            restart_after=spec.restart_after_s)

    return Workload(
        name="synth",
        devices=devices,
        arrivals=arrivals,
        streams=[stream for stream in streams if stream],
        failure_plans=failure_plans,
        horizon_hint=horizon,
        meta={"synth_spec": spec.to_dict(), "seed": seed,
              "failure_horizon": horizon * 0.6,
              "scale_failures": bool(failure_plans)},
    )
