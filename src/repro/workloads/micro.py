"""Parameterized microbenchmark (Table 3, §7.3).

Knobs (paper defaults in parentheses): total routines R (100),
concurrency ρ (4, closed-loop streams), average commands per routine C
(3, normal), Zipf device popularity α (0.05), long-routine percentage
L% (10%), long-command duration |L| (20 min, normal), short-command
duration |S| (10 s, normal), must-command percentage M (100%), failed
devices F (0%).
"""

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.command import Command
from repro.core.routine import Routine
from repro.devices.failures import FailureInjector
from repro.sim.random import RandomStreams, positive_normal, zipf_weights
from repro.workloads.base import Workload


@dataclass(frozen=True)
class MicroParams:
    """Table 3's parameters, field names matching the paper's symbols."""

    routines: int = 100           # R
    concurrency: int = 4          # ρ
    commands_per_routine: float = 3.0   # C (normal mean)
    zipf_alpha: float = 0.05      # α
    long_routine_pct: float = 10.0      # L%
    long_duration_s: float = 20 * 60.0  # |L| (normal mean)
    short_duration_s: float = 10.0      # |S| (normal mean)
    must_pct: float = 100.0       # M
    failed_device_pct: float = 0.0      # F
    devices: int = 25             # home size (§7.3 text)
    restart_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.routines <= 0 or self.devices <= 0:
            raise ValueError("routines and devices must be positive")
        if self.concurrency <= 0:
            raise ValueError("concurrency must be positive")
        for pct_name in ("long_routine_pct", "must_pct",
                         "failed_device_pct"):
            value = getattr(self, pct_name)
            if not 0.0 <= value <= 100.0:
                raise ValueError(f"{pct_name} must be in [0, 100]")

    def mean_routine_duration(self) -> float:
        """Rough expected routine runtime (horizon estimation)."""
        short_part = self.commands_per_routine * self.short_duration_s
        long_part = (self.long_routine_pct / 100.0) * self.long_duration_s
        return short_part + long_part


def _sample_devices(rng: random.Random, count: int, n_devices: int,
                    alpha: float) -> List[int]:
    """Zipf-weighted sampling without replacement."""
    available = list(range(n_devices))
    weights = zipf_weights(n_devices, alpha)
    chosen: List[int] = []
    for _ in range(min(count, n_devices)):
        total = sum(weights[d] for d in available)
        pick = rng.uniform(0.0, total)
        cumulative = 0.0
        selected = available[-1]
        for device in available:
            cumulative += weights[device]
            if pick <= cumulative:
                selected = device
                break
        available.remove(selected)
        chosen.append(selected)
    return chosen


def _make_routine(index: int, params: MicroParams,
                  rng: random.Random) -> Routine:
    sigma_scale = 1.0 / 3.0
    n_commands = max(1, round(rng.normalvariate(
        params.commands_per_routine,
        params.commands_per_routine * sigma_scale)))
    n_commands = min(n_commands, params.devices)
    devices = _sample_devices(rng, n_commands, params.devices,
                              params.zipf_alpha)
    is_long = rng.uniform(0, 100) < params.long_routine_pct
    long_slot = rng.randrange(len(devices)) if is_long else -1
    commands = []
    for slot, device_id in enumerate(devices):
        if slot == long_slot:
            duration = positive_normal(
                rng, params.long_duration_s,
                params.long_duration_s * sigma_scale, floor=60.0)
        else:
            duration = positive_normal(
                rng, params.short_duration_s,
                params.short_duration_s * sigma_scale, floor=0.5)
        commands.append(Command(
            device_id=device_id,
            value=rng.choice(("ON", "OFF")),
            duration=duration,
            must=rng.uniform(0, 100) < params.must_pct,
        ))
    return Routine(name=f"R{index}", commands=commands)


def generate_microbenchmark(params: MicroParams,
                            seed: int = 0) -> Workload:
    """Build one microbenchmark instance (deterministic per seed)."""
    streams_rng = RandomStreams(seed=seed)
    rng = streams_rng.stream("micro-workload")
    routines = [_make_routine(i, params, rng)
                for i in range(params.routines)]
    streams: List[List[Routine]] = [[] for _ in range(params.concurrency)]
    for index, routine in enumerate(routines):
        streams[index % params.concurrency].append(routine)

    horizon = (params.routines / params.concurrency) \
        * params.mean_routine_duration() * 1.5 + 60.0
    devices = [("plug", f"dev-{i}") for i in range(params.devices)]

    failure_horizon = horizon * 0.6
    failure_plans = []
    if params.failed_device_pct > 0:
        failure_rng = streams_rng.stream("micro-failures")
        failure_plans = FailureInjector.random_plans(
            failure_rng, list(range(params.devices)),
            params.failed_device_pct / 100.0,
            failure_horizon,
            restart_after=params.restart_after_s)

    return Workload(
        name="microbenchmark",
        devices=devices,
        streams=streams,
        failure_plans=failure_plans,
        horizon_hint=horizon,
        meta={"params": params, "failure_horizon": failure_horizon,
              "scale_failures": True},
    )
