"""Deterministic seed splitting for fleet runs.

One master seed must fan out into thousands of per-home seeds that are

* **pure** — a function of (master, home_id) only, so any worker on any
  backend derives the same seed for the same home;
* **uncorrelated** — adjacent home ids get statistically independent
  randomness (SplitMix64 mixing via :func:`repro.sim.random.derive_seed`,
  not linear offsets);
* **stable** — independent of PYTHONHASHSEED, process boundaries,
  sharding layout and worker count.

This sits on top of :mod:`repro.sim.random`: each home's seed feeds a
:class:`~repro.sim.random.RandomStreams` family exactly as a single-home
run would use it, so a fleet of one home reproduces a standalone run
bit-for-bit.
"""

from dataclasses import dataclass

from repro.sim.random import derive_seed


def home_seed(master_seed: int, home_id: int) -> int:
    """The per-home seed for ``home_id`` under ``master_seed``."""
    return derive_seed(master_seed, f"fleet-home-{home_id}")


@dataclass(frozen=True)
class SeedSplitter:
    """Splits one master seed into per-home seeds."""

    master_seed: int

    def for_home(self, home_id: int) -> int:
        return home_seed(self.master_seed, home_id)
