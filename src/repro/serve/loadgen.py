"""Seeded load generation for the served hub.

Two closed-loop client shapes over one shared routine menu:

* :func:`run_closed_loop` — fully inline and deterministic.  Tenants
  are completion hooks: each finished ticket immediately enqueues that
  tenant's next routine, and the whole service runs virtual-paced in
  one thread.  This is the byte-determinism path (``repro serve`` with
  ``--speedup inf``, the determinism gate in CI).
* :class:`ThreadedClient` — one real thread per tenant submitting
  against a live, wall-paced hub, backing off on admission rejections.
  This is the soak-test path: it exercises the lock, the bounded
  queues and backpressure for real, and asserts safety properties
  rather than byte-equality.

Both draw routine choices from seeded per-tenant streams
(:func:`~repro.sim.random.derive_seed`), so a soak run's *offered*
sequence is reproducible even when its interleaving is not.
"""

import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import AdmissionRejected
from repro.hub.safehome import SafeHome
from repro.serve.hub import ServeHub, Ticket
from repro.sim.random import derive_seed

#: The served home's device set (a small cooling/lighting home,
#: shaped like the §1 motivating example).
SERVE_DEVICES: Tuple[Tuple[str, str], ...] = (
    ("window", "living-window"), ("window", "bed-window"),
    ("ac", "living-ac"), ("ac", "bed-ac"),
    ("fan", "ceiling-fan"), ("thermostat", "thermostat"),
    ("shade", "living-shade"), ("light", "living-light"),
    ("light", "bed-light"),
)

#: Named routines every served home registers in its bank.  Short
#: durations (seconds, not minutes) keep service latency in the same
#: order as queueing delay, which is the regime admission control and
#: the SLO windows exist for.
SERVE_MENU: Tuple[Dict, ...] = (
    {"routineName": "cool-living", "user": "menu", "commands": [
        {"device": "living-window", "action": "CLOSED", "durationSec": 0.5},
        {"device": "living-ac", "action": "ON", "durationSec": 2.0},
    ]},
    {"routineName": "cool-bedroom", "user": "menu", "commands": [
        {"device": "bed-window", "action": "CLOSED", "durationSec": 0.5},
        {"device": "bed-ac", "action": "ON", "durationSec": 1.5},
    ]},
    {"routineName": "ventilate", "user": "menu", "commands": [
        {"device": "living-ac", "action": "OFF", "durationSec": 0.3},
        {"device": "living-window", "action": "OPEN", "durationSec": 0.5},
        {"device": "ceiling-fan", "action": "ON", "durationSec": 1.0,
         "priority": "BEST_EFFORT"},
    ]},
    {"routineName": "lights-evening", "user": "menu", "commands": [
        {"device": "living-light", "action": "ON", "durationSec": 0.2},
        {"device": "bed-light", "action": "ON", "durationSec": 0.2,
         "priority": "BEST_EFFORT"},
        {"device": "living-shade", "action": "CLOSED", "durationSec": 0.8,
         "priority": "BEST_EFFORT"},
    ]},
    {"routineName": "night-setback", "user": "menu", "commands": [
        {"device": "thermostat", "action": 68, "durationSec": 0.3},
        {"device": "living-light", "action": "OFF", "durationSec": 0.2,
         "priority": "BEST_EFFORT"},
        {"device": "bed-light", "action": "OFF", "durationSec": 0.2,
         "priority": "BEST_EFFORT"},
        {"device": "ceiling-fan", "action": "OFF", "durationSec": 0.3,
         "priority": "BEST_EFFORT"},
    ]},
    {"routineName": "morning-warm", "user": "menu", "commands": [
        {"device": "thermostat", "action": 72, "durationSec": 0.3},
        {"device": "living-shade", "action": "OPEN", "durationSec": 0.8,
         "priority": "BEST_EFFORT"},
        {"device": "living-window", "action": "OPEN", "durationSec": 0.5},
    ]},
)

#: Menu names, in registration order (the choice space of the seeded
#: per-tenant pickers).
MENU_NAMES: Tuple[str, ...] = tuple(
    spec["routineName"] for spec in SERVE_MENU)


def build_serve_home(model: str = "ev", scheduler: str = "timeline",
                     execution: Optional[str] = None,
                     seed: int = 0) -> SafeHome:
    """A :class:`SafeHome` ready to be served.

    Creates the :data:`SERVE_DEVICES` set and registers every
    :data:`SERVE_MENU` routine in the bank, so clients submit by name.
    """
    home = SafeHome(visibility=model, scheduler=scheduler,
                    execution=execution, seed=seed)
    for type_name, name in SERVE_DEVICES:
        home.add_device(type_name, name)
    for spec in SERVE_MENU:
        home.register_routine_spec(spec)
    return home


def run_closed_loop(hub: ServeHub, per_tenant: int,
                    seed: int = 0) -> Dict[str, int]:
    """Drive ``per_tenant`` routines per registered tenant, inline.

    Deterministic closed loop: every tenant keeps exactly one routine
    outstanding; a completion hook submits the tenant's next pick the
    moment a ticket finishes.  Runs :meth:`ServeHub.serve_until_idle`
    to completion and returns ``{tenant: submitted}``.
    """
    tenants = [state.name for state in hub.admission.tenants()]
    pickers = {name: random.Random(derive_seed(seed, f"pick:{name}"))
               for name in tenants}
    remaining = {name: per_tenant for name in tenants}
    submitted = {name: 0 for name in tenants}

    def submit_next(tenant: str) -> None:
        if remaining[tenant] <= 0:
            return
        choice = pickers[tenant].choice(MENU_NAMES)
        try:
            hub.submit(tenant, choice)
        except AdmissionRejected:
            # Only possible when capacity < outstanding-per-tenant
            # (i.e. capacity 0-ish configs); the next completion
            # retries, so the loop still drains.
            return
        remaining[tenant] -= 1
        submitted[tenant] += 1

    def on_done(ticket: Ticket) -> None:
        submit_next(ticket.tenant)

    hub.on_ticket_done.append(on_done)
    try:
        for tenant in tenants:
            submit_next(tenant)
        hub.serve_until_idle()
    finally:
        hub.on_ticket_done.remove(on_done)
    return submitted


class ThreadedClient(threading.Thread):
    """One tenant's closed-loop client thread for soak/load tests.

    Submits ``count`` seeded menu picks, waiting for each ticket
    before the next submission; on :class:`AdmissionRejected` it
    sleeps the rejection's ``retry_after_s`` hint (capped) and
    retries.  Counters are read by the soak assertions after
    :meth:`join`.
    """

    def __init__(self, hub: ServeHub, tenant: str, count: int,
                 seed: int = 0, max_backoff_s: float = 0.05,
                 wait_timeout_s: float = 60.0) -> None:
        super().__init__(name=f"client-{tenant}", daemon=True)
        self.hub = hub
        self.tenant = tenant
        self.count = count
        self.rng = random.Random(derive_seed(seed, f"client:{tenant}"))
        self.max_backoff_s = max_backoff_s
        self.wait_timeout_s = wait_timeout_s
        self.tickets: List[Ticket] = []
        self.rejections = 0
        self.refused = 0        # hard refusals (hub draining/stopped)
        self.timeouts = 0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            for _ in range(self.count):
                choice = self.rng.choice(MENU_NAMES)
                ticket = self._submit_with_retry(choice)
                if ticket is None:
                    return
                self.tickets.append(ticket)
                if not ticket.done.wait(self.wait_timeout_s):
                    self.timeouts += 1
                    return
        except BaseException as exc:       # surfaced by the soak test
            self.error = exc

    def _submit_with_retry(self, choice: str) -> Optional[Ticket]:
        while True:
            try:
                return self.hub.submit(self.tenant, choice)
            except AdmissionRejected as exc:
                if exc.retry_after_s is None:
                    self.refused += 1
                    return None
                self.rejections += 1
                time.sleep(min(exc.retry_after_s, self.max_backoff_s))
