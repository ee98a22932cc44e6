"""Policy-agnostic execution core.

The controllers in :mod:`repro.core` are *policies*: they decide when a
routine is admitted, how long locks are held and what happens at finish
and failure points.  Everything mechanical about actually running a
routine's commands lives here:

* :mod:`~repro.core.execution.locks` — a centralized :class:`LockTable`
  (shared/exclusive device locks, FIFO waiters, wait-for-graph cycle
  detection with deterministic victim selection, leniency-scaled lease
  expiry), extracted from the lock/lease bookkeeping the GSV/PSV/EV
  controllers used to re-implement individually;
* :mod:`~repro.core.execution.plan` — the compiler from a routine's
  command list to a dependency DAG (the ``serial`` strategy is a chain;
  ``parallel`` keeps program order per device and lets disjoint devices
  proceed concurrently), and :class:`CommandPlan`, one run's progress
  through it;
* :mod:`~repro.core.execution.queues` — :class:`DeviceQueues`, a
  per-device FIFO of in-flight executions so the driver and failure
  detector always observe one writer at a time per device;
* :mod:`~repro.core.execution.engine` — :class:`PlanExecutionMixin`,
  the shared driver that walks a plan under either strategy.
"""

from repro.core.execution.engine import PlanExecutionMixin
from repro.core.execution.locks import (LockGrant, LockMode, LockTable,
                                        lease_deadline)
from repro.core.execution.plan import CommandPlan, NodeState
from repro.core.execution.queues import DeviceQueues

__all__ = [
    "CommandPlan", "DeviceQueues", "LockGrant", "LockMode", "LockTable",
    "NodeState", "PlanExecutionMixin", "lease_deadline",
]
