"""The replay engine: the one place a write-ahead log becomes a live hub.

The hub is a deterministic asynchronous system: the event queue is
totally ordered and every random draw comes from a named seeded stream.
A log is therefore a complete recipe (Vlad's *regular asynchronous
systems*): rebuild a fresh stack, re-apply the input records in order,
re-execute — and *verify*, not assume: the regenerated observation
seals (rolling digest + count, at every checkpoint, ``crash`` marker
and clean close) and checkpoint digests must match the logged ones, and
any divergence raises :class:`~repro.errors.RecoveryError`.

Every door — :meth:`SafeHome.recover`, :meth:`SafeHome.salvage_records`
(``repro fsck``), :meth:`SafeHome.migrate`, the fleet's
:func:`~repro.fleet.spool.replay_spooled_home` — is a thin caller of
:func:`build_home`, :func:`staged_rebuild` and :func:`replay`
(docs/durability.md has the door table).  The engine is
:class:`~repro.hub.safehome.SafeHome`'s friend: it drives the facade's
stack-building hooks and crash flags directly.
"""

import dataclasses
from contextlib import contextmanager
from typing import Any, Dict, List, NamedTuple, Optional

from repro.core.controller import RoutineStatus, RunResult
from repro.core.spec import parse_routine
from repro.core.visibility import VisibilityModel
from repro.devices.failures import FailurePlan
from repro.errors import (CorruptionError, MigrationError, RecoveryError,
                          SafeHomeError)
from repro.hub.durability.recovery import (RECOVERY_MODES, CrashPlan,
                                           DurabilityConfig, RecoveryReport)
from repro.hub.migration import MigrationReport
from repro.workloads.base import attach_streams


class ReplayOutcome(NamedTuple):
    """What one :func:`replay` applied, cut and verified."""

    #: The ``RecoveryReport.salvage`` dict: floor_seq, boundary_events,
    #: replayed_inputs, dropped_inputs, dropped_records, healed_crashes.
    info: Dict[str, Any]
    observations_verified: int
    checkpoints_verified: int


def build_home(records):
    """A fresh durable hub matching the log's ``home-created`` record
    (the payload ``SafeHome._attach_durability`` writes)."""
    from repro.hub.safehome import SafeHome

    if not records or records[0].type != "home-created":
        raise CorruptionError(
            "log has no home-created record; nothing to replay",
            seq=records[0].seq if records else None,
            record_type=records[0].type if records else None)
    created = records[0].payload
    return SafeHome(
        visibility=created["visibility"],
        scheduler=created["scheduler"],
        execution=created["execution"],
        seed=created["seed"],
        detector_ping_period_s=created["detector_ping_period_s"],
        durability=DurabilityConfig(
            checkpoint_every=created["checkpoint_every"]))


@contextmanager
def staged_rebuild(home, visibility: Optional[str] = None):
    """Rebuild ``home``'s stack (optionally under another visibility
    model) with its current log demoted to read-only input.

    The new incarnation journals under fresh sequence numbers, so an
    on-disk WAL is written to the staging directory and swapped in only
    when the body (replay + verification) succeeds.  On *any* exception
    the staged log is dropped and the hub stays crashed on its intact
    old log, for a retry or a post-mortem.  Yields the old manager.
    """
    old_manager = home.durability
    old_visibility = home._ctor["visibility"]
    if old_manager.storage is not None:
        old_manager.wal.sink = None
        old_manager.storage.close(write_final_seal=False)
    home._crashed = False
    home._pending_crash = None
    if visibility is not None:
        home._ctor["visibility"] = visibility
    try:
        home._build_stack()
        home._attach_durability(old_manager.config, staged=True)
        yield old_manager
        if home.durability.storage is not None:
            home.durability.storage.commit_staging()
    except BaseException:
        # A half-replayed stack must not accept work.
        if home.durability is not old_manager and \
                home.durability.storage is not None:
            home.durability.storage.abort_staging()
        home._ctor["visibility"] = old_visibility
        home._crashed = True
        home._pending_crash = None
        home.durability = old_manager
        raise


def apply_input(home, record) -> None:
    """Re-apply one durable input record to the rebuilt stack."""
    if home._crashed and record.type != "recovery":
        raise RecoveryError(
            f"input record {record.type!r} (seq {record.seq}) "
            f"follows a crash with no recovery record")
    payload = record.payload
    # Carry the input history forward so the new WAL remains a
    # complete recipe (a second crash replays through this one).
    home.durability.wal.copy_record(record)
    if record.type == "device-added":
        home.registry.create(payload["type"], payload["name"])
    elif record.type == "routine-registered":
        home.bank.register(parse_routine(payload["spec"], home.registry),
                           replace=payload["replace"])
    elif record.type == "failure-planned":
        home.injector.add(FailurePlan(
            payload["device_id"], payload["fail_at"],
            payload["restart_at"]))
    elif record.type == "invoked":
        home.controller.submit(
            parse_routine(payload["spec"], home.registry),
            when=payload["when"])
    elif record.type == "streams-attached":
        attach_streams(home.controller, [
            [parse_routine(spec, home.registry) for spec in stream]
            for stream in payload["streams"]])
    elif record.type == "cancelled":
        home._request_cancel(
            home.controller.run_by_id(payload["routine_id"]), payload["at"])
    elif record.type == "crash-scheduled":
        home._pending_crash = CrashPlan.from_payload(payload)
    elif record.type == "crash-cancelled":
        home._pending_crash = None
    elif record.type == "run":
        home._run_core(payload["until"], payload["detector"],
                       payload["max_events"])
    elif record.type == "recovery":
        # An earlier recovery: re-apply its (deterministic) policy
        # decisions and bring the hub back up, as it did then.  The crash
        # it answers is spent, even where another model never reached it.
        home._pending_crash = None
        restart(home, payload["mode"], journal=False)
    else:
        raise RecoveryError(f"unexpected input record {record.type!r}")


def restart(home, mode: str, journal: bool = True) -> tuple:
    """Bring a crashed hub back up: decide the fate of routines caught
    mid-execution, un-crash, journal the ``recovery`` input.

    Waiting admissions are durable (lock table / lineage placements
    replayed) and always survive; only RUNNING routines face the
    per-model policy.  Returns ``(resumed_ids, aborted_ids)``.
    """
    resumed: List[int] = []
    aborted: List[int] = []
    for run in home.controller.active_runs():
        if run.status is not RoutineStatus.RUNNING:
            continue
        action = "resume" if mode == "replay" \
            else home.controller.hub_recovery_action(run)
        if action == "abort":
            home.controller.request_abort(
                run, "hub crash: strict visibility cannot span a "
                     "hub outage")
            aborted.append(run.routine_id)
        else:
            resumed.append(run.routine_id)
    home._crashed = False
    if journal:
        home.durability.record_input("recovery", {
            "mode": mode, "events": home.sim.events_processed})
    home.feedback.hub_restarted(home.sim.now, mode)
    return resumed, aborted


def _last(records, type_: str):
    return next((r for r in reversed(records) if r.type == type_), None)


def replay(home, records, *, floor=None, heal_crashes: bool = False,
           end=None) -> ReplayOutcome:
    """Re-apply ``records``' inputs to the freshly built ``home``, then
    verify the evidence ``records`` hold against what replay regenerated.

    ``home-created`` is skipped (the fresh hub journaled its own);
    markers, checkpoints and observations regenerate.  ``floor`` (a
    ``checkpoint`` record) bounds the replay: only inputs below it are
    applied and every run stops at its event count.  With
    ``heal_crashes`` a crash that fires with no ``recovery`` record up
    next — the log was cut there, or another model reached a crash point
    the logged one never hit — is resumed in ``replay`` mode and
    journaled, and the hub must end alive; without it the hub ends
    wherever the log does.

    ``end`` is the log's closing observation seal (the old manager's,
    or a final seal frame), kept beside the records.  Given it, the log
    is taken to be whole: replay must end on exactly that seal.
    Otherwise the evidence horizon is the log's last checkpoint or
    ``crash`` marker and replay may outrun it.
    """
    floor_seq = floor.seq if floor is not None else None
    inputs = [r for r in records
              if r.is_input and r.type != "home-created"]
    kept = [r for r in inputs if floor is None or r.seq < floor_seq]
    info = {"floor_seq": floor_seq,
            "boundary_events": floor.payload.get("events")
            if floor is not None else None,
            "replayed_inputs": len(kept),
            "dropped_inputs": len(inputs) - len(kept),
            "dropped_records": 0 if floor is None
            else len([r for r in records if r.seq >= floor_seq]),
            "healed_crashes": 0}
    # _run_core caps every run at this absolute event count.
    home._replay_stop_events = info["boundary_events"]
    last_run = max([i for i, r in enumerate(kept) if r.type == "run"] or [-1])
    try:
        for index, record in enumerate(kept):
            apply_input(home, record)
            if index == last_run:     # what the last run() returned
                home._last_result = RunResult.from_controller(home.controller)
            if heal_crashes and home._crashed and (
                    index + 1 == len(kept)
                    or kept[index + 1].type != "recovery"):
                restart(home, "replay")
                info["healed_crashes"] += 1
    finally:
        home._replay_stop_events = None
    if heal_crashes and home._crashed:
        raise RecoveryError(
            "replay ended crashed: a crash plan fired inside the replay "
            "window and could not be healed")
    return ReplayOutcome(info, *_verify(home, records, floor_seq, end))


#: The records that carry an observation seal (and, for a checkpoint,
#: a state digest): what a log holds as evidence about its replay.
_EVIDENCE_TYPES = ("checkpoint", "crash")


def _seal(payload) -> tuple:
    return payload.get("obs_digest"), payload.get("observations")


def _seals(logged, replayed) -> str:
    (was, count), (now, regenerated) = _seal(logged), _seal(replayed)
    return (f"the log seals {count} observations ({was!s:.12}), replay "
            f"regenerated {regenerated} ({now!s:.12})")


def _verify(home, records, floor_seq, end) -> tuple:
    """Cross-check every logged evidence record against the one replay
    regenerated in its place — observation seal, state digest, the rest
    of the payload — and the closing seal ``end``; raises
    :class:`RecoveryError` naming the first interval that differs.
    Returns the observation and checkpoint counts verified."""
    wal = home.durability.wal
    logged = [r for r in records if r.type in _EVIDENCE_TYPES
              and (floor_seq is None or r.seq <= floor_seq)]
    replayed = [r for r in wal.records if r.type in _EVIDENCE_TYPES]
    events = observed = 0
    for position, old in enumerate(logged):
        index = old.payload.get("index")
        interval = f"checkpoint interval {index}" \
            if old.type == "checkpoint" else "the interval up to the crash"
        where = (f"(seq {old.seq}, type {old.type!r}, events "
                 f"{events}..{old.payload.get('events')})")
        if position >= len(replayed):
            raise RecoveryError(
                f"replay regenerated {len(replayed)} checkpoints and crash "
                f"markers; the end of {interval} {where} was never reached")
        new = replayed[position]
        same = old.type == new.type
        if same and _seal(old.payload) != _seal(new.payload):
            raise RecoveryError(
                f"replay diverged from the log: the observations of "
                f"{interval} differ {where}: "
                + _seals(old.payload, new.payload))
        if old.identity() != new.identity():
            what = f"checkpoint {index} digest mismatch" if same and \
                old.payload.get("digest") != new.payload.get("digest") \
                else f"the record closing {interval} differs"
            raise RecoveryError(
                f"replay diverged from the log: {what} {where}: logged "
                f"{old.identity()}, replayed {new.identity()}")
        events, observed = old.payload["events"], old.payload["observations"]
    if end is not None:
        closing = wal.observed()
        if len(replayed) != len(logged):
            raise RecoveryError(
                f"replay regenerated {len(replayed)} checkpoints and crash "
                f"markers, the whole log holds {len(logged)}")
        if _seal(closing) != _seal(end):
            raise RecoveryError(
                f"replay diverged from the log: the observations after the "
                f"last checkpoint or crash marker differ (events "
                f"{events}..{home.sim.events_processed}): "
                + _seals(end, closing))
        observed = closing["observations"]
    return observed, sum(r.type == "checkpoint" for r in logged)


# -- the doors (SafeHome.recover / salvage_records / migrate delegate here) -----


def _salvage(home, records, bounded: bool, end=None) -> ReplayOutcome:
    """Healing replay of a (possibly damaged) log, cut at its last good
    checkpoint when ``bounded``."""
    outcome = replay(home, records, heal_crashes=True, end=end,
                     floor=_last(records, "checkpoint") if bounded else None)
    # The crash this log died of already happened; the salvaged
    # incarnation must not die of it again (journaled, so the new WAL
    # stays a complete recipe).
    home.cancel_crash()
    return outcome


def _finish(home, mode, records, outcome: ReplayOutcome) -> RecoveryReport:
    """Restart the replayed hub under ``mode`` and file the report."""
    resumed, aborted = restart(home, mode)
    observed = outcome.observations_verified
    # A checkpoint is both a record and an observation later seals count.
    framed_observations = sum(
        1 for r in records if r.type == "checkpoint"
        and r.payload["observations"] < observed)
    crash = _last(records, "crash")
    if crash is not None:
        crash_time = crash.payload["time"]
        crash_events = crash.payload["events"]
    else:
        crash_time = records[-1].time if records else 0.0
        crash_events = outcome.info["boundary_events"]
        if crash_events is None:
            crash_events = home.sim.events_processed
    report = RecoveryReport(
        mode=mode,
        crash_time=crash_time,
        crash_events=crash_events,
        replayed_events=home.sim.events_processed,
        replayed_records=observed,
        wal_records=len(records) + observed - framed_observations,
        checkpoints_verified=outcome.checkpoints_verified,
        resumed=resumed,
        aborted=aborted,
        salvage=outcome.info if mode == "salvage" else None)
    home.recoveries.append(report)
    return report


def recover(home, mode: Optional[str] = None) -> RecoveryReport:
    """:meth:`SafeHome.recover`: the crashed hub's own log, in place."""
    if home.durability is None:
        raise SafeHomeError("durability is not enabled")
    if not home._crashed:
        raise SafeHomeError("the hub has not crashed")
    mode = mode or home.durability.config.recovery
    if mode not in RECOVERY_MODES and mode != "salvage":
        raise ValueError(f"unknown recovery mode {mode!r}; "
                         f"pick from {RECOVERY_MODES + ('salvage',)}")
    records = list(home.durability.wal.records)
    if mode != "salvage" and _last(records, "crash") is None:
        # A failed migration marks the hub crashed without a crash
        # record: there is no boundary to replay to, only a WAL to
        # post-mortem.  Supervisors catch this and count the home
        # as failed rather than retrying forever.
        raise RecoveryError(
            "no crash record in the WAL: the hub was marked failed "
            "(e.g. by an aborted migration), not crashed mid-run")
    with staged_rebuild(home) as old_manager:
        if mode == "salvage":
            outcome = _salvage(home, records, bounded=True)
        else:
            outcome = replay(home, records, end=old_manager.wal.observed())
            if not home._crashed:
                raise RecoveryError(
                    "replay finished without reaching the crash "
                    "point (corrupt or truncated WAL)")
    return _finish(home, mode, records, outcome)


def salvage(home, records, bounded: bool = True, end=None
            ) -> RecoveryReport:
    """:meth:`SafeHome.salvage_records`: another incarnation's records
    into a :func:`build_home` twin."""
    if home.durability is None:
        raise SafeHomeError("durability is not enabled")
    records = list(records)
    outcome = _salvage(home, records, bounded, end)
    return _finish(home, "salvage", records, outcome)


def _retimed_inputs(records, now: float) -> List:
    """The log's inputs on the one clock every model shares: each fired
    crash at its time (not its event index), each run stopped where the
    next input (the last run: the migration, at ``now``) found the hub."""
    inputs: List = []
    plan = None             # inputs index of the last crash-scheduled
    for record in records:
        if record.type == "crash":      # fired by the last plan scheduled
            inputs[plan] = dataclasses.replace(inputs[plan], payload=(
                CrashPlan(at=record.payload["time"]).to_payload()))
        elif record.is_input:
            if record.type == "crash-scheduled":
                plan = len(inputs)
            inputs.append(record)
    stops = [record.time for record in inputs[1:]] + [now]
    for index, (record, stop) in enumerate(zip(inputs, stops)):
        until = record.payload.get("until")
        if record.type == "run" and (until is None or until > stop):
            inputs[index] = dataclasses.replace(
                record, payload={**record.payload, "until": stop})
    return inputs


def migrate(home, visibility) -> MigrationReport:
    """:meth:`SafeHome.migrate`: the live hub's inputs under another
    visibility model.  Seals made under the source model are no
    evidence about the target's, so only the inputs, re-timed
    (:func:`_retimed_inputs`), are handed to :func:`replay` and nothing
    is verified; the forced boundary
    checkpoint's digest goes into the report and ``migration`` marker."""
    if home.durability is None:
        raise SafeHomeError(
            "live migration needs a durable hub: construct with "
            "SafeHome(..., durability=True)")
    home._ensure_alive()
    target = VisibilityModel.parse(visibility)
    source = VisibilityModel.parse(home._ctor["visibility"])
    boundary = home.durability.take_checkpoint()
    inputs = _retimed_inputs(home.durability.wal.records, home.sim.now)
    try:
        with staged_rebuild(home, visibility=target.value):
            outcome = replay(home, inputs, heal_crashes=True)
    except Exception as exc:
        raise MigrationError(
            f"migration {source.value} -> {target.value} "
            f"failed: {exc}") from exc
    home.durability.wal.append("migration", {
        "from": source.value,
        "to": target.value,
        "digest": boundary.digest,
        "events": home.sim.events_processed,
    }, home.sim.now)
    report = MigrationReport(
        from_model=source.value,
        to_model=target.value,
        at_time=boundary.time,
        at_events=boundary.events_processed,
        checkpoint_digest=boundary.digest,
        replayed_records=outcome.info["replayed_inputs"],
        replayed_events=home.sim.events_processed,
        resumed_crashes=outcome.info["healed_crashes"])
    home.migrations.append(report)
    return report
