"""Exception hierarchy for the SafeHome reproduction."""


class SafeHomeError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(SafeHomeError):
    """The discrete-event simulator was used incorrectly."""


class DeviceError(SafeHomeError):
    """A device-level problem (unknown device, bad value, ...)."""


class DeviceUnavailableError(DeviceError):
    """A command was issued to a failed device."""


class RoutineSpecError(SafeHomeError):
    """A routine definition is malformed."""


class LineageInvariantError(SafeHomeError):
    """An operation would violate one of the lineage-table invariants."""


class SchedulingError(SafeHomeError):
    """The scheduler could not place a routine."""


class HubCrashedError(SafeHomeError):
    """An operation was attempted on a crashed hub (recover() first)."""


class RecoveryError(SafeHomeError):
    """Hub recovery failed (replay diverged from the write-ahead log)."""


class CorruptionError(SafeHomeError):
    """An on-disk WAL (a home's, or a fleet's bundle of them) holds
    damaged data.

    Raised by the storage scanner and the fleet spool loader when a log
    is corrupt *before* its crash-consistent tail: bit rot, duplicated
    or reordered frames, a truncated mid-log segment, a missing seal,
    or a stale fleet index.  A torn tail after the last seal is NOT
    corruption — crash-consistency truncates it by design.

    The message always carries the damaged record's sequence number,
    record type and byte offset (``?`` when unknowable), so operators
    can locate the damage without re-scanning; ``tests/test_fsck.py``
    pins this context.
    """

    def __init__(self, detail, path=None, offset=None, seq=None,
                 record_type=None):
        self.detail = detail
        self.path = path
        self.offset = offset
        self.seq = seq
        self.record_type = record_type

        def show(value):
            return "?" if value is None else str(value)

        message = (f"corrupt WAL: {detail} (path={show(path)}, "
                   f"seq={show(seq)}, type={show(record_type)}, "
                   f"offset={show(offset)})")
        super().__init__(message)

    def to_dict(self):
        """Deterministic report form (relative path only)."""
        import os

        return {
            "detail": self.detail,
            "path": os.path.basename(self.path) if self.path else None,
            "offset": self.offset,
            "seq": self.seq,
            "type": self.record_type,
            # Always null since the line-oriented fleet log went; the
            # key stays so repro-fsck-report/1 documents do not move.
            "line": None,
        }


class MigrationError(SafeHomeError):
    """A live visibility-model migration failed mid-replay.

    The hub is left crashed with its pre-migration WAL intact for
    post-mortem; a fleet supervisor treats the home as failed.
    """


class PlanError(SafeHomeError):
    """A versioned fleet plan is malformed (schema violation)."""


class ServeError(SafeHomeError):
    """Service-mode hub misuse (bad pacing config, unknown tenant, ...)."""


class AdmissionRejected(ServeError):
    """A submission was turned away by admission control (429-style).

    ``retry_after_s`` is a wall-clock hint: how long the client should
    back off before resubmitting.  ``None`` means "do not retry" (the
    hub is draining toward shutdown).
    """

    def __init__(self, message: str, tenant: str = "",
                 retry_after_s=None) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.retry_after_s = retry_after_s
