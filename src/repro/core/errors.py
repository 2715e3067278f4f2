"""Exception hierarchy for the HINT reproduction library."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class InvalidIntervalError(ReproError, ValueError):
    """Raised when an interval has ``end < start`` or non-finite endpoints."""


class InvalidQueryError(ReproError, ValueError):
    """Raised when a query interval is malformed."""


class DomainError(ReproError, ValueError):
    """Raised when a value falls outside the index's discrete domain."""


class EmptyCollectionError(ReproError, ValueError):
    """Raised when an operation requires a non-empty interval collection."""


class UnknownBackendError(ReproError, KeyError):
    """Raised when a backend name is not present in the engine registry.

    Subclasses ``KeyError``, since a backend name is a lookup key.
    """


class DurabilityError(ReproError):
    """Base class for write-ahead-log / checkpoint / recovery errors."""


class WalCorruptionError(DurabilityError):
    """Raised when the write-ahead log cannot be replayed exactly.

    Torn or corrupt records in the *final* segment are recovered from by
    truncating at the first bad record (a crash mid-append legitimately
    leaves one); this error is for damage that truncation cannot explain --
    corruption in a non-final segment, or a missing segment in the middle
    of the sequence -- where dropping records would silently lose durable
    acknowledged updates.
    """


class CheckpointError(DurabilityError):
    """Raised when a checkpoint file exists but cannot be loaded.

    Checkpoints are published atomically (write-temp, fsync, rename), so a
    present-but-unreadable checkpoint is damage outside the crash model and
    recovery refuses rather than guessing at a baseline.
    """


class DurabilityDegradedError(DurabilityError):
    """Raised on writes while the store's WAL can no longer persist them.

    An fsync/append failure flips the store into a visible degraded mode:
    reads keep working, writes raise this error instead of silently losing
    durability.  The serving tier maps it to 503 and surfaces the flag in
    ``/stats`` and ``/health``.
    """


class UnsupportedQueryError(ReproError, NotImplementedError):
    """Raised when a backend cannot answer the requested query kind.

    The main producer is :meth:`repro.core.base.IntervalIndex.query_relation`
    on backends that do not retain full intervals (BEFORE/AFTER need a scan of
    the stored intervals).  Subclasses ``NotImplementedError`` so existing
    callers that caught the old error keep working.
    """
