"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch every failure mode of the simulator and the mining framework with a
single ``except`` clause while still being able to discriminate precisely.

Hardware *fault* conditions (injected or organic) derive from
:class:`FaultError` and carry structured context — the failing unit, the
simulated timestamp, and kind-specific details — so the serving layer can
convert them into shed reason codes and operators can correlate an error
with the fault-timeline telemetry instead of parsing message strings.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class ConfigurationError(ReproError):
    """A hardware or algorithm configuration value is invalid."""


class CapacityError(ReproError):
    """The PIM array cannot accommodate the requested data.

    Raised by the memory manager when no compressed dimensionality ``s``
    satisfies Theorem 4 for the given hardware budget, and by the mapper
    when a caller tries to program more data than the array holds.
    """


class FaultError(ReproError):
    """A hardware or shard fault (injected or organic) surfaced.

    Parameters
    ----------
    message:
        Human-readable description (kept as ``str(exc)``).
    unit:
        The failing unit — a crossbar id, ``"shard3"``, an array name.
    timestamp_ns:
        Simulated time the fault surfaced (the fault clock / service
        clock, whichever raised).
    **context:
        Kind-specific structured details (write counts, chunk ids,
        elapsed time…), exposed as :attr:`context`.

    The serving layer converts these into sheds with :attr:`reason` as
    the shed reason code rather than letting them crash the event loop.
    """

    #: Shed reason code the serving layer files this fault under.
    reason = "fault"

    def __init__(
        self,
        message: str,
        *,
        unit=None,
        timestamp_ns: float | None = None,
        **context,
    ) -> None:
        super().__init__(message)
        self.unit = unit
        self.timestamp_ns = timestamp_ns
        self.context = dict(context)


class EnduranceExceededError(FaultError):
    """A ReRAM cell was written more times than its rated endurance.

    Carries the worn unit id, its cumulative write count and the rated
    endurance as structured context (``unit``, ``context["writes"]``,
    ``context["endurance"]``).
    """

    reason = "endurance"


class CrossbarDeadError(FaultError):
    """A crossbar (or a whole PIM array) died and no longer answers waves."""

    reason = "fault:crossbar_dead"


class ShardHungError(FaultError, TimeoutError):
    """A shard dispatch hung past the watchdog with no replica to fail
    over to. ``TimeoutError``-family so generic timeout handlers apply."""

    reason = "fault:shard_hung"


class ChunkUnavailableError(FaultError):
    """Every replica of a data chunk is dead and degraded host-side
    recomputation is disabled — the query cannot be answered exactly."""

    reason = "fault:chunk_unavailable"


class OperandError(ReproError):
    """An operand violates PIM constraints (negative, too wide, wrong shape)."""


class ProgrammingError(ReproError):
    """The PIM array is used before data has been programmed onto it,
    or programmed twice without an explicit reset."""


class PlanError(ReproError):
    """The execution-plan optimizer was given an unusable bound set."""


class DatasetError(ReproError):
    """A dataset request cannot be fulfilled (unknown name, bad shape)."""


class ServingError(ReproError):
    """The serving layer is misconfigured or violated an invariant
    (bad placement, unknown tenant, invalid query block)."""


class WatchdogTimeoutError(ServingError, TimeoutError):
    """The serving event loop stopped making progress (a hung dispatch
    or a non-terminating drain) and the watchdog terminated the run."""


class CheckpointError(ReproError):
    """A checkpoint cannot be written, read, or trusted: unsupported
    version, truncated payload, an integrity hash that does not match
    its array, or restored state inconsistent with the manifest."""
