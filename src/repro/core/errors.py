"""The structured error hierarchy of the Tolerance Tiers serving surface.

Every failure a gateway client can provoke maps to one :class:`TierError`
subclass, so callers can catch the whole family with one ``except
TierError`` or discriminate precisely.  Each subclass also inherits the
built-in exception the pre-gateway code raised for the same condition
(``ValueError`` for validation failures, ``KeyError``-adjacent lookups are
normalised to ``ValueError``, ``RuntimeError`` for lifecycle misuse), so
code written against the pre-gateway error contract keeps working
unchanged.

This module is import-cycle-free on purpose: it imports nothing from the
rest of the package, so the request layer, the executor, the gateway and
the simulation engine can all share it.
"""

from __future__ import annotations

__all__ = [
    "BackendCapabilityError",
    "GatewayClosedError",
    "HistoryFileError",
    "MissingVersionError",
    "PolicyConfigurationError",
    "RequestFailedError",
    "RequestShedError",
    "RequestValidationError",
    "ResultPendingError",
    "TierError",
    "TraceFileError",
    "UnknownObjectiveError",
    "UnroutableToleranceError",
]


class TierError(Exception):
    """Base class of every Tolerance Tiers serving error."""


class RequestValidationError(TierError, ValueError):
    """A request's annotation headers could not be parsed or validated."""


class UnknownObjectiveError(TierError, ValueError):
    """The requested objective names no routing-rule table."""


class UnroutableToleranceError(TierError, ValueError):
    """The requested tolerance is invalid (negative, NaN or infinite)."""


class MissingVersionError(TierError, ValueError):
    """A routed configuration needs a version the backend cannot execute."""


class PolicyConfigurationError(TierError, ValueError):
    """An ensemble policy is missing a required parameter.

    The canonical case: a two-version policy without a
    ``confidence_threshold``.  Earlier code silently substituted ``0.5``;
    a missing threshold is a deployment bug, not a default.
    """


class RequestFailedError(TierError, RuntimeError):
    """A request failed terminally inside the execution backend.

    Raised by :meth:`~repro.service.gateway.gateway.TierTicket.result`
    when a simulated request exhausted its retries or its capacity never
    recovered.  Carries the backend's per-request record (when available)
    as :attr:`record`.
    """

    def __init__(self, message: str, record=None) -> None:
        super().__init__(message)
        self.record = record


class RequestShedError(RequestFailedError):
    """A request was shed by admission control before it was served.

    Raised by :meth:`~repro.service.gateway.gateway.TierTicket.result`
    when the control plane's admission controller dropped the request
    under an SLO breach.  A shed ticket resolves the moment the shed is
    known — it never hangs a :meth:`drain`.  Subclasses
    :class:`RequestFailedError`, so callers handling terminal failures
    handle sheds too; discriminate with ``except RequestShedError``
    first when shed traffic deserves a different retry story (it does:
    the request was never attempted, so an immediate client-side retry
    against a healthier replica is safe).
    """


class _FileLineError(TierError, ValueError):
    """A problem found on one line of a file: path, 1-based line, reason."""

    def __init__(self, path, line: int, reason: str) -> None:
        super().__init__(f"{path}, line {line}: {reason}")
        self.path = str(path)
        self.line = line
        self.reason = reason


class TraceFileError(_FileLineError):
    """A trace JSONL file is truncated, corrupted or not a trace export.

    Raised by :meth:`~repro.obs.trace.TraceCollector.load_jsonl`; carries
    the file as :attr:`path`, the 1-based :attr:`line` the problem was
    found on and the bare :attr:`reason`.
    """


class HistoryFileError(_FileLineError):
    """A benchmark-history JSONL file has a malformed or truncated line.

    Raised by ``benchmarks/history.py``'s ``load_history``, with the same
    :attr:`path` / :attr:`line` / :attr:`reason` as :class:`TraceFileError`.
    """


class ResultPendingError(TierError, RuntimeError):
    """A ticket's result was read before the gateway drained it."""


class GatewayClosedError(TierError, RuntimeError):
    """The gateway session is closed (its backend was already drained)."""


class BackendCapabilityError(TierError, RuntimeError):
    """The operation needs a capability this execution backend lacks.

    For example, :meth:`~repro.service.gateway.gateway.TierGateway.handle`
    needs a synchronous backend, while
    :meth:`~repro.service.gateway.gateway.TierGateway.run_load` needs a
    deferred (simulated) one.
    """
