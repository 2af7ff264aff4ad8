"""The unified Tolerance Tiers serving gateway.

:class:`TierGateway` is the one consumer-facing API over every execution
substrate: the same session surface — :meth:`~TierGateway.submit` /
:meth:`~TierGateway.submit_batch` returning :class:`TierTicket` handles,
:meth:`~TierGateway.drain`, per-request deadlines, and the structured
:class:`~repro.core.errors.TierError` hierarchy — serves requests through

* a :class:`~repro.service.gateway.backends.DirectBackend` (live,
  contention-free dispatch; tickets resolve at submit time),
* a :class:`~repro.service.gateway.backends.ReplayBackend` (measurement
  replay; tickets resolve at submit time), or
* a :class:`~repro.service.gateway.simulated.SimulatedBackend` (the
  virtual-clock engine; tickets resolve at :meth:`~TierGateway.drain`,
  after the traffic experienced queueing, batching, autoscaling and any
  injected faults).

Every execution funnels through the one canonical
:class:`~repro.core.executor.PolicyExecutor` semantics, so a request is
served identically — escalation decision, latency composition,
node-seconds billing — whichever substrate runs it.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import (
    BackendCapabilityError,
    GatewayClosedError,
    MissingVersionError,
    RequestFailedError,
    RequestShedError,
    RequestValidationError,
    ResultPendingError,
    TierError,
    UnknownObjectiveError,
    UnroutableToleranceError,
)
from repro.core.executor import PolicyExecutor
from repro.obs.reconstruct import trace_from_record
from repro.service.request import ServiceRequest, ServiceResponse
from repro.service.simulation.report import RequestRecord

__all__ = ["TierGateway", "TierTicket"]


class TierTicket:
    """Handle for one submitted request: a minimal, single-shot future.

    Synchronous backends resolve the ticket before :meth:`TierGateway.submit`
    returns; the simulated backend resolves it when the gateway drains.

    Attributes:
        request: The annotated request this ticket tracks.
        at_time: Virtual arrival time (meaningful under a simulated
            backend; ``0.0`` on synchronous ones).
        deadline_s: The consumer's response-time deadline, when declared.
    """

    __slots__ = ("request", "at_time", "deadline_s", "_response", "_error")

    def __init__(
        self,
        request: ServiceRequest,
        *,
        at_time: float = 0.0,
        deadline_s: Optional[float] = None,
    ) -> None:
        self.request = request
        self.at_time = at_time
        self.deadline_s = deadline_s
        self._response: Optional[ServiceResponse] = None
        self._error: Optional[TierError] = None

    # -- resolution (gateway-internal) ---------------------------------
    def _resolve(self, response: ServiceResponse) -> None:
        self._response = response

    def _fail(self, error: TierError) -> None:
        self._error = error

    # -- client surface ------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the request has resolved (successfully or not)."""
        return self._response is not None or self._error is not None

    @property
    def ok(self) -> bool:
        """Whether the request resolved with a response."""
        return self._response is not None

    def result(self) -> ServiceResponse:
        """The response, or raise.

        Raises:
            ResultPendingError: If the gateway has not drained yet.
            RequestFailedError: If the request failed terminally.
        """
        if self._error is not None:
            raise self._error
        if self._response is None:
            raise ResultPendingError(
                f"request {self.request.request_id!r} has not resolved; "
                "drain() the gateway first"
            )
        return self._response

    def exception(self) -> Optional[TierError]:
        """The terminal error, or ``None``."""
        return self._error

    @property
    def deadline_met(self) -> Optional[bool]:
        """Whether the response beat the declared deadline.

        ``None`` when no deadline was declared or the ticket is
        unresolved/failed — there is no response time to compare.
        """
        if self.deadline_s is None or self._response is None:
            return None
        return self._response.response_time_s <= self.deadline_s


def _request_deadline(
    request: ServiceRequest, explicit: Optional[float]
) -> Optional[float]:
    """Resolve a ticket's deadline: explicit argument, else metadata."""
    raw = explicit
    if raw is None and request.metadata:
        raw = request.metadata.get("deadline_s")
    if raw is None:
        return None
    try:
        deadline = float(raw)
    except (TypeError, ValueError):
        deadline = math.nan
    if not 0.0 <= deadline < math.inf:
        raise RequestValidationError(
            f"malformed deadline_s on request {request.request_id!r}: "
            f"{raw!r} is not a finite, non-negative number"
        )
    return deadline


def _record_error(record: RequestRecord) -> RequestFailedError:
    """The terminal error of a shed or failed record — the one text both
    of :meth:`TierGateway.drain`'s resolve paths fail a ticket with."""
    if record.shed:
        # Dropped by admission control inside the engine: a structured
        # error, because the ticket must never hang past a drain.
        return RequestShedError(
            f"request {record.request_id!r} was shed by admission control "
            "under SLO breach",
            record=record,
        )
    return RequestFailedError(
        f"request {record.request_id!r} failed terminally after "
        f"{record.retries} retr{'y' if record.retries == 1 else 'ies'}",
        record=record,
    )


class TierGateway:
    """Session-based client API over a pluggable execution backend.

    Exactly one of ``router`` / ``configuration`` decides how requests map
    to ensembles: a :class:`~repro.core.router.TierRouter` serves each
    request by its ``Tolerance`` / ``Objective`` annotation, while a fixed
    :class:`~repro.core.configuration.EnsembleConfiguration` models a
    conventional deployment (e.g. OSFA).

    Args:
        backend: Execution substrate
            (:class:`~repro.service.gateway.backends.DirectBackend`,
            :class:`~repro.service.gateway.backends.ReplayBackend` or
            :class:`~repro.service.gateway.simulated.SimulatedBackend`).
        router: Tier router produced by the routing-rule generator.
        configuration: Fixed ensemble configuration (mutually exclusive
            with ``router``).
        trace: Optional :class:`~repro.obs.trace.TraceCollector` — the
            session's ``TraceSink``.  On a simulated backend it is
            forwarded to the engine (virtual-clock spans, one tree per
            request, available after :meth:`drain`; per-attempt detail
            on a run with a fault schedule or a control plane); on
            synchronous
            backends the gateway records coarse trees at submit time.
            Ticket-level access via :meth:`trace_for`.  Strictly
            opt-in: responses, reports and digests are identical with
            or without one.

    Raises:
        MissingVersionError: If a routable configuration needs a version
            the backend cannot execute.
    """

    def __init__(
        self,
        backend,
        *,
        router=None,
        configuration=None,
        trace=None,
    ) -> None:
        if (router is None) == (configuration is None):
            raise ValueError("supply exactly one of router / configuration")
        self.backend = backend
        self.router = router
        self.configuration = configuration
        #: The session's trace sink (a ``TraceCollector``), or ``None``.
        self.trace = trace
        if trace is not None:
            attach = getattr(backend, "attach_trace", None)
            if attach is not None:
                # Simulated backend: the engine records spans on the
                # virtual clock.  Must happen before bind() below.
                attach(trace)
        self._executor = PolicyExecutor(backend)
        self._tickets: List[TierTicket] = []
        #: Deferred sessions resolve through it; ids are unique in it.
        self._ticket_of: Dict[str, TierTicket] = {}
        self._unclaimed: List[ServiceResponse] = []
        self._closed = False
        #: Requests served so far — the clock of the coarse traces a
        #: synchronous session records (it has no wall or virtual clock):
        #: request *k* starts at ``k``.  Never reset: handle() and drain()
        #: claim tickets, not time.
        self._submitted = 0
        self._validate_versions()
        bind = getattr(backend, "bind", None)
        if bind is not None:
            bind(router=router, configuration=configuration)

    # ------------------------------------------------------------------
    # validation / routing
    # ------------------------------------------------------------------
    def _routable_configurations(self) -> List[Any]:
        if self.configuration is not None:
            return [self.configuration]
        configurations = []
        for objective in self.router.objectives:
            table = self.router.table_for(objective)
            configurations.extend(list(table.rules.values()) + [table.baseline])
        return configurations

    def _validate_versions(self) -> None:
        deployed = self.backend.versions
        if deployed is None:
            return  # the backend cannot enumerate its versions
        deployed = set(deployed)
        for configuration in self._routable_configurations():
            missing = set(configuration.versions) - deployed
            if missing:
                raise MissingVersionError(
                    f"configuration {configuration.name!r} needs versions "
                    f"{sorted(missing)} that the backend does not deploy "
                    f"(available: {sorted(deployed)})"
                )

    def _route(self, request: ServiceRequest):
        tolerance = request.tolerance
        if not isinstance(tolerance, (int, float)) or not math.isfinite(
            tolerance
        ) or tolerance < 0.0:
            raise UnroutableToleranceError(
                f"request {request.request_id!r} carries an unroutable "
                f"tolerance {tolerance!r}; tolerances are finite and "
                "non-negative"
            )
        if self.configuration is not None:
            return self.configuration
        try:
            return self.router.route(tolerance, request.objective)
        except TierError:
            raise
        except KeyError as exc:
            # table_for's KeyError message already names the objective and
            # the available tables; re-raise it under the typed hierarchy.
            raise UnknownObjectiveError(
                exc.args[0] if exc.args else str(exc)
            ) from exc
        except ValueError as exc:
            raise UnknownObjectiveError(str(exc)) from exc

    # ------------------------------------------------------------------
    # session surface
    # ------------------------------------------------------------------
    def submit(
        self,
        request: ServiceRequest,
        *,
        at_time: float = 0.0,
        deadline_s: Optional[float] = None,
    ) -> TierTicket:
        """Submit one annotated request; returns its ticket.

        On a synchronous backend the ticket resolves before this call
        returns.  On a simulated backend the request arrives at
        ``at_time`` on the virtual clock and resolves at :meth:`drain`.

        Args:
            request: The annotated request.
            at_time: Virtual arrival time (simulated backends only).
            deadline_s: Response-time deadline recorded on the ticket;
                falls back to a ``deadline_s`` entry in the request
                metadata.  Deadlines are SLO bookkeeping — a late response
                still resolves, with :attr:`TierTicket.deadline_met` False.
        """
        if not self.backend.synchronous:
            return self._submit_deferred([request], [at_time], deadline_s)[0]
        configuration = self._route(request)
        ticket = TierTicket(
            request,
            at_time=at_time,
            deadline_s=_request_deadline(request, deadline_s),
        )
        self._tickets.append(ticket)
        started = float(self._submitted)
        self._submitted += 1
        outcome = self._executor.execute(configuration, request)
        response = ServiceResponse(
            request_id=outcome.request_id,
            result=outcome.result,
            versions_used=outcome.versions_used,
            response_time_s=outcome.response_time_s,
            invocation_cost=outcome.invocation_cost,
            tier=request.tolerance,
            confidence=outcome.confidence,
        )
        ticket._resolve(response)
        self._unclaimed.append(response)
        if self.trace is not None:
            # A coarse tree on the session clock (no virtual clock
            # here): one unit per submission, the first at 0.0, lasting
            # the response time.
            self.trace.add_trace(
                trace_from_record(RequestRecord.for_outcome(request, outcome, started))
            )
        return ticket

    def _submit_deferred(
        self, requests: Sequence[ServiceRequest], at_times: Sequence[float], deadline_s
    ) -> List[TierTicket]:
        """Ticket and schedule a whole batch on a deferred backend, or
        none of it: routing (once per distinct annotation), ids, times and
        deadlines are all checked before the first ticket is issued."""
        if self._closed:
            raise GatewayClosedError(
                "this gateway session is closed (its backend was drained); "
                "build a new gateway for another session"
            )
        routed = set()
        fresh: Dict[str, TierTicket] = {}
        for request, at_time in zip(requests, at_times):
            # type() too: Decimal(0) == 0.0, and _route serves only the float.
            annotation = type(request.tolerance), request.tolerance, request.objective
            if annotation not in routed:
                self._route(request)
                routed.add(annotation)
            request_id = request.request_id
            if request_id in self._ticket_of or request_id in fresh:
                raise RequestValidationError(
                    f"request id {request_id!r} was already submitted; a "
                    "deferred session resolves its tickets by request id"
                )
            if not math.isfinite(at_time):
                raise RequestValidationError(
                    f"request {request_id!r} arrives at a non-finite time {at_time!r}"
                )
            fresh[request_id] = TierTicket(
                request,
                at_time=at_time,
                deadline_s=_request_deadline(request, deadline_s),
            )
        self.backend.submit_batch(requests, at_times)
        tickets = list(fresh.values())
        self._ticket_of.update(fresh)
        self._tickets += tickets
        return tickets

    def trace_for(self, ticket: TierTicket):
        """The span tree recorded for a ticket's request, or ``None``.

        Needs a ``trace`` sink attached at construction; on a simulated
        backend traces materialize at :meth:`drain`.
        """
        if self.trace is None:
            return None
        return self.trace.trace_for(ticket.request.request_id)

    def submit_batch(
        self,
        requests: Iterable[ServiceRequest],
        *,
        at_times: Optional[Sequence[float]] = None,
        deadline_s: Optional[float] = None,
    ) -> List[TierTicket]:
        """Submit many requests; returns their tickets in order.

        On a deferred backend the batch is all-or-nothing: it is
        validated and routed — once per distinct annotation — before any
        ticket is issued or arrival scheduled, so a batch that raises
        leaves the session as it found it.  A synchronous backend serves
        request by request: those before a failing one stay served.

        Args:
            requests: The annotated requests.
            at_times: Per-request virtual arrival times (simulated
                backends); defaults to ``0.0`` for every request.
            deadline_s: One deadline applied to every ticket.
        """
        requests = list(requests)
        if at_times is None:
            at_times = [0.0] * len(requests)
        if len(at_times) != len(requests):
            raise ValueError(
                f"got {len(requests)} requests but {len(at_times)} arrival "
                "times"
            )
        at_times = [float(at) for at in at_times]
        if not self.backend.synchronous:
            return self._submit_deferred(requests, at_times, deadline_s)
        return [
            self.submit(request, at_time=at, deadline_s=deadline_s)
            for request, at in zip(requests, at_times)
        ]

    def drain(self) -> List[ServiceResponse]:
        """Resolve every outstanding request and return the responses.

        On a synchronous backend this returns the responses accumulated
        since the last drain (requests resolved at submit time).  On a
        simulated backend it runs the event loop to completion, resolves
        every ticket from the load-test report — failed requests resolve
        with a :class:`~repro.core.errors.RequestFailedError` on their
        ticket — closes the session, and returns the successful responses
        in completion order.
        """
        if self.backend.synchronous:
            responses = self._unclaimed
            self._unclaimed = []
            # The session's bookkeeping is claimed with the responses; a
            # long-lived synchronous gateway must not accumulate tickets.
            self._tickets = []
            return responses
        if self._closed:
            raise GatewayClosedError("this gateway session is already drained")
        if not self._tickets:
            return []  # nothing was scheduled: there is no report to resolve
        report = self.backend.drain()
        self._closed = True
        # One walk over the report, in completion order (the order the
        # responses are returned in), as rows of (id, shed or failed,
        # (result, versions_used, response_time_s, cost), confidence),
        # from one tolist() per column: a RequestRecord is only ever
        # touched for a row whose error carries it.
        records = report.records
        columns = report.columns
        confidences = columns.confidence.copy()
        confidences[columns.no_confidence] = 1.0  # answered outright
        rows = zip(
            columns.request_ids,
            (columns.shed | columns.failed).tolist(),
            zip(
                columns.results or columns.payloads,
                columns.versions_used(),
                columns.response_time_s.tolist(),
                columns.invocation_cost.tolist(),
            ),
            confidences.tolist(),
        )
        responses: List[ServiceResponse] = []
        for index, (request_id, unanswered, answer, confidence) in enumerate(rows):
            ticket = self._ticket_of.get(request_id)
            if ticket is None:
                continue
            if unanswered:
                ticket._fail(_record_error(records[index]))
            else:
                response = ServiceResponse(
                    request_id, *answer, ticket.request.tolerance, confidence
                )
                ticket._resolve(response)
                responses.append(response)
        # Tickets the report never mentioned fail here.
        for ticket in self._tickets:
            if ticket._error is None and ticket._response is None:
                ticket._fail(
                    RequestFailedError(
                        f"request {ticket.request.request_id!r} was "
                        "submitted but the backend produced no record for it"
                    )
                )
        return responses

    @property
    def tickets(self) -> Tuple[TierTicket, ...]:
        """Tickets issued since the last :meth:`drain`, in submission
        order (a drain claims the session's bookkeeping along with its
        responses)."""
        return tuple(self._tickets)

    # ------------------------------------------------------------------
    # request/response conveniences
    # ------------------------------------------------------------------
    def handle(self, request: ServiceRequest) -> ServiceResponse:
        """Serve one request synchronously.

        Raises:
            BackendCapabilityError: On a deferred (simulated) backend,
                where results only materialise at :meth:`drain`.
        """
        if not self.backend.synchronous:
            raise BackendCapabilityError(
                "handle() needs a synchronous backend; submit() and drain() "
                "the simulated backend instead"
            )
        ticket = self.submit(request)
        # One-shot: claimed here, not by the next drain(), and not
        # retained in the session bookkeeping.
        self._unclaimed.pop()
        self._tickets.pop()
        return ticket.result()

    def handle_http(
        self,
        request_id: str,
        payload: Any,
        headers: Mapping[str, str],
    ) -> ServiceResponse:
        """Serve a request expressed as HTTP-style headers plus a payload.

        This mirrors the paper's ``curl`` example: the ``Tolerance`` and
        ``Objective`` headers select the tier.

        Raises:
            RequestValidationError: If the headers fail to parse.
        """
        try:
            request = ServiceRequest.from_headers(request_id, payload, headers)
        except ValueError as exc:
            raise RequestValidationError(str(exc)) from exc
        return self.handle(request)

    # ------------------------------------------------------------------
    # load-test convenience (simulated backends)
    # ------------------------------------------------------------------
    def run_load(
        self,
        arrivals,
        n_requests: int,
        *,
        tolerance: float = 0.0,
        objective=None,
        payload_ids: Optional[Sequence[Any]] = None,
    ):
        """Generate an offered-load workload and drain it to a report.

        Delegates to the simulated backend's engine, so a gateway-driven
        load test is bit-identical to driving the
        :class:`~repro.service.simulation.engine.ServingSimulator`
        directly.  The session closes when the report returns.

        Raises:
            BackendCapabilityError: On a synchronous backend — offered
                load needs the virtual clock.
        """
        if self.backend.synchronous:
            raise BackendCapabilityError(
                "run_load() needs a simulated backend; synchronous backends "
                "have no virtual clock to pace arrivals on"
            )
        if self._closed:
            raise GatewayClosedError("this gateway session is already drained")
        if self._tickets:
            raise GatewayClosedError(
                "run_load() needs a fresh session; this gateway already has "
                f"{len(self._tickets)} submitted request(s)"
            )
        self._closed = True
        kwargs = {"tolerance": tolerance, "payload_ids": payload_ids}
        if objective is not None:
            kwargs["objective"] = objective
        return self.backend.run(arrivals, n_requests, **kwargs)
