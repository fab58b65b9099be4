"""The ``repro serve`` daemon: asyncio HTTP front, tiered solver workers.

Architecture — one event loop, one bounded
:class:`~concurrent.futures.ThreadPoolExecutor` of *flight
supervisors*, and a pluggable worker tier (``repro.service.workers``):

* the loop accepts connections and parses/serializes JSON; nothing on
  it ever runs a solver;
* submissions are keyed by ``(solver, TuningJob.fingerprint())``;
  a cache hit completes immediately, an identical in-flight key
  coalesces onto the running search, anything else must pass
  *admission control* (bounded pending queue + per-client quotas; a
  rejection is ``429 Too Many Requests`` with a ``Retry-After`` hint)
  before a supervisor thread hands it to the worker tier;
* ``worker_mode="thread"`` runs the search on the supervisor thread
  itself via :func:`repro.api.solve` (full ``progress`` /
  ``should_stop`` hook fidelity); ``worker_mode="process"`` routes it
  to a fingerprint-pinned worker *process* so searches use real cores
  — both share the same on-disk :class:`~repro.api.cache.PlanCache`.

Only the stdlib is used: the HTTP layer is a minimal HTTP/1.1
request/response exchange over :func:`asyncio.start_server`
(``Connection: close``, JSON bodies both ways).
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import signal
import sys
import threading
import time
import traceback
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.api import (
    PlanCache,
    SolveReport,
    SolverNotFoundError,
    TuningJob,
    solve,
)
from repro.api.registry import solver_names
from repro.api.replan import delta_job
from repro.api.replan import replan as api_replan
from repro.core.plan import TrainingPlan
from repro.core.tuner import SearchCancelled
from repro.hardware import ClusterDelta, DeltaError

from .state import CampaignRecord, InFlight, JobRecord, ServiceMetrics
from .workers import ProgressFn, SolveFn, StopFn, make_tier

#: one flight's search body: ``runner(progress, should_stop) -> report``
_Runner = Callable[[ProgressFn, StopFn], SolveReport]

__all__ = ["AdmissionError", "ServiceHandle", "TuningService",
           "UnknownCampaignError", "UnknownJobError"]


class AdmissionError(RuntimeError):
    """The daemon refused a submission (full queue or client quota).

    Maps to ``429 Too Many Requests`` on the wire; ``retry_after`` is
    the server's backoff hint in whole seconds (also sent as the
    ``Retry-After`` header).
    """

    def __init__(self, message: str, *, reason: str, retry_after: int):
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


class UnknownJobError(KeyError):
    """No job record under the requested id."""

    def __init__(self, job_id: str):
        super().__init__(f"unknown job {job_id!r}")
        self.job_id = job_id


class UnknownCampaignError(KeyError):
    """No campaign record under the requested id."""

    def __init__(self, campaign_id: str):
        super().__init__(f"unknown campaign {campaign_id!r}")
        self.campaign_id = campaign_id

_MAX_BODY_BYTES = 8 * 2**20  # a TuningJob is KBs; reject absurd bodies

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            409: "Conflict", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error"}


class _HttpError(Exception):
    def __init__(self, status: int, message: str, *,
                 headers: dict[str, str] | None = None,
                 extra: dict[str, Any] | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        #: extra response headers (e.g. ``Retry-After`` on a 429)
        self.headers: dict[str, str] = headers or {}
        #: extra JSON payload fields alongside ``{"error": ...}``
        self.extra: dict[str, Any] = extra or {}


@dataclass
class ServiceHandle:
    """A started service: where it listens and how to stop it."""

    service: "TuningService"
    thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.service.host}:{self.service.port}"

    def stop(self, *, timeout: float = 10.0) -> None:
        self.service.stop()
        if self.thread is not None:
            self.thread.join(timeout=timeout)


class TuningService:
    """Long-running tuning daemon over the solver registry.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` once started). ``solve_fn`` is the solver entry point
    and exists for tests — it must match :func:`repro.api.solve`'s
    signature.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 2, cache: PlanCache | None = None,
                 solve_fn: SolveFn | None = None,
                 worker_mode: str = "thread",
                 max_pending: int = 0, quota: int = 0,
                 worker_retries: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0 (0 = unbounded)")
        if quota < 0:
            raise ValueError("quota must be >= 0 (0 = unlimited)")
        self.host = host
        self.port = port
        self.workers = workers
        self.worker_mode = worker_mode
        #: admission control: max concurrently *pending* searches
        #: (distinct in-flight fingerprints); 0 disables the bound
        self.max_pending = max_pending
        #: admission control: max unresolved jobs per client; 0 = off
        self.quota = quota
        self.cache = cache if cache is not None else PlanCache()
        self.metrics = ServiceMetrics()
        self._solve: SolveFn = solve_fn if solve_fn is not None else solve
        self._tier = make_tier(worker_mode, workers, solve_fn=solve_fn,
                               retries=worker_retries)
        self._jobs: dict[str, JobRecord] = {}
        self._campaigns: dict[str, CampaignRecord] = {}
        self._inflight: dict[tuple[str, str], InFlight] = {}
        #: unresolved-job count per client id (quota bookkeeping)
        self._clients: dict[str, int] = {}
        self._lock = threading.Lock()
        # in process mode the supervisor threads merely await worker
        # futures, so more of them than routed processes keeps slots
        # busy while others block on IPC
        supervisors = workers if worker_mode == "thread" else workers * 4
        self._pool = ThreadPoolExecutor(max_workers=supervisors,
                                        thread_name_prefix="repro-solve")
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._shutting_down = False

    # -- job lifecycle (thread-safe, usable without HTTP) ------------------

    def submit(self, job: TuningJob, solver: str = "mist", *,
               client: str = "", preadmitted: bool = False) -> JobRecord:
        """Register a job: cache hit, coalesce, or start a search.

        ``client`` is the submitter's id (the HTTP front passes the
        ``X-Repro-Client`` header) and feeds the per-client quota
        ledger. Raises :class:`AdmissionError` when the pending queue
        is full (new searches only — cache hits and coalescing add no
        load) or the client is over quota. ``preadmitted=True`` skips
        those checks: :meth:`submit_campaign` admits its whole batch
        up front instead of failing halfway through.
        """
        if solver not in solver_names():
            raise SolverNotFoundError(solver)
        fingerprint = job.fingerprint()
        record = JobRecord(job=job, solver=solver, fingerprint=fingerprint,
                           client=client)
        key = (solver, fingerprint)
        with self._lock:
            # the cache read must happen under the same lock as the
            # in-flight check. The worker's own store is NOT locked —
            # the invariant is ordering: solve() stores the report
            # strictly before _finish_flight detaches the flight under
            # this lock, so a racing submission sees either the flight
            # (coalesce) or the already-stored entry (hit), never
            # neither. Keep that store-before-detach order.
            hit = self.cache.load(job, solver)
            if hit is not None:
                self.metrics.inc("jobs_submitted")
                self._jobs[record.id] = record
                record.complete(hit, from_cache=True)
                self.metrics.inc("cache_hits")
                self.metrics.inc("jobs_completed")
                return record
            flight = self._inflight.get(key)
            if not preadmitted:
                self._admit_locked(client, new_flight=flight is None)
            self.metrics.inc("jobs_submitted")
            self.metrics.inc("cache_misses")
            self._jobs[record.id] = record
            # the record holds one quota slot until it goes terminal
            record.counted = True
            self._clients[client] = self._clients.get(client, 0) + 1
            if flight is not None:
                flight.attach(record)
                record.coalesced = True
                self.metrics.inc("coalesced")
                return record
            flight = InFlight(key, record)
            self._inflight[key] = flight
            self._pool.submit(self._run_flight, flight, job, solver)
        return record

    def submit_replan(self, job: TuningJob,
                      delta: "ClusterDelta | dict[str, Any]",
                      solver: str = "mist", *, client: str = "",
                      ) -> tuple[JobRecord, TrainingPlan | None]:
        """Register an elastic replan: re-tune ``job`` after ``delta``.

        Returns ``(record, incumbent_plan)``. The record tracks the
        *post-delta* job (its fingerprint is the plan-cache key for the
        re-tuned plan), so a repeated replan is a cache hit and an
        identical concurrent one coalesces — and both share admission
        control with ordinary submissions. The incumbent plan is looked
        up in the cache under the pre-delta job; ``None`` means the
        search runs cold (still correct, just slower).

        Replan flights run on the supervisor thread itself via
        :func:`repro.api.replan` — the process tier's IPC cannot carry
        an incumbent plan — so ``worker_mode="process"`` daemons replan
        on a thread while ordinary solves keep their worker processes.
        """
        if solver not in solver_names():
            raise SolverNotFoundError(solver)
        if isinstance(delta, dict):
            delta = ClusterDelta.from_dict(delta)
        new_job = delta_job(job, delta)
        fingerprint = new_job.fingerprint()
        record = JobRecord(job=new_job, solver=solver,
                           fingerprint=fingerprint, client=client)
        key = (solver, fingerprint)
        self.metrics.inc("replan_requests")
        with self._lock:
            # same ordering contract as submit(): cache read and
            # in-flight check under one lock (see submit's comment)
            hit = self.cache.load(new_job, solver)
            if hit is not None:
                self.metrics.inc("jobs_submitted")
                self._jobs[record.id] = record
                record.complete(hit, from_cache=True)
                self.metrics.inc("cache_hits")
                self.metrics.inc("replan_cache_hits")
                self.metrics.inc("jobs_completed")
                return record, None
            flight = self._inflight.get(key)
            self._admit_locked(client, new_flight=flight is None)
            self.metrics.inc("jobs_submitted")
            self.metrics.inc("cache_misses")
            self._jobs[record.id] = record
            record.counted = True
            self._clients[client] = self._clients.get(client, 0) + 1
            incumbent = self.cache.load(job, solver)
            plan = incumbent.plan if incumbent is not None else None
            if flight is not None:
                # someone is already solving this exact post-delta job
                # (a racing replan or a plain submit); ride that search
                flight.attach(record)
                record.coalesced = True
                self.metrics.inc("coalesced")
                return record, plan
            self.metrics.inc("replan_warm" if plan is not None
                             else "replan_cold_fallback")
            flight = InFlight(key, record)
            self._inflight[key] = flight
            self._pool.submit(self._run_replan_flight, flight, job, delta,
                              solver, plan)
        return record, plan

    def _admit_locked(self, client: str, *, new_flight: bool) -> None:
        """Admission checks; the caller holds ``self._lock``.

        Coalescing submissions (``new_flight=False``) bypass the
        queue-depth bound — they attach to a search that is already
        paid for — but still consume client quota.
        """
        if self.quota > 0:
            held = self._clients.get(client, 0)  # repro: allow[lock-discipline] caller holds self._lock
            if held >= self.quota:
                self.metrics.inc("rejected_quota")
                raise AdmissionError(
                    f"client {client or 'anonymous'!r} already holds "
                    f"{held} unresolved job(s) (quota {self.quota})",
                    reason="quota", retry_after=self._retry_after_locked())
        if new_flight and self.max_pending > 0:
            depth = len(self._inflight)  # repro: allow[lock-discipline] caller holds self._lock
            if depth >= self.max_pending:
                self.metrics.inc("rejected_queue")
                raise AdmissionError(
                    f"pending queue is full ({depth}/{self.max_pending} "
                    f"searches in flight)",
                    reason="queue", retry_after=self._retry_after_locked())

    def _admit_batch_locked(self, cells: int, client: str) -> None:
        """Worst-case batch admission; the caller holds ``self._lock``.

        Assumes every cell misses the cache and starts its own search
        — a conservative bound (hits and coalesces consume less), so a
        campaign either fits entirely or is rejected as one unit
        before any cell is submitted.
        """
        if self.quota > 0:
            held = self._clients.get(client, 0)  # repro: allow[lock-discipline] caller holds self._lock
            if held + cells > self.quota:
                self.metrics.inc("rejected_quota")
                raise AdmissionError(
                    f"campaign of {cells} cell(s) would put client "
                    f"{client or 'anonymous'!r} over quota "
                    f"({held} held, quota {self.quota})",
                    reason="quota", retry_after=self._retry_after_locked())
        if self.max_pending > 0:
            depth = len(self._inflight)  # repro: allow[lock-discipline] caller holds self._lock
            if depth + cells > self.max_pending:
                self.metrics.inc("rejected_queue")
                raise AdmissionError(
                    f"campaign of {cells} cell(s) would overflow the "
                    f"pending queue ({depth}/{self.max_pending} in flight)",
                    reason="queue", retry_after=self._retry_after_locked())

    def _retry_after_locked(self) -> int:
        """Backoff hint in seconds: expected queue drain time.

        Average solve wall-time times queue depth over worker count,
        clamped to [1, 60]; 1 before the first solve finishes.
        """
        depth = len(self._inflight)  # repro: allow[lock-discipline] caller holds self._lock
        estimate = (self.metrics.avg_solve_seconds() * max(1, depth)
                    / max(1, self.workers))
        return int(max(1, min(60, math.ceil(estimate))))

    def _release_client(self, record: JobRecord) -> None:
        """Return the record's quota slot (exactly once per record).

        Callers invoke this only on the winning terminal transition —
        the one ``complete()`` / ``fail()`` / ``cancel()`` call that
        returned True — so a record can never release twice.
        """
        if not record.counted:
            return
        record.counted = False
        with self._lock:
            held = self._clients.get(record.client, 0)
            if held <= 1:
                self._clients.pop(record.client, None)
            else:
                self._clients[record.client] = held - 1

    def submit_campaign(self, cells: list[dict[str, Any]],
                        name: str = "campaign", *,
                        client: str = "") -> CampaignRecord:
        """Register a batch of ``{"job": ..., "solver": ...}`` cells.

        Every cell is validated *before* any is submitted, so a bad
        cell rejects the whole campaign instead of leaving a partial
        batch behind. Each accepted cell then rides the ordinary
        :meth:`submit` path — plan-cache hits complete immediately,
        identical concurrent cells coalesce onto one search, the rest
        queue on the bounded worker pool.
        """
        if not isinstance(cells, list) or not cells:
            raise ValueError("campaign needs a non-empty cell list")
        parsed: list[tuple[TuningJob, str]] = []
        for index, cell in enumerate(cells):
            if not isinstance(cell, dict):
                raise ValueError(f"cell {index} must be an object")
            solver = cell.get("solver", "mist")
            if solver not in solver_names():
                raise SolverNotFoundError(solver)
            job_dict = cell.get("job")
            if not isinstance(job_dict, dict):
                raise ValueError(f'cell {index} must carry {{"job": ...}}')
            try:
                job = TuningJob.from_dict(job_dict)
            except (KeyError, TypeError, ValueError) as exc:
                # everything a malformed job dict can raise out of
                # from_dict (JobValidationError is a ValueError)
                raise ValueError(f"cell {index}: invalid job: {exc}") \
                    from None
            parsed.append((job, solver))
        # admit the whole batch up front (worst case: every cell is a
        # fresh search), then submit cells with checks already passed —
        # a campaign never dies halfway through on a 429
        with self._lock:
            self._admit_batch_locked(len(parsed), client)
        records = [self.submit(job, solver, client=client, preadmitted=True)
                   for job, solver in parsed]
        campaign = CampaignRecord(name=str(name), records=records)
        with self._lock:
            self._campaigns[campaign.id] = campaign
        self.metrics.inc("campaigns_submitted")
        self.metrics.inc("campaign_cells", len(records))
        return campaign

    def get_campaign(self, campaign_id: str) -> CampaignRecord:
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            raise UnknownCampaignError(campaign_id)
        return campaign

    def get_job(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise UnknownJobError(job_id)
        return record

    def cancel_job(self, job_id: str) -> JobRecord:
        record = self.get_job(job_id)
        if record.cancel():
            self.metrics.inc("jobs_cancelled")
            self._release_client(record)
        return record

    def worker_pids(self) -> list[int | None]:
        """Routed worker-process pids (empty list in thread mode)."""
        return self._tier.worker_pids()

    def _run_flight(self, flight: InFlight, job: TuningJob,
                    solver: str) -> None:
        """Worker-thread body: one search feeding 1..n coalesced records."""
        self._run_search(
            flight,
            lambda progress, should_stop: self._tier.run(
                job, solver, cache=self.cache,
                progress=progress, should_stop=should_stop))

    def _run_replan_flight(self, flight: InFlight, base_job: TuningJob,
                           delta: ClusterDelta, solver: str,
                           plan: TrainingPlan | None) -> None:
        """Supervisor-thread body of one warm-started replan search."""
        self._run_search(
            flight,
            lambda progress, should_stop: api_replan(
                base_job, delta, solver, cache=self.cache, incumbent=plan,
                progress=progress, should_stop=should_stop))

    def _run_search(self, flight: InFlight, runner: _Runner) -> None:
        """Run one search (``runner(progress, should_stop)``) for a flight."""
        flight.mark_running()

        def progress(done: int, total: int) -> None:
            snapshot = {"done": done, "total": total}
            for record in flight.records():
                record.progress = dict(snapshot)

        def should_stop() -> bool:
            return self._shutting_down or flight.cancelled()

        start = time.perf_counter()
        try:
            report = runner(progress, should_stop)
        except SearchCancelled:
            self.metrics.inc("solver_invocations")
            self._finish_flight(flight)
            # cancelled records already hold their terminal state; a
            # record that coalesced on after cancellation fired fails
            for record in flight.records():
                if record.fail("search cancelled before completion"):
                    self.metrics.inc("jobs_failed")
                    self._release_client(record)
                self.metrics.observe_job(record.wait_seconds,
                                         record.duration_seconds)
        except Exception as exc:  # noqa: BLE001 — daemon must not die
            self.metrics.inc("solver_invocations")
            self._finish_flight(flight)
            error = f"{type(exc).__name__}: {exc}"
            for record in flight.records():
                if record.fail(error):
                    self.metrics.inc("jobs_failed")
                    self._release_client(record)
                self.metrics.observe_job(record.wait_seconds,
                                         record.duration_seconds)
        else:
            # from_cache means another process stored the answer while
            # this flight raced it — no search ran here, so the ledger
            # records a hit, not an invocation
            if report.from_cache:
                self.metrics.inc("cache_hits")
            else:
                self.metrics.inc("solver_invocations")
                self.metrics.observe_solve(time.perf_counter() - start)
                # surface the prune-and-memoize search's counters
                self.metrics.observe_search(
                    getattr(report, "search_stats", {}) or {})
            self._finish_flight(flight)
            for record in flight.records():
                if record.complete(report, from_cache=report.from_cache):
                    self.metrics.inc("jobs_completed")
                    self._release_client(record)
                self.metrics.observe_job(record.wait_seconds,
                                         record.duration_seconds)

    def _metrics_body(self) -> dict[str, Any]:
        with self._lock:
            in_flight = len(self._inflight)
            tracked = len(self._jobs)
            campaigns_tracked = len(self._campaigns)
        return self.metrics.snapshot(
            in_flight=in_flight, tracked=tracked, workers=self.workers,
            campaigns_tracked=campaigns_tracked,
            worker_tier=self._tier.stats(),
            max_pending=self.max_pending, quota=self.quota)

    def _jobs_body(self) -> dict[str, Any]:
        with self._lock:
            records = list(self._jobs.values())
        return {"jobs": [r.to_dict(include_report=False) for r in records]}

    def _campaigns_body(self) -> dict[str, Any]:
        with self._lock:
            campaigns = list(self._campaigns.values())
        return {"campaigns": [c.to_dict(include_cells=False)
                              for c in campaigns]}

    def _finish_flight(self, flight: InFlight) -> None:
        """Detach the flight so later submissions go to the cache.

        Ordering matters: this runs under the same lock as
        :meth:`submit`, so any record that coalesced onto the flight
        before removal is in ``flight.records()`` and will be completed
        by the caller; any submission after removal sees the stored
        cache entry (or starts a fresh flight after a failure).
        """
        with self._lock:
            self._inflight.pop(flight.key, None)

    # -- HTTP front --------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        status = 500
        payload: dict[str, Any] = {"error": "internal error"}
        extra_headers: dict[str, str] = {}
        try:
            method, path, headers, body = await self._read_request(reader)
            status, payload = await self._dispatch(method, path, headers,
                                                   body)
        except _HttpError as exc:
            status = exc.status
            payload = {"error": exc.message, **exc.extra}
            extra_headers = exc.headers
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception:  # noqa: BLE001 — connection-scoped failure
            # log server-side; never leak tracebacks to remote clients
            print("repro serve: unhandled error\n"
                  + traceback.format_exc(limit=5),
                  file=sys.stderr, flush=True)
            status, payload = 500, {"error": "internal server error"}
        data = json.dumps(payload, sort_keys=True).encode()
        extra = "".join(f"{name}: {value}\r\n"
                        for name, value in extra_headers.items())
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"{extra}"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        try:
            writer.write(head + data)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader,
                            ) -> tuple[str, str, dict[str, str], bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {request_line!r}")
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            content_length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if content_length < 0:
            raise _HttpError(400, "bad Content-Length")
        if content_length > _MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = (await reader.readexactly(content_length)
                if content_length else b"")
        return method, path, headers, body

    async def _dispatch(self, method: str, path: str, headers: dict[str, str],
                        body: bytes) -> tuple[int, dict[str, Any]]:
        split = urlsplit(path)
        segments = [s for s in split.path.split("/") if s]
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        client = headers.get("x-repro-client", "")
        loop = asyncio.get_running_loop()

        if segments == ["healthz"] and method == "GET":
            return 200, {
                "status": "ok",
                "version": __version__,
                "solvers": list(solver_names()),
                "workers": self.workers,
                "worker_mode": self.worker_mode,
                "max_pending": self.max_pending,
                "quota": self.quota,
                "cache_dir": str(self.cache.root),
            }
        if segments == ["metrics"] and method == "GET":
            # self._lock may be held by a submit() doing cache I/O, so
            # even short lock acquisitions stay off the event loop
            return 200, await loop.run_in_executor(None, self._metrics_body)
        if segments == ["jobs"]:
            if method == "POST":
                payload = self._parse_json(body)
                job_dict = payload.get("job")
                if not isinstance(job_dict, dict):
                    raise _HttpError(400, 'body must carry {"job": {...}}')
                solver = payload.get("solver", "mist")
                try:
                    job = TuningJob.from_dict(job_dict)
                except (KeyError, TypeError, ValueError) as exc:
                    # everything a malformed job dict can raise out of
                    # from_dict (JobValidationError is a ValueError)
                    raise _HttpError(400, f"invalid job: {exc}") from None
                try:
                    # submit touches the cache (disk): keep it off the loop
                    record = await loop.run_in_executor(
                        None, functools.partial(self.submit, job, solver,
                                                client=client))
                except SolverNotFoundError as exc:
                    raise _HttpError(404, exc.args[0]) from None
                except AdmissionError as exc:
                    raise _HttpError(
                        429, str(exc),
                        headers={"Retry-After": str(exc.retry_after)},
                        extra={"retry_after": exc.retry_after,
                               "reason": exc.reason}) from None
                return 202, record.to_dict()
            if method == "GET":
                return 200, await loop.run_in_executor(
                    None, self._jobs_body)
            raise _HttpError(405, f"{method} not allowed on /jobs")
        if len(segments) == 2 and segments[0] == "jobs" and method == "GET":
            try:
                record = await loop.run_in_executor(
                    None, self.get_job, segments[1])
                return 200, record.to_dict()
            except UnknownJobError as exc:
                raise _HttpError(404, exc.args[0]) from None
        if (len(segments) == 3 and segments[0] == "jobs"
                and segments[2] == "cancel" and method == "POST"):
            try:
                record = await loop.run_in_executor(
                    None, self.cancel_job, segments[1])
                return 200, record.to_dict()
            except UnknownJobError as exc:
                raise _HttpError(404, exc.args[0]) from None
        if segments == ["campaigns"]:
            if method == "POST":
                payload = self._parse_json(body)
                cells = payload.get("cells")
                name = payload.get("name", "campaign")
                try:
                    # validates + submits; cache reads stay off the loop
                    campaign = await loop.run_in_executor(
                        None, functools.partial(self.submit_campaign,
                                                cells, name, client=client))
                except SolverNotFoundError as exc:
                    raise _HttpError(404, exc.args[0]) from None
                except AdmissionError as exc:
                    raise _HttpError(
                        429, str(exc),
                        headers={"Retry-After": str(exc.retry_after)},
                        extra={"retry_after": exc.retry_after,
                               "reason": exc.reason}) from None
                except ValueError as exc:
                    raise _HttpError(400, str(exc)) from None
                return 202, campaign.to_dict()
            if method == "GET":
                return 200, await loop.run_in_executor(
                    None, self._campaigns_body)
            raise _HttpError(405, f"{method} not allowed on /campaigns")
        if (len(segments) == 2 and segments[0] == "campaigns"
                and method == "GET"):
            try:
                campaign = await loop.run_in_executor(
                    None, self.get_campaign, segments[1])
                return 200, campaign.to_dict()
            except UnknownCampaignError as exc:
                raise _HttpError(404, exc.args[0]) from None
        if segments == ["replan"] and method == "POST":
            payload = self._parse_json(body)
            job_dict = payload.get("job")
            if not isinstance(job_dict, dict):
                raise _HttpError(400, 'body must carry {"job": {...}}')
            delta_dict = payload.get("delta")
            if not isinstance(delta_dict, dict):
                raise _HttpError(400, 'body must carry {"delta": {...}}')
            solver = payload.get("solver", "mist")
            try:
                budget = float(payload.get("budget_seconds", 0.0))
            except (TypeError, ValueError):
                raise _HttpError(400, "budget_seconds must be a number") \
                    from None
            try:
                job = TuningJob.from_dict(job_dict)
            except (KeyError, TypeError, ValueError) as exc:
                raise _HttpError(400, f"invalid job: {exc}") from None
            try:
                delta = ClusterDelta.from_dict(delta_dict)
            except (KeyError, TypeError, ValueError) as exc:
                raise _HttpError(400, f"invalid delta: {exc}") from None
            try:
                record, plan = await loop.run_in_executor(
                    None, functools.partial(self.submit_replan, job, delta,
                                            solver, client=client))
            except SolverNotFoundError as exc:
                raise _HttpError(404, exc.args[0]) from None
            except AdmissionError as exc:
                raise _HttpError(
                    429, str(exc),
                    headers={"Retry-After": str(exc.retry_after)},
                    extra={"retry_after": exc.retry_after,
                           "reason": exc.reason}) from None
            except (DeltaError, ValueError) as exc:
                # a delta that doesn't fit the cluster, or a post-delta
                # job that fails validation (JobValidationError)
                raise _HttpError(400, str(exc)) from None
            if not record.finished and budget > 0:
                # latency budget: block off the loop until the search
                # lands or the budget runs out, whichever comes first
                await loop.run_in_executor(
                    None, self._await_record, record, budget)
            out = record.to_dict()
            if record.finished:
                self.metrics.inc("replan_within_budget")
                return 200, out
            # budget expired (or none given): hand back the tracking
            # record plus the incumbent plan — the caller keeps running
            # the old plan and polls GET /jobs/<id> for the new one
            self.metrics.inc("replan_budget_expired")
            out["budget_expired"] = True
            out["budget_seconds"] = budget
            out["incumbent_plan"] = (plan.to_dict()
                                     if plan is not None else None)
            return 202, out
        if len(segments) == 2 and segments[0] == "plans" and method == "GET":
            solver = query.get("solver", "mist")
            report = await loop.run_in_executor(
                None, self.cache.load_fingerprint, segments[1], solver)
            if report is None:
                raise _HttpError(
                    404, f"no cached plan for {solver}-{segments[1]}")
            return 200, {"solver": solver, "fingerprint": segments[1],
                         "report": report.to_dict()}
        raise _HttpError(404, f"no route for {method} {split.path}")

    @staticmethod
    def _await_record(record: JobRecord, budget: float) -> None:
        """Block (off the event loop) until the record reaches a
        terminal state or the latency budget expires."""
        deadline = time.monotonic() + budget
        while not record.finished and time.monotonic() < deadline:
            time.sleep(0.02)

    @staticmethod
    def _parse_json(body: bytes) -> dict[str, Any]:
        try:
            payload = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "JSON body must be an object")
        return payload

    # -- lifecycle ---------------------------------------------------------

    async def _main(self, ready: threading.Event | None = None,
                    banner: bool = False) -> None:
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        self._loop = loop
        self._stop_event = stop_event
        try:
            # graceful SIGTERM: without this, terminating the daemon
            # orphans process-mode workers (they hold the inherited
            # stdout pipe open, wedging any parent draining it)
            loop.add_signal_handler(signal.SIGTERM, stop_event.set)
        except (NotImplementedError, ValueError, RuntimeError):
            pass  # non-main thread or unsupported platform
        server = await asyncio.start_server(self._handle_conn,
                                            self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        # spawn worker processes (process mode) before declaring ready
        # so the first request never pays process start-up latency
        await loop.run_in_executor(None, self._tier.warm)
        if banner:
            print(f"repro serve: listening on http://{self.host}:{self.port}"
                  f" ({self.workers} {self.worker_mode} workers, "
                  f"cache {self.cache.root})",
                  flush=True)
        if ready is not None:
            ready.set()
        async with server:
            await stop_event.wait()
        self._shutting_down = True
        self._pool.shutdown(wait=True, cancel_futures=True)
        self._tier.shutdown()

    def serve_forever(self, *, banner: bool = True) -> None:
        """Run in the current thread until interrupted (the CLI path)."""
        try:
            asyncio.run(self._main(banner=banner))
        except KeyboardInterrupt:
            self._shutting_down = True
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._tier.shutdown()

    def run_in_thread(self) -> ServiceHandle:
        """Start on a daemon thread; returns once the port is bound."""
        ready = threading.Event()
        thread = threading.Thread(target=lambda: asyncio.run(
            self._main(ready=ready)), daemon=True, name="repro-serve")
        thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        return ServiceHandle(service=self, thread=thread)

    def stop(self) -> None:
        """Signal shutdown: stop accepting, cancel queued searches."""
        self._shutting_down = True
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None and loop.is_running():
            loop.call_soon_threadsafe(event.set)
