"""Fair multi-tenant dispatch: weighted round-robin, priorities, cancel.

The service's cache misses are real mapper work — seconds, not
microseconds — so which miss runs next is a policy decision, exactly like
the PageMaster deciding which thread's pages to grow.  The scheduler
models it the same way the paper models fabric sharing:

* **tenants** are the fairness buckets.  Dispatch cycles tenants in
  weighted round-robin: a tenant with weight *w* gets up to *w* dispatches
  per cycle, so one tenant flooding the queue cannot starve the others —
  it only lengthens its own line.
* **priorities** order requests *within* a tenant (higher first, FIFO
  among equals).  A tenant's priorities never affect its neighbours; the
  cross-tenant knob is the weight.
* **cancellation** is cooperative and two-stage: a queued request is
  dropped at pick time (never dispatched); a running one has its
  :class:`CancelToken` polled by the ladder
  (:class:`~repro.compiler.search.SearchContext.cancel_check`) and stops
  at the next probe boundary.
* **stop** resolves every still-queued request with
  :class:`RequestCancelled` and lets the running ones finish, so every
  submitted request gets exactly one answer.

Everything here runs on the event loop — single-threaded bookkeeping, no
locks — except the token, which worker threads poll and is backed by a
``threading.Event``.
"""

from __future__ import annotations

import asyncio
import heapq
import threading
from collections import deque
from dataclasses import dataclass, field

__all__ = ["CancelToken", "RequestCancelled", "ScheduledRequest", "FairScheduler"]


class RequestCancelled(Exception):
    """The request was cancelled before or during its compile."""


class CancelToken:
    """A cancellation flag shared between the event loop (which sets it)
    and the compile worker thread (which polls it mid-ladder)."""

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


@dataclass
class ScheduledRequest:
    """One queued unit of work plus its dispatch bookkeeping."""

    seq: int
    tenant: str
    priority: int
    work: object  # async callable: work(token) -> result
    token: CancelToken
    future: asyncio.Future
    started: bool = False

    def sort_key(self) -> tuple[int, int]:
        # higher priority first; FIFO (arrival seq) among equals
        return (-self.priority, self.seq)


@dataclass
class _TenantQueue:
    heap: list = field(default_factory=list)

    def push(self, req: ScheduledRequest) -> None:
        heapq.heappush(self.heap, (req.sort_key(), req))

    def pop(self) -> tuple[ScheduledRequest | None, int]:
        """Pop the next live request; cancelled queued requests resolve
        (never dispatch) and are counted in the second slot."""
        dropped = 0
        while self.heap:
            _key, req = heapq.heappop(self.heap)
            if not req.token.cancelled:
                return req, dropped
            # cancelled while queued: resolve without ever dispatching
            dropped += 1
            if not req.future.done():
                req.future.set_exception(RequestCancelled(f"request {req.seq}"))
        return None, dropped

    def __len__(self) -> int:
        return len(self.heap)


class FairScheduler:
    """Weighted round-robin dispatcher over a bounded set of compile slots.

    ``slots`` bounds concurrent work (the service pairs it with a compile
    thread pool of the same size); ``weights`` maps tenant name to its
    per-cycle dispatch share (missing tenants get ``default_weight``).
    """

    def __init__(
        self,
        slots: int,
        *,
        weights: dict[str, int] | None = None,
        default_weight: int = 1,
    ) -> None:
        if slots < 1:
            raise ValueError(f"scheduler needs >= 1 slot, got {slots}")
        if default_weight < 1:
            raise ValueError(f"default weight must be >= 1, got {default_weight}")
        for tenant, weight in (weights or {}).items():
            if weight < 1:
                raise ValueError(f"tenant {tenant!r} weight must be >= 1, got {weight}")
        self.slots = slots
        self._weights = dict(weights or {})
        self._default_weight = default_weight
        self._queues: dict[str, _TenantQueue] = {}
        self._ring: deque[str] = deque()
        self._credits: dict[str, int] = {}
        self._seq = 0
        self._sem = asyncio.Semaphore(slots)
        self._wake = asyncio.Event()
        self._stopped = False
        self._dispatcher: asyncio.Task | None = None
        self._running: dict[int, asyncio.Task] = {}
        self.dispatched = 0
        self.cancelled_queued = 0

    # -- public API -----------------------------------------------------------------

    def weight_of(self, tenant: str) -> int:
        return self._weights.get(tenant, self._default_weight)

    def start(self) -> None:
        if self._dispatcher is None:
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    async def stop(self) -> None:
        """Stop dispatching: still-queued requests resolve with
        :class:`RequestCancelled` (counted in ``cancelled_queued``) before
        the first await, so the dispatcher can never pick one; running
        requests finish."""
        self._stopped = True
        self._wake.set()
        for queue in self._queues.values():
            for _key, req in queue.heap:
                self.cancelled_queued += 1
                if not req.future.done():
                    req.future.set_exception(
                        RequestCancelled(f"request {req.seq}: scheduler stopped")
                    )
            queue.heap.clear()
        self._ring.clear()
        self._credits.clear()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        for task in list(self._running.values()):
            await task

    def submit(
        self,
        work,
        *,
        tenant: str = "default",
        priority: int = 0,
        token: CancelToken | None = None,
    ) -> ScheduledRequest:
        """Queue *work* (an async callable taking the cancel token) and
        return its :class:`ScheduledRequest`; await ``.future`` for the
        result."""
        if self._stopped:
            raise RuntimeError("scheduler is stopped")
        self._seq += 1
        req = ScheduledRequest(
            seq=self._seq,
            tenant=tenant,
            priority=priority,
            work=work,
            token=token or CancelToken(),
            future=asyncio.get_running_loop().create_future(),
        )
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = _TenantQueue()
        if tenant not in self._credits:
            # tenant becomes active: joins the ring with a full credit line
            self._ring.append(tenant)
            self._credits[tenant] = self.weight_of(tenant)
        queue.push(req)
        self._wake.set()
        return req

    def queued(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def stats(self) -> dict:
        return {
            "slots": self.slots,
            "queued": self.queued(),
            "running": len(self._running),
            "dispatched": self.dispatched,
            "cancelled_queued": self.cancelled_queued,
        }

    # -- dispatch -------------------------------------------------------------------

    def _next_request(self) -> ScheduledRequest | None:
        """Weighted round-robin pick: walk the ring, spending one credit
        per dispatch; a tenant leaves the ring when its queue drains and
        rejoins (fresh credits) on its next submit."""
        while self._ring:
            tenant = self._ring[0]
            queue = self._queues.get(tenant)
            req, dropped = queue.pop() if queue is not None else (None, 0)
            self.cancelled_queued += dropped
            if req is None:
                self._ring.popleft()
                self._credits.pop(tenant, None)
                continue
            self._credits[tenant] -= 1
            if self._credits[tenant] <= 0:
                # credit line spent: move to the back of the ring
                self._ring.rotate(-1)
                self._credits[tenant] = self.weight_of(tenant)
            return req
        return None

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            if self._stopped:
                break
            await self._sem.acquire()
            if self._stopped:
                self._sem.release()
                break
            req = self._next_request()
            if req is None:
                self._sem.release()
                self._wake.clear()
                continue
            req.started = True
            self.dispatched += 1
            task = asyncio.get_running_loop().create_task(self._run(req))
            self._running[req.seq] = task

    async def _run(self, req: ScheduledRequest) -> None:
        try:
            if req.token.cancelled:
                raise RequestCancelled(f"request {req.seq}")
            result = await req.work(req.token)
            if not req.future.done():
                req.future.set_result(result)
        except BaseException as exc:  # noqa: BLE001 - forwarded to the waiter
            if not req.future.done():
                req.future.set_exception(exc)
            else:  # pragma: no cover - waiter already gone
                pass
        finally:
            self._running.pop(req.seq, None)
            self._sem.release()
            self._wake.set()
