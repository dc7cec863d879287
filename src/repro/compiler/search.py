"""Speculative parallel II search: a deterministic (II, attempt) portfolio.

The serial mapper (:meth:`repro.compiler.ems.EMSMapper.map`) walks the
modulo-scheduling ladder — for each candidate II, a handful of placement
attempts — strictly in lexicographic (ii, attempt) order and returns the
first success.  On the hard kernels nearly all of that wall clock is spent
*proving failures* at low IIs, one attempt at a time.  Exact mappers attack
the same search-space explosion with SAT portfolios (Tirelli et al.); this
module is the heuristic analogue:

* every lattice point (ii, attempt) becomes an independent, picklable
  **probe** — a :class:`ProbeTask` that rebuilds the mapper in a worker
  process from a :class:`MapperSpec` and runs exactly the serial ladder's
  attempt (same op order, including replayed rng perturbations);
* probes fan out over a ``ProcessPoolExecutor``, speculating ahead on
  higher rungs while lower ones are still running;
* a landed success **cancels** every probe strictly above it in the
  canonical order; probes already running are left to finish and their
  verdicts discarded (counted as speculation waste);
* the reduction is by **canonical order, not completion order**: the
  winner is always the success with the smallest (ii, attempt), so the
  artifact is byte-identical to the serial ladder for any worker count
  and any completion timing.

Worker-budget sharing: all concurrent ladders (e.g. the per-kernel misses
of :func:`repro.pipeline.compile.compile_many`) draw probe slots from one
:class:`WorkerBudget`.  A ladder blocks for its *first* slot (so every
miss makes progress — misses fan out across jobs first) but only takes
speculative extra slots opportunistically (so once most jobs are done,
the idle slots drain into attempt probes of the stragglers).

Only dispatchers create a context: ``compile_many`` (one per call) and
the compile service (one warm pool for its lifetime).  The mappers take
one as ``search=``; without it they run the exact serial in-process
ladder and never enter this module's engine.  What the engine did — probes
launched, cancelled and wasted, useful vs wasted probe seconds — is
counted in the active :class:`~repro.compiler.stats.SearchStats` scope.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass

from repro.arch.cgra import CGRA
from repro.compiler.ems import EMSMapper, MapperConfig
from repro.compiler.mapping import Mapping
from repro.compiler.stats import (
    counters,
    job_counters,
    merge_counter_delta,
    merge_search_delta,
    search_stats,
)
from repro.util.errors import MappingError

__all__ = [
    "MapperSpec",
    "ProbeTask",
    "ProbeResult",
    "WorkerBudget",
    "SearchContext",
    "CancelledSearch",
    "portfolio_map",
    "run_probe",
]


class CancelledSearch(Exception):
    """A ladder was cooperatively cancelled mid-search.

    Deliberately *not* a :class:`~repro.util.errors.MappingError`: the
    pipeline converts exhausted ladders into unmappable artifacts, and a
    cancelled request must never masquerade as an unmappable kernel (that
    artifact would be stored and served to every future tenant).
    """


# --------------------------------------------------------------------------- specs


@dataclass(frozen=True)
class MapperSpec:
    """Picklable recipe for rebuilding an :class:`EMSMapper` in a worker.

    The mapper itself cannot cross a process boundary (its hop filter,
    bus key and rank function are closures over a live
    :class:`~repro.core.paging.PageLayout`), but everything those closures
    are derived from is a handful of integers: the CGRA parameters, the
    page tile shape, the wrap flag and the subchain prefix length.  A spec
    plus a DFG therefore reconstructs a mapper that behaves identically to
    the caller's, which is what makes probes picklable tasks.
    """

    rows: int
    cols: int
    rf_depth: int
    mem_ports_per_row: int
    diagonal: bool
    torus: bool
    config: MapperConfig
    # None -> unconstrained baseline mapper on the whole array; otherwise
    # the paged mapper on PageLayout(cgra, page_shape, allow_wrap),
    # restricted to the first num_pages pages when that is a strict prefix.
    page_shape: tuple[int, int] | None = None
    allow_wrap: bool = False
    num_pages: int | None = None
    # canonical restricted-classes encoding of the fabric's CapabilityMap
    # (None on the homogeneous default) — hashable, so it can sit in the
    # worker-side context cache key like every other spec field
    capability: tuple[tuple[str, tuple[int, ...]], ...] | None = None

    @staticmethod
    def _capability_of(cgra: CGRA):
        return cgra.capability.classes if cgra.capability is not None else None

    @classmethod
    def for_base(cls, cgra: CGRA, config: MapperConfig) -> "MapperSpec":
        return cls(
            rows=cgra.rows,
            cols=cgra.cols,
            rf_depth=cgra.rf_depth,
            mem_ports_per_row=cgra.mem_ports_per_row,
            diagonal=cgra.diagonal,
            torus=cgra.torus,
            config=config,
            capability=cls._capability_of(cgra),
        )

    @classmethod
    def for_paged(cls, cgra: CGRA, layout, config: MapperConfig) -> "MapperSpec":
        """Spec for the paged mapper of *layout* (full chain, full ring, or
        a prefix subchain — subchains are always prefixes of the ring
        order, so the page count alone reconstructs them)."""
        return cls(
            rows=cgra.rows,
            cols=cgra.cols,
            rf_depth=cgra.rf_depth,
            mem_ports_per_row=cgra.mem_ports_per_row,
            diagonal=cgra.diagonal,
            torus=cgra.torus,
            config=config,
            page_shape=tuple(layout.shape),
            allow_wrap=layout.allow_wrap,
            num_pages=layout.num_pages,
            capability=cls._capability_of(cgra),
        )

    def build_cgra(self) -> CGRA:
        from repro.arch.capability import CapabilityMap

        return CGRA(
            self.rows,
            self.cols,
            rf_depth=self.rf_depth,
            mem_ports_per_row=self.mem_ports_per_row,
            diagonal=self.diagonal,
            torus=self.torus,
            capability=(
                CapabilityMap(self.rows, self.cols, self.capability)
                if self.capability is not None
                else None
            ),
        )

    def build(self) -> EMSMapper:
        """Reconstruct the mapper: the baseline mapper on the whole array,
        or the paged mapper of the spec's layout via
        :func:`~repro.compiler.paged.paged_mapper`, the same wiring the
        serial path uses."""
        cgra = self.build_cgra()
        if self.page_shape is None:
            return EMSMapper(cgra, config=self.config)
        from repro.compiler.paged import paged_mapper
        from repro.core.paging import PageLayout

        layout = PageLayout(cgra, self.page_shape, allow_wrap=self.allow_wrap)
        if self.num_pages is not None and self.num_pages < layout.num_pages:
            layout = layout.subchain(self.num_pages)
        return paged_mapper(cgra, layout, self.config)


@dataclass(frozen=True)
class ProbeTask:
    """One (ii, attempt) lattice point, as a picklable worker task."""

    spec: MapperSpec
    dfg: object  # repro.dfg.graph.DFG (picklable)
    dfg_fp: str  # precomputed fingerprint, the worker-side cache key
    start_ii: int
    ii: int
    attempt: int


@dataclass(frozen=True)
class ProbeResult:
    """A probe's verdict: the mapping on success, else None, plus the
    worker-side wall clock and search-counter delta for instrumentation."""

    ii: int
    attempt: int
    mapping: Mapping | None
    seconds: float
    counters: dict[str, int]


# Worker-side ladder context cache: rebuilding the mapper (grid index,
# routing context) and the base op orders once per ladder instead of once
# per probe.  Keyed by (spec, dfg fingerprint); bounded, since a worker
# serves many ladders over its lifetime.
_CTX_CACHE: dict[tuple, tuple[EMSMapper, list[list[int]]]] = {}
_CTX_CACHE_MAX = 8


def _probe_context(task: ProbeTask) -> tuple[EMSMapper, list[list[int]]]:
    key = (task.spec, task.dfg_fp)
    hit = _CTX_CACHE.get(key)
    if hit is None:
        mapper = task.spec.build()
        hit = (mapper, mapper.attempt_orders(task.dfg))
        if len(_CTX_CACHE) >= _CTX_CACHE_MAX:
            _CTX_CACHE.pop(next(iter(_CTX_CACHE)))  # repro: allow[RACE-SHARED-MUT] per-process probe cache: the probe pool is a ProcessPoolExecutor, each worker owns a private copy; the serial fallback runs single-threaded
        _CTX_CACHE[key] = hit  # repro: allow[RACE-SHARED-MUT] per-process probe cache: same ownership argument as the eviction above
    return hit


# repro: allow[RACE-FORK-STATE] pool is pre-warmed: every worker forks at SearchContext.create before any ladder thread exists, and the worker-side COUNTERS/SEARCH totals are per-process scratch that only returns as explicit counter deltas in ProbeResult
def run_probe(task: ProbeTask) -> ProbeResult:
    """Run one serial-identical placement attempt (the worker entry point).

    Top-level and argument-picklable so a ``ProcessPoolExecutor`` can run
    it; also callable in-process (the tests' synchronous executors do).
    """
    started = time.perf_counter()
    with job_counters() as (probe_counters, _search):
        mapper, orders = _probe_context(task)
        mapping = mapper.run_lattice_attempt(
            task.dfg, task.start_ii, task.ii, task.attempt, orders
        )
    return ProbeResult(
        ii=task.ii,
        attempt=task.attempt,
        mapping=mapping,
        seconds=time.perf_counter() - started,
        counters=probe_counters.as_dict(),
    )


# --------------------------------------------------------------------- the budget


class WorkerBudget:
    """A shared pool of probe slots, one per worker process.

    Kernel-level and attempt-level parallelism draw from the *same* budget
    so they can never oversubscribe the pool: each ladder blocks until it
    holds one slot (every compile miss makes progress), and takes
    additional speculative slots only when they are idle.
    """

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise ValueError(f"budget needs >= 1 slot, got {slots}")
        self.slots = slots
        self._sem = threading.Semaphore(slots)

    def acquire(self, *, blocking: bool = True) -> bool:
        return self._sem.acquire(blocking=blocking)

    def release(self) -> None:
        self._sem.release()


# --------------------------------------------------------------------- the engine


@dataclass
class SearchContext:
    """A live speculative-search engine: executor + shared budget.

    One context is shared by every ladder of a compile batch
    (:func:`repro.pipeline.compile.compile_many` creates one per call) or
    of a compile service's lifetime.  The ``executor`` only needs
    ``submit``; tests inject thread pools or deliberately reordered
    executors to exercise the reduction.
    """

    workers: int
    executor: object  # duck-typed: needs .submit(fn, arg) -> Future
    budget: WorkerBudget
    owns_executor: bool = False
    #: Cooperative-cancellation probe: checked by :func:`portfolio_map`
    #: between probe completions; returning True raises
    #: :class:`CancelledSearch` out of the ladder.  ``None`` (the default)
    #: means the ladder is not cancellable.
    cancel_check: object | None = None

    def for_request(self, cancel_check) -> "SearchContext":
        """A per-request view of this context: same executor and budget
        (one warm pool serves every tenant), but with *cancel_check* wired
        in so one request's ladders can be cancelled without touching the
        shared pool.  The view never owns the executor — closing it is a
        no-op."""
        return SearchContext(
            workers=self.workers,
            executor=self.executor,
            budget=self.budget,
            owns_executor=False,
            cancel_check=cancel_check,
        )

    @classmethod
    def create(cls, workers: int) -> "SearchContext":
        """Build a process-pool context with *workers* probe slots.

        The pool is pre-warmed (all workers forked immediately) so that
        later submissions from multiple ladder threads never fork a
        multi-threaded parent.
        """
        if workers < 2:
            raise ValueError("a speculative context needs workers >= 2")
        pool = ProcessPoolExecutor(max_workers=workers)
        wait([pool.submit(_warm) for _ in range(workers)])
        return cls(
            workers=workers,
            executor=pool,
            budget=WorkerBudget(workers),
            owns_executor=True,
        )

    def close(self) -> None:
        if self.owns_executor and hasattr(self.executor, "shutdown"):
            self.executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SearchContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _warm(x: int = 0) -> int:  # pragma: no cover - trivial
    return x


def portfolio_map(
    spec: MapperSpec,
    dfg,
    *,
    cgra: CGRA | None = None,
    min_ii: int | None = None,
    resume_ii: int | None = None,
    ctx: SearchContext,
) -> Mapping:
    """Race the (II, attempt) lattice and reduce canonically.

    Returns exactly what the serial ladder would: the mapping of the
    lowest-(ii, attempt) success, or :class:`MappingError` when every
    rung up to ``config.max_ii`` fails.  ``cgra`` rebinds the winning
    mapping (produced against a worker-side CGRA copy) to the caller's
    instance.

    *resume_ii* carries the same ladder-memoization contract as
    :meth:`~repro.compiler.ems.EMSMapper.map`: rungs below it were
    already probed and failed in an identical context, so their lattice
    ranks are marked resolved up front and never submitted.  Probe op
    orders stay anchored at *start_ii* (indexed rng replay), so the
    reduction is byte-identical to a full climb.
    """
    mapper = spec.build()
    start_ii = mapper.ladder_start_ii(dfg, min_ii=min_ii)
    cfg = spec.config
    per_ii = cfg.attempts_per_ii
    n_ranks = (cfg.max_ii - start_ii + 1) * per_ii
    skip_ranks = 0
    if resume_ii is not None and resume_ii > start_ii:
        skip_ranks = min(n_ranks, (resume_ii - start_ii) * per_ii)
    dfg_fp = dfg.fingerprint()
    # this thread's active stats scope: the enclosing job's context when the
    # ladder runs under compile_many, else the process-wide totals
    stats = search_stats()
    stats.ladders += 1

    def task_for(rank: int) -> ProbeTask:
        return ProbeTask(
            spec=spec,
            dfg=dfg,
            dfg_fp=dfg_fp,
            start_ii=start_ii,
            ii=start_ii + rank // per_ii,
            attempt=rank % per_ii,
        )

    inflight: dict[Future, int] = {}
    # ranks with a verdict: skipped, completed or cancelled
    resolved: set[int] = set(range(skip_ranks))
    mappings: dict[int, Mapping] = {}
    best: int | None = None
    if skip_ranks:
        counters().rungs_skipped += skip_ranks // per_ii

    def bound() -> int:
        # never submit at or above a landed success: canonical pruning
        return n_ranks if best is None else best

    next_rank = skip_ranks
    cancel_check = ctx.cancel_check
    try:
        while True:
            if cancel_check is not None and cancel_check():
                # Cooperative cancellation: stop submitting and bail out;
                # the finally block cancels queued probes and abandons the
                # running ones (their wall clock bills to waste on arrival).
                raise CancelledSearch(
                    f"ladder cancelled at rank {next_rank}/{n_ranks}"
                )
            if best is not None and all(r in resolved for r in range(best)):
                break  # every lower rung resolved: canonical winner stands
            if next_rank >= bound() and not inflight:
                err = MappingError(mapper.ladder_fail_message(dfg))
                err.ladder_probed = (start_ii, cfg.max_ii)
                raise err
            while next_rank < bound() and len(inflight) < ctx.workers:
                # first slot blocks (every ladder keeps moving); extras are
                # speculative and only taken when the budget has idle slots
                if not ctx.budget.acquire(blocking=not inflight):
                    break
                fut = ctx.executor.submit(run_probe, task_for(next_rank))
                fut.add_done_callback(lambda _f: ctx.budget.release())
                inflight[fut] = next_rank
                next_rank += 1
                stats.probes_launched += 1
            done, _pending = wait(
                list(inflight),
                return_when=FIRST_COMPLETED,
                # cancellable ladders poll so a cancel lands within ~50 ms
                # even while a long probe is still running
                timeout=None if cancel_check is None else 0.05,
            )
            # process simultaneous completions in canonical rank order so
            # the useful/wasted split is deterministic too
            for fut in sorted(done, key=inflight.__getitem__):
                rank = inflight.pop(fut)
                resolved.add(rank)
                if fut.cancelled():
                    stats.probes_cancelled += 1
                    continue
                res: ProbeResult = fut.result()
                counters().add(res.counters)
                if best is not None and rank > best:
                    # completed above an already-landed success: waste
                    stats.probes_wasted += 1
                    stats.wasted_seconds += res.seconds
                    continue
                stats.useful_seconds += res.seconds
                if res.mapping is not None:
                    mappings[rank] = res.mapping
                    if best is None or rank < best:
                        best = rank
                    # cancel everything strictly above the success
                    for f2, r2 in list(inflight.items()):
                        if r2 > best and f2.cancel():
                            inflight.pop(f2)
                            resolved.add(r2)
                            stats.probes_cancelled += 1
    finally:
        # Probes still running above the winner (or after an error) cannot
        # be interrupted; cancel what never started and let the rest drain
        # into the pool — their wall clock is charged to waste on arrival.
        for fut in inflight:
            if fut.cancel():
                stats.probes_cancelled += 1
            else:
                stats.probes_wasted += 1
                fut.add_done_callback(_charge_waste)

    winner = mappings[best]
    # The mapping was built against the worker's CGRA/DFG copies; rebind to
    # the caller's objects so identity-sensitive callers see their own.
    winner.dfg = dfg
    if cgra is not None:
        winner.cgra = cgra
    return winner


def _charge_waste(fut: Future) -> None:
    """Done-callback for abandoned probes: bill their wall clock to the
    process-wide speculation-waste account once they finally finish."""
    if fut.cancelled():
        return
    exc = fut.exception()
    if exc is not None:
        return
    res = fut.result()
    merge_search_delta({"wasted_seconds": res.seconds})
    merge_counter_delta(res.counters)
