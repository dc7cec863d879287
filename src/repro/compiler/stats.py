"""Compile-perf instrumentation for the place-and-route hot path.

The mapper's cost model is search volume: how many time-extended states the
router expands, how many (time, PE) candidates the placer probes, how often
the memoized routing tables answer without a search.  These counters are
what ``python -m repro.bench compile-speed`` prints next to wall-clock
timings, so a perf regression shows up as a *search-volume* regression even
on noisy CI machines.

Counting is two-level.  The process-wide totals (:data:`COUNTERS`,
:data:`SEARCH`) stay cumulative, as before.  On top of them sits a
*per-job counter context* (:func:`job_counters`): a compile job opens a
scope, the hot paths increment the scope's own thread-local instances
(fetched via :func:`counters` / :func:`search_stats`), and the scope
merges its totals into the process-wide singletons — under a lock — when
it closes.  That gives ``compile_many``'s concurrent thread jobs *exact*
per-job attribution (no interleaved snapshot/delta windows) while the
cumulative totals remain exactly what they always were.

The increments live on paths executed millions of times per kernel, so
hot functions fetch the active instance once (one thread-local read) and
then do plain integer adds on it — no locks and no indirection inside the
inner loops; the only lock is taken once per job, at merge time.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass

__all__ = [
    "MapperCounters",
    "SearchStats",
    "COUNTERS",
    "SEARCH",
    "counters",
    "search_stats",
    "job_counters",
    "merge_counter_delta",
    "merge_search_delta",
]


@dataclass
class MapperCounters:
    """Cumulative search-effort counters for this process."""

    route_calls: int = 0  #: find_route invocations
    bfs_calls: int = 0  #: layered-BFS searches (route shorter than II)
    dfs_calls: int = 0  #: depth-first searches (route >= II, self-collisions)
    expansions: int = 0  #: time-extended states expanded across both searches
    placement_probes: int = 0  #: (time, PE) candidates probed by the placer
    target_cache_hits: int = 0  #: memoized per-(dst, hop-filter) goal tables reused
    move_cache_hits: int = 0  #: memoized per-(pe, hint) move orderings reused
    rungs_skipped: int = 0  #: II rungs skipped as already proven failed (memoized)

    def snapshot(self) -> "MapperCounters":
        return MapperCounters(**asdict(self))

    def delta(self, since: "MapperCounters") -> dict[str, int]:
        """Counter increments since *since*, as a plain dict."""
        now = asdict(self)
        then = asdict(since)
        return {k: now[k] - then[k] for k in now}

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def add(self, delta: dict[str, int]) -> None:
        """Fold a counter delta (from a probe worker process) into this
        instance, so search effort spent in speculative probes still shows
        up in the parent's totals."""
        for k, v in delta.items():
            if hasattr(self, k):
                setattr(self, k, getattr(self, k) + v)


@dataclass
class SearchStats:
    """Cumulative speculative-II-search effort for this process.

    Tracks what the portfolio engine (:mod:`repro.compiler.search`) did
    with its worker budget: how many (II, attempt) probes it launched, how
    many a landed success cancelled before they started, and how the probe
    wall clock splits into *useful* seconds (probes the serial ladder would
    also have run, i.e. at or below the canonical winner) and *wasted*
    seconds (speculation that overshot the winner).  ``ladders`` counts
    portfolio searches.  A compile job's own scope
    (:func:`job_counters`) is what ``CompileStats.search`` reports.
    """

    ladders: int = 0  #: portfolio (parallel) ladder searches run
    probes_launched: int = 0  #: (II, attempt) probes submitted to workers
    probes_cancelled: int = 0  #: probes cancelled before they started
    probes_wasted: int = 0  #: completed probes above the winner (discarded)
    useful_seconds: float = 0.0  #: probe seconds at/below the canonical winner
    wasted_seconds: float = 0.0  #: probe seconds above the winner (speculation)

    @property
    def speculation_efficiency(self) -> float:
        """Fraction of probe wall clock the canonical reduction kept."""
        total = self.useful_seconds + self.wasted_seconds
        return self.useful_seconds / total if total > 0 else 1.0

    def snapshot(self) -> "SearchStats":
        return SearchStats(**asdict(self))

    def delta(self, since: "SearchStats") -> dict[str, float]:
        """Stat increments since *since*, as a plain dict (ints stay int)."""
        now = asdict(self)
        then = asdict(since)
        return {k: now[k] - then[k] for k in now}

    def add(self, delta: dict[str, float]) -> None:
        for k, v in delta.items():
            if hasattr(self, k):
                setattr(self, k, getattr(self, k) + v)

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


#: The process-wide counter totals (merged from finished job contexts, or
#: incremented directly when no context is active).
COUNTERS = MapperCounters()

#: The process-wide speculative-search totals.
SEARCH = SearchStats()

#: Per-thread active counter context.  ``threading.local`` keeps each
#: compile thread's scope private, so concurrent jobs never interleave.
_TLS = threading.local()

#: Guards every merge into the process-wide singletons: job contexts close
#: on their own threads, and probe done-callbacks bill waste from whatever
#: thread the executor runs them on.
_MERGE_LOCK = threading.Lock()


def counters() -> MapperCounters:
    """The :class:`MapperCounters` increments should target on this thread:
    the active job context's instance, else the process-wide totals."""
    active = getattr(_TLS, "counters", None)
    return COUNTERS if active is None else active


def search_stats() -> SearchStats:
    """The :class:`SearchStats` the portfolio engine should update on this
    thread: the active job context's instance, else the totals."""
    active = getattr(_TLS, "search", None)
    return SEARCH if active is None else active


def merge_counter_delta(delta: dict[str, int]) -> None:
    """Fold a counter delta straight into the process-wide totals (used by
    done-callbacks that run outside any job context)."""
    with _MERGE_LOCK:
        COUNTERS.add(delta)


def merge_search_delta(delta: dict[str, float]) -> None:
    """Fold a search-stat delta straight into the process-wide totals."""
    with _MERGE_LOCK:
        SEARCH.add(delta)


@contextmanager
def job_counters():
    """Per-job counter scope: yields fresh ``(MapperCounters, SearchStats)``
    instances that every increment on this thread targets for the duration,
    then merges them into the process-wide totals under the lock.

    Scopes nest (the previous context is restored on exit), and the yielded
    instances remain readable after the scope closes — that is the per-job
    delta, attributed exactly even when many jobs compile concurrently on
    sibling threads.
    """
    prev_counters = getattr(_TLS, "counters", None)
    prev_search = getattr(_TLS, "search", None)
    local_counters = MapperCounters()
    local_search = SearchStats()
    _TLS.counters = local_counters
    _TLS.search = local_search
    try:
        yield local_counters, local_search
    finally:
        _TLS.counters = prev_counters
        _TLS.search = prev_search
        if prev_counters is not None:
            # nested scope: roll up into the enclosing job only — the
            # outermost scope carries the totals to COUNTERS exactly once
            prev_counters.add(local_counters.as_dict())
            prev_search.add(local_search.as_dict())
        else:
            with _MERGE_LOCK:
                COUNTERS.add(local_counters.as_dict())
                SEARCH.add(local_search.as_dict())
