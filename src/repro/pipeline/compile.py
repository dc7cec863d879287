"""The compilation front door: jobs in, artifacts out, cache in between.

Everything in the repository that needs a compiled kernel — the figure
benches, the system simulator, the examples, the guided demo — goes through
:func:`compile_kernel` / :func:`compile_many`.  A job names *what* to
compile (kernel, grid size, page size/shape preference, seed); the pipeline
fingerprints the job's DFG, architecture and mapper configuration, consults
the :class:`~repro.pipeline.store.ArtifactStore`, and only invokes the
mapper on a genuine miss.

``compile_many`` with ``workers > 1`` runs the misses through the
speculative (II, attempt) portfolio engine (:mod:`repro.compiler.search`):
one shared ``ProcessPoolExecutor`` of probe workers serves every miss, and
a shared :class:`~repro.compiler.search.WorkerBudget` keeps kernel-level
and attempt-level parallelism from oversubscribing it — each miss holds at
least one probe slot (misses fan out across jobs first), and idle slots
drain into speculative probes of the stragglers.  The whole construction is
deterministic: the engine reduces probe results in canonical (II, attempt)
order, so the artifacts are byte-identical to the serial path for a fixed
seed, regardless of worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.arch.cgra import CGRA
from repro.compiler.ems import MapperConfig, map_dfg
from repro.compiler.paged import map_dfg_paged
from repro.compiler.stats import job_counters
from repro.core.pagemaster import steady_state_ii
from repro.core.paging import PageLayout, choose_page_shape
from repro.kernels import get_kernel, kernel_names
from repro.pipeline.artifact import ArtifactKey, CompiledKernel
from repro.pipeline.store import ArtifactStore
from repro.util.errors import MappingError
from repro.util.fingerprint import canonical_fingerprint

__all__ = [
    "CompileJob",
    "CompileStats",
    "MAX_COORDINATION_THREADS",
    "job_key",
    "compile_job",
    "compile_kernel",
    "compile_many",
    "build_profiles",
    "make_layout",
]

#: Upper bound on ``compile_many``'s per-miss coordination threads.  The
#: threads only block on probe futures (the shared WorkerBudget bounds
#: actual parallelism), but an unbounded one-thread-per-miss spawn still
#: explodes on a large multi-tenant batch; misses beyond the cap queue on
#: the same bounded executor, in input order, with byte-identical results.
MAX_COORDINATION_THREADS = 32


def make_layout(cgra: CGRA, page_size: int, prefer: str = "square") -> PageLayout:
    """Standard page layout for the experiments: the most square tile of
    *page_size* PEs that fits (Fig. 4 uses 2x2 for size 4)."""
    return PageLayout(cgra, choose_page_shape(page_size, cgra.rows, cgra.cols, prefer))


@dataclass(frozen=True)
class CompileJob:
    """One unit of compilation work: a suite kernel on one configuration.

    ``mapper`` overrides the mapper tuning; by default the experiments'
    standard configuration (seeded, 4 attempts per II) is derived from
    ``seed``.  Jobs are hashable and picklable; batches dedup them on their
    content address (:func:`job_key`), not on equality.

    ``arch`` selects a named fabric preset (:func:`repro.arch.presets.
    preset` — e.g. ``"8x8-memcols"`` for the memory-capable-columns
    heterogeneous fabric); by default the job builds the homogeneous
    ``size`` x ``size`` grid, which is fingerprint-identical to the
    ``"{size}x{size}"`` preset.
    """

    kernel: str
    size: int
    page_size: int
    prefer: str = "square"
    seed: int = 0
    mapper: MapperConfig | None = None
    arch: str | None = None

    @property
    def mapper_config(self) -> MapperConfig:
        return self.mapper or MapperConfig(seed=self.seed, attempts_per_ii=4)

    def build_cgra(self) -> CGRA:
        if self.arch is not None:
            from repro.arch.presets import preset

            cgra = preset(self.arch)
            if (cgra.rows, cgra.cols) != (self.size, self.size):
                raise MappingError(
                    f"preset {self.arch!r} is {cgra.rows}x{cgra.cols}, "
                    f"but the job says size={self.size}"
                )
            return cgra
        from repro.arch.presets import experiment_cgra

        return experiment_cgra(self.size)


@dataclass(frozen=True)
class CompileStats:
    """Wall-clock and search-effort profile of one uncached compilation.

    ``counters`` is the increment of the process-wide
    :data:`repro.compiler.stats.COUNTERS` over this compile: route-search
    expansions, BFS/DFS invocations, placement probes, and memo-table hits
    (probe workers report their deltas back, so speculative search effort
    is included).  ``base_map_seconds``/``paged_map_seconds`` split the
    mapper wall clock by phase (unconstrained baseline vs ring-constrained
    paged mapping).  ``search`` is present when the compile ran through the
    speculative portfolio engine: probe launch/cancel/waste totals plus the
    per-ladder (II, attempt) outcome timelines.
    """

    kernel: str
    size: int
    page_size: int
    seconds: float
    base_map_seconds: float
    paged_map_seconds: float
    counters: dict[str, int]
    search: dict | None = field(default=None)
    arch: str | None = field(default=None)

    def as_record(self) -> dict:
        rec = {
            "kernel": self.kernel,
            "size": self.size,
            "page_size": self.page_size,
            "seconds": round(self.seconds, 4),
            "base_map_seconds": round(self.base_map_seconds, 4),
            "paged_map_seconds": round(self.paged_map_seconds, 4),
            "counters": dict(self.counters),
        }
        if self.search is not None:
            rec["search"] = dict(self.search)
        if self.arch is not None:
            rec["arch"] = self.arch
        return rec


def job_key(job: CompileJob) -> ArtifactKey:
    """Content address of *job*: structural DFG hash, architecture hash
    (grid plus page geometry), mapper-configuration hash."""
    dfg = get_kernel(job.kernel).build()
    cgra = job.build_cgra()
    shape = choose_page_shape(job.page_size, cgra.rows, cgra.cols, job.prefer)
    arch_fp = canonical_fingerprint(
        {"cgra": cgra.fingerprint(), "page_shape": list(shape)}
    )
    return ArtifactKey(dfg.fingerprint(), arch_fp, job.mapper_config.fingerprint())


def _search_record(log) -> dict:
    """Compress a job's ladder reports into the ``CompileStats.search``
    record: probe totals, speculation efficiency, per-ladder timelines."""
    useful = sum(r.useful_seconds for r in log)
    wasted = sum(r.wasted_seconds for r in log)
    total = useful + wasted
    return {
        "ladders": len(log),
        "probes_launched": sum(r.probes_launched for r in log),
        "probes_cancelled": sum(r.probes_cancelled for r in log),
        "probes_wasted": sum(r.probes_wasted for r in log),
        "useful_seconds": round(useful, 4),
        "wasted_seconds": round(wasted, 4),
        "speculation_efficiency": round(useful / total, 4) if total > 0 else 1.0,
        "timeline": [r.as_record() for r in log],
    }


def compile_job(job: CompileJob, search=None) -> tuple[CompiledKernel, CompileStats]:
    """Compile one job, uncached.  Returns the artifact and its
    :class:`CompileStats` (per-phase timings and the mapper's
    search-effort counter deltas).

    Top-level (picklable) and deterministic for a fixed job, so parallel
    and serial runs produce byte-identical artifacts.  *search* is an
    optional live :class:`~repro.compiler.search.SearchContext` — when
    set, the mapping ladders race speculative probes over its shared
    worker pool.

    The compile runs inside a per-job counter context
    (:func:`repro.compiler.stats.job_counters`): the mapper's increments
    land on this thread's private instances and merge into the process-wide
    totals when the job finishes, so per-job attribution is *exact* even
    when several jobs compile concurrently on sibling threads — and the
    cumulative totals stay exactly what they always were.
    """
    started = time.perf_counter()
    key = job_key(job)
    dfg = get_kernel(job.kernel).build()
    cgra = job.build_cgra()
    layout = make_layout(cgra, job.page_size, job.prefer)
    config = job.mapper_config
    search_log: list = [] if search is not None else None
    with job_counters() as (job_ctrs, _job_search):
        base_started = time.perf_counter()
        base = map_dfg(
            dfg, cgra, config=config, search=search, search_log=search_log
        )
        base_seconds = time.perf_counter() - base_started
        paged_started = time.perf_counter()
        try:
            paged = map_dfg_paged(
                dfg, cgra, layout, config=config, search=search,
                search_log=search_log,
            )
        except MappingError:
            paged = None
        paged_seconds = time.perf_counter() - paged_started
    common = dict(
        kernel=job.kernel,
        rows=cgra.rows,
        cols=cgra.cols,
        rf_depth=cgra.rf_depth,
        mem_ports_per_row=cgra.mem_ports_per_row,
        page_shape=layout.shape,
        capability=cgra.capability.classes if cgra.capability is not None else None,
        seed=job.seed,
        dfg_fp=key.dfg_fp,
        arch_fp=key.arch_fp,
        mapper_fp=key.mapper_fp,
        ii_base=base.ii,
    )
    stats = CompileStats(
        kernel=job.kernel,
        size=job.size,
        page_size=job.page_size,
        seconds=time.perf_counter() - started,
        base_map_seconds=base_seconds,
        paged_map_seconds=paged_seconds,
        counters=job_ctrs.as_dict(),
        search=_search_record(search_log) if search_log is not None else None,
        arch=job.arch,
    )
    if paged is None:
        artifact = CompiledKernel(layout_wrap=False, unmappable=True, **common)
        return artifact, stats
    steady = tuple(
        (m, ii.numerator, ii.denominator)
        for m in range(1, paged.pages_used + 1)
        for ii in [
            steady_state_ii(
                paged.pages_used, paged.ii, m, wrap_used=paged.wrap_used
            )
        ]
    )
    artifact = CompiledKernel(
        layout_wrap=paged.layout.allow_wrap,
        ii_paged=paged.ii,
        pages_used=paged.pages_used,
        wrap_used=paged.wrap_used,
        placements=tuple(
            (p.op_id, p.pe.row, p.pe.col, p.time)
            for p in sorted(
                paged.mapping.placements.values(), key=lambda p: p.op_id
            )
        ),
        routes=tuple(
            (
                r.edge_id,
                tuple((s.pe.row, s.pe.col, s.time) for s in r.steps),
                (r.tap.pe.row, r.tap.pe.col, r.tap.time) if r.tap else None,
            )
            for r in sorted(paged.mapping.routes.values(), key=lambda r: r.edge_id)
        ),
        steady_ii=steady,
        **common,
    )
    return artifact, stats


def _coordination_threads(n_pending: int, workers: int) -> int:
    """Thread count for the per-miss coordination fan-out: one per miss,
    bounded by :data:`MAX_COORDINATION_THREADS` (but never fewer than the
    probe pool, so *workers* processes are never starved of feeders)."""
    return min(n_pending, max(workers, MAX_COORDINATION_THREADS))


def compile_many(
    jobs: Iterable[CompileJob],
    *,
    store: ArtifactStore | None = None,
    workers: int = 1,
) -> list[CompiledKernel]:
    """Compile *jobs*, returning artifacts in input order.

    Warm jobs are served from *store* without touching the mapper; jobs
    with the same content address (:func:`job_key` digest) are compiled
    once.  With ``workers > 1`` the misses run concurrently through the
    speculative portfolio engine: one shared pool of *workers* probe
    processes serves every miss's (II, attempt) ladder, under a shared
    budget so kernel-level and attempt-level parallelism never
    oversubscribe — each miss holds at least one probe slot, and idle
    slots drain into speculative probes of the stragglers.  Results are
    byte-identical to the serial path, only wall-clock changes.

    Failures are isolated per job: a job that fails (at key time or in
    the mapper) does not stop its siblings, which still compile and are
    stored; then the first failure in input order is re-raised.
    """
    jobs = list(jobs)
    # each slot's digest, or the exception its key resolution raised
    slots: list[str | BaseException] = []
    done: dict[str, CompiledKernel | BaseException] = {}
    pending: dict[str, CompileJob] = {}
    for job in jobs:
        # key computation builds the DFG and the fabric, so a bad job
        # (unknown kernel, preset/size mismatch) fails here
        try:
            key = job_key(job)
            if key.digest not in done and key.digest not in pending:
                hit = store.get(key) if store is not None else None
                if hit is None:
                    pending[key.digest] = job
                else:
                    done[key.digest] = hit
        except Exception as exc:  # noqa: BLE001 - reported per job
            slots.append(exc)
            continue
        slots.append(key.digest)
    if pending:
        if workers > 1:
            from repro.compiler.search import SearchContext

            with SearchContext.create(workers) as ctx:
                # Bounded orchestration threads: each blocks on probe
                # futures, so the thread count is about coordination, not
                # CPU — the shared budget bounds actual parallelism, and
                # misses beyond the cap queue in input order.
                n_threads = _coordination_threads(len(pending), workers)
                with ThreadPoolExecutor(max_workers=n_threads) as tp:
                    futures = [
                        tp.submit(compile_job, job, search=ctx)
                        for job in pending.values()
                    ]
            outcomes = [fut.exception() or fut.result() for fut in futures]
        else:
            outcomes = []
            for job in pending.values():
                try:
                    outcomes.append(compile_job(job))
                except Exception as exc:  # noqa: BLE001 - reported per job
                    outcomes.append(exc)
        for digest, outcome in zip(pending, outcomes):
            if not isinstance(outcome, BaseException):
                outcome, stats = outcome
                if store is not None:
                    store.note_compile_time(stats.seconds)
                    store.put(outcome)
            done[digest] = outcome
    results = [done[slot] if isinstance(slot, str) else slot for slot in slots]
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def compile_kernel(
    kernel: str,
    size: int,
    page_size: int,
    *,
    prefer: str = "square",
    seed: int = 0,
    mapper: MapperConfig | None = None,
    store: ArtifactStore | None = None,
) -> CompiledKernel:
    """Compile (or load) one kernel for one configuration."""
    job = CompileJob(kernel, size, page_size, prefer=prefer, seed=seed, mapper=mapper)
    return compile_many([job], store=store)[0]


def build_profiles(
    size: int,
    page_size: int,
    *,
    prefer: str = "square",
    seed: int = 0,
    store: ArtifactStore | None = None,
    kernels: Sequence[str] | None = None,
    workers: int = 1,
):
    """:class:`~repro.sim.system.KernelProfile` per mappable suite kernel
    on one configuration — the system simulator's input."""
    names = list(kernels) if kernels is not None else kernel_names()
    artifacts = compile_many(
        [
            CompileJob(name, size, page_size, prefer=prefer, seed=seed)
            for name in names
        ],
        store=store,
        workers=workers,
    )
    profiles = {}
    for artifact in artifacts:
        profile = artifact.profile()
        if profile is not None:
            profiles[profile.name] = profile
    return profiles
