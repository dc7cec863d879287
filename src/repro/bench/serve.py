"""Serve check: load-generate against the compile service, assert its
invariants.

``python -m repro.bench serve`` starts an in-process
:class:`~repro.serve.server.ServeServer` on an ephemeral localhost port
with a fresh temporary artifact store (every run is cold — the coalesce
and hit rates measure the serving layer, not a pre-warmed disk), fires a
seeded, duplication-heavy request schedule over two distinct jobs at it
from concurrent keep-alive connections, and reports:

* throughput (requests/s) and request latency p50/p99/mean/max;
* the **coalesce rate** (duplicate concurrent requests that rode a
  sibling's in-flight compile) and **cache hit rate**;
* the server-side singleflight/scheduler/store counters.

It then asserts the properties the service is built around: no request
fails, the number of mapper invocations equals the number of *distinct*
jobs (N identical concurrent requests → one compile), at least one
request coalesced, and every served payload is byte-identical to the
offline :func:`~repro.pipeline.compile.compile_many` output for the same
job.  It writes no file; the service's timed measurement is the
benchmark's ``serve-mixed`` workload (``perfbench/``).
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from repro.pipeline.compile import CompileJob, compile_many, job_key
from repro.pipeline.store import ArtifactStore
from repro.serve.loadgen import LoadReport, build_schedule, run_load
from repro.serve.server import ServeServer
from repro.serve.service import ServiceConfig

__all__ = ["JOBS", "run_serve_bench", "verify_parity", "render_report", "main"]

#: The distinct-job universe: two fast suite kernels on the 4x4 grid; the
#: duplication-heavy schedule is drawn from these.
JOBS = [
    {"kernel": kernel, "size": 4, "page_size": 2, "seed": 0}
    for kernel in ("mpeg", "sor")
]
N_REQUESTS = 16
CLIENTS = 6
SLOTS = 2
#: Three tenants, one with double weight, so the weighted round-robin
#: actually has something to arbitrate.
TENANTS = ("alpha", "beta", "gamma")
WEIGHTS = {"alpha": 2}


def _job_of(payload: dict) -> CompileJob:
    return CompileJob(
        kernel=payload["kernel"],
        size=payload.get("size", 4),
        page_size=payload.get("page_size", 4),
        prefer=payload.get("prefer", "square"),
        seed=payload.get("seed", 0),
        arch=payload.get("arch"),
    )


def verify_parity(report: LoadReport, jobs: list[dict]) -> int:
    """Recompile every distinct job offline (serial ``compile_many`` into
    a fresh store) and assert each served payload matches byte-for-byte.
    Returns the number of artifacts compared."""
    compile_jobs = [_job_of(p) for p in jobs]
    compared = 0
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(Path(tmp))
        compile_many(compile_jobs, store=store)
        for cj in compile_jobs:
            key = job_key(cj)
            served = report.bodies.get(key.digest)
            if served is None:
                continue  # schedule never drew this job
            offline = store.path_for(key).read_bytes()
            if served != offline:
                raise AssertionError(
                    f"served bytes diverge from offline compile_many for "
                    f"{cj.kernel}/ps{cj.page_size} ({key.digest[:12]})"
                )
            compared += 1
    return compared


async def _bench_async(*, workers: int, seed: int) -> tuple[LoadReport, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            store_root=tmp,
            workers=workers,
            slots=SLOTS,
            tenant_weights=dict(WEIGHTS),
        )
        async with ServeServer(config) as server:
            schedule = build_schedule(
                JOBS, n_requests=N_REQUESTS, tenants=list(TENANTS), seed=seed
            )
            report = await run_load(
                server.host, server.port, schedule, clients=CLIENTS
            )
            stats = server.service.stats()
    return report, stats


def run_serve_bench(*, workers: int = 2, seed: int = 0) -> tuple[LoadReport, dict]:
    """One cold run over :data:`JOBS`; returns (client report, server
    stats)."""
    return asyncio.run(_bench_async(workers=workers, seed=seed))


def render_report(report: LoadReport, stats: dict, parity: int) -> str:
    rec = report.as_record()
    lat = rec["latency_ms"]
    lines = [
        f"serve: {rec['requests']} requests, {rec['ok']} ok, "
        f"{rec['errors']} error(s) in {rec['elapsed_seconds']:.2f}s "
        f"({rec['throughput_rps']:.1f} req/s)",
        f"latency ms: p50 {lat['p50']:.1f}  p99 {lat['p99']:.1f}  "
        f"mean {lat['mean']:.1f}  max {lat['max']:.1f}",
        f"sources: {rec['by_source']}",
        f"coalesce rate {stats['coalesce_rate']:.0%} "
        f"({stats['coalesced']} coalesced), cache hit rate "
        f"{stats['cache_hit_rate']:.0%} ({stats['hits']} hits), "
        f"{stats['compiles']} compile(s)",
        f"store: {stats['store']}",
        f"byte parity vs offline compile_many: {parity} artifact(s) identical",
    ]
    return "\n".join(lines)


def main(args) -> int:
    """``python -m repro.bench serve`` body (argparse namespace)."""
    report, stats = run_serve_bench(workers=max(2, args.workers), seed=args.seed)
    parity = verify_parity(report, JOBS)
    print(render_report(report, stats, parity))
    assert report.errors == 0, f"{report.errors} request(s) failed"
    assert stats["compiles"] == len(JOBS), (
        f"expected exactly {len(JOBS)} mapper invocations "
        f"(one per distinct job), got {stats['compiles']}"
    )
    assert stats["coalesced"] > 0, "no concurrent duplicates coalesced"
    assert parity == len(JOBS), "not every distinct job verified byte parity"
    print(
        f"ok: {stats['compiles']} compiles served {report.requests} "
        f"requests, {stats['coalesced']} coalesced, {parity} byte-identical"
    )
    return 0
