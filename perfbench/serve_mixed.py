"""The ``serve-mixed`` workload: an open-loop, seeded Poisson schedule of
``POST /compile`` requests against the compile server.

The load generator is this (benchmark) process; the server is a program
process of its own (``workers=2``, ``slots=2``) over a fresh copy of the
committed ``.repro_artifacts/`` store.  One server serves the whole
schedule after an untimed warm-up; set-up time is sampled on servers that
stop right after booting.

Most requests are hits, Zipf-skewed over the 88 committed jobs; about a
tenth are cold misses of cheap 4x4 kernels at seeds absent from the store,
each requested twice in a row so the second can coalesce onto the first's
compile.  Latency is timed from each request's *due* time, so a stall also
counts against the requests queued behind it; the generator reports how
late it ran.

The gated figure, ``op_p50_ms``, is the median time a request spends on
its connection, from being written to its response being read.  The
median from the due time (``latency_p50_ms``) also counts the wait for a
free connection: a miss pair holds both connections for a whole compile,
so about a fifth of the hits wait behind one, and that median lands where
the fast and the delayed requests meet and jumps with their mix.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import itertools
import json
import random
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import median

from common import SETUP_SAMPLES, KeepAwake, tail_percentile

NAME = "serve-mixed"
KERNELS = (
    "mpeg", "yuv2rgb", "sor", "compress", "gsr", "laplace",
    "lowpass", "swim", "sobel", "wavelet", "fft",
)
#: Page sizes of the committed jobs, per grid size (seed 0, flat backend).
COMMITTED_PAGES = {4: (2, 4), 6: (2, 4, 8), 8: (2, 4, 8)}
CHEAP_KERNELS = ("mpeg", "sor", "gsr", "wavelet", "laplace", "lowpass", "swim", "compress")
#: Latency limit on the tail percentile, and of a good answer (goodput),
#: in milliseconds.
LATENCY_LIMIT_MS = 250.0
#: Offered rate of the open loop, requests per second: about half the
#: rate at which the tail first missed the limit on the commit that
#: introduced this benchmark (2-CPU host: p95 234 ms at 60 req/s, 319 ms
#: at 80 req/s).
RATE_RPS = 32.0
#: Share of the requests that are cold misses (in pairs).
MISS_SHARE = 0.1
CONNECTIONS = 2
WORKERS = 2
SLOTS = 2
#: Mapper seed of the warm-up compile, far beyond the miss pool's seeds.
WARMUP_SEED = 1_000_000


# ----------------------------------------------------------------- schedule


def committed_jobs() -> list[dict]:
    return [
        {"kernel": k, "size": size, "page_size": ps}
        for size, pages in COMMITTED_PAGES.items()
        for ps in pages
        for k in KERNELS
    ]


def miss_jobs(n: int) -> list[dict]:
    """The first *n* jobs of the fixed miss pool: cheap 4x4 kernels at
    mapper seeds the committed store does not hold (it holds seed 0)."""
    pool = (
        {"kernel": k, "size": 4, "page_size": ps, "seed": seed}
        for seed in itertools.count(1)
        for ps in (2, 4)
        for k in CHEAP_KERNELS
    )
    return list(itertools.islice(pool, n))


def warmup_entries() -> list[dict]:
    """Untimed requests sent before the schedule, all due at once: every
    committed job once, and one compile of a job outside the miss pool."""
    hits = [{"due": 0.0, "kind": "hit", "payload": job} for job in committed_jobs()]
    miss = {"kernel": CHEAP_KERNELS[0], "size": 4, "page_size": 2, "seed": WARMUP_SEED}
    return hits + [{"due": 0.0, "kind": "miss", "payload": miss}]


def build_schedule(seed: int, rate: float, duration: float) -> list[dict]:
    """``{"due", "kind", "payload"}`` per request, due times in seconds
    from the start; a pure function of its arguments.

    Arrivals are a Poisson process of the given rate conditioned on its
    count, ``round(rate * duration)``: that many sorted uniform instants.
    A tenth of them form :func:`miss_jobs` pairs (two consecutive
    requests for the same job) at seeded places; the rest are hits drawn
    Zipf-skewed (weight 1/rank) over :func:`committed_jobs`.  Fixing the
    count, the popularity ranking and the set of misses keeps the offered
    work of every run the same; the seed draws which hit comes when and
    where the misses fall.
    """
    rng = random.Random(seed)
    jobs = committed_jobs()
    cum = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(jobs))))
    n = round(rate * duration)
    instants = sorted(rng.uniform(0.0, duration) for _ in range(n))
    misses = miss_jobs(round(n * MISS_SHARE / 2))
    rng.shuffle(misses)
    # places of the miss pairs among n - len(misses) arrival slots
    slots = n - len(misses)
    starts = set(rng.sample(range(slots), len(misses)))
    out: list[dict] = []
    for slot in range(slots):
        if slot in starts:
            payload = misses.pop()
            for _ in range(2):
                out.append({"due": instants[len(out)], "kind": "miss", "payload": dict(payload)})
        else:
            job = rng.choices(jobs, cum_weights=cum)[0]
            out.append({"due": instants[len(out)], "kind": "hit", "payload": dict(job)})
    return out


# ---------------------------------------------------------------- generator


async def _post(reader, writer, path: str, payload: dict):
    body = json.dumps(payload, sort_keys=True).encode()
    writer.write(
        f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    data = await reader.readexactly(length) if length else b""
    return status, headers, data


async def fire(port: int, entries: list[dict]) -> list[dict]:
    """Send *entries* open loop over :data:`CONNECTIONS` keep-alive
    connections; one record per entry with due/picked/sent/end times.

    A dispatcher thread sleeps until each due time (``time.sleep`` wakes
    within tens of microseconds, the event loop's timers only within a
    millisecond) and hands the request to the connections' queue.
    """
    loop = asyncio.get_running_loop()
    records = [dict(kind=e["kind"], payload=e["payload"]) for e in entries]
    queue: asyncio.Queue = asyncio.Queue()
    origin = time.perf_counter() + 0.05

    def dispatch() -> None:
        for i, entry in enumerate(entries):
            due = origin + entry["due"]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            records[i]["due"] = due
            records[i]["picked"] = time.perf_counter()
            loop.call_soon_threadsafe(queue.put_nowait, i)
        for _ in range(CONNECTIONS):
            loop.call_soon_threadsafe(queue.put_nowait, None)

    async def connection() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while (i := await queue.get()) is not None:
                rec = records[i]
                rec["sent"] = time.perf_counter()
                try:
                    status, headers, data = await _post(reader, writer, "/compile", rec["payload"])
                except (ConnectionError, asyncio.IncompleteReadError, ValueError) as exc:
                    rec.update(end=time.perf_counter(), status=0, error=str(exc))
                    continue
                rec.update(
                    end=time.perf_counter(),
                    status=status,
                    digest=headers.get("x-repro-digest", ""),
                    source=headers.get("x-repro-source", ""),
                    request_id=headers.get("x-repro-request-id", ""),
                    sha256=hashlib.sha256(data).hexdigest(),
                )
        finally:
            writer.close()
            await writer.wait_closed()

    with ThreadPoolExecutor(max_workers=1) as pool:
        await asyncio.gather(
            loop.run_in_executor(pool, dispatch),
            *(connection() for _ in range(CONNECTIONS)),
        )
    return records


# -------------------------------------------------------------------- gates


def expected_digests(records: list[dict], committed: Path, work: Path) -> dict[str, str]:
    """sha256 of the bytes each served digest must have: the committed
    file for hits, an offline ``compile_many`` of the same job for the
    rest (compiled here, outside the timed window)."""
    from repro.pipeline import ArtifactStore, CompileJob, compile_many, job_key

    expected: dict[str, str] = {}
    offline: dict[str, CompileJob] = {}
    for rec in records:
        digest = rec.get("digest")
        if not digest or digest in expected or digest in offline:
            continue
        path = committed / digest[:2] / f"{digest}.json"
        if path.is_file():
            expected[digest] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            offline[digest] = CompileJob(**rec["payload"])
    if offline:
        store = ArtifactStore(work / "serve-offline-store")
        jobs = list(offline.values())
        compile_many(jobs, store=store, workers=WORKERS)
        for digest, job in offline.items():
            key = job_key(job)
            if key.digest == digest:
                data = store.path_for(key).read_bytes()
                expected[digest] = hashlib.sha256(data).hexdigest()
    return expected


def request_ok(rec: dict, expected: dict[str, str]) -> bool:
    """A 200 whose body equals the reference bytes of its digest."""
    if rec.get("status") != 200:
        return False
    want = expected.get(rec.get("digest", ""))
    return want is not None and rec["sha256"] == want


# ---------------------------------------------------------------------- run


def run(ctx) -> dict:
    schedule = build_schedule(ctx.seed, RATE_RPS, ctx.seconds)
    setups = []

    def fresh_store(name: str) -> tuple[dict, float]:
        t0 = time.perf_counter()
        store = ctx.work / f"serve-store-{name}-{int(ctx.trace)}"
        shutil.copytree(ctx.committed, store)
        return {"store": str(store), "workers": WORKERS, "slots": SLOTS}, time.perf_counter() - t0

    spec, copy_s = fresh_store("run")
    child = ctx.start("serve", spec)
    port = child.wait_ready()["port"]
    setups.append(copy_s + child.setup_s)
    with KeepAwake():
        warm = asyncio.run(fire(port, warmup_entries()))
        child.mark()  # the server's spans and counters start here
        records = asyncio.run(fire(port, schedule))
    results = [child.finish(terminate=True)]
    for i in range(SETUP_SAMPLES - 1):
        spec, copy_s = fresh_store(f"setup-{i}")
        setups.append(copy_s + ctx.setup_samples("serve", spec, 1)[0])

    expected = expected_digests(records, ctx.committed, ctx.work)
    latencies, wire, good = [], [], 0
    for rec in records:
        rec["ok"] = request_ok(rec, expected)
        rec["latency_ms"] = (rec["end"] - rec["due"]) * 1e3 if rec["ok"] else float("inf")
        latencies.append(rec["latency_ms"])
        wire.append((rec["end"] - rec["sent"]) * 1e3 if rec["ok"] else float("inf"))
        good += rec["ok"] and rec["latency_ms"] <= LATENCY_LIMIT_MS
    problems = [
        f"request {r.get('request_id') or i} ({r['kind']} {r['payload']['kernel']}): "
        f"status {r.get('status')}, {'bytes differ' if r.get('status') == 200 else r.get('error', 'error')}"
        for i, r in enumerate(records)
        if not r["ok"]
    ]
    bad_warm = [r for r in warm if r.get("status") != 200]
    problems += [f"warm-up request {r['payload']['kernel']}: status {r.get('status')}" for r in bad_warm]
    hits = [r["latency_ms"] for r in records if r["kind"] == "hit"]
    misses = [r["latency_ms"] for r in records if r["kind"] == "miss"]
    waits = [(r["sent"] - r["due"]) * 1e3 for r in records]
    lateness = sorted((r["picked"] - r["due"]) * 1e3 for r in records)  # max is the last
    tail = tail_percentile(latencies)
    table = {
        "offered_rps": (RATE_RPS, "req/s", f"{len(records)} requests over {ctx.seconds:g} s, "
                        f"{CONNECTIONS} connections, after {len(warm)} warm-up requests"),
        "latency_p50_ms": (median(latencies), "ms", f"from the due time, all {len(latencies)} requests"),
        "latency_tail_ms": (
            (tail[1], "ms", f"p{tail[0]:g}, {tail[2]} of {len(latencies)} samples beyond")
            if tail else (float("nan"), "ms", f"too few samples ({len(latencies)})")
        ),
        "hit_p50_ms": (median(hits), "ms", f"{len(hits)} requests for committed jobs"),
        "miss_p50_ms": (median(misses), "ms", f"{len(misses)} requests for cold jobs"),
        "goodput_rps": (good / ctx.seconds, "req/s", f"correct within {LATENCY_LIMIT_MS:g} ms"),
        "connection_wait_ms": (median(waits), "ms", f"p80 {sorted(waits)[len(waits) * 4 // 5]:.3f} ms, "
                               f"max {max(waits):.3f} ms"),
        "lateness_ms": (median(lateness), "ms",
                        f"generator p50, max {lateness[-1]:.3f} ms"),
        "sources": (len(records), "count", ", ".join(
            f"{src or 'none'} {n}" for src, n in sorted(collections.Counter(
                r.get("source") for r in records).items(), key=lambda kv: str(kv[0])))),
    }
    return {
        "attempted": len(records) + len(warm),
        "failed": sum(not rec["ok"] for rec in records) + len(bad_warm),
        "problems": problems,
        "e2e": {
            "setup_s": median(setups),
            "peak_rss_mb": child.peak_rss_mb,
            "op_p50_ms": median(wire),
        },
        "table": table,
        "ops": len(records),
        "children": [child],
        "results": results,
        "records": records,
        "layer_inputs": {"slots": SLOTS, "tail_ms": tail[1] if tail else None},
    }
