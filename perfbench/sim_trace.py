"""The ``sim-10k-trace`` workload: the 10k-thread trace through the system
simulator, multithreaded mode, ``HalvingPolicy`` on 16 pages.

The trace is the ``10k-trace`` configuration of ``repro.bench.policies``
(bursty arrivals in bursts of 16, priority classes, 0.75 CGRA need) at
its recorded seed 0, whose outcome ``BENCH_sim_scale.json`` records, so
every pass of every run must reproduce that outcome exactly.  The
workload seed picks the small trace replayed through the cycle-quantum
oracle.  (The timed trace does not follow the workload seed because the
engine's cost depends on it far beyond any bound: at equal reallocation
counts one pass took 3.7-4.2 s at trace seed 0 or 12 and 6.6-7.0 s at
13 or 15 on the same host.)
"""

from __future__ import annotations

import hashlib
import json
import time
from statistics import median

from common import SETUP_SAMPLES

NAME = "sim-10k-trace"
THREADS = 10_000
#: Program processes per run; each generates the trace (set-up) and then
#: simulates at least :data:`MIN_PASSES` passes, more while they fit in its
#: share of the run's seconds.
PROCESSES = 3
MIN_PASSES = 2
#: Threads of the small trace replayed through the cycle-quantum oracle
#: once per invocation (the oracle is far slower than the event engine).
ORACLE_THREADS = 16
#: Seed of the timed trace, and its simulated outcome as
#: ``BENCH_sim_scale.json`` records it; every commit must reproduce it.
TRACE_SEED = 0
TRACE_STATS = {"makespan": 2249443.375, "reallocations": 150465}


def build(seed: int, threads: int):
    """(trace, config) of the workload; runs inside a program process."""
    from repro.core.policies import HalvingPolicy
    from repro.sim.fuzz import _NOMINAL_II, FUZZ_PROFILES
    from repro.sim.system import SystemConfig
    from repro.sim.workload import generate_trace
    from repro.util.rng import derive_seed

    trace = generate_trace(
        threads,
        0.75,
        sorted(FUZZ_PROFILES),
        _NOMINAL_II,
        seed=derive_seed(seed, "scale", "10k"),
        arrival_model="bursty",
        mean_arrival_gap=20.0,
        burst_size=16,
        mean_total_work=2_000,
    )
    config = SystemConfig(
        n_pages=16,
        profiles=FUZZ_PROFILES,
        policy=HalvingPolicy(),
        validate_decisions=False,
    )
    return trace, config


def stats_of(result) -> dict:
    """The simulated statistics of one pass; identical on every pass,
    run and commit for a given seed."""
    finish = json.dumps(sorted((int(t), float(v)) for t, v in result.finish_times.items()))
    return {
        "makespan": float(result.makespan),
        "reallocations": int(result.reallocations),
        "kernel_invocations": int(result.kernel_invocations),
        "evictions": int(result.evictions),
        "wait_cycles": float(result.wait_cycles),
        "busy_page_cycles": float(result.cgra_busy_page_cycles),
        "finish_sha256": hashlib.sha256(finish.encode()).hexdigest(),
    }


def stats_problems(all_stats: list[dict]) -> list[int]:
    """Indices of passes whose statistics differ from the first pass or
    from the recorded outcome of the trace."""
    if not all_stats:
        return []
    reference = dict(all_stats[0], **TRACE_STATS)
    return [
        i
        for i, stats in enumerate(all_stats)
        if any(stats[k] != v for k, v in reference.items())
    ]


def oracle_problem(seed: int) -> str | None:
    """Replay a small trace from the same generator and seed through the
    cycle-quantum oracle; the violation message, or None."""
    from repro.sim.oracle import OracleViolation, verify_system

    trace, config = build(seed, ORACLE_THREADS)
    config.validate_decisions = True
    try:
        verify_system(trace, config, "multithreaded")
    except OracleViolation as exc:
        return str(exc)
    return None


def run(ctx) -> dict:
    # a traced process records ~100k manager spans a pass: one pass each
    share = 0.0 if ctx.trace else ctx.seconds / PROCESSES
    spec = {"seed": TRACE_SEED, "threads": THREADS, "seconds": share,
            "min_passes": 1 if ctx.trace else MIN_PASSES}
    children, results = [], []
    for _ in range(PROCESSES):
        child = ctx.start("sim", spec)
        child.wait_ready()
        results.append(child.finish())
        children.append(child)
    setups = [c.setup_s for c in children] + ctx.setup_samples(
        "sim", {"seed": TRACE_SEED, "threads": THREADS}, max(0, SETUP_SAMPLES - len(children))
    )
    passes = [p for r in results for p in r["passes"]]
    sim_s = [p["sim_s"] for p in passes]
    bad = stats_problems([p["stats"] for p in passes])
    problems = [f"pass {i}: simulated statistics differ" for i in bad]
    t0 = time.perf_counter()
    oracle = oracle_problem(ctx.seed)
    oracle_s = time.perf_counter() - t0
    if oracle is not None:
        problems.append(f"oracle: {oracle}")
    good = [s for i, s in enumerate(sim_s) if i not in bad] if oracle is None else []
    return {
        "attempted": len(passes),
        "failed": len(passes) - len(good),
        "problems": problems,
        "e2e": {
            "setup_s": median(setups),
            "peak_rss_mb": max(c.peak_rss_mb for c in children),
            "op_p50_ms": median(sim_s) * 1e3,
        },
        "table": {
            "sim_s": (median(sim_s), "s", f"median of {len(sim_s)} passes, max {max(sim_s):.3f}"),
            "makespan": (passes[0]["stats"]["makespan"], "cycles", "simulated"),
            "reallocations": (passes[0]["stats"]["reallocations"], "count", "simulated"),
            "goodput_threads_s": (THREADS * len(good) / sum(sim_s), "1/s",
                                  "correctly simulated threads per host second"),
            "oracle_s": (oracle_s, "s", f"{ORACLE_THREADS}-thread replay, outside the timed passes"),
        },
        "ops": len(passes),
        "children": children,
        "results": results,
        "layer_inputs": {
            "sim": passes[0]["stats"],
            "sim_s": median(sim_s),
        },
    }
