"""Policy tournament.

``python -m repro.bench policies`` races every allocation policy across a
lattice of trace-driven workload series (steady Poisson, bursty, diurnal
— :func:`repro.sim.workload.generate_trace`) and prints a leaderboard.
Ranking uses only simulated quantities (per-series makespan normalised to
the series winner, geomeaned across series), so the order is
deterministic for a seed.  The command writes no file; the event
engine's timed measurement is the benchmark's ``sim-10k-trace`` workload
(``perfbench/``).

``--smoke`` is the CI variant: small thread counts, two policies, and
every run replayed through the cycle-quantum oracle
(:func:`repro.sim.oracle.verify_system`) instead of trusting the fast
engine.
"""

from __future__ import annotations

import math

from repro.core.policies import (
    BestFitPolicy,
    FairSharePolicy,
    HalvingPolicy,
    NeedAwareHalvingPolicy,
    PriorityEvictionPolicy,
    StaticEqualPolicy,
)
from repro.sim.fuzz import FUZZ_PROFILES, _NOMINAL_II
from repro.sim.oracle import verify_system
from repro.sim.system import SystemConfig, simulate_system
from repro.sim.workload import ThreadSpec, generate_trace
from repro.util.rng import derive_seed

__all__ = [
    "SERIES",
    "tournament_policies",
    "run_tournament",
    "leaderboard",
    "render_report",
    "main",
]

#: Workload series of the tournament: one per arrival model the trace
#: generator supports (beyond all-at-once, which the paper's own
#: experiments already cover).  Values are ``generate_trace`` kwargs.
SERIES: dict[str, dict] = {
    "steady-poisson": {"arrival_model": "poisson", "mean_arrival_gap": 8.0},
    "bursty": {
        "arrival_model": "bursty",
        "mean_arrival_gap": 8.0,
        "burst_size": 16,
    },
    "diurnal": {
        "arrival_model": "diurnal",
        "mean_arrival_gap": 6.0,
        "diurnal_period": 40_000,
        "diurnal_amplitude": 0.8,
    },
}

_KERNELS = sorted(FUZZ_PROFILES)


def tournament_policies(workload: list[ThreadSpec]) -> dict[str, object]:
    """The contenders, constructed fresh per workload (the priority
    policy needs the trace's thread -> priority map)."""
    return {
        "halving": HalvingPolicy(),
        "need-aware": NeedAwareHalvingPolicy(),
        "fair-share": FairSharePolicy(),
        "static-equal": StaticEqualPolicy(max_threads=8),
        "best-fit": BestFitPolicy(),
        "priority-evict": PriorityEvictionPolicy(
            {t.tid: t.priority for t in workload}
        ),
    }


def _series_workload(name: str, *, n_threads: int, seed: int):
    kwargs = SERIES[name]
    return generate_trace(
        n_threads,
        0.75,
        _KERNELS,
        _NOMINAL_II,
        seed=derive_seed(seed, "tournament", name),
        mean_total_work=1_500,
        **kwargs,
    )


def _metrics(result) -> dict:
    return {
        "makespan": result.makespan,
        "avg_turnaround": round(result.avg_turnaround, 3),
        "turnaround_p50": round(result.turnaround_p50, 3),
        "turnaround_p99": round(result.turnaround_p99, 3),
        "cgra_utilization": round(result.cgra_utilization, 4),
        "wait_cycles": result.wait_cycles,
        "reallocations": result.reallocations,
        "evictions": result.evictions,
        "eviction_churn": round(result.eviction_churn, 4),
    }


def run_tournament(
    *,
    n_threads: int = 2_000,
    n_pages: int = 16,
    seed: int = 0,
    policies: list[str] | None = None,
    series: list[str] | None = None,
    verify: bool = False,
) -> dict[str, dict[str, dict]]:
    """Race the policies over the workload series.

    Returns ``{series: {policy: metrics}}``.  With ``verify=True`` every
    run goes through :func:`verify_system` (oracle replay + invariants)
    instead of the bare fast engine — the smoke/CI path.
    """
    out: dict[str, dict[str, dict]] = {}
    for sname in series or list(SERIES):
        workload = _series_workload(sname, n_threads=n_threads, seed=seed)
        contenders = tournament_policies(workload)
        rows: dict[str, dict] = {}
        for pname, policy in contenders.items():
            if policies is not None and pname not in policies:
                continue
            config = SystemConfig(
                n_pages=n_pages,
                profiles=FUZZ_PROFILES,
                policy=policy,
                validate_decisions=verify,
            )
            if verify:
                result, _ = verify_system(workload, config, "multithreaded")
            else:
                result = simulate_system(workload, config, "multithreaded")
            rows[pname] = _metrics(result)
        out[sname] = rows
    return out


def leaderboard(results: dict[str, dict[str, dict]]) -> list[dict]:
    """Rank policies by geomean of per-series makespan relative to the
    series winner (1.0 = won every series).  Purely simulated quantities,
    so the order is deterministic for a given seed."""
    policies = sorted({p for rows in results.values() for p in rows})
    board = []
    for p in policies:
        rel = []
        for rows in results.values():
            if p not in rows:
                continue
            best = min(r["makespan"] for r in rows.values())
            rel.append(rows[p]["makespan"] / best if best else 1.0)
        score = math.exp(sum(math.log(x) for x in rel) / len(rel))
        board.append(
            {
                "policy": p,
                "score": round(score, 4),
                "p99_turnaround_worst": max(
                    rows[p]["turnaround_p99"]
                    for rows in results.values()
                    if p in rows
                ),
            }
        )
    board.sort(key=lambda r: (r["score"], r["policy"]))
    for i, row in enumerate(board):
        row["rank"] = i + 1
    return board


def render_report(
    tournament: dict[str, dict[str, dict]], board: list[dict]
) -> str:
    lines = ["policy tournament (score = geomean makespan vs winner):"]
    lines.append(
        f"  {'rank':<5}{'policy':<15}{'score':>8}{'worst p99 turnaround':>24}"
    )
    for row in board:
        lines.append(
            f"  {row['rank']:<5}{row['policy']:<15}{row['score']:>8.4f}"
            f"{row['p99_turnaround_worst']:>24.1f}"
        )
    for sname, rows in tournament.items():
        win = min(rows, key=lambda p: rows[p]["makespan"])
        lines.append(
            f"  series {sname}: winner {win} "
            f"(makespan {rows[win]['makespan']:.0f}, "
            f"util {rows[win]['cgra_utilization']:.2f}, "
            f"churn {rows[win]['eviction_churn']:.3f})"
        )
    return "\n".join(lines)


def main(args) -> int:
    """CLI entry, dispatched from :mod:`repro.bench.experiments`."""
    if args.smoke:
        # CI path: tiny threads, two contenders, every run oracle-checked
        tournament = run_tournament(
            n_threads=24,
            n_pages=8,
            seed=args.seed,
            policies=["halving", "best-fit"],
            verify=True,
        )
    else:
        tournament = run_tournament(seed=args.seed)
    print(render_report(tournament, leaderboard(tournament)))
    if args.smoke:
        print("smoke: all runs oracle-verified")
    return 0
