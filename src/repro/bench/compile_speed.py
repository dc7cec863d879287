"""Cold-compile table: wall clock and search effort per kernel.

``python -m repro.bench compile-speed`` cold-compiles every suite kernel
on one grid (no artifact cache — the mapper runs for real), serially, and
prints a table of per-job wall clock split by mapper phase plus the
search-effort counters from :mod:`repro.compiler.stats` (state
expansions, BFS/DFS route searches, placement probes, memo-table hits).
At workers=1 those counters are deterministic for a seed, so the table is
a noise-free record of search volume.  It writes no file; timed,
repeated measurements are the benchmark's job (``perfbench/``).

The jobs here are exactly the Fig. 8 suite configurations
(:func:`repro.bench.fig8.page_sizes_for`), so the timings measure the
compiles the experiment pipeline actually performs on a cold cache.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.fig8 import page_sizes_for
from repro.kernels import kernel_names
from repro.pipeline.compile import CompileJob, CompileStats, compile_job

__all__ = ["run_compile_speed", "render_report", "main"]


def run_compile_speed(
    *,
    size: int = 4,
    kernels: Sequence[str] | None = None,
    page_sizes: Sequence[int] | None = None,
    seed: int = 0,
    arch: str | None = None,
) -> list[CompileStats]:
    """Cold-compile the suite serially and return one
    :class:`CompileStats` per job.  *arch* selects a fabric preset
    (``repro.arch.presets``; overrides *size*)."""
    if arch is not None:
        from repro.arch.presets import preset

        size = preset(arch).rows
    names = list(kernels) if kernels else kernel_names()
    sizes = list(page_sizes) if page_sizes else page_sizes_for(size)
    return [
        compile_job(CompileJob(kernel, size, ps, seed=seed, arch=arch))[1]
        for kernel in names
        for ps in sizes
    ]


def render_report(stats: Sequence[CompileStats]) -> str:
    """Table of per-job timings and search counters."""
    header = (
        f"{'kernel':<10} {'ps':>2} {'seconds':>8} {'base_s':>7} {'paged_s':>8} "
        f"{'expand':>9} {'probes':>7} {'bfs':>6} {'dfs':>7} {'memo_hits':>9}"
    )
    lines = [header, "-" * len(header)]
    for st in stats:
        c = st.counters
        memo = c.get("target_cache_hits", 0) + c.get("move_cache_hits", 0)
        lines.append(
            f"{st.kernel:<10} {st.page_size:>2} {st.seconds:>8.3f} "
            f"{st.base_map_seconds:>7.3f} {st.paged_map_seconds:>8.3f} "
            f"{c.get('expansions', 0):>9} {c.get('placement_probes', 0):>7} "
            f"{c.get('bfs_calls', 0):>6} {c.get('dfs_calls', 0):>7} {memo:>9}"
        )
    total = sum(st.seconds for st in stats)
    lines.append(f"total: {total:.2f}s over {len(stats)} cold compile(s)")
    skipped = sum(st.counters.get("rungs_skipped", 0) for st in stats)
    if skipped:
        lines.append(f"II rungs: {skipped} skipped (ladder memoization)")
    return "\n".join(lines)


def main(args) -> int:
    """``python -m repro.bench compile-speed`` body (argparse namespace)."""
    stats = run_compile_speed(
        size=args.size or 4,
        kernels=args.kernels.split(",") if args.kernels else None,
        page_sizes=(
            [int(p) for p in args.page_sizes.split(",")]
            if args.page_sizes
            else None
        ),
        seed=args.seed,
        arch=args.arch,
    )
    print(render_report(stats))
    return 0
