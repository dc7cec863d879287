#!/usr/bin/env python3
"""The repository's benchmark: compiler, compile service and system
simulator, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig8-cold --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--workload`` is ``fig8-cold``, ``serve-mixed``, ``sim-10k-trace`` or
``all``.  Each run prints the host fingerprint, one row per workload with
every end-to-end metric by name and unit, and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run measures the workload untraced, then again with spans around every
call into the program's layers, and reports the per-layer metrics
(``layers.METRICS``), the tracing overhead and, for ``serve-mixed``, where
the slowest requests spent their time.  Traced runs also write a Chrome
trace-event file per workload to ``.perfbench_out/``, which Perfetto opens
offline.

The exit code is 0 when every correctness gate passed, 1 when one failed
and 2 when the program cannot be found (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fig8_cold  # noqa: E402
import layers  # noqa: E402
import serve_mixed  # noqa: E402
import sim_trace  # noqa: E402
from common import OUT_DIR_NAME, ROOT, WORK_DIR_NAME, RunContext, check_program, host_fingerprint, import_program  # noqa: E402
from tracing import chrome_trace  # noqa: E402

WORKLOADS = {m.NAME: m for m in (fig8_cold, serve_mixed, sim_trace)}
#: Spans written to a Chrome trace file, in recording order (about one
#: simulation pass); the per-layer metrics use every span.
TRACE_FILE_SPANS = 100_000
#: name -> unit of the end-to-end metrics (``end_to_end`` in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_p50_ms": "ms",
}


def run_workload(module, args, tree: Path, work: Path) -> dict:
    """One workload: untraced, and with ``--trace 1`` traced as well."""
    ctx = RunContext(tree, args.seed, args.seconds, False, work)
    try:
        outcome = module.run(ctx)
    finally:
        ctx.stop_all()
    if not args.trace:
        return outcome
    tctx = RunContext(tree, args.seed, args.seconds, True, work)
    try:
        traced = module.run(tctx)
    finally:
        tctx.stop_all()
    spans = []
    for pid, result in enumerate(traced["results"]):
        for span in result.get("spans", []):
            span["pid"] = pid
            spans.append(span)
    base = outcome["e2e"]["op_p50_ms"]
    overhead = traced["e2e"]["op_p50_ms"] / base - 1.0
    outcome["layers"] = layers.compute(
        spans, traced["results"], traced["ops"], outcome["layer_inputs"], overhead
    )
    outcome["attempted"] += traced["attempted"]
    span_problems = layers.span_problems(module.NAME, spans)
    outcome["failed"] += traced["attempted"] if span_problems else traced["failed"]
    outcome["problems"] += [f"traced: {p}" for p in traced["problems"] + span_problems]
    outcome["table"]["traced_op_p50_ms"] = (
        traced["e2e"]["op_p50_ms"], "ms", f"tracing overhead {overhead:+.1%}"
    )
    if traced["layer_inputs"].get("tail_ms") is not None:
        outcome["tail_breakdown"] = layers.tail_breakdown(
            traced["records"], spans, traced["layer_inputs"]["tail_ms"]
        )
    out_dir = ROOT / OUT_DIR_NAME
    out_dir.mkdir(exist_ok=True)
    names = {pid: f"program process {pid}" for pid in range(len(traced["results"]))}
    trace_path = out_dir / f"trace-{module.NAME}-seed{args.seed}.json"
    kept = spans[:TRACE_FILE_SPANS]
    trace_path.write_text(json.dumps(chrome_trace(kept, names), separators=(",", ":")))
    outcome["trace_file"] = f"{trace_path} ({len(kept)} of {len(spans)} spans)"
    return outcome


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_outcome(name: str, outcome: dict, trace: bool) -> None:
    print(f"\n== {name}: attempted {outcome['attempted']}, failed {outcome['failed']}")
    for metric, value in outcome["e2e"].items():
        print(f"  {metric:<24} {fmt(value):>14} {END_TO_END[metric]:<6}")
    for metric, (value, unit, note) in outcome["table"].items():
        print(f"  {metric:<24} {fmt(value):>14} {unit:<6} {note}")
    for problem in outcome["problems"][:10]:
        print(f"  GATE FAILED: {problem}")
    if len(outcome["problems"]) > 10:
        print(f"  ... and {len(outcome['problems']) - 10} more")
    if trace:
        print(f"  -- per layer (per operation), trace: {outcome['trace_file']}")
        for metric, value in outcome["layers"].items():
            print(f"  {metric:<32} {fmt(value):>14} {layers.METRICS[metric][0]}")
        tail = outcome.get("tail_breakdown")
        if tail:
            print(f"  -- {tail['requests']} traced requests above {tail['threshold_ms']:.3f} ms, mean ms each:")
            for part, ms in tail["mean_ms"].items():
                print(f"  {part:<32} {ms:>14.3f}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tree", default=None,
                   help="benchmark the program in another checkout (default: this one)")
    args = p.parse_args(argv)

    tree = Path(args.tree).resolve() if args.tree else ROOT
    problem = check_program(tree)
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import_program(tree)
    host = host_fingerprint()
    print("host: " + json.dumps(host, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / WORK_DIR_NAME / f"{os.getpid()}-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(WORKLOADS[name], args, tree, work)
            print_outcome(name, outcomes[name], args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(o["attempted"] for o in outcomes.values())
    failed = sum(o["failed"] for o in outcomes.values())
    correct = failed == 0 and not any(o["problems"] for o in outcomes.values())
    metrics = {}
    for name, outcome in outcomes.items():
        if args.trace:
            values = {m: (v, layers.METRICS[m][0]) for m, v in outcome["layers"].items()}
        else:
            values = {m: (v, END_TO_END[m]) for m, v in outcome["e2e"].items()}
        prefix = f"{name}." if len(outcomes) > 1 else ""
        for metric, (value, unit) in values.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": host,
        "tree": str(tree),
        "args": vars(args),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "tables": {n: o["table"] for n, o in outcomes.items()},
        "tail_breakdown": {n: o["tail_breakdown"] for n, o in outcomes.items() if "tail_breakdown" in o},
    }
    out_dir = ROOT / OUT_DIR_NAME
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
