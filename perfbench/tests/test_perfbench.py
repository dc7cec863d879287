"""Tests of the benchmark's own logic: schedules, the tail rule, span
self time and the correctness gates.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path

import pytest

import fig8_cold
import layers
import serve_mixed
import sim_trace
import tracing
from common import TAIL_BEYOND, TAIL_LADDER, KeepAwake, tail_percentile
from tracing import chrome_trace, layer_self_times, self_times, union_length

COMMITTED = Path(__file__).resolve().parents[2] / ".repro_artifacts"


# ------------------------------------------------------------------ schedules


def test_schedule_is_deterministic_per_seed_and_differs_across_seeds():
    a = serve_mixed.build_schedule(7, 32.0, 10.0)
    assert a == serve_mixed.build_schedule(7, 32.0, 10.0)
    assert a != serve_mixed.build_schedule(8, 32.0, 10.0)


def test_schedule_shape():
    schedule = serve_mixed.build_schedule(3, 32.0, 60.0)
    assert len(schedule) == round(32.0 * 60.0)
    dues = [e["due"] for e in schedule]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 60.0
    misses = [e for e in schedule if e["kind"] == "miss"]
    assert 0.05 < len(misses) / len(schedule) < 0.15
    # every miss is requested twice in a row, at a seed absent from the store
    i = 0
    while i < len(schedule):
        if schedule[i]["kind"] == "miss":
            assert schedule[i + 1]["payload"] == schedule[i]["payload"]
            assert schedule[i]["payload"]["seed"] >= 1
            i += 2
        else:
            assert schedule[i]["payload"] in serve_mixed.committed_jobs()
            i += 1
    assert all(0.0 <= e["due"] < 60.0 for e in schedule)
    assert [e["due"] for e in schedule] == sorted(e["due"] for e in schedule)


def test_warmup_compiles_a_job_outside_the_miss_pool():
    warm = serve_mixed.warmup_entries()
    hits = [e["payload"] for e in warm if e["kind"] == "hit"]
    misses = [e["payload"] for e in warm if e["kind"] == "miss"]
    assert hits == serve_mixed.committed_jobs()
    assert len(misses) == 1
    schedule = serve_mixed.build_schedule(3, 32.0, 60.0)
    assert misses[0] not in [e["payload"] for e in schedule]


def test_keep_awake_stops_its_processes():
    with KeepAwake() as awake:
        procs = list(awake.procs)
        assert procs and all(p.poll() is None for p in procs)
    assert all(p.returncode is not None for p in procs)


def test_tail_breakdown_splits_a_slow_request():
    spans = [
        {"pid": 0, "id": 1, "parent": None, "name": "serve.submit", "layer": "serve",
         "start": 10.0, "end": 10.050, "attrs": {"request_id": "r1"}},
        {"pid": 0, "id": 2, "parent": 1, "name": "pipeline.job_key", "layer": "pipeline",
         "start": 10.010, "end": 10.020, "attrs": {}},
    ]
    records = [
        {"ok": True, "latency_ms": 300.0, "request_id": "r1", "due": 9.8, "sent": 9.99, "end": 10.1},
        {"ok": True, "latency_ms": 3.0, "request_id": "r2", "due": 11.0, "sent": 11.0, "end": 11.003},
    ]
    out = layers.tail_breakdown(records, spans, 100.0)
    assert out["requests"] == 1
    mean = out["mean_ms"]
    assert mean["client.wait_for_connection"] == pytest.approx(190.0)
    assert mean["serve.submit"] == pytest.approx(40.0)
    assert mean["pipeline.job_key"] == pytest.approx(10.0)
    assert mean["unspanned"] == pytest.approx(60.0)


def test_fig8_jobs_are_the_committed_suite():
    jobs = fig8_cold.make_jobs()
    assert len(jobs) == 22 and jobs[0] == ["mpeg", 4, 2, 0] and jobs[-1] == ["fft", 4, 4, 0]


# ------------------------------------------------------------------ tail rule


@pytest.mark.parametrize("n", [20, 21, 39, 40, 99, 100, 199, 200, 201, 999, 1000, 1001, 5000])
def test_tail_keeps_at_least_ten_samples_beyond(n):
    values = [float(i) for i in range(n)]
    pct, value, beyond = tail_percentile(values)
    assert beyond >= TAIL_BEYOND
    assert sum(v > value for v in values) == beyond
    # the next percentile up would keep fewer than ten
    higher = [p for p in TAIL_LADDER if p > pct]
    if higher:
        rank = math.ceil(higher[0] / 100.0 * n)
        assert n - rank < TAIL_BEYOND


def test_tail_needs_twenty_samples():
    # the lowest percentile reported is the median
    assert tail_percentile([float(i) for i in range(19)]) is None
    assert tail_percentile([float(i) for i in range(1000)])[0] == 99.0


# ------------------------------------------------------------------ self time


def _span(sid, parent, start, end, layer="pipeline", name=None, pid=0):
    return {"id": sid, "parent": parent, "name": name or f"s{sid}", "layer": layer,
            "start": start, "end": end, "tid": 1, "attrs": {}, "pid": pid}


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(1, 4), (3, 6), (8, 10)]) == 7.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_span_self_time_on_a_hand_built_tree():
    spans = [
        _span(1, None, 0.0, 10.0, layer="serve"),
        _span(2, 1, 1.0, 4.0),  # overlaps its sibling 3
        _span(3, 1, 3.0, 6.0),
        _span(4, 1, 8.0, 12.0, layer="compiler"),  # runs past its parent
        _span(5, 2, 2.0, 3.0, layer="compiler"),
        # same ids in another process: must not be mixed up with pid 0
        _span(1, None, 0.0, 1.0, layer="sim", pid=1),
    ]
    own = self_times(spans)
    assert own[(0, 1)] == pytest.approx(3.0)  # 10 - |[1,6] u [8,10]|
    assert own[(0, 2)] == pytest.approx(2.0)
    assert own[(0, 3)] == pytest.approx(3.0)
    assert own[(0, 4)] == pytest.approx(4.0)
    assert own[(0, 5)] == pytest.approx(1.0)
    assert own[(1, 1)] == pytest.approx(1.0)
    assert layer_self_times(spans) == pytest.approx(
        {"serve": 3.0, "pipeline": 5.0, "compiler": 5.0, "sim": 1.0}
    )


def test_layers_read_zero_without_spans():
    out = layers.compute([], [], 1, {}, 0.0)
    assert set(out) == set(layers.METRICS)
    assert all(v == 0.0 for v in out.values())


def test_span_gate_needs_the_defining_spans_and_idle_layers():
    fig8 = [_span(1, None, 0.0, 2.0, name="pipeline.compile_job"),
            _span(2, 1, 0.5, 1.5, layer="compiler", name="compiler.map_dfg_paged")]
    assert layers.span_problems("fig8-cold", fig8) == []
    assert layers.span_problems("fig8-cold", fig8[:1]) == [
        "no compiler.map_dfg_paged span recorded"
    ]
    busy = fig8 + [_span(3, None, 0.0, 1.0, layer="core", name="core.request")]
    assert layers.span_problems("fig8-cold", busy) == [
        "layer core recorded spans but should be idle"
    ]
    assert len(layers.span_problems("sim-10k-trace", fig8)) == 4
    assert set(layers.DEFINING_SPANS) == set(layers.IDLE_LAYERS) == {
        fig8_cold.NAME, serve_mixed.NAME, sim_trace.NAME
    }


def test_tracing_refuses_a_missing_call_site():
    with pytest.raises(AttributeError, match="no_such_function"):
        tracing._patch("repro.pipeline.compile", "no_such_function", lambda fn: fn)
    with pytest.raises(ImportError):
        tracing._patch("repro.no_such_module", "map_dfg", lambda fn: fn)


def test_chrome_trace_events():
    trace = chrome_trace([_span(1, None, 1.0, 1.5), _span(2, 1, 1.1, 1.2)], {0: "p"})
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["ts"] for e in events] == [0.0, 100000.0]
    assert events[1]["args"]["parent"] == 1


# ---------------------------------------------------------------------- gates


def _copy_artifacts(dest: Path, n: int) -> list[Path]:
    files = sorted(COMMITTED.glob("*/*.json"))[:n]
    out = []
    for src in files:
        target = dest / src.parent.name / src.name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(src, target)
        out.append(target)
    return out


def test_fig8_gate_passes_committed_bytes(tmp_path):
    _copy_artifacts(tmp_path, 3)
    assert fig8_cold.gate_store(tmp_path, COMMITTED, 3) == []


def test_fig8_gate_fails_on_one_flipped_byte(tmp_path):
    files = _copy_artifacts(tmp_path, 3)
    data = bytearray(files[1].read_bytes())
    i = data.index(b'"ii_base"') + 2  # inside a key: still valid JSON-ish bytes
    data[i] ^= 0x01
    files[1].write_bytes(bytes(data))
    problems = fig8_cold.gate_store(tmp_path, COMMITTED, 3)
    assert len(problems) == 1 and files[1].name in problems[0]


def test_fig8_gate_counts_missing_artifacts(tmp_path):
    _copy_artifacts(tmp_path, 2)
    assert len(fig8_cold.gate_store(tmp_path, COMMITTED, 3)) == 1


def test_serve_gate_checks_body_bytes():
    expected = {"d1": "aa"}
    assert serve_mixed.request_ok({"status": 200, "digest": "d1", "sha256": "aa"}, expected)
    assert not serve_mixed.request_ok({"status": 200, "digest": "d1", "sha256": "ab"}, expected)
    assert not serve_mixed.request_ok({"status": 200, "digest": "d2", "sha256": "aa"}, expected)
    assert not serve_mixed.request_ok({"status": 500, "digest": "d1", "sha256": "aa"}, expected)


def _stats(**over):
    stats = {"makespan": 2249443.375, "reallocations": 150465, "kernel_invocations": 7,
             "evictions": 0, "wait_cycles": 1.5, "busy_page_cycles": 2.5, "finish_sha256": "x"}
    stats.update(over)
    return stats


def test_sim_gate_flags_a_perturbed_statistic():
    assert sim_trace.stats_problems([_stats(), _stats(), _stats()]) == []
    assert sim_trace.stats_problems([_stats(), _stats(), _stats(wait_cycles=1.75)]) == [2]
    assert sim_trace.stats_problems([_stats(), _stats(finish_sha256="y")]) == [1]


def test_sim_gate_checks_the_recorded_outcome():
    off = _stats(reallocations=150466)
    assert sim_trace.stats_problems([off, off]) == [0, 1]


# ------------------------------------------------------------ resolution rule


def test_resolution_verdict():
    import resolution

    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    slower = [v * 1.1 for v in base]
    result = resolution.verdict(base, slower)
    assert result["resolved"] and result["pairs_head_slower"] == 10
    assert result["head_minus_base_share"] == pytest.approx(0.1, abs=0.01)
    # a difference inside the base side's own spread is unresolved
    noisy = [v + (3.0 if i % 2 else -3.0) for i, v in enumerate(base)]
    assert not resolution.verdict(base, noisy)["resolved"]
