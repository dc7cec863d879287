"""Per-layer metrics of a traced run, computed from its spans.

Every metric is reported on every workload; a layer the workload does not
exercise reads zero.  Times and counts are *per operation* of the
workload: per cold batch (``fig8-cold``), per request (``serve-mixed``),
per simulation pass (``sim-10k-trace``).
"""

from __future__ import annotations

from statistics import median

from tracing import layer_self_times, self_times

#: name -> (unit, better).  The same list is ``per_layer`` in BENCHMARK.json.
METRICS: dict[str, tuple[str, str]] = {
    "compiler.base_map_s": ("s", "lower"),
    "compiler.paged_map_s": ("s", "lower"),
    "compiler.tail_job_s": ("s", "lower"),
    "compiler.expansions": ("count", "lower"),
    "compiler.placement_probes": ("count", "lower"),
    "compiler.route_calls": ("count", "lower"),
    "compiler.rungs_skipped": ("count", "higher"),
    "search.probes_launched": ("count", "lower"),
    "search.probes_wasted": ("count", "lower"),
    "search.speculation_efficiency": ("ratio", "higher"),
    "pipeline.job_key_s": ("s", "lower"),
    "pipeline.job_key_calls": ("count", "lower"),
    "pipeline.store_get_s": ("s", "lower"),
    "pipeline.store_get_calls": ("count", "lower"),
    "pipeline.store_put_s": ("s", "lower"),
    "pipeline.store_put_calls": ("count", "lower"),
    "pipeline.store_hit_ratio": ("ratio", "higher"),
    "pipeline.compile_job_s": ("s", "lower"),
    "pipeline.compile_job_calls": ("count", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "serve.parse_s": ("s", "lower"),
    "serve.queue_wait_s": ("s", "lower"),
    "serve.slot_busy_frac": ("ratio", "lower"),
    "serve.flight_wait_s": ("s", "lower"),
    "serve.coalesce_ratio": ("ratio", "higher"),
    "serve.hit_ratio": ("ratio", "higher"),
    "serve.self_s": ("s", "lower"),
    "core.manager_request_s": ("s", "lower"),
    "core.manager_release_s": ("s", "lower"),
    "core.manager_calls": ("count", "lower"),
    "sim.engine_self_s": ("s", "lower"),
    "sim.host_us_per_call": ("us", "lower"),
    "sim.makespan": ("cycles", "lower"),
    "sim.reallocations": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}

_COUNTERS = {
    "compiler.expansions": "expansions",
    "compiler.placement_probes": "placement_probes",
    "compiler.route_calls": "route_calls",
    "compiler.rungs_skipped": "rungs_skipped",
}


#: workload -> spans its traced run must record: the calls that do most
#: of its work.  Without them its per-layer figures are not the program's.
DEFINING_SPANS: dict[str, tuple[str, ...]] = {
    "fig8-cold": ("pipeline.compile_job", "compiler.map_dfg_paged"),
    "serve-mixed": ("serve.submit", "pipeline.job_key", "pipeline.store_get"),
    "sim-10k-trace": ("sim.simulate_system", "core.request"),
}
#: workload -> layers that must record no span in its traced run.
IDLE_LAYERS: dict[str, tuple[str, ...]] = {
    "fig8-cold": ("serve", "core", "sim"),
    "serve-mixed": ("core", "sim"),
    "sim-10k-trace": ("compiler", "pipeline", "serve"),
}


def span_problems(workload: str, spans: list[dict]) -> list[str]:
    """Why the spans of *workload*'s traced run cannot be its layer
    breakdown: a defining span is missing, or an idle layer did work."""
    names = {s["name"] for s in spans}
    layers = {s["layer"] for s in spans}
    problems = [f"no {name} span recorded" for name in DEFINING_SPANS[workload]
                if name not in names]
    problems += [f"layer {layer} recorded spans but should be idle"
                 for layer in IDLE_LAYERS[workload] if layer in layers]
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(spans: list[dict], results: list[dict], ops: int, inputs: dict,
            overhead: float) -> dict[str, float]:
    """All of :data:`METRICS` for one traced run.

    *spans* carry a ``pid`` (the program process they came from);
    *results* are the program processes' result dicts (counter deltas);
    *inputs* holds workload facts the spans cannot give (simulated
    statistics, the untraced ``sim_s``, the serve slot count).
    """

    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    per = 1.0 / ops
    out = {name: 0.0 for name in METRICS}
    out["compiler.base_map_s"] = total("compiler.map_dfg") * per
    out["compiler.paged_map_s"] = total("compiler.map_dfg_paged") * per
    slowest: dict[int, float] = {}
    for s in named("pipeline.compile_job"):
        slowest[s["pid"]] = max(slowest.get(s["pid"], 0.0), s["end"] - s["start"])
    out["compiler.tail_job_s"] = median(list(slowest.values())) if slowest else 0.0

    counters: dict[str, float] = {}
    search: dict[str, float] = {}
    for r in results:
        for k, v in r.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        for k, v in r.get("search", {}).items():
            search[k] = search.get(k, 0) + v
    for metric, key in _COUNTERS.items():
        out[metric] = counters.get(key, 0) * per
    out["search.probes_launched"] = search.get("probes_launched", 0) * per
    out["search.probes_wasted"] = search.get("probes_wasted", 0) * per
    useful = search.get("useful_seconds", 0.0)
    out["search.speculation_efficiency"] = _ratio(useful, useful + search.get("wasted_seconds", 0.0))

    for short, name in (("job_key", "pipeline.job_key"), ("store_get", "pipeline.store_get"),
                        ("store_put", "pipeline.store_put"), ("compile_job", "pipeline.compile_job")):
        out[f"pipeline.{short}_s"] = total(name) * per
        out[f"pipeline.{short}_calls"] = len(named(name)) * per
    gets = named("pipeline.store_get")
    out["pipeline.store_hit_ratio"] = _ratio(sum(bool(s["attrs"].get("hit")) for s in gets), len(gets))
    self_by_layer = layer_self_times(spans)
    out["pipeline.self_s"] = self_by_layer.get("pipeline", 0.0) * per

    submits = named("serve.submit")
    out["serve.parse_s"] = total("serve.parse") * per
    out["serve.queue_wait_s"] = total("serve.queue_wait") * per
    windows: dict[int, tuple[float, float]] = {}
    for s in spans:
        if s["layer"] == "serve":
            lo, hi = windows.get(s["pid"], (s["start"], s["end"]))
            windows[s["pid"]] = (min(lo, s["start"]), max(hi, s["end"]))
    window = sum(hi - lo for lo, hi in windows.values())
    out["serve.slot_busy_frac"] = _ratio(total("serve.work"), inputs.get("slots", 0) * window)
    followers = [s for s in submits if s["attrs"].get("leader") is False]
    out["serve.flight_wait_s"] = sum(s["end"] - s["attrs"]["joined"] for s in followers) * per
    out["serve.coalesce_ratio"] = _ratio(len(followers), len(submits))
    out["serve.hit_ratio"] = _ratio(
        sum(s["attrs"].get("source") == "hit" for s in submits), len(submits)
    )
    out["serve.self_s"] = self_by_layer.get("serve", 0.0) * per

    calls = len(named("core.request")) + len(named("core.release"))
    out["core.manager_request_s"] = total("core.request") * per
    out["core.manager_release_s"] = total("core.release") * per
    out["core.manager_calls"] = calls * per
    out["sim.engine_self_s"] = self_by_layer.get("sim", 0.0) * per
    out["sim.host_us_per_call"] = _ratio(inputs.get("sim_s", 0.0) * 1e6, calls * per)
    sim = inputs.get("sim") or {}
    out["sim.makespan"] = float(sim.get("makespan", 0.0))
    out["sim.reallocations"] = float(sim.get("reallocations", 0))
    out["trace.overhead_frac"] = overhead
    out["trace.spans"] = len(spans) * per
    return out


def tail_breakdown(records: list[dict], spans: list[dict], threshold_ms: float) -> dict:
    """Where the requests above *threshold_ms* spent their time, as the
    mean per request in milliseconds: the generator-side wait for a free
    connection, the self time of each server span (for a coalesced
    request, ``serve.submit``'s self time is its wait on the flight), and
    what no span covers (transport, response framing)."""
    own = self_times(spans)
    by_id = {(s["pid"], s["id"]): s for s in spans}
    by_request: dict[str, list[dict]] = {}
    for s in spans:
        root = s
        while root["parent"] is not None and (s["pid"], root["parent"]) in by_id:
            root = by_id[(s["pid"], root["parent"])]
        rid = root["attrs"].get("request_id")
        if rid:
            by_request.setdefault(rid, []).append(s)
    tail = [r for r in records if r.get("ok") and r["latency_ms"] > threshold_ms]
    parts: dict[str, float] = {}

    def add(name: str, ms: float) -> None:
        parts[name] = parts.get(name, 0.0) + ms

    for rec in tail:
        server_ms = 0.0
        for s in by_request.get(rec["request_id"], []):
            add(s["name"], own[(s["pid"], s["id"])] * 1e3)
            if s["parent"] is None:
                server_ms += (s["end"] - s["start"]) * 1e3
        add("client.wait_for_connection", (rec["sent"] - rec["due"]) * 1e3)
        add("unspanned", (rec["end"] - rec["sent"]) * 1e3 - server_ms)
    n = len(tail)
    return {
        "threshold_ms": threshold_ms,
        "requests": n,
        "mean_ms": {k: round(v / n, 3) for k, v in sorted(parts.items())} if n else {},
    }
