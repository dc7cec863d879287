"""Benchmark-side tracing: spans around the calls into the program's layers.

The wrappers are installed from the benchmark's own files, by replacing
the names the program calls through (``repro.pipeline.compile.map_dfg``,
``CGRAManager.request``, ...) with timing shims.  The program's source is
not touched.  Spans are kept in memory and written out when the program
process ends; the benchmark merges them into Chrome trace-event JSON,
which Perfetto and ``chrome://tracing`` open offline.

A span is a dict: ``id``, ``parent`` (the id of the span that caused it),
``name``, ``layer``, ``start``/``end`` (``time.perf_counter``, which is
``CLOCK_MONOTONIC`` and so comparable across processes on Linux),
``tid`` and free-form ``attrs`` (request id, hit flag, ...).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
#: The last ``serve.parse`` span of a connection's task, so the request
#: it parsed can be stamped onto it once the request id is known.
_last_parse: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_parse", default=None
)

_MISSING = object()


class Tracer:
    """In-memory span recorder of one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    def open(self, name: str, layer: str, parent=_MISSING, start=None, **attrs) -> dict:
        parent_span = _current.get() if parent is _MISSING else parent
        span = {
            "id": next(self._ids),
            "parent": parent_span["id"] if parent_span else None,
            "name": name,
            "layer": layer,
            "start": time.perf_counter() if start is None else start,
            "end": None,
            "tid": threading.get_ident(),
            "attrs": attrs,
        }
        self.spans.append(span)
        return span

    @staticmethod
    def close(span: dict) -> None:
        span["end"] = time.perf_counter()

    def wrap(self, fn, name: str, layer: str, on_result=None):
        """*fn* with a span around every call; ``on_result(span, args,
        result)`` may add attributes from the call's outcome."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span = self.open(name, layer)
                token = _current.set(span)
                try:
                    result = await fn(*args, **kwargs)
                    if on_result is not None:
                        on_result(span, args, result)
                    return result
                finally:
                    _current.reset(token)
                    self.close(span)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, layer)
            token = _current.set(span)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, result)
                return result
            finally:
                _current.reset(token)
                self.close(span)

        return wrapper


class ContextThreadPoolExecutor(ThreadPoolExecutor):
    """A thread pool whose tasks run in the submitter's context, so a span
    opened before ``submit``/``run_in_executor`` parents the task's spans."""

    def submit(self, fn, /, *args, **kwargs):
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


# --------------------------------------------------------------- installation


def _resolve(target: str):
    """``"pkg.mod:Class"`` or ``"pkg.mod"`` -> the object."""
    module_name, _, cls = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, cls) if cls else owner


def _patch(target: str, attr: str, make) -> None:
    """Replace ``target.attr`` by ``make(old)``.  A name the program lacks
    raises: a layer that silently went untraced would read zero, which
    the per-layer metrics would show as a 100% gain."""
    owner = _resolve(target)
    if not hasattr(owner, attr):
        raise AttributeError(f"cannot trace {target}.{attr}: the program has no such name")
    setattr(owner, attr, make(getattr(owner, attr)))


def _job_result(span, args, result) -> None:
    job = args[0]
    span["attrs"]["job"] = f"{job.kernel}/{job.size}x{job.size}/ps{job.page_size}/seed{job.seed}"


def _store_get_result(span, args, result) -> None:
    span["attrs"]["hit"] = result is not None


def _submit_result(span, args, result) -> None:
    span["attrs"]["request_id"] = result.request_id
    span["attrs"]["source"] = result.source
    parse = _last_parse.get()
    if parse is not None and "request_id" not in parse["attrs"]:
        parse["attrs"]["request_id"] = result.request_id


class _FirstLineReader:
    """Proxy of an ``asyncio.StreamReader`` that notes when the request
    line arrived, so the parse span excludes keep-alive idle time."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self.first_line_at = None

    async def readline(self):
        line = await self._reader.readline()
        if self.first_line_at is None:
            self.first_line_at = time.perf_counter()
        return line

    async def readexactly(self, n):
        return await self._reader.readexactly(n)


_TARGET_MODULES = (
    "repro.pipeline.compile",
    "repro.pipeline.store",
    "repro.serve.service",
    "repro.serve.server",
    "repro.serve.scheduler",
    "repro.serve.singleflight",
    "repro.core.runtime",
    "repro.sim.system",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the program exposes."""
    # import every target first: a module imported after its source was
    # patched would copy the wrapper and be wrapped a second time
    for module in _TARGET_MODULES:
        _resolve(module)

    def plain(target, attr, name, layer, on_result=None):
        _patch(target, attr, lambda fn: tracer.wrap(fn, name, layer, on_result))

    # thread pools that carry the submitter's span into their tasks
    for target in ("repro.pipeline.compile", "repro.serve.service"):
        _patch(target, "ThreadPoolExecutor", lambda _cls: ContextThreadPoolExecutor)

    # repro.compiler, at the pipeline's call sites
    plain("repro.pipeline.compile", "map_dfg", "compiler.map_dfg", "compiler")
    plain("repro.pipeline.compile", "map_dfg_paged", "compiler.map_dfg_paged", "compiler")
    # repro.pipeline
    plain("repro.pipeline.compile", "compile_many", "pipeline.compile_many", "pipeline")
    for target in ("repro.pipeline.compile", "repro.serve.service"):
        plain(target, "compile_job", "pipeline.compile_job", "pipeline", _job_result)
        plain(target, "job_key", "pipeline.job_key", "pipeline", _job_result)
    plain("repro.pipeline.store:ArtifactStore", "get", "pipeline.store_get", "pipeline",
          _store_get_result)
    plain("repro.pipeline.store:ArtifactStore", "put", "pipeline.store_put", "pipeline")
    # repro.serve
    plain("repro.serve.service:CompileService", "submit", "serve.submit", "serve",
          _submit_result)
    _patch("repro.serve.server", "read_http_request", lambda fn: _wrap_parse(tracer, fn))
    _patch("repro.serve.scheduler:FairScheduler", "submit", lambda fn: _wrap_schedule(tracer, fn))
    _patch("repro.serve.singleflight:Singleflight", "join", _wrap_join)
    # repro.core
    plain("repro.core.runtime:CGRAManager", "request", "core.request", "core")
    plain("repro.core.runtime:CGRAManager", "release", "core.release", "core")
    # repro.sim
    plain("repro.sim.system", "simulate_system", "sim.simulate_system", "sim")


def _wrap_parse(tracer: Tracer, fn):
    @functools.wraps(fn)
    async def read_http_request(reader):
        proxy = _FirstLineReader(reader)
        result = await fn(proxy)
        if result is not None and proxy.first_line_at is not None:
            span = tracer.open("serve.parse", "serve", parent=None,
                               start=proxy.first_line_at)
            tracer.close(span)
            _last_parse.set(span)
        return result

    return read_http_request


def _wrap_schedule(tracer: Tracer, fn):
    """Queue wait (``FairScheduler.submit`` -> work start) and the work
    itself, both parented by the span that submitted the work."""

    @functools.wraps(fn)
    def submit(self, work, **kwargs):
        parent = _current.get()
        queued = tracer.open("serve.queue_wait", "serve", parent=parent)

        async def timed_work(token):
            tracer.close(queued)
            span = tracer.open("serve.work", "serve", parent=parent)
            ctx_token = _current.set(span)
            try:
                return await work(token)
            finally:
                _current.reset(ctx_token)
                tracer.close(span)

        return fn(self, timed_work, **kwargs)

    return submit


def _wrap_join(fn):
    @functools.wraps(fn)
    def join(self, digest):
        flight, leader = fn(self, digest)
        span = _current.get()
        if span is not None:
            span["attrs"]["leader"] = leader
            span["attrs"]["joined"] = time.perf_counter()
        return flight, leader

    return join


# ------------------------------------------------------------------ analysis


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict:
    """``(pid, span id) -> self time``: a span's duration minus the part of
    its interval that its child spans cover (children may overlap each
    other, as concurrent compile jobs under one batch do)."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s.get("pid", 0), s["parent"]), []).append(s)
    out = {}
    for s in spans:
        key = (s.get("pid", 0), s["id"])
        covered = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(key, ())
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        out[key] = (s["end"] - s["start"]) - union_length(covered)
    return out


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s["layer"]] = out.get(s["layer"], 0.0) + own[(s.get("pid", 0), s["id"])]
    return out


def chrome_trace(spans: list[dict], process_names: dict[int, str]) -> dict:
    """Chrome trace-event JSON ("X" complete events, microseconds)."""
    if spans:
        origin = min(s["start"] for s in spans)
    else:
        origin = 0.0
    events = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": name}}
        for pid, name in sorted(process_names.items())
    ]
    for s in spans:
        events.append({
            "name": s["name"],
            "cat": s["layer"],
            "ph": "X",
            "ts": round((s["start"] - origin) * 1e6, 1),
            "dur": round((s["end"] - s["start"]) * 1e6, 1),
            "pid": s.get("pid", 0),
            "tid": s["tid"],
            "args": {"span_id": s["id"], "parent": s["parent"], **s["attrs"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
