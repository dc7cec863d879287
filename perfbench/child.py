"""A program process of the benchmark: ``python child.py <spec.json>``.

The benchmark starts every program process from this script, so that a
traced run can install the span wrappers (``tracing.install``) before the
program does any work.  The spec names the role and its inputs:

* ``fig8`` — one cold batch: ``compile_many`` of the given jobs into a
  fresh empty store;
* ``sim`` — generate the trace, then ``simulate_system`` passes: at least
  ``min_passes``, more while they fit in the time share;
* ``serve`` — the compile server on an ephemeral port, until SIGTERM;
  SIGUSR1 restarts its counter deltas and spans (after a warm-up).

The process prints one ``READY <json>`` line on stdout when its set-up is
done and writes its result (timings, counter deltas, spans) as JSON to
``spec["result"]`` before it exits.  With ``setup_only`` it stops right
after set-up: the benchmark uses such processes to sample set-up time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sim_trace  # noqa: E402  (benchmark module, after the path insert)


def ready(info: dict | None = None) -> None:
    print("READY " + json.dumps(info or {}), flush=True)


class CounterDelta:
    """Change of the compiler's process-wide search counters (``COUNTERS``,
    ``SEARCH``) over a window."""

    def __init__(self) -> None:
        from repro.compiler.stats import COUNTERS, SEARCH

        self._sources = {"counters": COUNTERS, "search": SEARCH}
        self._since = {name: src.snapshot() for name, src in self._sources.items()}

    def result(self) -> dict:
        return {name: src.delta(self._since[name]) for name, src in self._sources.items()}


def run_fig8(spec: dict) -> dict:
    from repro.pipeline import compile as pipeline
    from repro.pipeline.store import ArtifactStore

    jobs = [
        pipeline.CompileJob(kernel, size, page_size, seed=seed)
        for kernel, size, page_size, seed in spec["jobs"]
    ]
    store = ArtifactStore(spec["store"])
    delta = CounterDelta()
    ready()
    if spec.get("setup_only"):
        return {}
    started = time.perf_counter()
    pipeline.compile_many(jobs, store=store, workers=spec["workers"])
    compile_s = time.perf_counter() - started
    return {"compile_s": compile_s, **delta.result()}


def run_sim(spec: dict) -> dict:
    from repro.sim import system

    trace, config = sim_trace.build(spec["seed"], spec["threads"])
    ready()
    if spec.get("setup_only"):
        return {}
    passes = []
    started = time.perf_counter()
    # another pass only while it is expected to end within the share
    while len(passes) < spec["min_passes"] or (
        time.perf_counter() - started
        + (time.perf_counter() - started) / len(passes) <= spec["seconds"]
    ):
        t0 = time.perf_counter()
        result = system.simulate_system(trace, config, "multithreaded")
        sim_s = time.perf_counter() - t0
        passes.append({"sim_s": sim_s, "stats": sim_trace.stats_of(result)})
    return {"passes": passes}


def run_serve(spec: dict) -> dict:
    import asyncio
    import signal

    from repro.serve.server import ServeServer
    from repro.serve.service import ServiceConfig

    out: dict = {}

    async def serve() -> None:
        config = ServiceConfig(
            store_root=spec["store"], workers=spec["workers"], slots=spec["slots"]
        )
        server = ServeServer(config, port=0)
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        delta = CounterDelta()

        def mark() -> None:
            nonlocal delta
            delta = CounterDelta()
            out["since"] = time.perf_counter()
            print("MARKED", flush=True)

        loop.add_signal_handler(signal.SIGUSR1, mark)
        ready({"port": server.port})
        if not spec.get("setup_only"):
            await stop.wait()
        out["service"] = server.service.stats()
        out.update(delta.result())
        await server.close()

    asyncio.run(serve())
    return out


ROLES = {"fig8": run_fig8, "sim": run_sim, "serve": run_serve}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = ROLES[spec["role"]](spec)
    if tracer is not None:
        since = result.pop("since", float("-inf"))
        result["spans"] = [s for s in tracer.spans if s["start"] >= since]
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
