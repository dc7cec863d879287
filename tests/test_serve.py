"""Tests for the compile service: protocol validation, fair scheduling,
singleflight coalescing, cooperative cancellation, and byte parity between
served responses and offline ``compile_many`` output."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.compiler.search import CancelledSearch, SearchContext
from repro.pipeline import (
    ArtifactStore,
    CompileJob,
    compile_job,
    compile_many,
    job_key,
)
from repro.serve.loadgen import ServeClient, build_schedule, percentile
from repro.serve.protocol import CompileRequest, ProtocolError
from repro.serve.scheduler import CancelToken, FairScheduler, RequestCancelled
from repro.serve.server import ServeServer
from repro.serve.service import CompileService, ServiceConfig
from repro.serve.singleflight import Singleflight


# ------------------------------------------------------------------- protocol


class TestProtocol:
    def test_minimal_request(self):
        req = CompileRequest.from_dict({"kernel": "sor"})
        assert req.size == 4 and req.page_size == 4
        assert req.tenant == "default" and req.priority == 0
        job = req.to_job()
        assert job == CompileJob("sor", 4, 4)

    def test_full_request_roundtrip(self):
        req = CompileRequest.from_dict(
            {
                "kernel": "mpeg",
                "size": 6,
                "page_size": 2,
                "prefer": "column",
                "seed": 3,
                "tenant": "alpha",
                "priority": 5,
                "request_id": "r-1",
            }
        )
        job = req.to_job()
        assert job.kernel == "mpeg" and job.size == 6 and job.page_size == 2
        assert job.prefer == "column" and job.seed == 3

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request field"):
            CompileRequest.from_dict({"kernel": "sor", "kernal": "typo"})
        # there is one mapper: naming any backend is an unknown field
        with pytest.raises(ProtocolError, match="unknown request field.*backend"):
            CompileRequest.from_dict({"kernel": "sor", "backend": "flat"})

    def test_missing_kernel_rejected(self):
        with pytest.raises(ProtocolError, match="kernel"):
            CompileRequest.from_dict({"size": 4})

    @pytest.mark.parametrize(
        "patch",
        [
            {"size": "4"},
            {"size": True},
            {"page_size": 0},
            {"priority": 1.5},
            {"prefer": "diagonal"},
            {"backend": "quantum"},
            {"tenant": ""},
            {"request_id": 7},
            {"seed": -1},
            {"size": 1},
            {"size": 17},
        ],
    )
    def test_bad_fields_rejected(self, patch):
        with pytest.raises(ProtocolError):
            CompileRequest.from_dict({"kernel": "sor", **patch})

    def test_percentile_nearest_rank(self):
        values = sorted(float(v) for v in range(1, 11))
        assert percentile(values, 0.50) == 5.0
        assert percentile(values, 0.99) == 10.0
        assert percentile([], 0.5) == 0.0

    def test_schedule_deterministic(self):
        jobs = [{"kernel": "sor", "size": 4, "page_size": 2}]
        a = build_schedule(jobs, n_requests=10, tenants=["t0", "t1"], seed=7)
        b = build_schedule(jobs, n_requests=10, tenants=["t0", "t1"], seed=7)
        assert a == b
        assert {p["tenant"] for p in a} == {"t0", "t1"}


# ------------------------------------------------------------------ scheduler


def _run(coro):
    return asyncio.run(coro)


class TestFairScheduler:
    def test_priority_order_within_tenant(self):
        async def body():
            sched = FairScheduler(1)
            order: list[str] = []

            def make(label):
                async def work(token):
                    order.append(label)
                    return label

                return work

            reqs = [
                sched.submit(make("low"), priority=0),
                sched.submit(make("high"), priority=2),
                sched.submit(make("mid"), priority=1),
            ]
            sched.start()
            await asyncio.gather(*(r.future for r in reqs))
            await sched.stop()
            return order

        assert _run(body()) == ["high", "mid", "low"]

    def test_weighted_round_robin(self):
        async def body():
            sched = FairScheduler(1, weights={"a": 2})
            order: list[str] = []

            def make(label):
                async def work(token):
                    order.append(label)

                return work

            for label in ("a1", "a2", "a3"):
                sched.submit(make(label), tenant="a")
            reqs = [sched.submit(make(label), tenant="b") for label in ("b1", "b2", "b3")]
            sched.submit(make("a-last"), tenant="a")
            sched.start()
            await asyncio.sleep(0)
            while sched.queued() or sched.stats()["running"]:
                await asyncio.sleep(0.01)
            await sched.stop()
            return order

        order = _run(body())
        # tenant a (weight 2) gets two dispatches per cycle, b (weight 1) one
        assert order[:3] == ["a1", "a2", "b1"]
        assert set(order) == {"a1", "a2", "a3", "a-last", "b1", "b2", "b3"}

    def test_cancelled_queued_request_never_dispatches(self):
        async def body():
            sched = FairScheduler(1)
            release = asyncio.Event()
            ran: list[str] = []

            async def blocker(token):
                await release.wait()
                ran.append("blocker")

            async def victim_work(token):  # pragma: no cover - must not run
                ran.append("victim")

            blocker_req = sched.submit(blocker)
            victim = sched.submit(victim_work)
            sched.start()
            await asyncio.sleep(0.01)  # blocker occupies the only slot
            victim.token.cancel()
            release.set()
            await blocker_req.future
            with pytest.raises(RequestCancelled):
                await victim.future
            stats = sched.stats()
            await sched.stop()
            return ran, stats

        ran, stats = _run(body())
        assert ran == ["blocker"]
        assert stats["cancelled_queued"] == 1
        assert stats["dispatched"] == 1

    def test_stop_resolves_queued_requests(self):
        """stop() answers every still-queued request with RequestCancelled
        at once and never dispatches it; the running one finishes."""

        async def body():
            sched = FairScheduler(1)
            release = asyncio.Event()

            async def blocker(token):
                await release.wait()
                return "done"

            async def never(token):  # pragma: no cover - must not run
                raise AssertionError("dispatched after stop")

            running = sched.submit(blocker)
            queued = [sched.submit(never, tenant=t) for t in ("a", "b")]
            sched.start()
            await asyncio.sleep(0.01)  # blocker occupies the only slot
            stopping = asyncio.ensure_future(sched.stop())
            await asyncio.sleep(0)
            settled = [req.future.done() for req in queued]
            release.set()
            await asyncio.wait_for(stopping, timeout=5)
            errors = [
                req.future.exception() if req.future.done() else None
                for req in queued
            ]
            return settled, errors, running.future.result(), sched.stats()

        settled, errors, result, stats = _run(body())
        assert settled == [True, True]
        assert all(isinstance(exc, RequestCancelled) for exc in errors)
        assert result == "done"
        assert stats["cancelled_queued"] == 2
        assert stats["dispatched"] == 1 and stats["queued"] == 0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            FairScheduler(0)
        with pytest.raises(ValueError):
            FairScheduler(1, weights={"a": 0})


# --------------------------------------------------------------- singleflight


class TestSingleflight:
    def test_join_coalesces_and_leave_refcounts(self):
        async def body():
            sf = Singleflight()
            flight, leader = sf.join("d1")
            assert leader and len(sf) == 1
            same, second_leader = sf.join("d1")
            assert same is flight and not second_leader
            assert sf.coalesced == 1
            sf.resolve(flight, "result")
            assert len(sf) == 0
            sf.leave(flight)
            sf.leave(flight)
            assert not flight.token.cancelled  # resolved before last leave
            return await flight.future

        assert _run(body()) == "result"

    def test_last_leave_fires_cancel_token(self):
        async def body():
            sf = Singleflight()
            flight, _ = sf.join("d2")
            other, _ = sf.join("d2")
            sf.leave(flight)
            assert not flight.token.cancelled  # one waiter still attached
            sf.leave(other)
            assert flight.token.cancelled
            assert sf.cancelled_flights == 1

        _run(body())


# -------------------------------------------------------- service end to end


def _request(kernel="sor", **kw):
    return CompileRequest.from_dict({"kernel": kernel, "page_size": 2, **kw})


class TestCompileService:
    def test_identical_concurrent_requests_compile_once(self, tmp_path, monkeypatch):
        """N identical concurrent requests must trigger exactly one mapper
        invocation; everyone gets the identical bytes."""
        import repro.serve.service as service_mod

        calls: list[str] = []
        real = service_mod.compile_job

        def counting(job, search=None):
            calls.append(job.kernel)
            return real(job, search=search)

        monkeypatch.setattr(service_mod, "compile_job", counting)

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=2)
            async with CompileService(config) as service:
                results = await asyncio.gather(
                    *(service.submit(_request()) for _ in range(6))
                )
                stats = service.stats()
            return results, stats

        results, stats = _run(body())
        assert len(calls) == 1
        assert all(r.ok for r in results)
        assert len({r.body for r in results}) == 1
        assert sorted(r.source for r in results) == ["coalesced"] * 5 + ["compiled"]
        assert stats["compiles"] == 1 and stats["coalesced"] == 5
        assert stats["singleflight"]["flights_started"] == 1

    def test_distinct_requests_all_compile(self, tmp_path):
        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=2)
            async with CompileService(config) as service:
                results = await asyncio.gather(
                    service.submit(_request("sor")),
                    service.submit(_request("mpeg")),
                )
                # a repeat after resolution is a store hit, not a coalesce
                warm = await service.submit(_request("sor"))
                stats = service.stats()
            return results, warm, stats

        results, warm, stats = _run(body())
        assert all(r.ok for r in results)
        assert warm.ok and warm.source == "hit"
        assert stats["compiles"] == 2 and stats["hits"] == 1

    def test_unknown_kernel_is_structured_error(self, tmp_path):
        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with CompileService(config) as service:
                result = await service.submit(_request("no-such-kernel"))
                stats = service.stats()
            return result, stats

        result, stats = _run(body())
        assert not result.ok
        assert result.error == "WorkloadError"
        assert stats["errors"] == 1

    def test_cancel_queued_request_drops_compile(self, tmp_path, monkeypatch):
        """Cancelling the only waiter of a queued compile drops it: the
        mapper never runs for it and nothing lands in the store."""
        import repro.serve.service as service_mod

        real = service_mod.compile_job

        def slow(job, search=None):
            time.sleep(0.3)
            return real(job, search=search)

        monkeypatch.setattr(service_mod, "compile_job", slow)

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with CompileService(config) as service:
                leader = asyncio.ensure_future(service.submit(_request("sor")))
                await asyncio.sleep(0.1)  # leader occupies the only slot
                victim = asyncio.ensure_future(
                    service.submit(_request("mpeg", request_id="victim"))
                )
                await asyncio.sleep(0.05)
                assert await service.cancel("victim")
                res_victim = await victim
                res_leader = await leader
                stats = service.stats()
            return res_leader, res_victim, stats

        res_leader, res_victim, stats = _run(body())
        assert res_leader.ok
        assert not res_victim.ok and res_victim.error == "RequestCancelled"
        assert stats["cancelled"] == 1
        assert stats["store"]["puts"] == 1  # only the leader's artifact
        assert stats["scheduler"]["cancelled_queued"] == 1

    def test_close_answers_queued_miss(self, tmp_path, monkeypatch):
        """Closing the service while a miss is queued behind a running
        compile returns, and the queued request gets one RequestCancelled
        answer; the running compile finishes and is stored."""
        import threading

        import repro.serve.service as service_mod

        real = service_mod.compile_job
        release = threading.Event()

        def gated(job, search=None):
            release.wait(10)
            return real(job, search=search)

        monkeypatch.setattr(service_mod, "compile_job", gated)

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            service = await CompileService(config).start()
            running = asyncio.ensure_future(service.submit(_request("sor")))
            await asyncio.sleep(0.1)  # sor occupies the only slot
            queued = asyncio.ensure_future(service.submit(_request("mpeg")))
            await asyncio.sleep(0.05)
            closing = asyncio.ensure_future(service.close())
            await asyncio.sleep(0.05)
            release.set()
            await asyncio.wait_for(closing, timeout=10)
            results = await asyncio.wait_for(
                asyncio.gather(running, queued), timeout=5
            )
            return results, service.stats()

        (res_running, res_queued), stats = _run(body())
        assert res_running.ok and res_running.source == "compiled"
        assert not res_queued.ok and res_queued.error == "RequestCancelled"
        assert stats["scheduler"]["cancelled_queued"] == 1
        assert stats["store"]["puts"] == 1

    def test_cancel_unknown_request_is_false(self, tmp_path):
        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with CompileService(config) as service:
                return await service.cancel("nope")

        assert _run(body()) is False


class TestMidLadderCancellation:
    def test_preset_token_stops_ladder(self):
        """A fired cancel token stops the portfolio ladder at a probe
        boundary with CancelledSearch — which is deliberately NOT a
        MappingError, so a cancelled compile can never be stored as a
        bogus 'unmappable' artifact."""
        from repro.util.errors import MappingError

        assert not issubclass(CancelledSearch, MappingError)
        token = CancelToken()
        token.cancel()
        with SearchContext.create(2) as ctx:
            view = ctx.for_request(token.is_set)
            assert view.executor is ctx.executor  # shares the warm pool
            with pytest.raises(CancelledSearch):
                compile_job(CompileJob("sor", 4, 2), search=view)


# ----------------------------------------------------- HTTP server + parity


def _offline_bytes(job: CompileJob, root) -> bytes:
    store = ArtifactStore(root)
    compile_many([job], store=store)
    return store.path_for(job_key(job)).read_bytes()


class TestServeServer:
    def test_served_bytes_match_offline_compile_many(self, tmp_path):
        """The tentpole's acceptance bar: responses byte-identical to
        offline compile_many output, at any concurrency."""
        payloads = [
            {"kernel": "sor", "size": 4, "page_size": 2},
            {"kernel": "mpeg", "size": 4, "page_size": 2},
        ]

        async def body():
            config = ServiceConfig(
                store_root=str(tmp_path / "served"), workers=1, slots=2
            )
            async with ServeServer(config) as server:
                async with ServeClient(server.host, server.port) as client:
                    out = {}
                    for payload in payloads:
                        # twice each: a cold compile and a warm hit must
                        # serve the same bytes
                        status, headers, cold = await client.compile(payload)
                        assert status == 200
                        status, headers, warm = await client.compile(payload)
                        assert status == 200
                        assert headers["x-repro-source"] == "hit"
                        assert cold == warm
                        out[payload["kernel"]] = cold
            return out

        served = _run(body())
        for payload in payloads:
            job = CompileJob(payload["kernel"], 4, 2)
            offline = _offline_bytes(job, tmp_path / f"offline-{job.kernel}")
            assert served[job.kernel] == offline

    def test_http_endpoints_and_errors(self, tmp_path):
        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with ServeServer(config) as server:
                async with ServeClient(server.host, server.port) as client:
                    health = await client.request("GET", "/healthz")
                    stats = await client.request("GET", "/stats")
                    missing = await client.request("GET", "/no-such-route")
                    bad_method = await client.request("GET", "/compile")
                    unknown_kernel = await client.compile({"kernel": "nope"})
                    bad_field = await client.compile({"kernel": "sor", "oops": 1})
                    # unservable parameters are refused before any key
                    # resolution or scheduler slot, never a 500
                    refused = [
                        await client.compile({"kernel": "mpeg", **patch})
                        for patch in (
                            {"backend": "flat"},
                            {"seed": -1},
                            {"size": 1},
                            {"size": 512},
                        )
                    ]
                    # a JSON body that is not an object is malformed, not a 500
                    bad_cancels = [
                        await client.request("POST", "/cancel", raw)
                        for raw in ([1], "x")
                    ]
                    rpc = await client.request(
                        "POST", "/rpc", {"jsonrpc": "2.0", "id": 1, "method": "ping"}
                    )
            return (
                health,
                stats,
                missing,
                bad_method,
                unknown_kernel,
                bad_field,
                refused,
                bad_cancels,
                rpc,
            )

        import json

        (
            health, stats, missing, bad_method, unknown, bad_field, refused,
            bad_cancels, rpc,
        ) = _run(body())
        assert health[0] == 200 and json.loads(health[2]) == {"ok": True}
        assert stats[0] == 200 and "requests" in json.loads(stats[2])
        assert missing[0] == 404
        assert bad_method[0] == 405
        assert unknown[0] == 404
        assert json.loads(unknown[2])["error"] == "WorkloadError"
        assert bad_field[0] == 400
        for status, _headers, raw in refused + bad_cancels:
            assert status == 400, raw
            assert json.loads(raw)["error"] == "ProtocolError"
        assert rpc[0] == 404  # no second transport: an unknown route
