"""Tests for the speculative (II, attempt) portfolio engine.

The engine's whole contract is *determinism under races*: whatever order
probes complete in, the reduction must pick the success with the smallest
(ii, attempt) — the rung the serial ladder would have returned — so the
artifact bytes never depend on worker count or scheduling luck.  The
tests here attack that contract directly:

* a ``ScriptedExecutor`` completes probes in an adversarial order (high
  rungs first) with fabricated verdicts, proving canonical reduction
  beats completion order and that cancellation prunes strictly above the
  winner;
* the rng-replay helper is checked against the serial ladder's actual
  perturbation stream;
* ``MapperSpec``/``ProbeTask`` are round-tripped through ``pickle`` and a
  real two-worker process pool is raced against the in-process ladder.
"""

from __future__ import annotations

import pickle
import threading
import time
from concurrent.futures import Future

import pytest

from repro.arch.cgra import CGRA
from repro.compiler.ems import EMSMapper, MapperConfig, map_dfg
from repro.compiler.search import (
    MapperSpec,
    ProbeResult,
    ProbeTask,
    SearchContext,
    WorkerBudget,
    portfolio_map,
    run_probe,
)
from repro.compiler.stats import job_counters
from repro.kernels import get_kernel
from repro.util.errors import MappingError
from repro.util.rng import make_rng


def _sor():
    return get_kernel("sor").build()


# ------------------------------------------------------------------- rng replay


class TestAttemptOrderReplay:
    """attempt_order(rank) must reproduce the serial ladder's op order at
    that lattice point, including the shared-rng perturbation stream."""

    def test_replay_matches_serial_stream(self):
        dfg = _sor()
        mapper = EMSMapper(CGRA(4, 4))
        cfg = mapper.config
        start_ii = mapper.ladder_start_ii(dfg)
        orders = mapper.attempt_orders(dfg)

        # walk the serial loop for a few rungs, drawing from one stream
        rng = make_rng(cfg.seed)
        serial: dict[tuple[int, int], list[int]] = {}
        for ii in range(start_ii, start_ii + 3):
            for attempt in range(cfg.attempts_per_ii):
                if attempt < len(orders):
                    order = list(orders[attempt])
                else:
                    order = list(orders[0])
                    mapper._perturb(order, rng)
                serial[(ii, attempt)] = order

        # replay every point independently, in a scrambled order
        points = sorted(serial, key=lambda p: (-p[0], -p[1]))
        for ii, attempt in points:
            replayed = mapper.attempt_order(orders, start_ii, ii, attempt)
            assert replayed == serial[(ii, attempt)], (ii, attempt)

    def test_base_attempts_do_not_touch_rng(self):
        dfg = _sor()
        mapper = EMSMapper(CGRA(4, 4))
        orders = mapper.attempt_orders(dfg)
        for attempt in range(len(orders)):
            assert mapper.attempt_order(orders, 4, 9, attempt) == orders[attempt]


# ------------------------------------------------------------------ mapper spec


class TestMapperSpec:
    def test_base_spec_rebuilds_equivalent_mapper(self):
        dfg = _sor()
        cgra = CGRA(4, 4)
        spec = MapperSpec.for_base(cgra, MapperConfig())
        rebuilt = spec.build().map(dfg)
        direct = EMSMapper(cgra, config=MapperConfig()).map(dfg)
        assert rebuilt.ii == direct.ii
        assert rebuilt.placements == direct.placements
        assert rebuilt.routes == direct.routes

    def test_paged_spec_rebuilds_equivalent_mapper(self):
        from repro.core.paging import PageLayout

        dfg = _sor()
        cgra = CGRA(4, 4)
        layout = PageLayout(cgra, (1, 4))
        spec = MapperSpec.for_paged(cgra, layout, MapperConfig())
        assert spec.page_shape == (1, 4)
        assert spec.num_pages == layout.num_pages
        rebuilt = spec.build()
        assert sorted(rebuilt.allowed_pes) == sorted(layout.page_of)
        start = rebuilt.ladder_start_ii(dfg)
        order = rebuilt.attempt_orders(dfg)[0]
        probe = rebuilt._try_map(dfg, start, order)
        # pin against the caller-side paged mapper wiring
        from repro.compiler.constraints import paged_bus_key, ring_hop_filter

        direct = EMSMapper(
            cgra,
            allowed_pes=[pe for pe in cgra.coords() if pe in layout.page_of],
            hop_allowed=ring_hop_filter(layout),
            mem_slots_per_cycle=layout.num_pages
            * layout.shape[0]
            * cgra.mem_ports_per_row,
            bus_key=paged_bus_key(layout),
            pe_rank=lambda pe: layout.page_of[pe],
            config=MapperConfig(),
        )
        ref = direct._try_map(dfg, start, order)
        assert (probe is None) == (ref is None)
        if probe is not None:
            assert probe.placements == ref.placements
            assert probe.routes == ref.routes

    def test_probe_task_round_trips_pickle(self):
        dfg = _sor()
        spec = MapperSpec.for_base(CGRA(4, 4), MapperConfig())
        task = ProbeTask(
            spec=spec,
            dfg=dfg,
            dfg_fp=dfg.fingerprint(),
            start_ii=2,
            ii=2,
            attempt=0,
        )
        back = pickle.loads(pickle.dumps(task))
        assert back.spec == spec
        assert back.dfg.fingerprint() == dfg.fingerprint()
        # the unpickled task is runnable and the verdict carries its point
        res = run_probe(back)
        assert (res.ii, res.attempt) == (2, 0)
        assert res.seconds >= 0.0


# ------------------------------------------------- scripted-completion harness


class ScriptedExecutor:
    """An executor that completes probes in an adversarial, scripted order.

    ``submit`` never runs the probe function: each (ii, attempt) gets a
    fabricated success/fail verdict from *verdicts*, and a pump thread
    releases results strictly in *release_order* — regardless of the
    canonical order — so tests can make a high rung land first.  Futures
    stay PENDING until released, which keeps them cancellable exactly like
    a queued process-pool probe.  ``futures`` keeps every submitted
    future by (ii, attempt), so tests can check each probe's fate.
    """

    def __init__(self, verdicts, release_order, running_points=()):
        self.verdicts = dict(verdicts)  # (ii, attempt) -> Mapping | None
        self.release_order = list(release_order)
        # points whose futures report "already running" at submit time, so
        # the engine's cancel fails on them — like a live pool probe
        self.running = set(running_points)
        self._held: dict[tuple[int, int], Future] = {}
        self.futures: dict[tuple[int, int], Future] = {}
        self._lock = threading.Condition()
        self._closed = False
        self._pump = threading.Thread(target=self._run, daemon=True)
        self._pump.start()

    def submit(self, fn, task):
        fut: Future = Future()
        point = (task.ii, task.attempt)
        if point in self.running:
            fut.set_running_or_notify_cancel()
        with self._lock:
            self._held[point] = fut
            self.futures[point] = fut
            self._lock.notify_all()
        return fut

    def _release(self, point) -> None:
        fut = self._held.pop(point)
        if point not in self.running and not fut.set_running_or_notify_cancel():
            return  # cancelled while queued, like a real pool
        ii, attempt = point
        fut.set_result(
            ProbeResult(
                ii=ii,
                attempt=attempt,
                mapping=self.verdicts[point],
                seconds=0.01,
                counters={},
            )
        )

    def _run(self) -> None:
        for point in self.release_order:
            with self._lock:
                while point not in self._held and not self._closed:
                    self._lock.wait(timeout=0.05)
                if self._closed:
                    return
                self._release(point)
            # pace releases so the engine all but certainly consumes one
            # verdict before the next lands (labels stay deterministic)
            time.sleep(0.05)
        # drain anything the script didn't name, in canonical order, so a
        # buggy engine deadlocks loudly in the drain instead of hanging;
        # a correct engine cancels/returns long before the grace expires
        deadline = time.monotonic() + 5.0
        time.sleep(0.5)
        while time.monotonic() < deadline:
            with self._lock:
                if self._closed:
                    return
                for point in sorted(self._held):
                    self._release(point)
            time.sleep(0.01)

    def shutdown(self, **_kw) -> None:
        with self._lock:
            self._closed = True
            self._lock.notify_all()


class _FakeMapping:
    """Stand-in success verdict; the engine only stores it, rebinds its
    ``dfg``/``cgra`` attributes and returns it."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.dfg = None
        self.cgra = None


def _scripted_ctx(verdicts, release_order, workers, running_points=()):
    return SearchContext(
        workers=workers,
        executor=ScriptedExecutor(verdicts, release_order, running_points),
        budget=WorkerBudget(workers),
        owns_executor=True,
    )


def _spec_and_start(max_ii=None, attempts_per_ii=6):
    dfg = _sor()
    cgra = CGRA(4, 4)
    cfg = MapperConfig(
        attempts_per_ii=attempts_per_ii,
        **({"max_ii": max_ii} if max_ii is not None else {}),
    )
    spec = MapperSpec.for_base(cgra, cfg)
    start = spec.build().ladder_start_ii(dfg)
    return spec, dfg, cgra, start


# ------------------------------------------------------------ canonical winner


def _race(spec, dfg, cgra, ctx):
    """Run one ladder inside a job counter scope; returns the winner and
    the scope's :class:`~repro.compiler.stats.SearchStats`."""
    with job_counters() as (_counters, search):
        result = portfolio_map(spec, dfg, cgra=cgra, ctx=ctx)
    return result, search


class TestCanonicalReduction:
    def test_late_low_attempt_beats_early_high_attempt(self):
        """(start, 1) succeeds *first*; (start, 0) succeeds later and must
        still win — reduction is by canonical order, not completion order."""
        spec, dfg, cgra, start = _spec_and_start()
        win, lose = _FakeMapping("canonical"), _FakeMapping("fastest")
        verdicts = {(start, 0): win, (start, 1): lose}
        ctx = _scripted_ctx(verdicts, [(start, 1), (start, 0)], workers=2)
        with ctx:
            result, search = _race(spec, dfg, cgra, ctx)
        assert result is win
        assert result.dfg is dfg and result.cgra is cgra
        futures = ctx.executor.futures
        assert futures[(start, 0)].result().mapping is win
        assert futures[(start, 1)].result().mapping is lose
        # the early high-attempt success is not the winner; depending on
        # when the winner's verdict arrived it is counted as a useful
        # verdict (landed first) or as waste (batched with the winner)
        assert search.ladders == 1
        assert search.probes_launched == 2
        assert search.probes_cancelled == 0
        assert search.probes_wasted in (0, 1)
        assert search.useful_seconds > 0

    def test_high_ii_finishing_first_loses_and_prunes(self):
        """A success on II+1 lands while the II rung is still in flight:
        it must cancel only the rungs *above* itself, and the later II-rung
        success must still win the reduction."""
        spec, dfg, cgra, start = _spec_and_start(attempts_per_ii=2)
        win = _FakeMapping("low-ii")
        early = _FakeMapping("high-ii")
        verdicts = {
            (start, 0): None,  # fail
            (start, 1): win,
            (start + 1, 0): early,
            (start + 1, 1): _FakeMapping("never-used"),
        }
        # (start+1, 0) completes first; then the start rung resolves
        release = [(start + 1, 0), (start, 0), (start, 1)]
        ctx = _scripted_ctx(verdicts, release, workers=4)
        with ctx:
            result, search = _race(spec, dfg, cgra, ctx)
        assert result is win  # the winning attempt on the start rung
        futures = ctx.executor.futures
        assert set(futures) == set(verdicts)
        assert futures[(start + 1, 0)].result().mapping is early
        assert futures[(start, 0)].result().mapping is None
        # the rung above the early success never ran: cancelled while queued
        assert futures[(start + 1, 1)].cancelled()
        # the early success completed before the win: useful, not waste
        assert search.probes_launched == 4
        assert search.probes_cancelled == 1
        assert search.probes_wasted == 0

    def test_running_probe_above_winner_is_abandoned_and_charged(self):
        """A probe already *running* when a lower success lands cannot be
        cancelled: the ladder abandons it, counts it as speculation waste,
        and its wall clock is billed to the global account when it finally
        drains back into the pool."""
        from repro.compiler.stats import SEARCH

        spec, dfg, cgra, start = _spec_and_start(attempts_per_ii=2)
        win = _FakeMapping("winner")
        verdicts = {
            (start, 0): win,
            (start, 1): None,
            (start + 1, 0): None,
            (start + 1, 1): None,
        }
        # the winner lands while (start, 1) is running; (start+1, *) are
        # still queued, so they cancel cleanly but (start, 1) cannot
        release = [(start, 0), (start, 1)]
        before = SEARCH.snapshot()
        ctx = _scripted_ctx(
            verdicts, release, workers=4, running_points={(start, 1)}
        )
        with ctx:
            result, search = _race(spec, dfg, cgra, ctx)
            assert result is win
            futures = ctx.executor.futures
            assert not futures[(start, 1)].cancelled()  # abandoned, not cancelled
            assert futures[(start + 1, 0)].cancelled()
            assert futures[(start + 1, 1)].cancelled()
            assert search.probes_launched == 4
            assert search.probes_wasted == 1
            assert search.probes_cancelled == 2
            # the abandoned probe's verdict arrives after the ladder ended;
            # its seconds land in the global waste account via the callback
            assert search.wasted_seconds == 0
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if SEARCH.delta(before)["wasted_seconds"] > 0:
                    break
                time.sleep(0.01)
            assert SEARCH.delta(before)["wasted_seconds"] > 0
            assert futures[(start, 1)].result().mapping is None

    def test_exhausted_lattice_raises_mapping_error(self):
        spec, dfg, cgra, start = _spec_and_start(attempts_per_ii=2)
        # clamp the ladder to two rungs and fail every point
        cfg = MapperConfig(attempts_per_ii=2, max_ii=start + 1)
        spec = MapperSpec.for_base(CGRA(4, 4), cfg)
        verdicts = {
            (ii, a) for ii in (start, start + 1) for a in (0, 1)
        }
        verdicts = {p: None for p in verdicts}
        ctx = _scripted_ctx(verdicts, sorted(verdicts), workers=2)
        with ctx, pytest.raises(MappingError, match="could not map"):
            portfolio_map(spec, dfg, cgra=cgra, ctx=ctx)


# --------------------------------------------------------------- worker budget


class TestWorkerBudget:
    def test_blocking_and_speculative_acquire(self):
        b = WorkerBudget(2)
        assert b.acquire()
        assert b.acquire(blocking=False)
        assert not b.acquire(blocking=False)  # pool saturated
        b.release()
        assert b.acquire(blocking=False)
        with pytest.raises(ValueError):
            WorkerBudget(0)


# ------------------------------------------------------------- real pool smoke


class TestRealPoolParity:
    def test_context_requires_two_workers(self):
        with pytest.raises(ValueError):
            SearchContext.create(1)

    def test_two_worker_pool_matches_serial_ladder(self):
        """End-to-end: the speculative engine over a real process pool
        returns the exact mapping of the serial in-process ladder."""
        dfg = _sor()
        cgra = CGRA(4, 4)
        serial = map_dfg(dfg, cgra)
        with SearchContext.create(2) as ctx:
            parallel = map_dfg(dfg, cgra, search=ctx)
        assert parallel.ii == serial.ii
        assert parallel.placements == serial.placements
        assert parallel.routes == serial.routes
        assert parallel.dfg is dfg and parallel.cgra is cgra
