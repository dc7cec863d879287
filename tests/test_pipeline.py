"""Tests for the compilation pipeline: fingerprints, the CompiledKernel
artifact, the content-addressed store, and the compile_many() fan-out."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.cgra import CGRA
from repro.compiler.ems import MapperConfig
from repro.dfg.graph import DFG
from repro.kernels import get_kernel
from repro.pipeline import (
    ArtifactKey,
    ArtifactStore,
    CompiledKernel,
    CompileJob,
    compile_job,
    compile_many,
    job_key,
)


# ---------------------------------------------------------------- fingerprints


class TestFingerprints:
    def test_dfg_fingerprint_stable(self):
        assert get_kernel("sor").build().fingerprint() == get_kernel("sor").build().fingerprint()

    def test_dfg_fingerprint_ignores_names(self):
        d = get_kernel("sor").build()
        renamed = DFG()
        remap = {}
        for op in d.ops.values():
            o = renamed.add_op(op.opcode, name=f"x{op.id}", immediate=op.immediate,
                               memref=op.memref)
            remap[op.id] = o.id
        for e in d.edges.values():
            renamed.add_edge(remap[e.src], remap[e.dst], e.operand_index,
                             distance=e.distance, init=e.init)
        assert renamed.fingerprint() == d.fingerprint()

    def test_dfg_fingerprint_changes_on_mutation(self):
        fps = {get_kernel(k).build().fingerprint() for k in ("sor", "laplace", "wavelet")}
        assert len(fps) == 3

    def test_arch_fingerprint(self):
        assert CGRA(4, 4).fingerprint() == CGRA(4, 4).fingerprint()
        assert CGRA(4, 4).fingerprint() != CGRA(6, 6).fingerprint()
        assert CGRA(4, 4).fingerprint() != CGRA(4, 4, rf_depth=16).fingerprint()
        assert CGRA(4, 4).fingerprint() != CGRA(4, 4, torus=True).fingerprint()

    def test_mapper_fingerprint(self):
        assert MapperConfig().fingerprint() == MapperConfig().fingerprint()
        assert MapperConfig(seed=1).fingerprint() != MapperConfig(seed=2).fingerprint()

    def test_job_key_sensitivity(self):
        base = job_key(CompileJob("sor", 4, 4))
        assert job_key(CompileJob("sor", 4, 4)) == base
        # each knob lands in a different fingerprint component
        assert job_key(CompileJob("laplace", 4, 4)).dfg_fp != base.dfg_fp
        assert job_key(CompileJob("sor", 6, 4)).arch_fp != base.arch_fp
        assert job_key(CompileJob("sor", 4, 2)).arch_fp != base.arch_fp
        assert job_key(CompileJob("sor", 4, 4, seed=9)).mapper_fp != base.mapper_fp

    def test_key_digest_shape(self):
        key = job_key(CompileJob("sor", 4, 4))
        assert len(key.digest) == 64
        assert str(key) == f"{key.dfg_fp}/{key.arch_fp}/{key.mapper_fp}"


# ------------------------------------------------------- round-trip (property)

_hex = st.text("0123456789abcdef", min_size=16, max_size=16)
_coords = st.tuples(
    st.integers(0, 7), st.integers(0, 7), st.integers(0, 63)
)


def _artifacts():
    placements = st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 7), st.integers(0, 7),
                  st.integers(0, 63)),
        max_size=8,
        unique_by=lambda p: p[0],
    ).map(lambda ps: tuple(sorted(ps)))
    routes = st.lists(
        st.tuples(
            st.integers(0, 99),
            st.lists(_coords, max_size=4).map(tuple),
            st.one_of(st.none(), _coords),
        ),
        max_size=8,
        unique_by=lambda r: r[0],
    ).map(lambda rs: tuple(sorted(rs, key=lambda r: r[0])))
    steady = st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 100), st.integers(1, 8)),
        max_size=8,
        unique_by=lambda s: s[0],
    ).map(lambda ss: tuple(sorted(ss)))
    return st.builds(
        CompiledKernel,
        kernel=st.sampled_from(["sor", "laplace", "fft", "synthetic"]),
        rows=st.integers(2, 8),
        cols=st.integers(2, 8),
        rf_depth=st.integers(1, 32),
        mem_ports_per_row=st.integers(1, 4),
        page_shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        layout_wrap=st.booleans(),
        seed=st.integers(0, 2**31),
        dfg_fp=_hex,
        arch_fp=_hex,
        mapper_fp=_hex,
        ii_base=st.integers(1, 64),
        unmappable=st.booleans(),
        ii_paged=st.integers(0, 64),
        pages_used=st.integers(0, 16),
        wrap_used=st.booleans(),
        placements=placements,
        routes=routes,
        steady_ii=steady,
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_artifacts())
    def test_serialize_deserialize_lossless(self, artifact):
        back = CompiledKernel.from_json_dict(artifact.to_json_dict())
        assert back == artifact
        # and re-serialization is byte-identical (canonical form)
        assert back.to_json() == artifact.to_json()

    def test_real_artifact_roundtrip(self):
        artifact, _ = compile_job(CompileJob("sor", 4, 4))
        back = CompiledKernel.from_json_dict(artifact.to_json_dict())
        assert back == artifact
        assert back.steady_table() == artifact.steady_table()
        assert back.profile() == artifact.profile()


# ---------------------------------------------------------- cache correctness


class TestCacheCorrectness:
    def test_cold_equals_warm(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        job = CompileJob("sor", 4, 4)
        cold = compile_many([job], store=store)[0]
        warm = compile_many([job], store=store)[0]
        assert cold == warm
        assert cold.to_json() == warm.to_json()
        assert store.misses == 1 and store.hits == 1

    def test_warm_run_invokes_no_mapper(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        job = CompileJob("sor", 4, 4)
        compile_many([job], store=store)
        # a warm run must not call the mapper at all
        import repro.pipeline.compile as pc

        def boom(*a, **k):  # pragma: no cover - would signal a stale-cache bug
            raise AssertionError("mapper invoked on warm cache")

        monkeypatch.setattr(pc, "compile_job", boom)
        warm = compile_many([job], store=store)
        assert warm[0] is not None
        assert store.misses == 1  # unchanged

    def test_mutation_invalidates(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        base = CompileJob("sor", 4, 4)
        compile_many([base], store=store)
        for other in (
            CompileJob("laplace", 4, 4),   # different DFG
            CompileJob("sor", 6, 4),       # different arch
            CompileJob("sor", 4, 2),       # different page shape
            CompileJob("sor", 4, 4, seed=3),  # different mapper config
        ):
            assert store.get(job_key(other)) is None, other
        assert store.hits == 0

    def test_no_stale_hit_on_key_mismatch(self, tmp_path, caplog):
        # a file whose content disagrees with its address must be discarded
        store = ArtifactStore(tmp_path / "store")
        job = CompileJob("sor", 4, 4)
        artifact = compile_many([job], store=store)[0]
        wrong = ArtifactKey("0" * 16, artifact.arch_fp, artifact.mapper_fp)
        path = store.path_for(wrong)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(artifact.to_json())
        with caplog.at_level("WARNING", logger="repro.pipeline.store"):
            assert store.get(wrong) is None
        assert any("does not match its address" in r.message for r in caplog.records)

    def test_profile_steady_table_preserved(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        artifact = compile_many([CompileJob("sor", 4, 4)], store=store)[0]
        prof = artifact.profile()
        for m, num, den in artifact.steady_ii:
            assert prof.steady_state_ii_of(m) == Fraction(num, den)

    def test_materialize_matches_fingerprint(self):
        artifact, _ = compile_job(CompileJob("sor", 4, 4))
        paged = artifact.materialize(get_kernel("sor").build())
        assert paged.ii == artifact.ii_paged
        assert paged.pages_used == artifact.pages_used
        from repro.util.errors import ArtifactError

        with pytest.raises(ArtifactError):
            artifact.materialize(get_kernel("laplace").build())


# ------------------------------------------------------------ parallel fan-out


class TestParallelFanout:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_match_serial_byte_for_byte(self, tmp_path, workers):
        # speculative (II, attempt) probes race out of order across the
        # pool; canonical reduction must keep the artifacts byte-identical
        jobs = [CompileJob(k, 4, 4) for k in ("sor", "laplace", "wavelet")]
        serial = compile_many(jobs, store=ArtifactStore(tmp_path / "s"), workers=1)
        par = compile_many(
            jobs, store=ArtifactStore(tmp_path / "p"), workers=workers
        )
        assert [a.to_json() for a in serial] == [a.to_json() for a in par]

    def test_speculative_compile_records_search_stats(self):
        from repro.compiler.search import SearchContext
        from repro.compiler.stats import SearchStats

        job = CompileJob("sor", 4, 4)
        serial_artifact, serial_stats = compile_job(job)
        assert serial_stats.search is None
        with SearchContext.create(2) as ctx:
            artifact, stats = compile_job(job, search=ctx)
        assert isinstance(stats.search, SearchStats)
        # one ladder for the base mapping, at least one for the paged one
        assert stats.search.ladders >= 2
        assert stats.search.probes_launched >= stats.search.ladders
        assert 0.0 < stats.search.speculation_efficiency <= 1.0
        # and the speculative artifact matches the serial one byte for byte
        assert artifact.to_json() == serial_artifact.to_json()

    @pytest.mark.parametrize(
        "spelling",
        [
            CompileJob("sor", 4, 4),
            CompileJob("sor", 4, 4, arch="4x4"),
            CompileJob("sor", 4, 4, mapper=MapperConfig(seed=0, attempts_per_ii=4)),
        ],
        ids=["plain", "arch", "mapper"],
    )
    def test_duplicate_jobs_compiled_once(self, tmp_path, spelling):
        # dedup is on the content address, not on CompileJob equality
        jobs = [CompileJob("sor", 4, 4), spelling, spelling]
        assert len({job_key(job).digest for job in jobs}) == 1
        store = ArtifactStore(tmp_path / "store")
        out = compile_many(jobs, store=store)
        assert len(out) == 3
        assert out[0] == out[1] == out[2]
        assert store.misses == 1 and store.puts == 1

    def test_compile_time_counted(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        compile_many([CompileJob("sor", 4, 4)], store=store)
        assert store.compile_seconds > 0
        warm_before = store.compile_seconds
        compile_many([CompileJob("sor", 4, 4)], store=store)
        assert store.compile_seconds == warm_before  # hits cost nothing


# ------------------------------------------------------- store thread safety


class TestStoreConcurrency:
    def test_concurrent_same_key_puts(self, tmp_path):
        """Threads persisting the same key race only on the final atomic
        replace: unique temp names mean no thread can clobber another's
        half-written file, every put succeeds, and the stored artifact
        stays readable throughout."""
        import threading

        store = ArtifactStore(tmp_path / "store")
        artifact = compile_many([CompileJob("sor", 4, 4)])[0]
        n_threads, per_thread = 8, 5
        barrier = threading.Barrier(n_threads)
        failures: list[BaseException] = []

        def hammer():
            try:
                barrier.wait()
                for _ in range(per_thread):
                    assert store.put(artifact) is not None
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                failures.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert store.puts == n_threads * per_thread
        # no temp-file debris, and the artifact reads back intact
        leftovers = [p for p in (tmp_path / "store").rglob("*.tmp")]
        assert leftovers == []
        assert store.get(artifact.key) == artifact

    def test_counters_locked_under_threads(self, tmp_path):
        """hit/miss/put/compile_seconds increments never lose updates when
        hammered from concurrent threads (the PR-9 merge discipline)."""
        import threading

        store = ArtifactStore(tmp_path / "store")
        n_threads, per_thread = 8, 50
        barrier = threading.Barrier(n_threads)

        def hammer(tid: int):
            barrier.wait()
            for i in range(per_thread):
                store.note_compile_time(1.0)
                key = ArtifactKey(f"dfg-{tid}-{i}", "arch", "mapper")
                assert store.get(key) is None  # counted miss, under the lock

        threads = [
            threading.Thread(target=hammer, args=(tid,)) for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        assert store.compile_seconds == float(total)
        assert store.misses == total
        assert store.stats()["misses"] == total
        store.reset_stats()
        assert store.stats() == {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "compile_seconds": 0.0,
        }


# ------------------------------------------------------ batch fault isolation


class TestBatchOutcomes:
    def test_failures_isolated_per_job(self, tmp_path):
        from repro.util.errors import WorkloadError

        store = ArtifactStore(tmp_path / "store")
        jobs = [
            CompileJob("sor", 4, 2),
            CompileJob("no-such-kernel", 4, 2),
            CompileJob("mpeg", 4, 2),
        ]
        # the batch surfaces the failing job's original error...
        with pytest.raises(WorkloadError):
            compile_many(jobs, store=store)
        # ...only after its siblings still compiled and were stored
        assert store.puts == 2
        # and the good jobs' artifacts are byte-identical to a clean batch
        clean = compile_many([jobs[0], jobs[2]])
        for job, artifact in zip((jobs[0], jobs[2]), clean):
            assert store.get(job_key(job)).to_json() == artifact.to_json()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mapper_failure_isolated_per_job(self, tmp_path, monkeypatch, workers):
        """A job that fails in the mapper (not at key time) does not stop
        its siblings either; the first failure in input order is raised."""
        import repro.pipeline.compile as pc
        from repro.util.errors import MappingError

        real = pc.compile_job

        def flaky(job, search=None):
            if job.kernel == "sor":
                raise MappingError(f"injected: {job.kernel}")
            return real(job, search=search)

        monkeypatch.setattr(pc, "compile_job", flaky)
        store = ArtifactStore(tmp_path / "store")
        jobs = [
            CompileJob("mpeg", 4, 2),
            CompileJob("sor", 4, 2),
            CompileJob("no-such-kernel", 4, 2),
            CompileJob("wavelet", 4, 2),
        ]
        with pytest.raises(MappingError, match="injected: sor"):
            compile_many(jobs, store=store, workers=workers)
        assert store.puts == 2
        for job in (jobs[0], jobs[3]):
            assert store.get(job_key(job)) is not None

    def test_coordination_threads_bounded(self):
        from repro.pipeline.compile import (
            MAX_COORDINATION_THREADS,
            _coordination_threads,
        )

        assert _coordination_threads(3, 8) == 3  # never more than misses
        assert _coordination_threads(1000, 4) == MAX_COORDINATION_THREADS
        # but never fewer threads than probe workers to feed
        assert _coordination_threads(1000, 64) == 64
