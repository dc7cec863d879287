"""Tests for the experiment harness itself (artifact cache, figure drivers,
CLI registry) — using a small kernel subset so they stay fast."""

from __future__ import annotations

import json

import pytest

from repro.arch.cgra import CGRA
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.fig8 import page_sizes_for, render_fig8, run_fig8
from repro.bench.fig9 import best_improvement, render_fig9, run_fig9
from repro.pipeline import (
    ARTIFACT_VERSION,
    ArtifactStore,
    CompileJob,
    build_profiles,
    compile_kernel,
    job_key,
    make_layout,
)

FAST = ["sor", "laplace", "wavelet"]


@pytest.fixture()
def tmp_store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_store):
        a1 = compile_kernel("sor", 4, 4, store=tmp_store)
        a2 = compile_kernel("sor", 4, 4, store=tmp_store)
        assert a1 == a2
        assert tmp_store.stats()["misses"] == 1
        assert tmp_store.stats()["hits"] == 1
        path = tmp_store.path_for(a1.key)
        assert path.exists()
        assert json.loads(path.read_text())["version"] == ARTIFACT_VERSION

    def test_cache_survives_reload(self, tmp_store):
        compile_kernel("sor", 4, 4, store=tmp_store)
        fresh = ArtifactStore(tmp_store.root)
        key = job_key(CompileJob("sor", 4, 4))
        assert fresh.get(key) is not None
        assert fresh.hits == 1

    def test_version_mismatch_discards(self, tmp_store, caplog):
        compile_kernel("sor", 4, 4, store=tmp_store)
        key = job_key(CompileJob("sor", 4, 4))
        path = tmp_store.path_for(key)
        raw = json.loads(path.read_text())
        raw["version"] = -1
        path.write_text(json.dumps(raw))
        fresh = ArtifactStore(tmp_store.root)
        with caplog.at_level("WARNING", logger="repro.pipeline.store"):
            assert fresh.get(key) is None
        assert fresh.misses == 1
        assert any("incompatible" in r.message for r in caplog.records)

    def test_corrupt_cache_tolerated_and_logged(self, tmp_store, caplog):
        key = job_key(CompileJob("sor", 4, 4))
        path = tmp_store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        with caplog.at_level("WARNING", logger="repro.pipeline.store"):
            assert tmp_store.get(key) is None
        assert any("unreadable" in r.message for r in caplog.records)

    def test_profile_fields(self, tmp_store):
        p = compile_kernel("sor", 4, 4, store=tmp_store).profile()
        assert p.name == "sor"
        assert p.ii_base >= 1 and p.ii_paged >= 1
        assert p.pages_used >= 1

    def test_build_profiles_subset(self, tmp_store):
        profs = build_profiles(4, 4, store=tmp_store, kernels=FAST)
        assert set(profs) == set(FAST)


class TestFigureDrivers:
    def test_page_sizes_per_paper(self):
        assert page_sizes_for(4) == [2, 4]
        assert page_sizes_for(6) == [2, 4, 8]
        assert page_sizes_for(8) == [2, 4, 8]

    def test_fig8_rows_and_render(self, tmp_store):
        rows = run_fig8(4, page_sizes=[4], store=tmp_store, kernels=FAST)
        assert len(rows) == len(FAST)
        text = render_fig8(4, rows)
        assert "sor" in text and "average" in text

    def test_fig9_cells_and_render(self, tmp_store):
        cells = run_fig9(
            4,
            4,
            store=tmp_store,
            kernels=FAST,
            repeats=1,
            thread_counts=(1, 4),
            needs=(0.5,),
        )
        assert len(cells) == 2
        text = render_fig9(4, 4, cells)
        assert "threads" in text
        four = next(c for c in cells if c.n_threads == 4)
        one = next(c for c in cells if c.n_threads == 1)
        assert four.improvement > one.improvement
        assert best_improvement(cells) == max(c.improvement for c in cells)

    def test_fig9_empty_without_kernels(self, tmp_store):
        assert run_fig9(4, 4, store=tmp_store, kernels=[]) == []

    def test_make_layout_square(self):
        lay = make_layout(CGRA(4, 4), 4)
        assert lay.shape == (2, 2)


class TestRegistry:
    def test_all_experiments_named(self):
        for name in (
            "fig8_4x4",
            "fig8_6x6",
            "fig8_8x8",
            "fig9_4x4",
            "fig9_6x6",
            "fig9_8x8",
            "headline",
        ):
            assert name in EXPERIMENTS

    def test_run_experiment_uses_shared_cache(self):
        # the repo-level artifact store is warm (committed), so this is fast
        out = run_experiment("fig8_4x4")
        assert "Fig. 8" in out


class TestReporting:
    def test_fig8_records_roundtrip(self, tmp_store, tmp_path):
        import json

        from repro.bench.reporting import fig8_to_records, write_csv, write_json

        rows = run_fig8(4, page_sizes=[4], store=tmp_store, kernels=FAST)
        records = fig8_to_records(4, rows)
        assert len(records) == len(FAST)
        assert all(r["experiment"] == "fig8" for r in records)
        jpath = write_json(records, tmp_path / "out.json")
        assert json.loads(jpath.read_text()) == records
        cpath = write_csv(records, tmp_path / "out.csv")
        lines = cpath.read_text().strip().splitlines()
        assert len(lines) == len(records) + 1
        assert "kernel" in lines[0]

    def test_fig9_records(self, tmp_store):
        from repro.bench.reporting import fig9_to_records

        cells = run_fig9(
            4, 4, store=tmp_store, kernels=FAST, repeats=1,
            thread_counts=(1, 2), needs=(0.5,),
        )
        records = fig9_to_records(4, 4, cells)
        assert len(records) == 2
        assert {r["threads"] for r in records} == {1, 2}

    def test_empty_csv_rejected(self, tmp_path):
        from repro.bench.reporting import write_csv
        from repro.util.errors import ReproError

        with pytest.raises(ReproError):
            write_csv([], tmp_path / "e.csv")

    def test_unmappable_marked(self, tmp_store):
        from repro.bench.reporting import fig8_to_records
        from repro.bench.fig8 import Fig8Row

        rows = [Fig8Row("sobel", 4, {2: None, 4: 0.5})]
        records = fig8_to_records(4, rows)
        assert records[0]["mappable"] is False
        assert records[1]["performance"] == 0.5


class TestCLI:
    def test_list(self, capsys):
        from repro.bench.experiments import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8_4x4" in out and "headline" in out

    def test_single_experiment_with_json(self, capsys, tmp_path):
        import json

        from repro.bench.experiments import main

        out_path = tmp_path / "fig9.json"
        assert main(["fig9_4x4", "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9" in out
        assert "[cache]" in out  # hit/miss counters are reported
        records = json.loads(out_path.read_text())
        assert records and records[0]["experiment"] == "fig9"


    def test_compile_speed_prints_table_and_writes_nothing(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.bench.experiments import main

        monkeypatch.chdir(tmp_path)
        argv = ["compile-speed", "--kernels", "mpeg", "--page-sizes", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "expand" in out and "memo_hits" in out
        assert any(line.startswith("mpeg ") for line in out.splitlines())
        assert "total:" in out
        assert list(tmp_path.iterdir()) == []

    def test_compile_speed_rejects_workers(self, capsys):
        from repro.bench.experiments import main

        with pytest.raises(SystemExit) as exc:
            main(["compile-speed", "--kernels", "mpeg", "--workers", "2"])
        assert exc.value.code == 2
        assert "compile-speed runs serially" in capsys.readouterr().err


class TestPolicyTournament:
    def _tournament(self, **kw):
        from repro.bench.policies import run_tournament

        defaults = dict(n_threads=40, n_pages=8, seed=3)
        defaults.update(kw)
        return run_tournament(**defaults)

    def test_all_policies_all_series(self):
        from repro.bench.policies import SERIES, run_tournament

        results = self._tournament()
        assert set(results) == set(SERIES)
        for rows in results.values():
            assert set(rows) == {
                "halving",
                "need-aware",
                "fair-share",
                "static-equal",
                "best-fit",
                "priority-evict",
            }
            for m in rows.values():
                assert m["makespan"] > 0
                assert 0 <= m["cgra_utilization"] <= 1
                assert m["turnaround_p99"] >= m["turnaround_p50"] > 0

    def test_leaderboard_deterministic_and_ranked(self):
        from repro.bench.policies import leaderboard

        a = leaderboard(self._tournament())
        b = leaderboard(self._tournament())
        # ranking uses simulated quantities only
        assert a == b
        assert [r["rank"] for r in a] == list(range(1, len(a) + 1))
        assert a[0]["score"] == 1.0 or a[0]["score"] < a[-1]["score"]

    def test_smoke_subset_verifies_against_oracle(self):
        from repro.bench.policies import leaderboard, run_tournament

        # the CI smoke path: tiny, two policies, oracle-replayed
        results = run_tournament(
            n_threads=10,
            n_pages=4,
            seed=1,
            policies=["halving", "best-fit"],
            verify=True,
        )
        board = leaderboard(results)
        assert {r["policy"] for r in board} == {"halving", "best-fit"}
