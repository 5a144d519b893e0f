"""Disk tier of the artifact store: spill GC and census, the cache's
opportunistic sweeps, and the ``batch --report`` cache block."""

import os
import zlib

from repro.pipeline.cache import ArtifactCache
from repro.pipeline.store import gc_spills, spill_stats


BENCH_SRC = """
int data[128];
int main() {
  data[1] = 2;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 128; i++) data[i] = data[i] + %d;
  return data[1];
}
"""


class TestBatchCrossWorkerSharing:
    def test_duplicate_inputs_hit_across_workers_mid_run(self, tmp_path):
        """-j 4 over a corpus with duplicates shares work through the
        spill directory alone.

        Originals first, duplicates (same path => same content key)
        last: by the time a duplicate is pulled, its original has been
        computed — on a different worker with probability 3/4 per pair,
        whose spill then serves the duplicate from disk.  Across nine
        pairs at least one such disk hit is effectively certain.
        """
        from repro.pipeline.batch import transform_paths

        cache_dir = tmp_path / "cache"
        paths = []
        for i in range(9):
            p = tmp_path / f"input_{i}.c"
            p.write_text(BENCH_SRC % i)
            paths.append(str(p))
        # dedup=False forces every copy through a worker: this test is
        # about the disk tier picking up mid-run duplicates, which
        # submit-time pre-dedup would otherwise collapse first.
        outcomes = transform_paths(
            paths + paths,  # duplicates trail the originals
            jobs=4,
            cache_dir=str(cache_dir),
            dedup=False,
        )
        assert all(o.ok for o in outcomes)
        # Deterministic halves: duplicate outcomes mirror the originals.
        for original, duplicate in zip(outcomes[:9], outcomes[9:]):
            assert duplicate.output_source == original.output_source
        assert any(
            o.cache_origins.get("parse") == "disk" for o in outcomes[9:]
        )
        assert spill_stats(cache_dir)["by_pass"]["parse"]["files"] == 9


class TestBatchReport:
    @staticmethod
    def _inputs(tmp_path, count):
        paths = []
        for i in range(count):
            p = tmp_path / f"input_{i}.c"
            p.write_text(BENCH_SRC % i)
            paths.append(str(p))
        return paths

    def test_report_compresses_each_spill_once(
        self, tmp_path, capsys, monkeypatch
    ):
        """``--report`` adds no second serialization: one
        ``zlib.compress`` per spilled artifact, nothing more."""
        import repro.pipeline.artifacts as artifacts
        from repro.cli import main

        calls = []

        class CountingZlib:
            def compress(self, data, level=-1):
                calls.append(len(data))
                return zlib.compress(data, level)

            def __getattr__(self, name):
                return getattr(zlib, name)

        monkeypatch.setattr(artifacts, "zlib", CountingZlib())
        cache_dir = tmp_path / "cache"
        (path,) = self._inputs(tmp_path, 1)
        rc = main(["batch", path, "--cache-dir", str(cache_dir), "--report"])
        assert rc == 0
        spills = list(cache_dir.glob("*.art"))
        assert spills
        assert len(calls) == len(spills)
        assert "disk cache" in capsys.readouterr().out

    def test_jobs_report_folds_outcomes_and_census(self, tmp_path, capsys):
        """``-j`` runs print the same per-pass block as serial runs:
        hits/misses from the outcomes, files/bytes from the census."""
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        paths = self._inputs(tmp_path, 3)
        argv = ["batch", *paths, *paths, "-j", "2",
                "--cache-dir", str(cache_dir), "--report"]
        census = None
        for expected in ("0 hit(s) / 3 miss(es)", "3 hit(s) ("):
            assert main(argv) == 0
            out = capsys.readouterr().out
            census = spill_stats(cache_dir)
            parse = census["by_pass"]["parse"]
            line = next(
                ln for ln in out.splitlines() if ln.startswith("  cache parse")
            )
            assert expected in line
            assert f"{parse['files']} spill(s) {parse['bytes']}B" in line
            assert (
                f"disk cache {cache_dir}: {census['bytes']} byte(s) in "
                f"{census['files']} spill file(s)"
            ) in out
        assert census["by_pass"]["parse"]["files"] == 3


class TestSpillGC:
    """Disk-tier GC: size/TTL LRU eviction behind ``ompdart store gc``."""

    @staticmethod
    def _spill(directory, name, size, age_s, *, now=1_000_000.0):
        path = directory / name
        path.write_bytes(b"x" * size)
        os.utime(path, (now - age_s, now - age_s))
        return path

    def test_ttl_evicts_only_spills_past_max_age(self, tmp_path):
        now = 1_000_000.0
        old = self._spill(tmp_path, "parse-old.art", 10, 200, now=now)
        young = self._spill(tmp_path, "parse-new.art", 10, 100, now=now)
        report = gc_spills(tmp_path, max_age_s=150, now=now)
        assert report.ttl_evicted == 1
        assert report.size_evicted == 0
        assert report.evicted_bytes == 10
        assert not old.exists() and young.exists()
        assert report.remaining_files == 1
        assert report.remaining_bytes == 10

    def test_size_bound_evicts_oldest_first(self, tmp_path):
        now = 1_000_000.0
        oldest = self._spill(tmp_path, "parse-a.art", 10, 300, now=now)
        middle = self._spill(tmp_path, "plan-b.art", 10, 200, now=now)
        newest = self._spill(tmp_path, "parse-c.art", 10, 100, now=now)
        report = gc_spills(tmp_path, max_bytes=15, now=now)
        assert report.size_evicted == 2
        assert report.evicted_bytes == 20
        assert not oldest.exists() and not middle.exists()
        assert newest.exists()
        assert report.remaining_bytes == 10

    def test_dry_run_counts_without_unlinking(self, tmp_path):
        now = 1_000_000.0
        spill = self._spill(tmp_path, "parse-a.art", 10, 300, now=now)
        report = gc_spills(tmp_path, max_age_s=150, now=now, dry_run=True)
        assert report.ttl_evicted == 1
        assert report.dry_run
        assert spill.exists()  # nothing actually removed
        assert report.as_dict()["evicted_files"] == 1

    def test_quarantine_and_dead_tmp_always_swept(self, tmp_path):
        bad = tmp_path / "parse-k.art.bad"
        bad.write_bytes(b"corrupt")
        # A dead writer's orphaned tmp, and our own in-progress one.
        dead_tmp = tmp_path / "parse-k.99999999-1.tmp"
        dead_tmp.write_bytes(b"torn")
        live_tmp = tmp_path / f"plan-k.{os.getpid()}-1.tmp"
        live_tmp.write_bytes(b"in progress")
        keeper = self._spill(tmp_path, "parse-keep.art", 10, 0)
        report = gc_spills(tmp_path)  # no bounds: sweep-only
        assert report.quarantine_swept == 1
        assert report.tmp_swept == 1
        assert not bad.exists() and not dead_tmp.exists()
        assert live_tmp.exists() and keeper.exists()
        assert report.ttl_evicted == 0 and report.size_evicted == 0

    def test_spill_stats_census_by_pass(self, tmp_path):
        self._spill(tmp_path, "parse-a.art", 10, 0)
        self._spill(tmp_path, "parse-b.art", 20, 0)
        self._spill(tmp_path, "plan-c.art", 5, 0)
        (tmp_path / "parse-d.art.bad").write_bytes(b"x")
        (tmp_path / "notes.txt").write_text("ignored")
        census = spill_stats(tmp_path)
        assert census["files"] == 3
        assert census["bytes"] == 35
        assert census["quarantined"] == 1
        assert census["by_pass"]["parse"] == {"files": 2, "bytes": 30}
        assert census["by_pass"]["plan"] == {"files": 1, "bytes": 5}


class TestCacheGC:
    def test_put_triggers_opportunistic_gc_once_bounded(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path, max_disk_bytes=1)
        for i in range(3):
            cache.put("parse", f"g{i}-s0", list(range(50)))
        # Below the sweep cadence nothing has run yet...
        assert cache.evicted_spills == 0
        cache._puts_since_gc = 31  # fast-forward to the cadence edge
        cache.put("parse", "trigger-s0", list(range(50)))
        assert cache.evicted_spills > 0
        assert cache.evicted_spill_bytes > 0

    def test_unbounded_cache_never_sweeps(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache._puts_since_gc = 31
        cache.put("parse", "k-s0", [1, 2, 3])
        assert cache.evicted_spills == 0
        assert len(list(tmp_path.glob("*.art"))) == 1
