"""Tests for the experiment orchestrator subsystem.

Covers the content-addressed fingerprint/cache layer, the process-pool
executor (timeouts, broken pools, retries), the serial == ``--jobs N``
byte-identity guarantee (fault schedules included), and the one batch
per report that gives every report the parallel path.
"""

import json
import os
import time

import pytest

from repro.experiments import REPORTS, SweepGrid, generate, render, run_sweep
from repro.experiments.resilience import chaos_schedule_for, resilience_report
from repro.orchestrator import (
    BaselineJob,
    ExperimentJob,
    Orchestrator,
    RunCache,
    Uncacheable,
    canonical,
    fingerprint_key,
    job_key,
    result_to_record,
    revive,
    run_wire_jobs,
    use_orchestrator,
)
from repro.telemetry import Telemetry, use_telemetry


# ---------------------------------------------------------------------------
# canonical form / fingerprints
# ---------------------------------------------------------------------------

class TestCanonical:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert canonical(value) == value

    def test_tuples_become_lists(self):
        assert canonical((1, (2, 3))) == [1, [2, 3]]

    def test_non_finite_floats_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(Uncacheable):
                canonical(bad)

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(Uncacheable):
            canonical({1: "x"})

    def test_reserved_keys_rejected(self):
        with pytest.raises(Uncacheable):
            canonical({"__kind__": "FaultSchedule"})

    def test_arbitrary_objects_rejected(self):
        with pytest.raises(Uncacheable):
            canonical(object())

    def test_fault_schedule_roundtrip(self):
        schedule = chaos_schedule_for("B-2", seed=1)
        tagged = canonical(schedule)
        assert tagged["__kind__"] == "FaultSchedule"
        # Idempotence: fingerprints embed already-canonical values.
        assert canonical(tagged) == tagged
        revived = revive(json.loads(json.dumps(tagged)))
        assert revived.to_dict() == schedule.to_dict()

    def test_unknown_tagged_kind_rejected(self):
        doc = {"__kind__": "NoSuchThing", "__value__": {}}
        with pytest.raises(Uncacheable):
            canonical(doc)
        with pytest.raises(Uncacheable):
            revive(doc)


class TestFingerprint:
    def test_key_is_stable(self):
        a = ExperimentJob.make("A-2", "conv", epochs=2,
                               account_data_loading=False,
                               monitor_interval_s=None)
        b = ExperimentJob.make("A-2", "conv", monitor_interval_s=None,
                               account_data_loading=False, epochs=2)
        assert job_key(a) == job_key(b)

    def test_key_sees_every_axis(self):
        base = ExperimentJob.make("A-2", "conv", epochs=2)
        assert job_key(base) != job_key(
            ExperimentJob.make("A-2", "conv", epochs=3))
        assert job_key(base) != job_key(
            ExperimentJob.make("A-2", "rn18", epochs=2))
        assert job_key(base) != job_key(
            ExperimentJob.make("A-4", "conv", epochs=2))
        assert job_key(base) != job_key(
            ExperimentJob.make("A-2", "conv", epochs=2, spot=False))
        assert job_key(base) != job_key(
            ExperimentJob.make("A-2", "conv", epochs=2,
                               target_batch_size=8192))

    def test_fault_schedule_changes_key(self):
        plain = ExperimentJob.make("B-2", "conv", epochs=2)
        chaotic = ExperimentJob.make(
            "B-2", "conv", epochs=2,
            fault_schedule=chaos_schedule_for("B-2", seed=0))
        assert job_key(plain) != job_key(chaotic)
        assert job_key(chaotic) == job_key(ExperimentJob.make(
            "B-2", "conv", epochs=2,
            fault_schedule=chaos_schedule_for("B-2", seed=0)))

    def test_version_bump_invalidates(self, monkeypatch):
        job = ExperimentJob.make("A-2", "conv", epochs=2)
        before = job_key(job)
        monkeypatch.setattr("repro.orchestrator.jobs.FINGERPRINT_VERSION",
                            99)
        assert job_key(job) != before

    def test_uncacheable_override(self):
        with pytest.raises(Uncacheable):
            ExperimentJob.make("A-2", "conv", telemetry=Telemetry())

    def test_baseline_fingerprint(self):
        a = BaselineJob(name="1xA10", model="conv")
        assert job_key(a) == job_key(BaselineJob(name="1xA10",
                                                 model="conv"))
        assert job_key(a) != job_key(BaselineJob(name="1xA10",
                                                 model="rn18"))


# ---------------------------------------------------------------------------
# on-disk store
# ---------------------------------------------------------------------------

class TestRunCache:
    def _warm(self, cache):
        """Run one experiment through a fresh orchestrator on ``cache``."""
        orch = Orchestrator(cache=cache)
        result = orch.experiment("A-2", "conv", epochs=2,
                                 account_data_loading=False,
                                 monitor_interval_s=None)
        return orch, result

    def test_round_trip_is_byte_identical(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        _, cold = self._warm(cache)
        assert cache.puts == 1 and cache.misses == 1

        orch, warm = self._warm(cache)
        assert cache.hits == 1
        assert orch.executed == 0
        job = ExperimentJob.make("A-2", "conv", epochs=2,
                                 account_data_loading=False,
                                 monitor_interval_s=None)
        assert result_to_record(job, warm) == result_to_record(job, cold)
        assert warm.run.fault_counts == cold.run.fault_counts
        assert warm.run.traffic == cold.run.traffic
        assert list(warm.run.traffic) == list(cold.run.traffic)
        assert warm.run.egress_bytes_by_class == cold.run.egress_bytes_by_class
        assert warm.run.egress_bytes_by_site == cold.run.egress_bytes_by_site

    def test_payload_keeps_one_traffic_table(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        _, cold = self._warm(cache)
        [path] = list((tmp_path / "cache" / "objects").rglob("*.json"))
        payload = json.loads(path.read_text())["record"]["run"]
        byte_keys = {key for key in payload
                     if "bytes" in key or "traffic" in key}
        # Data loading is metered by the store links, not the fabric.
        assert byte_keys == {"traffic", "data_ingress_bytes_by_site"}
        names = payload["traffic"]["names"]
        assert [
            [names[src], names[dst], names[tag], nbytes]
            for src, dst, tag, nbytes in payload["traffic"]["rows"]
        ] == [list(key) + [nbytes] for key, nbytes in cold.run.traffic.items()]
        assert len(names) == len(set(names))

    def test_parent_generation_record_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        job = ExperimentJob.make("A-2", "conv", epochs=2,
                                 account_data_loading=False,
                                 monitor_interval_s=None)
        _, cold = self._warm(RunCache(tmp_path / "scratch"))
        parent = dict(job.fingerprint(), fingerprint_version=5)
        cache.put(fingerprint_key(parent), parent,
                  result_to_record(job, cold))
        orch, _ = self._warm(cache)
        assert cache.misses == 1 and cache.hits == 0
        assert orch.executed == 1
        assert sorted(entry.stale for entry in cache.ls()) == [False, True]

    def test_entries_are_compact_and_indented_ones_still_hit(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        _, cold = self._warm(cache)
        [path] = list((tmp_path / "cache" / "objects").rglob("*.json"))
        text = path.read_text()
        document = json.loads(text)
        assert document["schema"] == "repro-cache/1"
        assert text == json.dumps(
            document, sort_keys=True, separators=(",", ":")) + "\n"

        # The layout earlier versions wrote: same document, indented.
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        fresh = RunCache(tmp_path / "cache")
        assert fresh.get(path.stem) == document["record"]
        orch, warm = self._warm(fresh)
        assert orch.executed == 0 and fresh.hits == 2 and fresh.errors == 0
        job = ExperimentJob.make("A-2", "conv", epochs=2,
                                 account_data_loading=False,
                                 monitor_interval_s=None)
        assert result_to_record(job, warm) == result_to_record(job, cold)
        assert fresh.verify() == []

    def test_telemetry_counters_mirrored(self, tmp_path):
        tel = Telemetry()
        with use_telemetry(tel):
            cache = RunCache(tmp_path / "cache")
            self._warm(cache)
            self._warm(cache)
        metrics = tel.metrics
        assert metrics.counter("run_cache_misses_total").total == 1
        assert metrics.counter("run_cache_puts_total").total == 1
        assert metrics.counter("run_cache_hits_total").total == 1

    def test_corrupt_entry_is_miss_then_collected(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        self._warm(cache)
        [path] = list((tmp_path / "cache" / "objects").rglob("*.json"))
        path.write_text("{not json")

        assert cache.get(path.stem) is None
        assert cache.errors == 1

        problems = cache.verify()
        assert len(problems) == 1 and "unreadable" in problems[0]
        assert cache.gc() == [path.stem]
        assert len(cache) == 0
        assert cache.verify() == []

    def test_verify_catches_tampering(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        self._warm(cache)
        [path] = list((tmp_path / "cache" / "objects").rglob("*.json"))
        document = json.loads(path.read_text())
        document["fingerprint"]["epochs"] = 77
        path.write_text(json.dumps(document))

        problems = cache.verify()
        assert len(problems) == 1
        assert "tampered" in problems[0] or "hashes to" in problems[0]

    def test_gc_removes_stale_generation(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        old = {"schema": "repro-cache/1", "fingerprint_version": -1,
               "kind": "experiment"}
        key = fingerprint_key(old)
        cache.put(key, old, {"schema": "repro-cache/1", "result": {}})
        assert cache.verify() == []
        [entry] = cache.ls()
        assert entry.stale
        assert cache.gc() == [key]

    def test_gc_expires_old_entries(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        self._warm(cache)
        [path] = list((tmp_path / "cache" / "objects").rglob("*.json"))
        stamp = time.time() - 10 * 86400
        os.utime(path, (stamp, stamp))
        assert cache.gc(max_age_days=30) == []
        assert cache.gc(max_age_days=5) == [path.stem]


# ---------------------------------------------------------------------------
# orchestrator core
# ---------------------------------------------------------------------------

class TestOrchestrator:
    def test_memoizes_within_instance(self):
        orch = Orchestrator()
        first = orch.experiment("A-2", "conv", epochs=2)
        second = orch.experiment("A-2", "conv", epochs=2)
        assert second is first
        assert orch.executed == 1 and orch.memo_hits == 1

    def test_memoizes_baselines(self):
        orch = Orchestrator()
        first = orch.run(BaselineJob("1xA10", "conv"))
        assert orch.run(BaselineJob("1xA10", "conv")) is first
        assert orch.executed == 1 and orch.memo_hits == 1

    def test_uncacheable_override_is_rejected(self):
        # Telemetry reaches runs through use_telemetry; as an override it
        # is refused before anything runs, by the job and by the sweep.
        orch = Orchestrator()
        with pytest.raises(Uncacheable):
            orch.experiment("A-2", "conv", epochs=2, telemetry=Telemetry())
        with pytest.raises(Uncacheable):
            run_sweep(SweepGrid(models=("conv",), experiments=("A-2",)),
                      epochs=2, orchestrator=orch, telemetry=Telemetry())
        assert orch.executed == 0 and not orch._memo

    def test_simulation_errors_still_raise(self):
        orch = Orchestrator()
        with pytest.raises(KeyError):
            orch.experiment("Z-99", "conv", epochs=2)


# ---------------------------------------------------------------------------
# serial == parallel byte-identity
# ---------------------------------------------------------------------------

class TestParallelIdentity:
    GRID = SweepGrid(models=("conv", "rn18"), experiments=("A-2", "B-2"))

    def test_jobs4_matches_serial_bytes(self, tmp_path):
        serial = run_sweep(self.GRID, epochs=2)
        parallel = run_sweep(self.GRID, epochs=2, jobs=4)
        a = serial.to_json(tmp_path / "serial.json")
        b = parallel.to_json(tmp_path / "parallel.json")
        assert a.read_bytes() == b.read_bytes()
        for left, right in zip(serial.results, parallel.results):
            assert left.throughput_sps == right.throughput_sps
            assert left.usd_per_million_samples == right.usd_per_million_samples

    def test_fault_schedule_matches_serial(self, tmp_path):
        grid = SweepGrid(models=("conv", "rn18"), experiments=("B-2",))
        schedule = chaos_schedule_for("B-2", seed=0)
        serial = run_sweep(grid, epochs=2, fault_schedule=schedule)
        parallel = run_sweep(grid, epochs=2, jobs=2,
                             fault_schedule=schedule)
        a = serial.to_json(tmp_path / "serial.json")
        b = parallel.to_json(tmp_path / "parallel.json")
        assert a.read_bytes() == b.read_bytes()
        for left, right in zip(serial.results, parallel.results):
            assert left.run.fault_counts == right.run.fault_counts
            assert left.run.fault_counts  # faults actually fired

    def test_failure_records_match_serial(self):
        # A B-2 schedule names sites A-2 does not have: every point
        # fails identically whether it ran inline or in a pool worker.
        grid = SweepGrid(models=("conv", "rn18"), experiments=("A-2",))
        schedule = chaos_schedule_for("B-2", seed=0)
        serial = run_sweep(grid, epochs=2, fault_schedule=schedule)
        parallel = run_sweep(grid, epochs=2, jobs=2,
                             fault_schedule=schedule)
        assert len(serial.failures) == len(parallel.failures) == 2
        for left, right in zip(serial.failures, parallel.failures):
            assert left.to_dict() == right.to_dict()
            assert left.error_type == "ValueError"
            assert left.traceback.startswith("Traceback")

    def test_warm_cache_executes_nothing(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        cold = run_sweep(self.GRID, epochs=2, jobs=2, cache=cache)
        assert cold.executed == len(self.GRID)

        warm = run_sweep(self.GRID, epochs=2,
                         cache=RunCache(tmp_path / "cache"))
        assert warm.executed == 0
        assert warm.cache_hits == len(self.GRID)
        assert warm.cache_misses == 0
        assert [r.throughput_sps for r in warm.results] == \
            [r.throughput_sps for r in cold.results]


# ---------------------------------------------------------------------------
# executor: timeouts, broken pools, retries
# ---------------------------------------------------------------------------

def _echo_worker(wire):
    return {"ok": True, "record": wire}


def _slow_echo_worker(wire):
    time.sleep(wire.get("sleep", 0))
    return {"ok": True, "record": wire}


def _pid_then_sleep_worker(wire):
    with open(wire["pid_file"], "w") as handle:
        handle.write(str(os.getpid()))
    time.sleep(30)
    return {"ok": True, "record": wire}


def _dying_worker(wire):
    os._exit(3)


def _flaky_worker(wire):
    if not os.path.exists(wire["flag"]):
        open(wire["flag"], "w").close()
        os._exit(3)
    return {"ok": True, "record": wire}


class TestExecutor:
    def test_outcomes_in_input_order(self):
        wires = [{"i": i} for i in range(6)]
        outcomes = run_wire_jobs(wires, max_workers=2, worker=_echo_worker)
        assert [o["record"]["i"] for o in outcomes] == list(range(6))

    def test_timeout_yields_failure_record(self):
        outcomes = run_wire_jobs([{"sleep": 30}], max_workers=1,
                                 worker=_slow_echo_worker,
                                 timeout_s=0.3, retries=0)
        [outcome] = outcomes
        assert outcome["ok"] is False
        failure = outcome["failure"]
        assert failure["kind"] == "timeout"
        assert failure["error_type"] == "TimeoutError"
        assert failure["attempts"] == 1

    def test_timed_out_worker_is_killed(self, tmp_path):
        pid_file = tmp_path / "worker.pid"
        [outcome] = run_wire_jobs([{"pid_file": str(pid_file)}],
                                  max_workers=1,
                                  worker=_pid_then_sleep_worker,
                                  timeout_s=1.0, retries=0)
        assert outcome["failure"]["kind"] == "timeout"
        stat = f"/proc/{int(pid_file.read_text())}/stat"
        if os.path.exists(stat):
            with open(stat) as handle:
                # The state field follows the parenthesised command name.
                state = handle.read().rsplit(")", 1)[1].split()[0]
            assert state == "Z"

    def test_broken_pool_retries_then_fails(self):
        outcomes = run_wire_jobs([{"i": 0}], max_workers=1,
                                 worker=_dying_worker, retries=1)
        [outcome] = outcomes
        assert outcome["ok"] is False
        failure = outcome["failure"]
        assert failure["kind"] == "broken-pool"
        assert failure["attempts"] == 2

    def test_retry_recovers_transient_crash(self, tmp_path):
        wire = {"flag": str(tmp_path / "crashed-once")}
        [outcome] = run_wire_jobs([wire], max_workers=1,
                                  worker=_flaky_worker, retries=1)
        assert outcome["ok"] is True
        assert outcome["record"] == wire

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_wire_jobs([], max_workers=1, retries=-1)


# ---------------------------------------------------------------------------
# reports: one batch each, --jobs 2 == serial
# ---------------------------------------------------------------------------

@pytest.fixture
def requested_keys(monkeypatch):
    """Distinct job keys every ``Orchestrator.map`` batch asked for."""
    keys: set[str] = set()
    real_map = Orchestrator.map

    def recording_map(self, jobs, progress=None):
        jobs = list(jobs)
        keys.update(job_key(job) for job in jobs)
        return real_map(self, jobs, progress)

    monkeypatch.setattr(Orchestrator, "map", recording_map)
    return keys


class TestReportBatches:
    @staticmethod
    def _generate(requested_keys, key, kwargs, jobs):
        requested_keys.clear()
        orch = Orchestrator(jobs=jobs)
        text = render(generate(key, epochs=1, orchestrator=orch, **kwargs))
        return text, orch.executed, len(requested_keys)

    @pytest.mark.parametrize("key, kwargs", [
        *(pytest.param(key, {}, id=key) for key in REPORTS),
        pytest.param("adaptive", {"policy": "adaptive"}, id="adaptive-policy"),
    ])
    def test_parallel_matches_serial(self, requested_keys, key, kwargs):
        serial, serial_executed, requested = self._generate(
            requested_keys, key, kwargs, jobs=1)
        parallel, parallel_executed, __ = self._generate(
            requested_keys, key, kwargs, jobs=2)
        assert parallel == serial
        # Every point executes once, expected failures included (fig15's
        # 4xT4-DDP baseline runs out of memory for NLP).
        assert parallel_executed == serial_executed == requested


class TestResilienceBatch:
    ARGS = ("B-2", "rn18", (1.0, 2.0))

    def test_one_batch_matches_serial_and_memoizes(self, requested_keys):
        serial = resilience_report(*self.ARGS, epochs=2)
        orch = Orchestrator(jobs=2)
        with use_orchestrator(orch):
            parallel = resilience_report(*self.ARGS, epochs=2)
            assert render(parallel) == render(serial)
            assert orch.executed == len(requested_keys) == 3
            assert resilience_report(*self.ARGS, epochs=2).rows \
                == parallel.rows
        assert orch.executed == 3 and orch.memo_hits == 3
        # The clean point carries no schedule: it is the plain run.
        assert job_key(ExperimentJob.make("B-2", "rn18", epochs=2)) \
            in requested_keys


# ---------------------------------------------------------------------------
# CLI cache plumbing
# ---------------------------------------------------------------------------

def test_cli_cache_lifecycle(tmp_path, capsys):
    from repro.cli import main

    cache_dir = str(tmp_path / "cache")
    sweep_argv = ["sweep", "--models", "conv", "--experiments", "A-2",
                  "--epochs", "2", "--output", str(tmp_path / "grid.csv"),
                  "--cache-dir", cache_dir]

    assert main(sweep_argv) == 0
    assert "simulations executed: 1" in capsys.readouterr().err

    # Warm rerun: pure hits, zero simulations.
    assert main(sweep_argv) == 0
    err = capsys.readouterr().err
    assert "0 misses" in err and "simulations executed: 0" in err

    assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "A-2/conv" in out

    assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()

    [path] = list((tmp_path / "cache" / "objects").rglob("*.json"))
    path.write_text("{broken")
    assert main(["cache", "verify", "--cache-dir", cache_dir]) == 1
    capsys.readouterr()
    assert main(["cache", "gc", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0
