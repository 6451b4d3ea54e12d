"""Tests of the benchmark itself: tracing changes no output, metrics match BENCHMARK.json.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run._import_padpkit()

import padpkit  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from padpkit import experiments, io, synthesis  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _sweep_csv(wl, path):
    mc = wl.config(base_seed=7)
    sc = wl.scenario
    rows = experiments.run_sweep(mc, sc.sounding, sc.array, sc.pattern)
    io.write_sweep_csv(path, rows)
    return workloads.fingerprint(rows), path.read_bytes()


@pytest.mark.parametrize("name", ["mc-snr", "mc-pair-plus"])
def test_tracing_leaves_sweep_rows_and_csv_unchanged(name, tmp_path):
    wl = workloads.make(name, run.ROOT, tmp_path)
    wl.values, wl.trials = wl.values[:2], 8
    wl.setup()
    plain = _sweep_csv(wl, tmp_path / "plain.csv")
    tracer = spans.Tracer()
    with tracer:
        traced = _sweep_csv(wl, tmp_path / "traced.csv")
    assert traced == plain
    assert {s[1] for s in tracer.spans} >= {"experiments.run_sweep", "synthesis.add_noise"}


def test_tracing_leaves_cli_files_unchanged(tmp_path):
    wl = workloads.make("cli-pipeline", run.ROOT, tmp_path / "work")
    wl.setup()
    plain = wl.run(seed=3, batch=1, keep=True)
    with spans.Tracer():
        traced = wl.run(seed=3, batch=1, keep=True)
    assert plain.failed == traced.failed == 0, plain.failures + traced.failures
    assert set(plain.outputs) == {
        "scan.padp", "scan.npy", "estimates.csv", "estimates.csv.manifest.json", "crlb.csv",
        "crlb.csv.manifest.json", "offset.csv", "offset.csv.manifest.json",
    }
    assert traced.outputs == plain.outputs


def test_tracer_restores_every_rebound_name():
    before = {n: getattr(synthesis, n) for n in ("add_noise", "simulate_padp")}
    with spans.Tracer():
        assert synthesis.add_noise is not before["add_noise"]
        assert experiments.simulate_padp is not before["simulate_padp"]
    assert synthesis.add_noise is before["add_noise"]
    assert experiments.simulate_padp is before["simulate_padp"]
    assert padpkit.simulate_padp is before["simulate_padp"]


def test_worker_spans_hang_off_the_main_threads_open_span():
    wl = workloads.make("mc-pair-plus", run.ROOT, None)
    wl.values, wl.trials = wl.values[:1], 4
    wl.setup()
    tracer = spans.Tracer()
    with tracer:
        wl.run(seed=1, batch=1)
    (sweep,) = [s for s in tracer.spans if s[1] == "experiments.run_sweep"]
    workers = [s for s in tracer.spans if s[6] != sweep[6] and s[1] == "synthesis.simulate_padp"]
    assert len(workers) == 4
    assert all(s[4] == sweep[0] for s in workers)


def test_self_time_subtracts_the_union_of_children():
    # parent 0..10; children 1..4 and 3..6 overlap (two threads), 8..9 apart
    sp = [
        (0, "p", 0.0, 10.0, None, None, 1, None),
        (1, "a", 1.0, 4.0, 0, None, 1, None),
        (2, "b", 3.0, 6.0, 0, None, 2, None),
        (3, "c", 8.0, 9.0, 0, None, 1, None),
    ]
    selfs = spans.self_times(sp)
    assert selfs == {0: 10.0 - 5.0 - 1.0, 1: 3.0, 2: 3.0, 3: 1.0}


def test_self_time_tables_name_traced_functions():
    traced = {f"{m.__name__.rsplit('.', 1)[-1]}.{f}" for m, f, _ in spans.TARGETS}
    for names in (*spans.SELF_MS.values(), *spans.CALLS.values()):
        assert set(names) <= traced


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail(list(range(100, 0, -1)))
    assert (value, pct, n) == (90, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_every_workload_and_reports_the_declared_metrics(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "5", "--smoke",
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    for wl in run.WORKLOADS:
        got = {k.split(":", 1)[1]: v for k, v in result["metrics"].items() if k.startswith(wl + ":")}
        assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in got.items()}
        if not trace:
            assert all(v["value"] > 0 for v in got.values())


def test_counts_repeat_exactly_for_a_seed():
    def counts():
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mc-pair-plus", "--seed", "9",
             "--smoke", "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        metrics = _last_json(proc.stdout)["metrics"]
        timed = ("overhead_frac", "pool_busy_frac")
        return {k: v["value"] for k, v in metrics.items()
                if v["unit"] in ("count", "B", "fraction") and not k.endswith(timed)}

    first = counts()
    assert first["estimation.noise_threshold.calls"] == 2.0
    assert first["kernels.cells_scanned"] == 2 * 36 * 1001
    assert counts() == first


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-snr", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
