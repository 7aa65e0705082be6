"""Tests of the benchmark itself: seeding, exact counts, failure accounting.

Run with ``python3 -m pytest bench -q`` from the repository root.  The
traced-run tests invoke the real CLI once or twice per workload (about a
minute in all).
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))


def _flag(argv, name):
    return argv[argv.index(name) + 1]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_fixes_argv_and_only_moves_physical_parameters(name):
    a, a_again, b = (workloads.build(name, s) for s in (7, 7, 8))
    assert [c.argv for c in a.configs] == [c.argv for c in a_again.configs]
    assert len(a.configs) == len(b.configs)
    for ca, cb in zip(a.configs, b.configs):
        assert ca.argv != cb.argv
        assert ca.argv[0] == cb.argv[0]
        assert _flag(ca.argv, "--steps") == _flag(cb.argv, "--steps")
        assert len(ca.sweep_T) == len(cb.sweep_T)
        for x, y in ((ca.transfer_time, cb.transfer_time), (ca.eta, cb.eta),
                     (ca.gamma_loss, cb.gamma_loss)):
            assert abs(x - y) <= 2 * workloads.JITTER * max(x, y)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_across_two_traced_runs(name):
    wl = workloads.build(name, 3)
    refs = {}
    rows = []
    for _ in range(2):
        inv = run.run_child(wl, 0, traced=True, timeout=150)
        run.evaluate(wl, inv, refs)
        assert inv.failure is None, inv.failure
        assert len(inv.calibration_s) == 2 and min(inv.calibration_s) > 0
        rows.append(run.layer_values(wl.configs[0], inv, untraced_run_s=1.0))
    assert set(rows[0]) == set(run.LAYER_UNITS)
    for count in run.COUNTS:
        assert rows[0][count] == rows[1][count], count


def test_corrupted_artifact_counts_as_failure():
    wl = workloads.build("simulate-kernels-lossy", 3)
    refs = {}
    first = run.run_child(wl, 0, traced=False, timeout=150)
    run.evaluate(wl, first, refs)
    assert first.failure is None, first.failure

    out = run.WORK / wl.name / "config0" / "out"
    csv = out / "commutator.csv"
    data = bytearray(csv.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    csv.write_bytes(bytes(data))
    again = run.Invocation(config=0, traced=False, rc=0)
    run.evaluate(wl, again, refs)
    assert again.failure and "differ" in again.failure

    # A first run whose report is out of tolerance fails its check.
    report = json.loads((out / "report.json").read_text())
    report["commutator_max"] = [1e-3, 1e-3]
    (out / "report.json").write_text(json.dumps(report))
    fresh = run.Invocation(config=0, traced=False, rc=0)
    run.evaluate(wl, fresh, {})
    assert fresh.failure and "output check" in fresh.failure


def test_refuses_a_checkout_without_sources():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate-optimal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_the_runner_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
