"""Benchmark driver for the oscxfer CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each invocation of the CLI runs in
a fresh interpreter (``bench/child.py``) with the checkout's ``src`` on
``PYTHONPATH``, one at a time, so load comes from a single process plus the
sweep's own pool.  Invocations repeat until ``--seconds`` is used up; a run
always covers each of the workload's configurations once and the first one
twice, so every run checks byte determinism.

Every invocation counts as attempted.  It fails on a nonzero exit, a
traceback, a failed output check (``workloads.py``), or science artifacts
whose bytes differ from the first invocation of the same configuration.

The last line of standard output is the result object.  With ``--trace 0``
it holds the end-to-end metrics of untraced invocations, with times in
reference seconds (``reference_s``); with ``--trace 1``
the per-layer metrics of traced invocations, alternated with untraced ones
to measure the tracing overhead.  The line before it holds the details:
generated argv, environment, sample counts and failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
CHILD = Path(__file__).resolve().parent / "child.py"
HARD_LIMIT_S = 150.0  # leaves headroom under the 180 s a run may take
# End-to-end times are in reference seconds: wall time scaled to a moment at
# which the child's calibration job takes CALIBRATION_REF_S (about its median
# on a 2-CPU Xeon sandbox, so reference and wall seconds are close there).
CALIBRATION_REF_S = 0.1


@dataclass
class Invocation:
    config: int
    traced: bool
    rc: Optional[int] = None
    setup_s: float = 0.0
    run_s: float = 0.0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    artifact_bytes: int = 0
    calibration_s: tuple[float, float] = (0.0, 0.0)
    failure: Optional[str] = None
    extra: dict = field(default_factory=dict)


@dataclass
class Reference:
    """First outcome seen for one configuration."""

    digest: str
    metrics: Optional[dict]
    failure: Optional[str]


def run_child(wl: workloads.Workload, k: int, traced: bool,
              timeout: float) -> Invocation:
    """Run configuration ``k`` once in a fresh interpreter."""
    cfg = wl.configs[k]
    cwd = WORK / wl.name / f"config{k}"
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    spec = {"argv": [*cfg.argv, "--out", "out"], "trace": traced,
            "probe": cfg.probe(), "sweep_points": list(cfg.sweep_T)}
    (cwd / "spec.json").write_text(json.dumps(spec))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    inv = Invocation(k, traced)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), "spec.json", "result.json"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        inv.failure = f"timed out after {timeout:.0f} s"
        return inv
    finally:
        inv.wall_s = time.perf_counter() - t0
    if "Traceback" in proc.stderr or proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:]
        inv.failure = f"child exit {proc.returncode}" + "".join(f": {t}" for t in tail)
        return inv
    result = json.loads((cwd / "result.json").read_text())
    inv.rc = result.pop("rc")
    inv.setup_s = result.pop("setup_s")
    inv.run_s = result.pop("run_s")
    inv.peak_rss_mb = result.pop("peak_rss_mb")
    inv.calibration_s = tuple(result.pop("calibration_s"))
    inv.extra = result
    report = cwd / "out" / "optimize_report.json"
    if report.is_file():
        inv.extra["iterations"] = json.loads(report.read_text()).get("iterations", 0)
    if inv.rc != 0:
        inv.failure = f"CLI exit code {inv.rc}"
    return inv


def evaluate(wl: workloads.Workload, inv: Invocation,
             refs: dict[int, Reference]) -> None:
    """Check one invocation's outputs; sets ``inv.failure`` on failure.

    The first invocation of a configuration runs the workload's check; later
    ones must reproduce its artifacts byte for byte and inherit its outcome.
    """
    if inv.failure is not None:
        return
    out = WORK / wl.name / f"config{inv.config}" / "out"
    digest, inv.artifact_bytes = workloads.artifact_digest(out)
    ref = refs.get(inv.config)
    if ref is None:
        try:
            metrics, failure = wl.check(wl.configs[inv.config], out), None
        except workloads.CheckFailed as exc:
            metrics, failure = None, f"output check: {exc}"
        ref = refs[inv.config] = Reference(digest, metrics, failure)
    elif digest != ref.digest:
        inv.failure = "artifacts differ from the first run of this configuration"
        return
    inv.failure = ref.failure


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _first_quartile(values: list[float]) -> float:
    """Other tenants of a shared host only ever add time, so the lower
    quartile of a run's times tracks the program and holds while up to three
    quarters of the invocations are slowed; the median does not."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def run_loop(wl: workloads.Workload, seconds: float,
             plan: list[tuple[int, bool]], cycle: list[tuple[int, bool]]
             ) -> tuple[list[Invocation], dict[int, Reference]]:
    """Run ``plan`` in full, then repeat ``cycle`` while the next one fits."""
    invs: list[Invocation] = []
    refs: dict[int, Reference] = {}
    start = time.perf_counter()
    wall: dict[tuple[int, bool], list[float]] = {}
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i < len(plan):
            k, traced = plan[i]
        else:
            k, traced = cycle[(i - len(plan)) % len(cycle)]
            expected = _median(wall.get((k, traced), [0.0]))
            if elapsed + expected > seconds:
                break
        if elapsed > HARD_LIMIT_S:
            break
        inv = run_child(wl, k, traced, timeout=max(10.0, HARD_LIMIT_S - elapsed))
        evaluate(wl, inv, refs)
        invs.append(inv)
        wall.setdefault((k, traced), []).append(inv.wall_s)
        if inv.failure and inv.failure.startswith("timed out"):
            break
        i += 1
    return invs, refs


END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
              "success_rate": "1", "abs_err": "1", "commutator_deficit": "1",
              "achieved_fidelity": "1"}


def reference_s(inv: Invocation, wall_s: float) -> float:
    """``wall_s`` of one invocation in reference seconds.

    The child's calibration job, timed right after the import and right
    after the CLI call, gives the machine's speed around the call.
    """
    return wall_s * CALIBRATION_REF_S / statistics.fmean(inv.calibration_s)


def end_to_end(wl: workloads.Workload, invs: list[Invocation],
               refs: dict[int, Reference]) -> tuple[dict, dict]:
    ok = [inv for inv in invs if inv.failure is None]
    per_config = [[reference_s(inv, inv.run_s) for inv in ok if inv.config == k]
                  for k in range(len(wl.configs))]
    checked = [ref.metrics for ref in refs.values() if ref.metrics]

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    # A workload's figure is the mean over its configurations.  run_s is the
    # median over them of each one's first quartile: the optimizer's time
    # jumps with its iteration count, which is chaotic in T (workloads.py).
    values = {
        "setup_s": _first_quartile([reference_s(inv, inv.setup_s) for inv in ok]),
        "run_s": _median([_first_quartile(v) for v in per_config if v]),
        "peak_rss_mb": _median([inv.peak_rss_mb for inv in ok]),
        "success_rate": len(ok) / len(invs),
        **{name: mean([m[name] for m in checked])
           for name in ("abs_err", "commutator_deficit", "achieved_fidelity")},
    }
    samples = {"setup_s": len(ok), "run_s": [len(v) for v in per_config],
               "peak_rss_mb": len(ok),
               "wall_run_s": [inv.run_s for inv in ok],
               "wall_setup_s": [inv.setup_s for inv in ok],
               "calibration_s": [inv.calibration_s for inv in ok]}
    return ({n: (values[n], unit) for n, unit in END_TO_END.items()},
            {"samples": samples})


# Per-layer metrics, their units, and which of them are exact counts.
LAYER_UNITS = {
    "types.profile_eval_ns": "ns", "types.profile_values_s": "s",
    "types.self_s": "s",
    "oracles.curve_s": "s", "oracles.calls": "count", "oracles.self_s": "s",
    "simulate.integrate_s": "s", "simulate.ns_per_step": "ns",
    "simulate.integrate_rss_mb": "MB", "simulate.kernel_bytes": "B-computed",
    "simulate.commutator_s": "s", "simulate.self_s": "s",
    "optimize.optimize_s": "s", "optimize.iterations": "count",
    "optimize.s_per_iter": "s/iter", "optimize.stationarity_s": "s",
    "optimize.value_ms": "ms", "optimize.gradient_ms": "ms",
    "optimize.self_s": "s",
    "cli.self_s": "s", "cli.artifact_bytes": "B",
    "sweep.point_s": "s", "sweep.workers": "count",
    "sweep.parallel_efficiency": "ratio",
    "trace.overhead_s": "s", "trace.spans": "count",
}
COUNTS = ("oracles.calls", "optimize.iterations", "cli.artifact_bytes",
          "simulate.kernel_bytes", "sweep.workers", "trace.spans")
_INTEGRATE = ("integrate_transfer", "integrate_transfer_lossy")


def layer_values(cfg: workloads.Config, inv: Invocation,
                 untraced_run_s: float) -> dict[str, float]:
    """Every per-layer metric from one traced invocation; 0 where a layer
    was never called."""
    tr = inv.extra["trace"]
    direct = inv.extra["direct"]

    def total(*names: str) -> float:
        return sum(tr["total_s"].get(n, 0.0) for n in names)

    oracle_calls, oracle_s = tr["from_cli"].get("oracles", (0, 0.0))
    steps = cfg.steps * sum(tr["calls"].get(n, 0) for n in _INTEGRATE)
    iters = inv.extra.get("iterations", 0)
    points = inv.extra.get("sweep_point_s", [])
    workers = inv.extra["pool_workers"]
    return {
        "types.profile_eval_ns": direct["profile_eval_ns"],
        "types.profile_values_s": total("profile_values"),
        "types.self_s": tr["layer_self_s"]["types"],
        "oracles.curve_s": oracle_s,
        "oracles.calls": oracle_calls,
        "oracles.self_s": tr["layer_self_s"]["oracles"],
        "simulate.integrate_s": total(*_INTEGRATE),
        "simulate.ns_per_step": total(*_INTEGRATE) / steps * 1e9 if steps else 0.0,
        "simulate.integrate_rss_mb": tr["integrate_rss_mb"],
        "simulate.kernel_bytes": cfg.kernel_bytes(),
        "simulate.commutator_s": total("commutator_check"),
        "simulate.self_s": tr["layer_self_s"]["simulate"],
        "optimize.optimize_s": total("optimize_profile"),
        "optimize.iterations": iters,
        "optimize.s_per_iter": total("optimize_profile") / iters if iters else 0.0,
        "optimize.stationarity_s": total("verify_stationarity"),
        "optimize.value_ms": direct["value_ms"],
        "optimize.gradient_ms": direct["gradient_ms"],
        "optimize.self_s": tr["layer_self_s"]["optimize"],
        "cli.self_s": tr["layer_self_s"]["cli"],
        "cli.artifact_bytes": inv.artifact_bytes,
        "sweep.point_s": _median(points),
        "sweep.workers": workers,
        # Pool workers' busy time over their capacity; in-process work is
        # one worker.
        "sweep.parallel_efficiency": (sum(points) / (max(workers, 1) * untraced_run_s)
                                      if points and untraced_run_s else 0.0),
        "trace.overhead_s": inv.run_s - untraced_run_s,
        "trace.spans": tr["spans"],
    }


def per_layer(wl: workloads.Workload, invs: list[Invocation]) -> tuple[dict, dict]:
    ok = [inv for inv in invs if inv.failure is None]
    untraced_run_s = _median([inv.run_s for inv in ok if not inv.traced])
    rows = [layer_values(wl.configs[0], inv, untraced_run_s)
            for inv in ok if inv.traced]
    metrics = {name: (_median([r[name] for r in rows]), unit)
               for name, unit in LAYER_UNITS.items()}
    detail = {"samples": {"traced": len(rows), "untraced": len(ok) - len(rows)},
              "counts": {c: [r[c] for r in rows] for c in COUNTS},
              "counts_repeat": all(len({r[c] for r in rows}) <= 1 for c in COUNTS),
              "untraced_run_s": untraced_run_s}
    return metrics, detail


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "platform": platform.platform()}


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "oscxfer" / "cli.py").is_file():
        print(f"error: no oscxfer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Compile the package once so no timed import pays for it.
    warm = subprocess.run([sys.executable, "-c", "import oscxfer.cli"],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True)
    if warm.returncode != 0:
        print(f"error: cannot import oscxfer.cli:\n{warm.stderr}", file=sys.stderr)
        return 1

    wl = workloads.build(args.workload, args.seed)
    if args.trace:
        plan = [(0, False), (0, True)]
        invs, refs = run_loop(wl, args.seconds, plan, plan)
        metrics, detail = per_layer(wl, invs)
    else:
        plan = [(k, False) for k in range(len(wl.configs))] + [(0, False)]
        cycle = [(k, False) for k in range(len(wl.configs))]
        invs, refs = run_loop(wl, args.seconds, plan, cycle)
        metrics, detail = end_to_end(wl, invs, refs)

    failed = sum(inv.failure is not None for inv in invs)
    detail.update({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "argv": [list(c.argv) for c in wl.configs],
        "environment": environment(),
        "digests": {k: ref.digest for k, ref in refs.items()},
        "failures": [f"config{inv.config}: {inv.failure}"
                     for inv in invs if inv.failure],
        "wall_s": sum(inv.wall_s for inv in invs),
    })
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(invs), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
