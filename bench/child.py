"""One timed CLI invocation in a fresh interpreter.

Usage: ``python3 child.py SPEC.json RESULT.json``, with ``oscxfer`` importable
(the runner puts the checkout's ``src`` on ``PYTHONPATH``) and the working
directory set to where the run's ``--out`` should land.

The spec holds ``argv`` and ``trace``.  The child times ``import oscxfer.cli``
(``setup_s``) and one ``main(argv)`` call (``run_s``), and records the peak
RSS of itself and its children.  Right after the import and right after the
call it times a fixed reference job (``calibration_s``) that the runner
scales the times by.  With ``trace`` set it also records a span
around every call that ``oscxfer.cli`` and ``oscxfer.optimize`` make into the
public functions of ``types``, ``oracles``, ``simulate`` and ``optimize``, by
wrapping the names those modules import.  Spans stay in memory until the run
ends; then the child writes them to ``spans.json`` and times a few layer
calls directly on the workload's grid (the spec's ``probe``).
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time

LAYERS = ("types", "oracles", "simulate", "optimize")
_RSS_SPANS = ("integrate_transfer", "integrate_transfer_lossy")


def _maxrss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Tracer:
    """Spans ``[name, layer, start, end, parent, rss_rise_mb]`` in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pool_workers = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str):
        spans, stack = self.spans, self._stack
        name = fn.__name__
        rss = name in _RSS_SPANS

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            before = _maxrss_mb() if rss else 0.0
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if rss:
                    span[5] = _maxrss_mb() - before

        traced.__wrapped__ = fn
        return traced

    def install(self, *modules) -> None:
        """Wrap the layer functions each module imports from another module."""
        import inspect  # after the timed import: dataclasses imports it too

        for module in modules:
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", "") or ""
                layer = home.rpartition(".")[2]
                if (inspect.isfunction(obj) and home.startswith("oscxfer.")
                        and layer in LAYERS and home != module.__name__):
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, self._wrap(obj, layer))
            pool = vars(module).get("ProcessPoolExecutor")
            if pool is not None:
                self._restore.append((module, "ProcessPoolExecutor", pool))
                setattr(module, "ProcessPoolExecutor", self._pool_class(pool))

    def _pool_class(self, base):
        tracer = self

        class CountingPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.pool_workers = max(tracer.pool_workers, self._max_workers)

        return CountingPool

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()


def summarize(spans: list[list], run_s: float) -> dict:
    """Per-layer self time and per-function totals from one run's spans.

    A span's self time is its duration minus its direct children's; the
    CLI's self time is the run minus every top-level span.
    """
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    layer_self = {layer: 0.0 for layer in LAYERS}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    top_level = 0.0
    from_cli: dict[str, list] = {}
    rss_rise = 0.0
    for i, (name, layer, start, end, parent, rise) in enumerate(spans):
        dur = end - start
        layer_self[layer] += dur - child[i]
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        rss_rise = max(rss_rise, rise)
        if parent < 0:
            top_level += dur
            entry = from_cli.setdefault(layer, [0, 0.0])
            entry[0] += 1
            entry[1] += dur
    return {"layer_self_s": {**layer_self, "cli": run_s - top_level},
            "total_s": total, "calls": calls, "from_cli": from_cli,
            "integrate_rss_mb": rss_rise, "spans": len(spans)}


def _calibration_job() -> float:
    """Seconds taken by a fixed scalar Python job that runs no oscxfer code:
    a Heun loop over ``math`` calls like the integrator's.  A numpy part
    did not track the CLI times consistently better, and its arrays would
    count in a small run's peak RSS."""
    t0 = time.perf_counter()
    y, t, h = 1.0, 0.0, 1e-4
    for _ in range(160_000):
        k1 = math.sin(t) - y * math.exp(-t)
        k2 = math.sin(t + h / 2) - (y + h / 2 * k1) * math.exp(-t - h / 2)
        y += h * k2
        t += h
    return time.perf_counter() - t0


def calibration_s(every_cpu: bool) -> float:
    """The calibration job's time at this moment.

    On a shared host a CPU's speed moves by up to 2x for seconds at a time,
    each CPU on its own, so CLI times alone wander from run to run.  Timed
    right before and right after the CLI call, the job measures the speed of
    the moment.  A call whose process pool spreads over ``every_cpu`` gets
    the job run on each CPU in turn; their speeds add, so their times combine
    as a harmonic mean.
    """
    if not every_cpu:
        return _calibration_job()
    cpus = os.sched_getaffinity(0)
    times = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        times.append(_calibration_job())
    os.sched_setaffinity(0, cpus)
    return len(times) / sum(1.0 / t for t in times)


def _median_time(fn, min_reps: int = 3, min_seconds: float = 0.3) -> float:
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def direct_timings(probe: dict) -> dict:
    """Layer calls timed on the workload's own grid and profile."""
    from oscxfer.optimize import functional_gradient, functional_value
    from oscxfer.types import (CouplingProfile, SystemParams, TimeGrid,
                               profile_values)

    p = SystemParams(gamma=probe["gamma"], transfer_time=probe["T"],
                     gamma_loss=probe["gamma_loss"], eta=probe["eta"])
    grid = TimeGrid(probe["T"], probe["steps"])
    profile = CouplingProfile.optimal(truncation=probe["dt_cut"],
                                      gamma1_max=probe["gamma1_max"])
    nodes = grid.nodes()
    eval_s = _median_time(lambda: profile_values(profile, p, nodes))
    return {"profile_eval_ns": eval_s / nodes.size * 1e9,
            "value_ms": _median_time(
                lambda: functional_value(profile, p, grid)) * 1e3,
            "gradient_ms": _median_time(
                lambda: functional_gradient(profile, p, grid)) * 1e3}


def replay_sweep(probe: dict, points: list[float]) -> list[float]:
    """Each sweep point's integration, serially in this process.

    Pool workers' spans are lost when their processes exit, so the traced
    run re-times each point here with the public API.
    """
    from oscxfer.oracles import fidelity_lossy
    from oscxfer.simulate import IntegratorConfig, integrate_transfer
    from oscxfer.types import CouplingProfile, SystemParams, TimeGrid

    times = []
    for T in points:
        t0 = time.perf_counter()
        p = SystemParams(gamma=probe["gamma"], transfer_time=T)
        grid = TimeGrid(T, probe["steps"])
        profile = CouplingProfile.optimal(truncation=grid.dt)
        integrate_transfer(profile, p, IntegratorConfig(n_steps=probe["steps"]))
        fidelity_lossy(p, T)
        times.append(time.perf_counter() - t0)
    return times


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import oscxfer.cli as cli
    setup_s = time.perf_counter() - t0

    every_cpu = bool(spec["sweep_points"])  # the sweep's pool uses every CPU
    calibration = [calibration_s(every_cpu)]
    tracer = None
    if spec["trace"]:
        import oscxfer.optimize as optimize
        tracer = Tracer()
        tracer.install(cli, optimize)

    t0 = time.perf_counter()
    rc = cli.main(spec["argv"])
    run_s = time.perf_counter() - t0
    peak = max(_maxrss_mb(), _maxrss_mb(resource.RUSAGE_CHILDREN))
    calibration.append(calibration_s(every_cpu))

    result = {"rc": rc, "setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak,
              "calibration_s": calibration}
    if tracer is not None:
        tracer.uninstall()
        with open("spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
        result["trace"] = summarize(tracer.spans, run_s)
        result["pool_workers"] = tracer.pool_workers
        result["direct"] = direct_timings(spec["probe"])
        if spec.get("sweep_points"):
            result["sweep_point_s"] = replay_sweep(spec["probe"],
                                                   spec["sweep_points"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
