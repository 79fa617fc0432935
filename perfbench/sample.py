"""One benchmark sample in a fresh interpreter.

    python3 perfbench/sample.py <job.json>

The job names the checkout's ``src`` directory, a mode and where to
write the result:

* ``setup``: time ``import blo`` plus ``build_problem`` for every run in
  the job's config file (the workload's problems).
* ``run``: call ``blo.cli.main(argv)`` and time it from call to return.
  With ``trace`` set, the per-layer hooks of ``tracer.py`` are installed
  first and their totals are written next to the wall time.

The result is a JSON object in the file the job names; stdout is left
to the program under test.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _percentile_us(durations, q: float) -> float:
    if not durations:
        return 0.0
    import numpy as np

    return float(np.percentile(np.frombuffer(durations, dtype=np.int64), q)) / 1e3


def layer_metrics(tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Flatten the tracer's totals into named per-layer metrics."""
    from tracer import METHODS, ORACLE_KINDS, _Layer

    layers = tracer.merged()
    empty = _Layer(False)

    def get(name):
        return layers.get(name, empty)

    out: dict[str, tuple[float, str]] = {}
    oracle_ns = 0
    for kind in ORACLE_KINDS:
        lay = get("oracle." + kind)
        oracle_ns += lay.ns
        out[f"oracle.{kind}.calls"] = (lay.calls, "count")
        out[f"oracle.{kind}.us_p50"] = (_percentile_us(lay.durations, 50), "us")
        out[f"oracle.{kind}.us_p99"] = (_percentile_us(lay.durations, 99), "us")
    out["oracle.busy_s"] = (oracle_ns / 1e9, "s")

    step_ns = step_oracle_ns = 0
    for method in METHODS:
        lay = get("step." + method)
        step_ns += lay.ns
        step_oracle_ns += lay.oracle_ns
        done = max(lay.done, 1)
        out[f"step.{method}.calls"] = (lay.calls, "count")
        out[f"step.{method}.us_p50"] = (_percentile_us(lay.durations, 50), "us")
        out[f"step.{method}.us_p99"] = (_percentile_us(lay.durations, 99), "us")
        out[f"step.{method}.busy_s"] = (lay.ns / 1e9, "s")
        out[f"step.{method}.self_s"] = ((lay.ns - lay.oracle_ns) / 1e9, "s")
        out[f"step.{method}.hvp_per_iter"] = (lay.hvps / done, "count/iter")
        out[f"step.{method}.jvp_per_iter"] = (lay.jvps / done, "count/iter")
    out["step.busy_s"] = (step_ns / 1e9, "s")
    out["step.self_s"] = ((step_ns - step_oracle_ns) / 1e9, "s")
    out["oracle.step_share"] = (step_oracle_ns / step_ns if step_ns else 0.0, "ratio")

    driver = get("driver")
    out["driver.busy_s"] = (driver.ns / 1e9, "s")
    out["driver.self_s"] = ((driver.ns - driver.child_ns) / 1e9, "s")
    out["runner.concurrency"] = (driver.ns / 1e9 / wall_s, "ratio")

    rows = get("metrics.row")
    out["metrics.rows"] = (rows.calls, "count")
    out["metrics.busy_s"] = (rows.ns / 1e9, "s")
    out["metrics.us_per_row"] = (rows.ns / 1e3 / max(rows.calls, 1), "us")

    for name in ("analytic", "probe", "build", "svg", "linalg.cg",
                 "linalg.neumann", "linalg.power"):
        lay = get(name)
        out[f"{name}.calls"] = (lay.calls, "count")
        out[f"{name}.busy_s"] = (lay.ns / 1e9, "s")
    out["linalg.cg.iters"] = (get("linalg.cg").items, "count")
    out["svg.bytes"] = (get("svg").nbytes, "bytes")

    sink = get("io.sink")
    out["io.trace_rows"] = (sink.calls, "count")
    out["io.busy_s"] = (sink.ns / 1e9, "s")

    wrap = get("problem.wrap")
    out["problem.wrap_calls"] = (wrap.calls, "count")
    out["problem.wrap_busy_s"] = (wrap.ns / 1e9, "s")
    out["config.parse_s"] = (get("config.parse").ns / 1e9, "s")
    return out


def _setup(job: dict) -> dict:
    t0 = time.perf_counter()
    import blo.cli  # noqa: F401  (the entry point pulls in every module)
    from blo.config import parse_config
    from blo.experiments import build_problem

    configs = parse_config(Path(job["config"]).read_text(encoding="utf-8"))
    for cfg in configs:
        build_problem(cfg.problem)
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "blo": blo.__file__}


def _run(job: dict) -> dict:
    import blo
    import blo.cli

    tracer = None
    if job.get("trace"):
        from tracer import Tracer  # next to this script, so on sys.path

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    code = blo.cli.main(job["argv"])
    wall_s = time.perf_counter() - t0
    result = {"exit_code": code, "wall_s": wall_s, "blo": blo.__file__}
    if tracer is not None:
        result["layers"] = {name: list(v) for name, v in
                            layer_metrics(tracer, wall_s).items()}
        result["missing_hooks"] = tracer.missing
    return result


def main(path: str) -> int:
    job = json.loads(Path(path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    result = _setup(job) if job["mode"] == "setup" else _run(job)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
