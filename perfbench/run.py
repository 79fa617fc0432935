"""Benchmark harness for ``blo``: one workload, one seed, one run.

    python3 perfbench/run.py --workload multimin --seed 3 --seconds 30 --trace 0

Run from the root of a checkout.  Each sample is a fresh interpreter
(``sample.py``) that calls ``blo.cli.main`` the way a user would, with
BLAS pinned to one thread.  ``--trace 0`` samples untraced until
``--seconds`` have passed (at least two samples) and reports the
medians of the end-to-end metrics; ``--trace 1`` alternates untraced
and traced samples and reports the per-layer metrics named in
``BENCHMARK.json``.  Every sample's outputs are checked: the study's
checks (or each run's status), the time-to-accuracy target, and a
SHA-256 of the traces without their ``wall_seconds`` column against
``digests.json``.  The last line of stdout is the result object.

``--record SEEDS`` (e.g. ``0,7``) stores the trace digests of the
current code, after checking that those seeds give the same traces.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

MIN_SAMPLES = 2
SETUP_SAMPLES = 9
RUN_BUDGET_S = 170.0  # a run must end within 180 s, whatever --seconds says
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

EXACT_UNITS = ("count", "count/iter")  # bytes vary with the wall_seconds digits
END_TO_END_UNITS = {"wall_s": "s", "solver_s": "s", "tta_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class HarnessError(Exception):
    """The benchmark cannot run here (no program, broken checkout)."""


@dataclass(frozen=True)
class Workload:
    name: str
    # time-to-accuracy: the solver clock at the first trace row of run
    # ``tta_run`` with ``tta_column`` <= ``tta_target``.  For "*" the runs
    # are combined by ``tta_combine``: "min" takes the earliest run to get
    # there, "sum" adds every run's time to get there or, failing that,
    # its whole solver time
    tta_run: str
    tta_column: str
    tta_target: float
    tta_combine: str = "min"
    # every run the sweep writes must end in this status (``blo run`` only)
    expected_status: str | None = None
    # pass the harness seed as the study's --seed; studies whose data the
    # seed draws run at their default seed, so every run does the same work
    study_seed: bool = True

    def argv(self, seed: int, out: Path, config: Path) -> list[str]:
        if self.expected_status is not None:
            return ["run", str(config), "--parallel", "1", "--out", str(out)]
        seed_args = ["--seed", str(seed)] if self.study_seed else []
        return ["reproduce", self.name, *seed_args, "--out", str(out)]


WORKLOADS = {w.name: w for w in (
    Workload("multimin", "bagdc", "kkt_residual", 1e-9),
    Workload("hypercleaning", "bagdc", "ul_value", 0.6, study_seed=False),
    Workload("ll-accuracy", "*", "kkt_residual", 1e-5, "sum", study_seed=False),
    Workload("trace-sweep", "*", "kkt_residual", 1e-5, expected_status="max-iters"),
)}

SWEEP_ITERS = 5000


def sweep_config(seed: int) -> dict:
    """The trace-sweep input: 4 multimin/bagdc runs, a trace row per step."""
    return {"runs": [{
        "name": "sweep",
        "seed": seed,
        "trace_every": 1,
        "problem": {"family": "multimin"},
        "method": {"name": "bagdc"},
        "schedule": {"mode": "merely-convex", "alpha": [1000.0, 2000.0],
                     "beta": 0.9, "eta": [8.0, 16.0], "mu_bar": 0.5,
                     "p": 1.0 / 12.0, "lam": 1.0},
        "stop": {"max_iters": SWEEP_ITERS},
    }]}


# ---------------------------------------------------------------------------
# environment


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("BLO_SEED", None)  # would override the workload's seed
    env.pop("PYTHONPATH", None)
    return env


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the host-speed probe."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def platform_fingerprint() -> dict:
    import numpy as np

    blas = ""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')} {deps.get('openblas configuration', '')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.strip(), "machine": platform.machine(), "cpu": cpu}


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    version = "unknown"
    for line in (SRC / "blo" / "__init__.py").read_text().splitlines():
        if line.startswith("__version__"):
            version = line.split("=", 1)[1].strip().strip("\"'")
    return {
        **platform_fingerprint(),
        "threads": {var: child_env().get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blo_version": version,
        "git_commit": commit,
        "calibration_ms": calibration_ms(),
    }


# ---------------------------------------------------------------------------
# samples


def run_child(job: dict, workdir: Path, deadline: float) -> dict:
    """Run sample.py on ``job`` in a fresh interpreter and return its result.

    The child is killed if it is still running at ``deadline``
    (``time.monotonic()`` seconds).
    """
    job = {**job, "src": str(SRC), "result": str(workdir / "result.json")}
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path = Path(job["result"])
    result_path.unlink(missing_ok=True)
    proc = subprocess.Popen([sys.executable, str(HERE / "sample.py"), str(job_path)],
                            cwd=workdir, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"{job['mode']} sample still running after {RUN_BUDGET_S} s")
    if proc.returncode != 0 or not result_path.exists():
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise HarnessError(f"sample exited with {proc.returncode}: {tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    blo_file = Path(result["blo"]).resolve()
    if SRC.resolve() not in blo_file.parents:
        raise HarnessError(f"sample imported blo from {blo_file}, not from {SRC}")
    return result


def _trace_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def inspect_outputs(workload: Workload, out: Path, exit_code: int) -> dict:
    """Check a sample's output directory and take its end-to-end numbers.

    Returns the study checks (or run statuses) as named operations, the
    summed solver clock, the time-to-accuracy, the trace digest, and the
    bytes of trace written.
    """
    ops: dict[str, bool] = {"exit_code_0": exit_code == 0}
    summaries = sorted(out.rglob("summary.json"))
    run_dirs = [p.parent for p in summaries if (p.parent / "trace.csv").exists()]
    if workload.expected_status is None:
        study = out / "summary.json"
        if study.exists():
            checks = json.loads(study.read_text(encoding="utf-8")).get("checks", {})
            ops.update({f"check.{k}": bool(v) for k, v in checks.items()})
        else:
            ops["study_summary_written"] = False
    digest = hashlib.sha256()
    solver_s = 0.0
    trace_bytes = 0
    tta_hits: list[float] = []
    tta_misses: list[float] = []
    for run_dir in run_dirs:
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        solver_s += float(summary["wall_seconds"])
        if workload.expected_status is not None:
            ops[f"status.{run_dir.name}"] = summary["status"] == workload.expected_status
        trace = run_dir / "trace.csv"
        trace_bytes += trace.stat().st_size
        header, rows = _trace_rows(trace)
        wall = header.index("wall_seconds")
        digest.update(str(run_dir.relative_to(out)).encode() + b"\n")
        digest.update(",".join(c for i, c in enumerate(header) if i != wall).encode() + b"\n")
        for row in rows:
            digest.update(",".join(c for i, c in enumerate(row) if i != wall).encode() + b"\n")
        digest.update(json.dumps([summary["status"], summary["iterations"],
                                  summary["counts"]], sort_keys=True).encode() + b"\n")
        if workload.tta_run in ("*", run_dir.name):
            col = header.index(workload.tta_column)
            hit = next((float(row[wall]) for row in rows
                        if row[col] and float(row[col]) <= workload.tta_target), None)
            if hit is not None:
                tta_hits.append(hit)
            elif workload.tta_combine == "sum":
                tta_misses.append(float(summary["wall_seconds"]))
    ops["runs_written"] = bool(run_dirs)
    ops["tta_target_met"] = bool(tta_hits)
    if workload.tta_combine == "sum":
        tta_s = sum(tta_hits) + sum(tta_misses)
    else:
        tta_s = min(tta_hits, default=solver_s)
    return {"ops": ops, "solver_s": solver_s, "digest": digest.hexdigest(),
            "tta_s": tta_s, "trace_bytes": trace_bytes}


def stored_digest(workload: Workload, fingerprint: dict) -> str | None:
    """The recorded digest, if it was recorded on this platform.

    No workload's traces depend on the harness seed, so there is one
    digest per workload.  Bitwise traces can differ between BLAS
    kernels, so a digest from another platform is not compared.
    """
    if not DIGESTS.exists():
        return None
    store = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if store.get("platform") != fingerprint:
        return None
    return store.get("workloads", {}).get(workload.name)


class Run:
    """The samples of one workload and seed, and their verdicts."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()
        self.reference: str | None = None
        self.config = self.dir / "config.json"
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def __enter__(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        if self.workload.expected_status is not None:
            self.config.write_text(json.dumps(sweep_config(self.seed), indent=2),
                                   encoding="utf-8")
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    def sample(self, trace: bool) -> dict:
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        result = run_child({"mode": "run", "trace": trace,
                            "argv": self.workload.argv(self.seed, out, self.config)},
                           self.dir, self.deadline)
        seen = inspect_outputs(self.workload, out, result["exit_code"])
        ops = seen["ops"]
        if self.reference is not None:
            ops["digest_matches_record"] = seen["digest"] == self.reference
        if self.digests:
            ops["digest_matches_other_samples"] = seen["digest"] in self.digests
        self.digests.add(seen["digest"])
        for name, ok in ops.items():
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(name)
        if self.workload.expected_status is None and (out / "config.json").exists():
            shutil.copyfile(out / "config.json", self.config)
        shutil.rmtree(out, ignore_errors=True)
        return {**result, **seen}

    def setup_s(self) -> list[float]:
        return [run_child({"mode": "setup", "config": str(self.config)},
                          self.dir, self.deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            per_layer: list[dict] | None = None, log=print) -> dict:
    """One run: samples for ``seconds``, then medians.  See module doc."""
    if not (SRC / "blo" / "__init__.py").is_file():
        raise HarnessError(f"no blo package under {SRC}: nothing to benchmark")
    env = environment()
    log("env " + json.dumps(env, sort_keys=True))
    with Run(workload, seed) as run:
        run.reference = stored_digest(workload, platform_fingerprint())
        log("digest reference: " + ("recorded" if run.reference else
                                    "none for this platform; samples checked against each other"))
        untraced, traced = [], []
        t_start = time.perf_counter()
        setup = []
        while True:
            untraced.append(run.sample(trace=False))
            if not trace and len(untraced) == 1:
                setup = run.setup_s()
                t_start += sum(setup)  # the window covers samples only
            if trace:
                traced.append(run.sample(trace=True))
            elapsed = time.perf_counter() - t_start
            per_round = elapsed / len(untraced)
            enough = trace or len(untraced) >= MIN_SAMPLES
            if enough and elapsed + per_round > seconds:
                break
            if time.monotonic() + 2 * per_round > run.deadline:
                break
        digests = sorted(run.digests)
        result = {"workload": workload.name, "seed": seed, "trace": trace,
                  "env": env, "attempted": run.attempted, "failed": run.failed,
                  "failures": sorted(set(run.failures)), "digests": digests,
                  "samples": len(untraced)}

    samples = {key: [s[key] for s in untraced]
               for key in ("wall_s", "solver_s", "tta_s", "peak_rss_mb")}
    if setup:
        samples["setup_s"] = setup
    result["sample_values"] = samples
    stats = {key: quartiles(values) for key, values in samples.items()}
    result["stats"] = {k: {"q1": v[0], "median": v[1], "q3": v[2],
                           "n": len(setup) if k == "setup_s" else len(untraced)}
                       for k, v in stats.items()}
    if not trace:
        result["metrics"] = {k: {"value": stats[k][1], "unit": END_TO_END_UNITS[k]}
                             for k in END_TO_END_UNITS}
        return result

    layers: dict[str, tuple[float, str]] = {}
    for name, (_, unit) in traced[0]["layers"].items():
        values = [s["layers"][name][0] for s in traced]
        if unit in EXACT_UNITS and len(values) > 1:
            # exact counts must repeat from one traced sample to the next
            result["attempted"] += 1
            if len(set(values)) > 1:
                result["failed"] += 1
                result["failures"].append(f"count_differs.{name}")
        layers[name] = (statistics.median(values), unit)
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    untraced_wall = stats["wall_s"][1]
    layers["io.trace_bytes"] = (traced[0]["trace_bytes"], "bytes")
    layers["trace.traced_wall_s"] = (traced_wall, "s")
    layers["trace.untraced_wall_s"] = (untraced_wall, "s")
    layers["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    result["layers"] = layers
    result["missing_hooks"] = traced[0].get("missing_hooks", [])
    wanted = per_layer if per_layer is not None else [
        {"name": n, "unit": u} for n, (_, u) in layers.items()]
    metrics = {}
    for spec in wanted:
        value, unit = layers.get(spec["name"], (None, None))
        if unit != spec["unit"]:
            raise HarnessError(f"per-layer metric {spec['name']} measured in {unit}, "
                               f"listed in {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    result["metrics"] = metrics
    return result


def record(names: list[str], seeds: list[int]) -> None:
    """Store the trace digests of the current code in digests.json.

    Each workload runs once per seed; the digests must agree, since the
    traces do not depend on the seed.
    """
    fingerprint = platform_fingerprint()
    store = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    if store.get("platform") != fingerprint:
        store = {"platform": fingerprint, "workloads": {}}
    for name in names:
        seen = set()
        for seed in seeds:
            with Run(WORKLOADS[name], seed) as run:
                digest = run.sample(trace=False)["digest"]
            if run.failed:
                raise HarnessError(f"{name} seed {seed}: failed {run.failures}")
            print(f"{name} seed {seed}: {digest}", flush=True)
            seen.add(digest)
        if len(seen) != 1:
            raise HarnessError(f"{name}: traces differ between seeds {seeds}")
        store["workloads"][name] = seen.pop()
        DIGESTS.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")


def _seed_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True,
                        action="append")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS",
                        help="store the trace digests, checked on seeds such as 0,7")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record(args.workload, _seed_list(args.record))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        result = measure(WORKLOADS[args.workload[-1]], args.seed, args.seconds,
                         bool(args.trace), per_layer=spec["per_layer"])
    except (HarnessError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for key, st in result["stats"].items():
        print(f"{key}: median {st['median']!r} q1 {st['q1']!r} q3 {st['q3']!r} n {st['n']}")
        print(f"  samples {key}: " + " ".join(f"{v:.6g}" for v in result["sample_values"][key]))
    if args.trace:
        for name, (value, unit) in result["layers"].items():
            print(f"layer {name} = {value!r} {unit}")
    if result["failures"]:
        print("failures: " + ", ".join(result["failures"]))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
