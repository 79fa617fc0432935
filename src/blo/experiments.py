"""Experiment orchestration: problem construction, run execution, studies.

Each run writes its own directory containing ``trace.csv`` (one row per
traced iteration, fixed header) and ``summary.json`` (status, final
metrics, oracle counts, config echo).  ``reproduce`` runs one of the six
pre-baked studies.  Each study is an entry of ``_STUDIES`` (its configs,
comparison columns, optional probe, figures and checks), and one runner
writes every study's config, per-run artifacts, long-form comparison
CSV, SVG figures and summary.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .config import ConfigError, ExperimentConfig, ProblemSpec, config_to_dict
from .dataio import load_idx
from .metrics import TRACE_HEADER, TraceRecord, csv_line, hypergrad_error
from .problem import Counts
from .solvers import (MethodSpec, RunSummary, ScheduleConfig, SolverState, StopRule,
                      run_solver)
from . import svgplot
from .svgplot import AxesSpec, Series
from .testbeds import (Testbed, classifier_accuracy, corrupt_labels, f1_clean,
                       hypercleaning_problem, make_multimin, make_quadratic,
                       split_dataset, synth_blobs)


def build_problem(spec: ProblemSpec) -> Testbed:
    """Instantiate the testbed a ProblemSpec describes."""
    if spec.family == "quadratic":
        return make_quadratic(spec.n, spectrum=spec.spectrum, z0=spec.z0, seed=spec.seed)
    if spec.family == "multimin":
        return make_multimin()
    # hypercleaning; the spec has checked its sizes and IDX paths
    if spec.idx_train is not None:
        train = load_idx(spec.idx_train, spec.idx_train_labels)
        val = load_idx(spec.idx_val, spec.idx_val_labels)
        if train.n_classes != val.n_classes:
            classes = max(train.n_classes, val.n_classes)
            train = replace(train, n_classes=classes)
            val = replace(val, n_classes=classes)
    else:
        pool = synth_blobs(spec.classes, spec.dim,
                           (spec.n_train + spec.n_val) // spec.classes,
                           spec.separation, spec.seed)
        train, val = split_dataset(pool, spec.n_train, spec.seed + 1)
        train = corrupt_labels(train, spec.rho, spec.seed + 2)
    return hypercleaning_problem(train, val, c=spec.reg_c)


def _summary_payload(summary: RunSummary, cfg: ExperimentConfig | None = None) -> dict:
    payload = {
        "status": summary.status,
        "iterations": summary.iterations,
        "wall_seconds": summary.wall_seconds,
        "counts": {"grads": summary.counts.grads, "hvps": summary.counts.hvps,
                   "jvps": summary.counts.jvps},
        "schedule": summary.schedule,
        "final": summary.final,
    }
    if summary.error is not None:
        payload["error"] = summary.error
        payload["at_iteration"] = summary.error_at
    if cfg is not None:  # a run's own summary.json echoes its config
        from . import __version__
        payload.update(config=config_to_dict(cfg), version=__version__)
    return payload


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_to_dir(built: Testbed, cfg: ExperimentConfig, run_dir: Path,
                probe=None) -> tuple[SolverState, RunSummary, list[TraceRecord]]:
    records: list[TraceRecord] = []
    with open(run_dir / "trace.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")

        def sink(rec: TraceRecord) -> None:
            fh.write(rec.csv_row() + "\n")
            records.append(rec)

        state, summary = run_solver(
            built.problem, cfg.method, cfg.schedule, cfg.stop,
            oracle=built.oracle, sink=sink, seed=cfg.seed,
            trace_every=cfg.trace_every, probe=probe)
    _write_json(run_dir / "summary.json", _summary_payload(summary, cfg))
    return state, summary, records


def _build_or_fail(cfg: ExperimentConfig, run_dir: Path
                   ) -> tuple[Testbed | None, RunSummary | None]:
    """``(built, None)``, or ``(None, summary)`` when the build fails (say, on
    a missing IDX file): that run's ``error``, written into ``run_dir``."""
    try:
        return build_problem(cfg.problem), None
    except Exception as exc:
        return None, _failed_run(cfg, run_dir, f"{type(exc).__name__}: {exc}", 0)


def _failed_run(cfg: ExperimentConfig, run_dir: Path, error: str,
                error_at: int | None) -> RunSummary:
    """The ``error`` summary of a run that could not start or whose worker process
    died, written into ``run_dir`` with a header-only trace."""
    (run_dir / "trace.csv").write_text(TRACE_HEADER + "\n", encoding="utf-8")
    summary = RunSummary("error", 0, 0.0, Counts(), {}, {}, error, error_at)
    _write_json(run_dir / "summary.json", _summary_payload(summary, cfg))
    return summary


def execute_run(cfg: ExperimentConfig, run_dir: Path) -> RunSummary:
    """Build the problem a config names and run it into ``run_dir``."""
    run_dir = _out_dir(run_dir)
    built, failed = _build_or_fail(cfg, run_dir)
    if failed is not None:
        return failed
    return _run_to_dir(built, cfg, run_dir)[1]


def _report_failed(summaries: dict[str, RunSummary]) -> bool:
    """One stderr line per run that did not finish clean; True if there was one."""
    failed = [(name, s) for name, s in summaries.items() if not s.ok]
    for name, summary in failed:
        print(f"run {name}: {summary.status}: {summary.error}", file=sys.stderr)
    return bool(failed)


def _check_parallel(parallel: int) -> None:
    if parallel < 1:
        raise ConfigError(f"--parallel must be at least 1, got {parallel}")


def _share(fn: Callable, items: list) -> None:
    """A worker's initializer: what ``_call_shared`` runs."""
    global _shared
    _shared = fn, items


def _call_shared(i: int):
    fn, items = _shared
    return fn(items[i])


def _map_runs(fn: Callable, items: list, parallel: int, lost: Callable) -> list:
    """``[fn(item) for item in items]`` on up to ``parallel`` forked processes that
    inherit ``fn`` and ``items`` (which hold lambdas); only indices and results are
    pickled.  One worker, or a platform other than Linux, runs inline.  A worker
    that dies breaks the pool: the results already back are kept, and every other
    item gets ``lost(item, error)``."""
    workers = min(parallel, len(items))
    if workers <= 1 or not sys.platform.startswith("linux"):
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_share, initargs=(fn, items)) as pool:
        futures = [pool.submit(_call_shared, i) for i in range(len(items))]
    return [lost(item, "BrokenProcessPool: worker process exited")
            if isinstance(future.exception(), BrokenProcessPool) else future.result()
            for item, future in zip(items, futures)]


def _out_dir(out_dir, runs: Sequence[str] = ()) -> Path:
    """``out_dir`` as a directory, with a subdirectory for each name in ``runs``,
    made if need be.  A ``ConfigError`` if one cannot be; then no run's
    directory is left made."""
    out, made = Path(out_dir), []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for run_dir in (out / name for name in runs):
            if not run_dir.is_dir():
                run_dir.mkdir()
                made.append(run_dir)
    except OSError as exc:  # e.g. a file of that name
        for run_dir in made:
            run_dir.rmdir()
        raise ConfigError(f"cannot create output directory {exc.filename}: {exc}") from exc
    return out


def run_experiments(configs: Sequence[ExperimentConfig], out_dir,
                    parallelism: int = 1) -> int:
    """Run each config in its own subdirectory; 0 iff every run finished clean.
    Each run that did not gets one stderr line: its name, status and error."""
    _check_parallel(parallelism)
    if not configs:
        return 0
    names = []
    for i, cfg in enumerate(configs):
        names.append(cfg.name if cfg.name is not None else f"run-{i:03d}")
    if len(set(names)) != len(names):
        raise ConfigError("run names collide; give sweep entries distinct names")
    out = _out_dir(out_dir, names)
    jobs = [(cfg, out / name) for cfg, name in zip(configs, names)]
    summaries = _map_runs(lambda job: execute_run(*job), jobs, parallelism,
                          lambda job, error: _failed_run(*job, error, None))
    return 1 if _report_failed(dict(zip(names, summaries))) else 0


# ---------------------------------------------------------------------------
# studies
#
# A study is a table entry: the runs it makes, the trace columns it copies
# into comparison.csv, an optional probe, its figures and its checks.
# ``_run_study`` builds, runs and writes every study the same way.

@dataclass
class StudyRun:
    """One run of a study, as its probe, rows, figures and checks see it."""

    cfg: ExperimentConfig
    built: Testbed | None  # None when the build failed
    probed: list = field(default_factory=list)  # what the study's probe recorded
    state: SolverState | None = None
    summary: RunSummary | None = None
    records: list[TraceRecord] = field(default_factory=list)


@dataclass(frozen=True)
class Figure:
    file: str
    axes: AxesSpec
    series: Callable[[dict[str, StudyRun]], list[Series]]


@dataclass(frozen=True)
class Study:
    configs: Callable[[int, dict | None], list[ExperimentConfig]]  # (seed, idx)
    columns: tuple[str, ...]  # trace columns copied into comparison.csv
    figures: tuple[Figure, ...]
    checks: Callable[[dict[str, StudyRun]], dict[str, bool]]
    # a per-step probe; one with a ``flush`` has it called once its run has ended
    probe: Callable[[StudyRun], Callable] | None = None
    # comparison rows, as cells, written ahead of a run's trace rows
    rows: Callable[[StudyRun], list[tuple]] | None = None
    seed: int = 0
    takes_idx: bool = False
    # one process per run on the usable CPUs; off where an output reads one run's
    # clock alone, runs are too short to pay for forks, or a profiler should see them
    pool: bool = False


def _run_study(name: str, study: Study, configs: list[ExperimentConfig], out_dir,
               seed: int, parallel: int = 1) -> int:
    out = _out_dir(out_dir, [cfg.name for cfg in configs])
    _write_json(out / "config.json", {"runs": [config_to_dict(c) for c in configs]})
    runs: dict[str, StudyRun] = {}
    for cfg in configs:
        built, failed = _build_or_fail(cfg, out / cfg.name)
        runs[cfg.name] = StudyRun(cfg, built, summary=failed)
    todo = [run for run in runs.values() if run.built is not None]

    def execute(run: StudyRun) -> tuple:  # in a worker process when parallel > 1
        probe = study.probe(run) if study.probe is not None else None
        result = _run_to_dir(run.built, run.cfg, out / run.cfg.name, probe=probe)
        if hasattr(probe, "flush"):
            probe.flush()
        return (*result, run.probed)

    def lose(run: StudyRun, error: str) -> tuple:  # its worker process died
        return None, _failed_run(run.cfg, out / run.cfg.name, error, None), [], []

    rows: list[tuple] = [("label", "metric", "k", "wall_seconds", "value")]
    for run, result in zip(todo, _map_runs(execute, todo, parallel, lose)):
        run.state, run.summary, run.records, run.probed = result
        if study.rows is not None:
            rows += study.rows(run)
        rows += [(run.cfg.name, column, rec.k, rec.wall_seconds, value)
                 for rec in run.records for column in study.columns
                 if (value := getattr(rec, column)) is not None]
    with open(out / "comparison.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(csv_line(row) + "\n" for row in rows))

    warnings: list[str] = []
    missing = [label for label, run in runs.items() if run.state is None]
    if missing:  # figures and checks read every run's final state
        warnings.append(f"no figures or checks: no result from {', '.join(missing)}")
        built = all(run.built is not None for run in runs.values())
        checks = {"all_runs_finished" if built else "all_runs_built": False}
    else:
        for fig in study.figures:
            warnings += svgplot.emit_svg(fig.series(runs), fig.axes, str(out / fig.file))
        checks = study.checks(runs)
    ok = all(checks.values())
    _write_json(out / "summary.json", {
        "study": name, "seed": seed,
        "runs": {label: _summary_payload(run.summary) for label, run in runs.items()},
        "checks": checks, "warnings": warnings, "ok": ok,
    })
    if not ok:  # a passing study may hold runs meant to fail; it prints nothing
        _report_failed({label: run.summary for label, run in runs.items()})
        failed = ", ".join(key for key, passed in checks.items() if not passed)
        print(f"study {name}: failed checks: {failed}", file=sys.stderr)
    return 0 if ok else 1


def _trace_series(column: str):
    """Figure series: ``column`` against k, one per run that recorded it."""
    def series(runs: dict[str, StudyRun]) -> list[Series]:
        out = []
        for label, run in runs.items():
            pts = [(r.k, getattr(r, column)) for r in run.records
                   if getattr(r, column) is not None]
            if pts:
                out.append(Series(label, [k for k, _ in pts], [v for _, v in pts]))
        return out
    return series


def _probe_series(x_at: int, y_at: int):
    """Figure series: two fields of each run's probe records."""
    def series(runs: dict[str, StudyRun]) -> list[Series]:
        return [Series(label, [p[x_at] for p in run.probed], [p[y_at] for p in run.probed])
                for label, run in runs.items()]
    return series


def _all_finished(runs: dict[str, StudyRun]) -> bool:
    return all(run.summary.ok for run in runs.values())


def _quadratic_cfg(name: str, method: MethodSpec, schedule: ScheduleConfig,
                   stop: StopRule, *, n: int, spectrum="identity",
                   seed: int = 0, trace_every: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        problem=ProblemSpec(family="quadratic", n=n, spectrum=spectrum, seed=seed),
        method=method, schedule=schedule, stop=stop, seed=seed,
        trace_every=trace_every, name=name)


# counterexample: one-step alternation stalls at a biased fixed point; the
# dual correction removes the bias.  Quadratic, A = I, z0 = ones, beta = 0.5.

def _counterexample_configs(seed: int, idx=None) -> list[ExperimentConfig]:
    sched = ScheduleConfig(mode="strongly-convex", alpha=0.1, beta=0.5, eta=0.5)
    stop = StopRule(max_iters=4000, d_norm_tol=1e-10)
    return [_quadratic_cfg(name, MethodSpec(name), sched, stop, n=100, seed=seed,
                           trace_every=10) for name in ("nosa", "bagdc")]


def _counterexample_checks(runs: dict[str, StudyRun]) -> dict[str, bool]:
    nosa, bagdc = runs["nosa"].summary, runs["bagdc"].summary
    # x* = 0.5; alternation settles at 1 / (1 + beta)
    beta = runs["nosa"].cfg.schedule.beta
    plateau = abs(1.0 / (1.0 + beta) - 0.5) / 0.5
    nosa_final = nosa.final.get("dist_x_rel")
    bagdc_final = bagdc.final.get("dist_x_rel")
    return {
        "nosa_finished": nosa.ok,
        "bagdc_finished": bagdc.ok,
        "nosa_plateaus_at_bias": (nosa_final is not None
                                  and abs(nosa_final - plateau) <= 1e-4),
        "bagdc_below_1e-4": bagdc_final is not None and bagdc_final < 1e-4,
    }


# eta-sweep: multiplier step sensitivity on the identity quadratic (L = 1).

def _eta_sweep_configs(seed: int, idx=None) -> list[ExperimentConfig]:
    stop = StopRule(max_iters=20000, d_norm_tol=1e-5)
    configs = []
    for name, eta, rule in (("eta-0.25", 0.25, "fixed"), ("eta-1.0", 1.0, "fixed"),
                            ("eta-50.0", 50.0, "fixed"),
                            ("eta-adaptive", 1.0, "adaptive")):
        sched = ScheduleConfig(mode="strongly-convex", alpha=0.4, beta=0.8,
                               eta=eta, eta_rule=rule)
        configs.append(_quadratic_cfg(name, MethodSpec("bagdc"), sched, stop,
                                      n=50, seed=seed))
    return configs


def _eta_sweep_checks(runs: dict[str, StudyRun]) -> dict[str, bool]:
    it = {name: run.summary.iterations for name, run in runs.items()}
    conv = {name: run.summary.status == "converged" for name, run in runs.items()}
    return {
        "small_etas_converge": conv["eta-0.25"] and conv["eta-1.0"],
        "larger_eta_strictly_faster": it["eta-1.0"] < it["eta-0.25"],
        "huge_eta_diverges": runs["eta-50.0"].summary.status == "diverged",
        "adaptive_converges": conv["eta-adaptive"],
        "adaptive_competitive": conv["eta-adaptive"]
            and it["eta-adaptive"] <= 1.5 * min(it["eta-0.25"], it["eta-1.0"]),
    }


# ll-accuracy: hypergradient error against the analytic gradient as the
# inner solve gets cheaper, for each baseline family, plus one run of the
# single-loop method.

def _ll_accuracy_configs(seed: int, idx=None) -> list[ExperimentConfig]:
    specs: list[tuple[str, MethodSpec]] = [("bagdc", MethodSpec("bagdc"))]
    for T in (1, 10, 100):
        specs.append((f"rhg-T{T}", MethodSpec("rhg", T=T)))
    for eps in (1e-1, 1e-4, 1e-8):
        specs.append((f"implicit-cg-eps{eps:g}", MethodSpec("implicit-cg", T=10, eps=eps)))
    for M in (1, 10, 100):
        specs.append((f"implicit-ns-M{M}", MethodSpec("implicit-ns", T=10, M=M)))
    return [_quadratic_cfg(name, m, ScheduleConfig(mode="strongly-convex"),
                           StopRule(max_iters=300), n=50, spectrum=(0.5, 5.0),
                           seed=seed, trace_every=10) for name, m in specs]


def _hypergrad_probe(run: StudyRun):
    """Keeps (k, d, x_k) of each step; ``flush`` solves the run's ground truth
    in one stack and appends (k, |d - grad phi(x_k)|) to ``run.probed``.  A
    point whose ground truth cannot be solved records ``nan``."""
    oracle = run.built.oracle
    points: list[tuple] = []

    def flush():
        if points:
            ks, ds, xs = zip(*points)
            # as in the run's loop: a diverged point is nan, it does not warn
            with np.errstate(over="ignore", invalid="ignore"):
                errors = hypergrad_error(np.stack(ds), oracle, np.stack(xs))
            run.probed.extend(zip(ks, errors.tolist()))

    def probe(k, seconds, before, after, d):
        points.append((k, d, before.x))
    probe.flush = flush
    return probe


def _hypergrad_rows(run: StudyRun) -> list[tuple]:
    return [(run.cfg.name, "hypergrad_error", k, None, e)
            for k, e in run.probed[::run.cfg.trace_every]]


# dimension-scaling: per-iteration cost of the single-loop method vs full
# unrolling as dimension grows.  The oracle-count split (1 vs T products
# per iteration) is the portable form of the claim.

def _scaling_configs(seed: int, idx=None) -> list[ExperimentConfig]:
    configs = []
    for n in (100, 1000, 10000):
        for label, method, iters in (("bagdc", MethodSpec("bagdc"), 50),
                                     ("rhg-T100", MethodSpec("rhg", T=100), 5)):
            configs.append(_quadratic_cfg(f"{label}-n{n}", method,
                                          ScheduleConfig(mode="strongly-convex"),
                                          StopRule(max_iters=iters), n=n, seed=seed,
                                          trace_every=max(1, iters // 5)))
    return configs


def _seconds_per_iteration(summary: RunSummary) -> float:
    return summary.wall_seconds / max(summary.iterations, 1)


def _scaling_rows(run: StudyRun) -> list[tuple]:
    name, s = run.cfg.name, run.summary
    per_iter = _seconds_per_iteration(s)
    iters = max(s.iterations, 1)
    return [(name, "seconds_per_iteration", None, per_iter, per_iter),
            (name, "hvps_per_iteration", None, None, s.counts.hvps / iters),
            (name, "jvps_per_iteration", None, None, s.counts.jvps / iters)]


def _scaling_series(runs: dict[str, StudyRun]) -> list[Series]:
    points: dict[str, list[tuple[int, float]]] = {}
    for name, run in runs.items():
        points.setdefault(name.rsplit("-n", 1)[0], []).append(
            (run.cfg.problem.n, _seconds_per_iteration(run.summary)))
    return [Series(label, [n for n, _ in pts], [t for _, t in pts])
            for label, pts in points.items()]


def _scaling_checks(runs: dict[str, StudyRun]) -> dict[str, bool]:
    hvps = {name: run.summary.counts.hvps / run.cfg.stop.max_iters
            for name, run in runs.items()}
    return {
        "all_runs_finished": _all_finished(runs),
        "one_product_per_iteration": all(
            h == 1.0 for name, h in hvps.items() if name.startswith("bagdc-")),
        "unrolling_costs_T_products": all(
            h == 100.0 for name, h in hvps.items() if name.startswith("rhg-T100-")),
    }


# multimin: non-unique lower minimizers.  Only the aggregated methods land
# on the true solution x* = 1; unrolling stalls elsewhere and implicit
# solves hit the singular Hessian.

def _multimin_configs(seed: int, idx=None) -> list[ExperimentConfig]:
    mm_spec = ProblemSpec(family="multimin")
    bagdc_sched = ScheduleConfig(mode="merely-convex", alpha=2000.0, beta=0.9,
                                 eta=16.0, mu_bar=0.5, p=1.0 / 12.0, lam=1.0)
    const_sched = ScheduleConfig(mode="strongly-convex", alpha=0.5, beta=0.9,
                                 eta=0.9)
    const_stop = StopRule(max_iters=200, d_norm_tol=1e-10)
    configs = [ExperimentConfig(mm_spec, MethodSpec("bagdc"), bagdc_sched,
                                StopRule(max_iters=200000, kkt_tol=1e-9), seed=seed,
                                trace_every=1000, name="bagdc")]
    for method in (MethodSpec("bda", T=100, mu=0.5, lam=1.0), MethodSpec("rhg", T=100),
                   MethodSpec("implicit-cg", T=100, eps=1e-8),
                   MethodSpec("implicit-ns", T=100, M=100)):
        configs.append(ExperimentConfig(mm_spec, method, const_sched, const_stop,
                                        seed=seed, name=method.name))
    return configs


def _multimin_checks(runs: dict[str, StudyRun]) -> dict[str, bool]:
    ok = {name: run.summary.ok for name, run in runs.items()}
    dist = {name: abs(float(run.state.x[0]) - 1.0) for name, run in runs.items()}
    return {
        "bagdc_reaches_solution": ok["bagdc"] and dist["bagdc"] <= 1e-3,
        "bda_reaches_solution": ok["bda"] and dist["bda"] <= 1e-3,
        "rhg_stalls_elsewhere": ok["rhg"] and dist["rhg"] > 1e-2,
        "implicit_cg_hits_singular_hessian":
            runs["implicit-cg"].summary.status == "singular-hessian",
        "implicit_ns_stalls_elsewhere": ok["implicit-ns"] and dist["implicit-ns"] > 1e-2,
    }


# hypercleaning: sample reweighting against corrupted labels.  Validation
# accuracy per solver second, single-loop vs T-step unrolling, plus
# recovery of the clean/corrupt split.

def _hypercleaning_configs(seed: int, idx: dict[str, str] | None) -> list[ExperimentConfig]:
    prob = ProblemSpec(family="hypercleaning", classes=10, dim=20, n_train=1000,
                       n_val=500, rho=0.3, seed=seed, **(idx or {}))
    sched = ScheduleConfig(mode="strongly-convex")
    return [
        ExperimentConfig(prob, MethodSpec("bagdc"), sched,
                         StopRule(max_iters=4000), seed=seed, trace_every=100,
                         name="bagdc"),
        ExperimentConfig(prob, MethodSpec("rhg", T=100), sched,
                         StopRule(max_iters=40), seed=seed, trace_every=1,
                         name="rhg-T100"),
    ]


def _hypercleaning_probe(run: StudyRun):
    built = run.built
    every = 20 if run.cfg.name == "bagdc" else 1

    def probe(k, seconds, before, after, d):
        if k % every == 0:
            run.probed.append((k, seconds, classifier_accuracy(built.val, after.y),
                               f1_clean(after.x, built.train.clean_mask)))
    return probe


def _hypercleaning_rows(run: StudyRun) -> list[tuple]:
    return [(run.cfg.name, metric, k, t, value) for k, t, acc, f1 in run.probed
            for metric, value in (("val_accuracy", acc), ("f1_clean", f1))]


def _hypercleaning_checks(runs: dict[str, StudyRun]) -> dict[str, bool]:
    checks = {"all_runs_finished": _all_finished(runs)}
    baseline, contender = runs["rhg-T100"].probed, runs["bagdc"].probed
    if baseline and contender:
        target = max(a for _, _, a, _ in baseline)
        t_base = min(t for _, t, a, _ in baseline if a >= target)
        hits = [t for _, t, a, _ in contender if a >= target]
        checks["matched_accuracy_3x_faster"] = bool(hits) and hits[0] * 3.0 <= t_base
    base_rows, bagdc_rows = runs["rhg-T100"].records, runs["bagdc"].records
    if base_rows and bagdc_rows:  # products spent to reach rhg-T100's best validation loss
        best = min(base_rows, key=lambda r: r.ul_value)
        hit = next((r for r in bagdc_rows if r.ul_value <= best.ul_value), None)
        checks["matched_val_loss_3x_fewer_products"] = hit is not None and (
            3 * (hit.hvp_count + hit.jvp_count) <= best.hvp_count + best.jvp_count)
    bagdc = runs["bagdc"]
    if bagdc.cfg.problem.idx_train is None:  # only synthetic data marks corrupt labels
        f1_final = f1_clean(bagdc.state.x, bagdc.built.train.clean_mask)
        checks["clean_split_recovered"] = f1_final >= 0.8
    return checks


_STUDIES: dict[str, Study] = {
    "counterexample": Study(
        configs=_counterexample_configs,
        columns=("dist_x_rel", "grad_phi_norm", "d_norm"),
        figures=(Figure("fig_dist_x.svg",
                        AxesSpec("iteration", "relative distance to x*", "linear", "log",
                                 "biased fixed point vs dual correction"),
                        _trace_series("dist_x_rel")),),
        checks=_counterexample_checks),
    "eta-sweep": Study(
        configs=_eta_sweep_configs,
        columns=("d_norm", "eta"),
        figures=(Figure("fig_eta.svg",
                        AxesSpec("iteration", "direction norm", "linear", "log",
                                 "multiplier step sweep"),
                        _trace_series("d_norm")),),
        checks=_eta_sweep_checks),
    "ll-accuracy": Study(
        configs=_ll_accuracy_configs,
        columns=("d_norm",),
        probe=_hypergrad_probe,
        rows=_hypergrad_rows,
        figures=(Figure("fig_ll_accuracy.svg",
                        AxesSpec("iteration", "hypergradient error", "linear", "log",
                                 "inner-solve accuracy sweep"),
                        _probe_series(0, 1)),),
        checks=lambda runs: {"all_runs_finished": _all_finished(runs)}),
    "dimension-scaling": Study(
        configs=_scaling_configs,
        columns=(),
        rows=_scaling_rows,
        figures=(Figure("fig_scaling.svg",
                        AxesSpec("dimension", "seconds per iteration", "log", "log",
                                 "per-iteration cost"),
                        _scaling_series),),
        checks=_scaling_checks),
    "multimin": Study(
        configs=_multimin_configs,
        columns=("dist_x_rel", "kkt_residual"),
        figures=(Figure("fig_multimin.svg",
                        AxesSpec("iteration", "|x - 1|", "linear", "log",
                                 "non-unique lower minimizers"),
                        _trace_series("dist_x_rel")),),
        checks=_multimin_checks),
    "hypercleaning": Study(
        configs=_hypercleaning_configs,
        columns=("ul_value", "d_norm"),
        probe=_hypercleaning_probe,
        rows=_hypercleaning_rows,
        figures=(Figure("fig_valacc.svg",
                        AxesSpec("solver seconds", "validation accuracy", "linear",
                                 "linear", "cleaning corrupted labels"),
                        _probe_series(1, 2)),
                 Figure("fig_f1.svg",
                        AxesSpec("iteration", "F1 on clean/corrupt split", "linear",
                                 "linear", "weight recovery"),
                        _probe_series(0, 3))),
        checks=_hypercleaning_checks,
        seed=1,
        takes_idx=True,
        pool=True),  # two long runs; the check compares clocks that tick side by side
}

STUDIES = tuple(_STUDIES)


def reproduce(study: str, out_dir, seed: int | None = None,
              idx: dict[str, str] | None = None, parallel: int | None = None) -> int:
    """Run a pre-baked study into ``out_dir``; 0 iff its checks all hold.
    ``parallel`` overrides the study's choice of worker processes."""
    spec = _STUDIES.get(study)
    if spec is None:
        raise ConfigError(f"unknown study {study!r} (expected one of {STUDIES})")
    if parallel is None:
        parallel = len(os.sched_getaffinity(0)) if spec.pool and hasattr(
            os, "sched_getaffinity") else 1
    _check_parallel(parallel)
    if idx and not spec.takes_idx:
        raise ConfigError("IDX data paths only apply to the hypercleaning study")
    seed = spec.seed if seed is None else seed
    try:
        configs = spec.configs(seed, idx)
    except ValueError as exc:  # the seed or IDX paths the specs reject
        raise ConfigError(str(exc)) from exc
    return _run_study(study, spec, configs, out_dir, seed, parallel)
