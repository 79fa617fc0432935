"""Experiment orchestration: problem construction, run execution, studies.

Each run writes its own directory containing ``trace.csv`` (one row per
traced iteration, fixed header) and ``summary.json`` (status, final
metrics, oracle counts, config echo).  ``reproduce`` bundles the six
pre-baked studies; each emits its config, per-run artifacts, a long-form
comparison CSV, and SVG figures.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from .config import ConfigError, ExperimentConfig, ProblemSpec, config_to_dict
from .dataio import load_idx
from .metrics import AnalyticOracle, TRACE_HEADER, TraceRecord, hypergrad_error
from .problem import BilevelProblem
from .solvers import (MethodSpec, RunSummary, ScheduleConfig, SolverState,
                      StopRule, run_solver)
from .testbeds import (classifier_accuracy, corrupt_labels, f1_clean,
                       hypercleaning_problem, make_multimin, make_quadratic,
                       split_dataset, synth_blobs)

STUDIES = ("counterexample", "eta-sweep", "ll-accuracy", "dimension-scaling",
           "multimin", "hypercleaning")


@dataclass(frozen=True)
class BuiltProblem:
    problem: BilevelProblem
    oracle: AnalyticOracle | None
    aux: object = None


def build_problem(spec: ProblemSpec) -> BuiltProblem:
    """Instantiate the testbed a ProblemSpec describes."""
    if spec.family == "quadratic":
        qb = make_quadratic(spec.n, spectrum=spec.spectrum, z0=spec.z0, seed=spec.seed)
        return BuiltProblem(qb.problem, qb.oracle, qb)
    if spec.family == "multimin":
        mm = make_multimin()
        return BuiltProblem(mm.problem, mm.oracle, mm)
    if spec.family == "hypercleaning":
        idx_paths = (spec.idx_train, spec.idx_train_labels, spec.idx_val,
                     spec.idx_val_labels)
        if any(p is not None for p in idx_paths):
            if any(p is None for p in idx_paths):
                raise ConfigError(
                    "hypercleaning with IDX data needs all four paths: "
                    "idx_train, idx_train_labels, idx_val, idx_val_labels")
            train = load_idx(spec.idx_train, spec.idx_train_labels)
            val = load_idx(spec.idx_val, spec.idx_val_labels)
            if train.n_classes != val.n_classes:
                classes = max(train.n_classes, val.n_classes)
                train = replace(train, n_classes=classes)
                val = replace(val, n_classes=classes)
        else:
            total = spec.n_train + spec.n_val
            if total % spec.classes != 0:
                raise ConfigError(
                    f"n_train + n_val = {total} must be divisible by "
                    f"classes = {spec.classes}")
            pool = synth_blobs(spec.classes, spec.dim, total // spec.classes,
                               spec.separation, spec.seed)
            train, val = split_dataset(pool, spec.n_train, spec.seed + 1)
            train = corrupt_labels(train, spec.rho, spec.seed + 2)
        hc = hypercleaning_problem(train, val, c=spec.reg_c)
        return BuiltProblem(hc.problem, None, hc)
    raise ConfigError(f"unknown problem family {spec.family!r}")


def _summary_payload(summary: RunSummary) -> dict:
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
    return payload


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_to_dir(built: BuiltProblem, cfg: ExperimentConfig, run_dir: Path,
                probe=None) -> tuple[SolverState, RunSummary, list[TraceRecord]]:
    run_dir.mkdir(parents=True, exist_ok=True)
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
    payload = _summary_payload(summary)
    payload["config"] = config_to_dict(cfg)
    from . import __version__
    payload["version"] = __version__
    _write_json(run_dir / "summary.json", payload)
    return state, summary, records


def execute_run(cfg: ExperimentConfig, run_dir: Path) -> RunSummary:
    """Build the problem a config names and run it into ``run_dir``."""
    built = build_problem(cfg.problem)
    _, summary, _ = _run_to_dir(built, cfg, Path(run_dir))
    return summary


def run_experiments(configs: Sequence[ExperimentConfig], out_dir,
                    parallelism: int = 1) -> int:
    """Run each config in its own subdirectory; 0 iff every run finished clean."""
    if not configs:
        return 0
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for i, cfg in enumerate(configs):
        names.append(cfg.name if cfg.name is not None else f"run-{i:03d}")
    if len(set(names)) != len(names):
        raise ConfigError("run names collide; give sweep entries distinct names")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = [pool.submit(execute_run, cfg, out / name)
                   for cfg, name in zip(configs, names)]
        summaries = [f.result() for f in futures]
    return 0 if all(s.ok for s in summaries) else 1


# ---------------------------------------------------------------------------
# studies

_COMPARISON_HEADER = "label,metric,k,wall_seconds,value"


def _comparison_rows(label: str, records: Sequence[TraceRecord],
                     metrics: Sequence[str]) -> list[str]:
    rows = []
    for rec in records:
        for metric in metrics:
            value = getattr(rec, metric)
            if value is None:
                continue
            rows.append(f"{label},{metric},{rec.k},{rec.wall_seconds!r},{value!r}")
    return rows


def _write_comparison(path: Path, rows: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_COMPARISON_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")


def _emit_config(out: Path, configs: Sequence[ExperimentConfig]) -> None:
    _write_json(out / "config.json", {"runs": [config_to_dict(c) for c in configs]})


def _study_result(out: Path, study: str, seed: int, runs: dict, checks: dict,
                  warnings: list[str]) -> int:
    ok = all(checks.values())
    _write_json(out / "summary.json", {
        "study": study, "seed": seed, "runs": runs, "checks": checks,
        "warnings": warnings, "ok": ok,
    })
    return 0 if ok else 1


def _quadratic_cfg(name: str, method: MethodSpec, schedule: ScheduleConfig,
                   stop: StopRule, *, n: int, spectrum="identity", z0="ones",
                   seed: int = 0, trace_every: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        problem=ProblemSpec(family="quadratic", n=n, spectrum=spectrum, z0=z0,
                            seed=seed),
        method=method, schedule=schedule, stop=stop, seed=seed,
        trace_every=trace_every, name=name)


def _study_counterexample(out: Path, seed: int) -> int:
    """One-step alternation stalls at a biased fixed point; the dual
    correction removes the bias.  Quadratic, A = I, z0 = ones, beta = 0.5."""
    n = 100
    sched = ScheduleConfig(mode="strongly-convex", alpha=0.1, beta=0.5, eta=0.5)
    stop = StopRule(max_iters=4000, d_norm_tol=1e-10)
    configs = [
        _quadratic_cfg("nosa", MethodSpec("nosa"), sched, stop, n=n, seed=seed,
                       trace_every=10),
        _quadratic_cfg("bagdc", MethodSpec("bagdc"), sched, stop, n=n, seed=seed,
                       trace_every=10),
    ]
    _emit_config(out, configs)
    runs, rows, warnings = {}, [], []
    finals = {}
    for cfg in configs:
        built = build_problem(cfg.problem)
        state, summary, records = _run_to_dir(built, cfg, out / cfg.name)
        runs[cfg.name] = _summary_payload(summary)
        rows += _comparison_rows(cfg.name, records,
                                 ("dist_x_rel", "grad_phi_norm", "d_norm"))
        finals[cfg.name] = summary
    _write_comparison(out / "comparison.csv", rows)

    from .svgplot import AxesSpec, Series, emit_svg
    series = []
    for cfg in configs:
        recs = [r for r in _records_from_csv(out / cfg.name / "trace.csv")]
        series.append(Series(cfg.name, [r["k"] for r in recs],
                             [r["dist_x_rel"] for r in recs]))
    warnings += emit_svg(series, AxesSpec("iteration", "relative distance to x*",
                                          "linear", "log",
                                          "biased fixed point vs dual correction"),
                         str(out / "fig_dist_x.svg"))

    beta = 0.5
    plateau = abs(1.0 / (1.0 + beta) - 0.5) / 0.5
    nosa_final = finals["nosa"].final.get("dist_x_rel")
    bagdc_final = finals["bagdc"].final.get("dist_x_rel")
    checks = {
        "nosa_finished": finals["nosa"].ok,
        "bagdc_finished": finals["bagdc"].ok,
        "nosa_plateaus_at_bias": (nosa_final is not None
                                  and abs(nosa_final - plateau) <= 1e-4),
        "bagdc_below_1e-4": bagdc_final is not None and bagdc_final < 1e-4,
    }
    return _study_result(out, "counterexample", seed, runs, checks, warnings)


def _study_eta_sweep(out: Path, seed: int) -> int:
    """Multiplier step sensitivity on the identity quadratic (L = 1)."""
    n = 50
    stop = StopRule(max_iters=20000, d_norm_tol=1e-5)

    def sched(eta, rule="fixed"):
        return ScheduleConfig(mode="strongly-convex", alpha=0.4, beta=0.8,
                              eta=eta, eta_rule=rule)

    configs = [
        _quadratic_cfg("eta-0.25", MethodSpec("bagdc"), sched(0.25), stop, n=n, seed=seed),
        _quadratic_cfg("eta-1.0", MethodSpec("bagdc"), sched(1.0), stop, n=n, seed=seed),
        _quadratic_cfg("eta-50.0", MethodSpec("bagdc"), sched(50.0), stop, n=n, seed=seed),
        _quadratic_cfg("eta-adaptive", MethodSpec("bagdc"), sched(1.0, "adaptive"),
                       stop, n=n, seed=seed),
    ]
    _emit_config(out, configs)
    runs, rows, warnings = {}, [], []
    summaries = {}
    for cfg in configs:
        built = build_problem(cfg.problem)
        _, summary, records = _run_to_dir(built, cfg, out / cfg.name)
        runs[cfg.name] = _summary_payload(summary)
        summaries[cfg.name] = summary
        rows += _comparison_rows(cfg.name, records, ("d_norm", "eta"))
    _write_comparison(out / "comparison.csv", rows)

    from .svgplot import AxesSpec, Series, emit_svg
    series = []
    for cfg in configs:
        recs = _records_from_csv(out / cfg.name / "trace.csv")
        series.append(Series(cfg.name, [r["k"] for r in recs],
                             [r["d_norm"] for r in recs]))
    warnings += emit_svg(series, AxesSpec("iteration", "direction norm",
                                          "linear", "log", "multiplier step sweep"),
                         str(out / "fig_eta.svg"))

    it = {name: summaries[name].iterations for name in summaries}
    conv = {name: summaries[name].status == "converged" for name in summaries}
    checks = {
        "small_etas_converge": conv["eta-0.25"] and conv["eta-1.0"],
        "larger_eta_strictly_faster": it["eta-1.0"] < it["eta-0.25"],
        "huge_eta_diverges": summaries["eta-50.0"].status == "diverged",
        "adaptive_converges": conv["eta-adaptive"],
        "adaptive_competitive": conv["eta-adaptive"]
            and it["eta-adaptive"] <= 1.5 * min(it["eta-0.25"], it["eta-1.0"]),
    }
    return _study_result(out, "eta-sweep", seed, runs, checks, warnings)


def _study_ll_accuracy(out: Path, seed: int) -> int:
    """Hypergradient error against the analytic gradient as the inner
    solve gets cheaper, for each baseline family, plus one run of the
    single-loop method."""
    n = 50
    iters = 300
    stop = StopRule(max_iters=iters)
    sched = ScheduleConfig(mode="strongly-convex")
    spectrum = (0.5, 5.0)

    specs: list[tuple[str, MethodSpec]] = [("bagdc", MethodSpec("bagdc"))]
    for T in (1, 10, 100):
        specs.append((f"rhg-T{T}", MethodSpec("rhg", T=T)))
    for eps in (1e-1, 1e-4, 1e-8):
        specs.append((f"implicit-cg-eps{eps:g}", MethodSpec("implicit-cg", T=10, eps=eps)))
    for M in (1, 10, 100):
        specs.append((f"implicit-ns-M{M}", MethodSpec("implicit-ns", T=10, M=M)))

    configs = [_quadratic_cfg(name, m, sched, stop, n=n, spectrum=spectrum,
                              seed=seed, trace_every=10) for name, m in specs]
    _emit_config(out, configs)
    runs, rows, warnings = {}, [], []
    err_series = {}
    ok = True
    for cfg in configs:
        built = build_problem(cfg.problem)
        errs: list[tuple[int, float]] = []

        def probe(k, before, after, d, _built=built, _errs=errs):
            _errs.append((k, hypergrad_error(d, _built.oracle, before.x)))

        _, summary, records = _run_to_dir(built, cfg, out / cfg.name, probe=probe)
        runs[cfg.name] = _summary_payload(summary)
        ok = ok and summary.ok
        err_series[cfg.name] = errs
        rows += [f"{cfg.name},hypergrad_error,{k},,{e!r}" for k, e in errs[::10]]
        rows += _comparison_rows(cfg.name, records, ("d_norm",))
    _write_comparison(out / "comparison.csv", rows)

    from .svgplot import AxesSpec, Series, emit_svg
    series = [Series(name, [k for k, _ in errs], [e for _, e in errs])
              for name, errs in err_series.items()]
    warnings += emit_svg(series, AxesSpec("iteration", "hypergradient error",
                                          "linear", "log",
                                          "inner-solve accuracy sweep"),
                         str(out / "fig_ll_accuracy.svg"))
    checks = {"all_runs_finished": ok}
    return _study_result(out, "ll-accuracy", seed, runs, checks, warnings)


def _study_dimension_scaling(out: Path, seed: int) -> int:
    """Per-iteration cost of the single-loop method vs full unrolling as
    dimension grows.  The oracle-count split (1 vs T products per
    iteration) is the portable form of the claim."""
    dims = (100, 1000, 10000)
    configs = []
    for n in dims:
        for label, method, iters in (("bagdc", MethodSpec("bagdc"), 50),
                                     ("rhg-T100", MethodSpec("rhg", T=100), 5)):
            configs.append(_quadratic_cfg(f"{label}-n{n}", method,
                                          ScheduleConfig(mode="strongly-convex"),
                                          StopRule(max_iters=iters), n=n, seed=seed,
                                          trace_every=max(1, iters // 5)))
    _emit_config(out, configs)
    runs, rows, warnings = {}, [], []
    points = {"bagdc": [], "rhg-T100": []}
    ok = True
    for cfg in configs:
        name = cfg.name
        built = build_problem(cfg.problem)
        _, summary, _ = _run_to_dir(built, cfg, out / name)
        runs[name] = _summary_payload(summary)
        ok = ok and summary.ok
        per_iter = summary.wall_seconds / max(summary.iterations, 1)
        hvps = summary.counts.hvps / max(summary.iterations, 1)
        jvps = summary.counts.jvps / max(summary.iterations, 1)
        points[name.rsplit("-n", 1)[0]].append((cfg.problem.n, per_iter))
        rows.append(f"{name},seconds_per_iteration,,{per_iter!r},{per_iter!r}")
        rows.append(f"{name},hvps_per_iteration,,,{hvps!r}")
        rows.append(f"{name},jvps_per_iteration,,,{jvps!r}")
    _write_comparison(out / "comparison.csv", rows)

    from .svgplot import AxesSpec, Series, emit_svg
    series = [Series(label, [n for n, _ in pts], [t for _, t in pts])
              for label, pts in points.items()]
    warnings += emit_svg(series, AxesSpec("dimension", "seconds per iteration",
                                          "log", "log", "per-iteration cost"),
                         str(out / "fig_scaling.svg"))

    bagdc_hvps = [runs[f"bagdc-n{n}"]["counts"]["hvps"] / 50 for n in dims]
    rhg_hvps = [runs[f"rhg-T100-n{n}"]["counts"]["hvps"] / 5 for n in dims]
    checks = {
        "all_runs_finished": ok,
        "one_product_per_iteration": all(h == 1.0 for h in bagdc_hvps),
        "unrolling_costs_T_products": all(h == 100.0 for h in rhg_hvps),
    }
    return _study_result(out, "dimension-scaling", seed, runs, checks, warnings)


def _study_multimin(out: Path, seed: int) -> int:
    """Non-unique lower minimizers: only the aggregated methods land on
    the true solution x* = 1; unrolling stalls elsewhere and implicit
    solves hit the singular Hessian."""
    mm_spec = ProblemSpec(family="multimin")
    bagdc_sched = ScheduleConfig(mode="merely-convex", alpha=2000.0, beta=0.9,
                                 eta=16.0, mu_bar=0.5, p=1.0 / 12.0, lam=1.0)
    const_sched = ScheduleConfig(mode="strongly-convex", alpha=0.5, beta=0.9,
                                 eta=0.9)
    configs = [
        ExperimentConfig(mm_spec, MethodSpec("bagdc"), bagdc_sched,
                         StopRule(max_iters=200000, kkt_tol=1e-9), seed=seed,
                         trace_every=1000, name="bagdc"),
        ExperimentConfig(mm_spec, MethodSpec("bda", T=100, mu=0.5, lam=1.0),
                         const_sched, StopRule(max_iters=200, d_norm_tol=1e-10),
                         seed=seed, name="bda"),
        ExperimentConfig(mm_spec, MethodSpec("rhg", T=100), const_sched,
                         StopRule(max_iters=200, d_norm_tol=1e-10), seed=seed,
                         name="rhg"),
        ExperimentConfig(mm_spec, MethodSpec("implicit-cg", T=100, eps=1e-8),
                         const_sched, StopRule(max_iters=200, d_norm_tol=1e-10),
                         seed=seed, name="implicit-cg"),
        ExperimentConfig(mm_spec, MethodSpec("implicit-ns", T=100, M=100),
                         const_sched, StopRule(max_iters=200, d_norm_tol=1e-10),
                         seed=seed, name="implicit-ns"),
    ]
    _emit_config(out, configs)
    runs, rows, warnings = {}, [], []
    summaries, finals = {}, {}
    for cfg in configs:
        built = build_problem(cfg.problem)
        state, summary, records = _run_to_dir(built, cfg, out / cfg.name)
        runs[cfg.name] = _summary_payload(summary)
        summaries[cfg.name] = summary
        finals[cfg.name] = abs(float(state.x[0]) - 1.0)
        rows += _comparison_rows(cfg.name, records, ("dist_x_rel", "kkt_residual"))
    _write_comparison(out / "comparison.csv", rows)

    from .svgplot import AxesSpec, Series, emit_svg
    series = []
    for cfg in configs:
        recs = _records_from_csv(out / cfg.name / "trace.csv")
        pts = [(r["k"], r["dist_x_rel"]) for r in recs if r["dist_x_rel"] is not None]
        if pts:
            series.append(Series(cfg.name, [k for k, _ in pts], [v for _, v in pts]))
    warnings += emit_svg(series, AxesSpec("iteration", "|x - 1|", "linear", "log",
                                          "non-unique lower minimizers"),
                         str(out / "fig_multimin.svg"))

    checks = {
        "bagdc_reaches_solution": summaries["bagdc"].ok and finals["bagdc"] <= 1e-3,
        "bda_reaches_solution": summaries["bda"].ok and finals["bda"] <= 1e-3,
        "rhg_stalls_elsewhere": summaries["rhg"].ok and finals["rhg"] > 1e-2,
        "implicit_cg_hits_singular_hessian":
            summaries["implicit-cg"].status == "singular-hessian",
        "implicit_ns_stalls_elsewhere":
            summaries["implicit-ns"].ok and finals["implicit-ns"] > 1e-2,
    }
    return _study_result(out, "multimin", seed, runs, checks, warnings)


def _study_hypercleaning(out: Path, seed: int,
                         idx: dict[str, str] | None = None) -> int:
    """Sample reweighting against corrupted labels: validation accuracy
    per wall-clock second, single-loop vs T-step unrolling, plus recovery
    of the clean/corrupt split."""
    prob = ProblemSpec(family="hypercleaning", classes=10, dim=20, n_train=1000,
                       n_val=500, rho=0.3, seed=seed,
                       **(idx or {}))
    synthetic = idx is None
    sched = ScheduleConfig(mode="strongly-convex")
    configs = [
        ExperimentConfig(prob, MethodSpec("bagdc"), sched,
                         StopRule(max_iters=4000), seed=seed, trace_every=100,
                         name="bagdc"),
        ExperimentConfig(prob, MethodSpec("rhg", T=100), sched,
                         StopRule(max_iters=40), seed=seed, trace_every=1,
                         name="rhg-T100"),
    ]
    _emit_config(out, configs)
    runs, rows, warnings = {}, [], []
    curves = {}
    summaries, final_states = {}, {}
    for cfg in configs:
        built = build_problem(cfg.problem)
        hc = built.aux
        every = 20 if cfg.name == "bagdc" else 1
        curve: list[tuple[int, float, float, float]] = []

        def probe(k, before, after, d, _hc=hc, _curve=curve, _every=every):
            if k % _every:
                return
            acc = classifier_accuracy(_hc.val, after.y)
            f1 = f1_clean(after.x, _hc.train.clean_mask)
            _curve.append((k, after.elapsed, acc, f1))

        state, summary, records = _run_to_dir(built, cfg, out / cfg.name, probe=probe)
        runs[cfg.name] = _summary_payload(summary)
        summaries[cfg.name] = summary
        final_states[cfg.name] = state
        curves[cfg.name] = curve
        for k, t, acc, f1 in curve:
            rows.append(f"{cfg.name},val_accuracy,{k},{t!r},{acc!r}")
            rows.append(f"{cfg.name},f1_clean,{k},{t!r},{f1!r}")
        rows += _comparison_rows(cfg.name, records, ("ul_value", "d_norm"))
    _write_comparison(out / "comparison.csv", rows)

    from .svgplot import AxesSpec, Series, emit_svg
    acc_series = [Series(name, [t for _, t, _, _ in c], [a for _, _, a, _ in c])
                  for name, c in curves.items()]
    warnings += emit_svg(acc_series, AxesSpec("solver seconds", "validation accuracy",
                                              "linear", "linear",
                                              "cleaning corrupted labels"),
                         str(out / "fig_valacc.svg"))
    f1_series = [Series(name, [k for k, _, _, _ in c], [f for _, _, _, f in c])
                 for name, c in curves.items()]
    warnings += emit_svg(f1_series, AxesSpec("iteration", "F1 on clean/corrupt split",
                                             "linear", "linear",
                                             "weight recovery"),
                         str(out / "fig_f1.svg"))

    checks = {"all_runs_finished": all(s.ok for s in summaries.values())}
    baseline = curves["rhg-T100"]
    contender = curves["bagdc"]
    if baseline and contender:
        target = max(a for _, _, a, _ in baseline)
        t_base = min(t for _, t, a, _ in baseline if a >= target)
        hits = [t for _, t, a, _ in contender if a >= target]
        checks["matched_accuracy_3x_faster"] = bool(hits) and hits[0] * 3.0 <= t_base
    if synthetic:
        hc = build_problem(prob).aux
        f1_final = f1_clean(final_states["bagdc"].x, hc.train.clean_mask)
        checks["clean_split_recovered"] = f1_final >= 0.8
    return _study_result(out, "hypercleaning", seed, runs, checks, warnings)


def _records_from_csv(path: Path) -> list[dict]:
    """Read a trace CSV back into dicts with numeric fields parsed."""
    import csv

    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            parsed = {}
            for key, cell in row.items():
                if cell == "":
                    parsed[key] = None
                elif key in ("k", "hvp_count", "jvp_count"):
                    parsed[key] = int(cell)
                else:
                    parsed[key] = float(cell)
            out.append(parsed)
    return out


_STUDY_FNS: dict[str, Callable] = {
    "counterexample": _study_counterexample,
    "eta-sweep": _study_eta_sweep,
    "ll-accuracy": _study_ll_accuracy,
    "dimension-scaling": _study_dimension_scaling,
    "multimin": _study_multimin,
    "hypercleaning": _study_hypercleaning,
}

_STUDY_DEFAULT_SEEDS = {"hypercleaning": 1}


def reproduce(study: str, out_dir, seed: int | None = None,
              idx: dict[str, str] | None = None) -> int:
    """Run a pre-baked study into ``out_dir``; 0 iff its checks all hold."""
    if study not in _STUDY_FNS:
        raise ConfigError(f"unknown study {study!r} (expected one of {STUDIES})")
    if seed is None:
        seed = _STUDY_DEFAULT_SEEDS.get(study, 0)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if study == "hypercleaning":
        return _study_hypercleaning(out, seed, idx=idx)
    if idx:
        raise ConfigError("IDX data paths only apply to the hypercleaning study")
    return _STUDY_FNS[study](out, seed)
