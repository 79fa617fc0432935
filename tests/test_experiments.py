import concurrent.futures
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import blo
from blo.config import ProblemSpec, config_to_dict, parse_config
from blo.dataio import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from blo.errors import ConfigError
from blo.experiments import (_STUDIES, STUDIES, Study, StudyRun, _hypergrad_probe,
                             _ll_accuracy_configs, _run_study, build_problem, execute_run,
                             reproduce, run_experiments)
from blo.linalg import cg_solve_rows
from blo.metrics import TRACE_HEADER
from blo.solvers import _METRIC_ERRORS, run_solver


IDX_KEYS = ("idx_train", "idx_train_labels", "idx_val", "idx_val_labels")


def quick_config(name=None, max_iters=20, beta=0.5):
    doc = {
        "problem": {"family": "quadratic", "n": 4},
        "method": {"name": "bagdc"},
        "schedule": {"alpha": 0.1, "beta": beta, "eta": 0.5},
        "stop": {"max_iters": max_iters},
    }
    if name is not None:
        doc["name"] = name
    return parse_config(json.dumps(doc))[0]


def masked_study_digest(out, timed_svgs=("fig_scaling.svg",)):
    """SHA-256 of a study's outputs with every wall-clock figure left out.

    Covers config.json, the study summary without the runs'
    ``wall_seconds``, each run's trace without its ``wall_seconds``
    column, comparison.csv with the ``wall_seconds`` cells and the
    ``seconds_per_iteration`` values blanked, and every SVG except
    ``timed_svgs``, whose axes plot time (fig_scaling.svg by default;
    fig_valacc.svg also plots the solver clock).
    """
    digest = hashlib.sha256()
    digest.update((out / "config.json").read_bytes())
    summary = json.loads((out / "summary.json").read_text())
    for run in summary["runs"].values():
        del run["wall_seconds"]
    digest.update(json.dumps(summary, sort_keys=True).encode())
    for run in json.loads((out / "config.json").read_text())["runs"]:
        for cells in masked_rows(out / run["name"] / "trace.csv"):
            digest.update((",".join(cells[:1] + cells[2:]) + "\n").encode())
    for line in (out / "comparison.csv").read_text().splitlines():
        cells = line.split(",")
        cells[3] = ""
        if cells[1] == "seconds_per_iteration":
            cells[4] = ""
        digest.update((",".join(cells) + "\n").encode())
    for svg in sorted(out.glob("*.svg")):
        if svg.name not in timed_svgs:
            digest.update(svg.name.encode() + svg.read_bytes())
    return digest.hexdigest()


def masked_rows(path):
    """Trace rows with the wall-clock column blanked."""
    out = []
    for line in path.read_text().splitlines():
        cells = line.split(",")
        cells[1] = ""
        out.append(cells)
    return out


class TestExecuteRun:
    def test_writes_trace_and_summary(self, tmp_path):
        summary = execute_run(quick_config(), tmp_path / "r")
        assert summary.ok
        trace = (tmp_path / "r" / "trace.csv").read_text().splitlines()
        assert trace[0] == TRACE_HEADER
        assert len(trace) == 21
        payload = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert payload["status"] == "max-iters"
        assert payload["iterations"] == 20
        assert payload["wall_seconds"] >= 0.0
        assert payload["counts"]["hvps"] == 20
        assert payload["counts"]["jvps"] == 20
        assert payload["version"] == blo.__version__
        assert "kkt_residual" in payload["final"]
        assert "error" not in payload

    def test_summary_echoes_config(self, tmp_path):
        cfg = quick_config()
        execute_run(cfg, tmp_path / "r")
        payload = json.loads((tmp_path / "r" / "summary.json").read_text())
        (cfg2,) = parse_config(json.dumps(payload["config"]))
        assert cfg2 == cfg

    def test_failed_build_is_an_error_run(self, tmp_path):
        (cfg,) = parse_config(json.dumps({
            "problem": {"family": "hypercleaning",
                        **{key: str(tmp_path / "missing" / key) for key in IDX_KEYS}},
            "method": {"name": "bagdc"}}))
        summary = execute_run(cfg, tmp_path / "r")
        assert summary.status == "error" and summary.iterations == 0
        payload = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert payload["status"] == "error"
        assert payload["iterations"] == 0 and payload["at_iteration"] == 0
        assert payload["error"].startswith("FileNotFoundError: ")
        assert payload["config"] == json.loads(json.dumps(config_to_dict(cfg)))
        assert (tmp_path / "r" / "trace.csv").read_text() == TRACE_HEADER + "\n"

    def test_diverged_run_is_recorded(self, tmp_path):
        cfg = quick_config(max_iters=20000, beta=2.5)
        summary = execute_run(cfg, tmp_path / "r")
        assert summary.status == "diverged"
        payload = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert payload["status"] == "diverged"
        assert "non-finite" in payload["error"]
        assert isinstance(payload["at_iteration"], int)


class TestRunExperiments:
    def test_empty_list_is_clean_noop(self, tmp_path):
        out = tmp_path / "results"
        assert run_experiments([], out) == 0
        assert not out.exists()

    def test_default_run_names(self, tmp_path):
        rc = run_experiments([quick_config(), quick_config()], tmp_path)
        assert rc == 0
        assert (tmp_path / "run-000" / "trace.csv").exists()
        assert (tmp_path / "run-001" / "summary.json").exists()

    def test_name_collision_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="collide"):
            run_experiments([quick_config("a"), quick_config("a")], tmp_path)

    def test_parallel_matches_sequential_traces(self, tmp_path):
        configs = [quick_config("a", max_iters=50), quick_config("b", max_iters=50)]
        assert run_experiments(configs, tmp_path / "seq", parallelism=1) == 0
        assert run_experiments(configs, tmp_path / "par", parallelism=2) == 0
        for name in ("a", "b"):
            assert (masked_rows(tmp_path / "seq" / name / "trace.csv")
                    == masked_rows(tmp_path / "par" / name / "trace.csv"))
        # the two identical runs also agree with each other
        assert (masked_rows(tmp_path / "seq" / "a" / "trace.csv")
                == masked_rows(tmp_path / "seq" / "b" / "trace.csv"))

    def test_parallel_hypercleaning_matches_sequential(self, tmp_path):
        # each run builds its own problem, so the oracle caches are never
        # shared between threads
        configs = parse_config(json.dumps({"runs": [
            {"name": name, "seed": seed,
             "problem": {"family": "hypercleaning", "classes": 3, "dim": 4,
                         "n_train": 60, "n_val": 30, "seed": seed},
             "method": method, "stop": {"max_iters": iters}}
            for name, seed, method, iters in (
                ("bagdc", 1, {"name": "bagdc"}, 60),
                ("rhg", 2, {"name": "rhg", "T": 5}, 8))]}))
        assert run_experiments(configs, tmp_path / "seq", parallelism=1) == 0
        assert run_experiments(configs, tmp_path / "par", parallelism=2) == 0
        for name in ("bagdc", "rhg"):
            rows = masked_rows(tmp_path / "seq" / name / "trace.csv")
            assert len(rows) > 1
            assert rows == masked_rows(tmp_path / "par" / name / "trace.csv")

    def test_failed_run_flips_exit_code(self, tmp_path):
        configs = [quick_config("ok"), quick_config("bad", max_iters=20000,
                                                    beta=2.5)]
        assert run_experiments(configs, tmp_path) == 1
        assert (tmp_path / "bad" / "summary.json").exists()

    def test_parallelism_validated(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiments([quick_config()], tmp_path, parallelism=0)


# Prepended to a script run in a subprocess: ``die_after(path, die)`` waits in a
# worker until another run's ``path`` exists and that run's result has had time
# to reach the parent, then calls ``die``.
DIE_IN_WORKER = textwrap.dedent("""
    import os, sys, time
    from pathlib import Path

    def die_after(path, die):
        deadline = time.monotonic() + 60.0
        while not path.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)
        die()
""")


def run_script(script, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(blo.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def assert_lost_run(run_dir):
    """The parent wrote the summary of a run whose worker died, and a
    header-only trace."""
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["status"] == "error"
    assert summary["error"] == "BrokenProcessPool: worker process exited"
    assert summary["at_iteration"] is None and summary["config"]["name"] == run_dir.name
    assert (run_dir / "trace.csv").read_text() == TRACE_HEADER + "\n"


class TestRunPool:
    """A study's runs in forked worker processes give the inline outputs."""

    def test_ll_accuracy_pooled_matches_inline(self, tmp_path):
        # the probe and the figure read records made in the workers
        assert reproduce("ll-accuracy", tmp_path / "inline", parallel=1) == 0
        assert reproduce("ll-accuracy", tmp_path / "pool", parallel=2) == 0
        assert (masked_study_digest(tmp_path / "pool")
                == masked_study_digest(tmp_path / "inline"))

    def test_hypercleaning_pooled_matches_inline(self, tmp_path):
        study = _STUDIES["hypercleaning"]
        small = ProblemSpec(family="hypercleaning", classes=3, dim=4, n_train=60,
                            n_val=30, rho=0.3, seed=1)
        configs = [replace(cfg, problem=small) for cfg in study.configs(1, None)]
        for mode, parallel in (("inline", 1), ("pool", 2)):
            (tmp_path / mode).mkdir()
            _run_study("hypercleaning", study, configs, tmp_path / mode, 1, parallel)
        timed = ("fig_valacc.svg",)  # solver seconds on its x axis
        assert (masked_study_digest(tmp_path / "pool", timed)
                == masked_study_digest(tmp_path / "inline", timed))
        # this check reads the clean mask of the problem the parent built
        checks = json.loads((tmp_path / "pool" / "summary.json").read_text())["checks"]
        assert "clean_split_recovered" in checks

    def test_outputs_in_config_order_when_first_run_ends_last(self, tmp_path):
        configs = [quick_config("z-slow"), quick_config("a-fast")]

        def study(wait_for=None):
            def probe(run):  # z-slow holds its first step until a-fast has ended
                def hold(k, seconds, before, after, d):
                    deadline = time.monotonic() + 60.0
                    while (run.cfg.name == "z-slow" and k == 0 and not wait_for.exists()
                           and time.monotonic() < deadline):
                        time.sleep(0.01)
                return hold
            return Study(configs=lambda seed, idx: configs, columns=("d_norm",),
                         figures=(), checks=lambda runs: {"ran": True},
                         probe=probe if wait_for is not None else None)

        inline, pool = tmp_path / "inline", tmp_path / "pool"
        inline.mkdir()
        pool.mkdir()
        assert _run_study("toy", study(), configs, inline, 0, 1) == 0
        assert _run_study("toy", study(pool / "a-fast" / "summary.json"),
                          configs, pool, 0, 2) == 0
        assert ((pool / "a-fast" / "summary.json").stat().st_mtime_ns
                <= (pool / "z-slow" / "summary.json").stat().st_mtime_ns)
        labels = [line.split(",")[0] for line in
                  (pool / "comparison.csv").read_text().splitlines()[1:]]
        assert labels == sorted(labels, reverse=True) and len(set(labels)) == 2
        assert masked_study_digest(pool) == masked_study_digest(inline)

    def test_one_worker_or_one_run_starts_no_process(self, tmp_path, monkeypatch):
        started = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        two = [quick_config("a"), quick_config("b")]
        assert run_experiments(two, tmp_path / "serial", parallelism=1) == 0
        assert run_experiments(two[:1], tmp_path / "single", parallelism=2) == 0
        assert reproduce("counterexample", tmp_path / "study", parallel=1) == 0
        assert reproduce("counterexample", tmp_path / "unpooled-study") == 0
        with monkeypatch.context() as m:
            m.setattr(sys, "platform", "darwin")
            assert run_experiments(two, tmp_path / "other-os", parallelism=2) == 0
        assert started == []
        assert run_experiments(two, tmp_path / "pool", parallelism=2) == 0
        assert started == [(2,)]
        # a study that pools takes a process per usable CPU, but no more than its runs
        pooled = Study(configs=lambda seed, idx: two, columns=(), figures=(),
                       checks=lambda runs: {"ran": True}, pool=True)
        monkeypatch.setitem(_STUDIES, "toy", pooled)
        assert reproduce("toy", tmp_path / "pooled-study") == 0
        assert started == [(2,), (2,)]

    def test_only_hypercleaning_pools_its_runs(self):
        # ll-accuracy's ten runs and hypercleaning's two are each long enough to
        # pay for a fork; dimension-scaling plots each run's own clock,
        # counterexample and eta-sweep end before a fork pays off, and multimin's
        # bagdc run is most of its study, whose steps a profiler should see
        assert [name for name, study in _STUDIES.items() if study.pool] == [
            "ll-accuracy", "hypercleaning"]

    def test_ll_accuracy_takes_one_pool_of_the_usable_cpus(self, tmp_path, monkeypatch):
        started = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert reproduce("ll-accuracy", tmp_path / "inline", parallel=1) == 0
        assert started == []
        assert reproduce("ll-accuracy", tmp_path / "pool") == 0
        assert started == [(4,)]

    def test_parallel_below_one_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="--parallel must be at least 1, got 0"):
            reproduce("counterexample", tmp_path / "out", parallel=0)
        assert not (tmp_path / "out").exists()

    def test_killed_worker_fails_the_command(self, tmp_path):
        script = DIE_IN_WORKER + textwrap.dedent("""
            import json
            from blo.config import parse_config
            from blo.experiments import Study, _run_study

            out = Path(sys.argv[1])
            run = {"problem": {"family": "quadratic", "n": 4},
                   "method": {"name": "bagdc"}, "stop": {"max_iters": 50}}
            configs = parse_config(json.dumps(
                {"runs": [dict(run, name="a"), dict(run, name="b")]}))

            def probe(study_run):
                def die(k, seconds, before, after, d):
                    if study_run.cfg.name == "a" and k == 5:
                        die_after(out / "b" / "summary.json", lambda: os._exit(3))
                return die

            study = Study(configs=None, columns=("d_norm",), figures=(),
                          checks=lambda runs: {"ran": True}, probe=probe)
            sys.exit(_run_study("toy", study, configs, out, 0, 2))
        """)
        proc = run_script(script, tmp_path)
        assert proc.returncode != 0
        assert "BrokenProcessPool" in proc.stderr
        # the run that finished keeps its result; the study writes its outputs
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "run a: error: BrokenProcessPool: worker process exited",
            "study toy: failed checks: all_runs_finished"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["ok"] is False
        assert summary["checks"] == {"all_runs_finished": False}
        assert summary["runs"]["a"]["status"] == "error"
        assert summary["runs"]["b"]["status"] == "max-iters"
        assert_lost_run(tmp_path / "a")
        assert json.loads((tmp_path / "b" / "summary.json").read_text())["iterations"] == 50
        labels = [line.split(",")[0] for line in
                  (tmp_path / "comparison.csv").read_text().splitlines()[1:]]
        assert labels == ["b"] * 50

    def test_killed_worker_fails_blo_run(self, tmp_path):
        script = DIE_IN_WORKER + textwrap.dedent("""
            import signal
            import blo.experiments
            from blo.cli import main

            execute_run = blo.experiments.execute_run

            def dying(cfg, run_dir):  # in the worker process
                if cfg.name == "a":
                    die_after(run_dir.parent / "b" / "summary.json",
                              lambda: os.kill(os.getpid(), signal.SIGKILL))
                return execute_run(cfg, run_dir)

            blo.experiments.execute_run = dying
            sys.exit(main(["run", sys.argv[1], "--parallel", "2", "--out", sys.argv[2]]))
        """)
        config = tmp_path / "runs.json"
        config.write_text(json.dumps({"runs": [
            {"name": name, "problem": {"family": "quadratic", "n": 4},
             "method": {"name": "bagdc"}, "stop": {"max_iters": 50}}
            for name in ("a", "b")]}))
        proc = run_script(script, config, tmp_path / "out")
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "run a: error: BrokenProcessPool: worker process exited"]
        assert_lost_run(tmp_path / "out" / "a")
        b = json.loads((tmp_path / "out" / "b" / "summary.json").read_text())
        assert (b["status"], b["iterations"]) == ("max-iters", 50)


def _probe_with_reference(run: StudyRun):
    """ll-accuracy's probe of ``run``, and a step probe that also records each
    step's error from a per-point ``grad_phi`` solve, ``nan`` where it raises."""
    probe, want = _hypergrad_probe(run), []

    def checked(k, seconds, before, after, d):
        try:
            r = d - run.built.oracle.grad_phi(before.x)
            want.append((k, math.sqrt(float(r.dot(r)))))
        except _METRIC_ERRORS:
            want.append((k, float("nan")))
        probe(k, seconds, before, after, d)
    return probe, checked, want


class TestHypergradProbe:
    """ll-accuracy's probe solves a run's ground truth in one stack once the
    run has ended."""

    @pytest.mark.parametrize("max_iters", [0, 1, 64, 130])
    def test_one_stacked_solve_gives_every_steps_own_error(self, monkeypatch, max_iters):
        stacks = []

        def spy(apply, B, *args, **kwargs):
            stacks.append(len(B))
            return cg_solve_rows(apply, B, *args, **kwargs)

        monkeypatch.setattr(blo.metrics, "cg_solve_rows", spy)
        for cfg in _ll_accuracy_configs(0):
            cfg = replace(cfg, stop=replace(cfg.stop, max_iters=max_iters))
            run = StudyRun(cfg, build_problem(cfg.problem))
            probe, checked, want = _probe_with_reference(run)
            _, summary = run_solver(run.built.problem, cfg.method, cfg.schedule, cfg.stop,
                                    oracle=run.built.oracle, probe=checked)
            assert summary.iterations == max_iters
            assert not run.probed and not stacks  # nothing is solved while the run steps
            probe.flush()
            assert stacks == ([max_iters] if max_iters else [])
            stacks.clear()
            # every step, by float.hex
            assert [(k, e.hex()) for k, e in run.probed] == [(k, e.hex()) for k, e in want]

    @pytest.mark.filterwarnings("error")
    def test_a_point_it_cannot_solve_is_nan_and_the_study_ends(self, tmp_path):
        configs = _ll_accuracy_configs(0)[:2]
        # bagdc at alpha 50 diverges; CG fails on some of its last finite iterates
        cfg = configs[0] = replace(configs[0],
                                   schedule=replace(configs[0].schedule, alpha=50.0))
        run = StudyRun(cfg, build_problem(cfg.problem))
        probe, checked, want = _probe_with_reference(run)
        _, summary = run_solver(run.built.problem, cfg.method, cfg.schedule, cfg.stop,
                                oracle=run.built.oracle, probe=checked)
        probe.flush()
        assert summary.status == "diverged" and any(math.isnan(e) for _, e in want)
        # float.hex reads every nan as "nan"
        assert [(k, e.hex()) for k, e in run.probed] == [(k, e.hex()) for k, e in want]

        for mode, parallel in (("inline", 1), ("pool", 2)):
            out = tmp_path / mode
            out.mkdir()
            assert _run_study("ll-accuracy", _STUDIES["ll-accuracy"], configs, out, 0,
                              parallel) == 1
            study = json.loads((out / "summary.json").read_text())
            assert study["checks"] == {"all_runs_finished": False}
            assert study["runs"]["bagdc"]["status"] == "diverged"
            assert all((out / c.name / "summary.json").is_file() for c in configs)
            rows = [line.split(",") for line in (out / "comparison.csv").read_text().splitlines()
                    if line.startswith("bagdc,hypergrad_error,")]
            assert [(int(r[2]), float(r[4]).hex()) for r in rows] == \
                [(k, e.hex()) for k, e in want][::10]


class TestBuildProblem:
    def test_quadratic(self):
        built = build_problem(ProblemSpec(family="quadratic", n=7))
        assert built.problem.n == 7
        assert built.oracle is not None

    def test_multimin(self):
        built = build_problem(ProblemSpec(family="multimin"))
        assert (built.problem.n, built.problem.m) == (1, 2)

    def test_hypercleaning_synthetic(self):
        spec = ProblemSpec(family="hypercleaning", classes=3, dim=4,
                           n_train=21, n_val=9, rho=0.3, seed=0)
        built = build_problem(spec)
        assert built.problem.n == 21
        assert built.oracle is None
        assert built.train.n == 21
        assert built.val.n == 9
        assert int((~built.train.clean_mask).sum()) == 6

    def test_hypercleaning_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            ProblemSpec(family="hypercleaning", classes=10, n_train=1001, n_val=500)

    def test_partial_idx_paths_rejected(self):
        with pytest.raises(ValueError, match="all four paths"):
            ProblemSpec(family="hypercleaning", idx_train="x")

    def test_idx_loading_reconciles_classes(self, tmp_path):
        def images(path, n):
            path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, 2, 2)
                             + bytes(n * 4))

        def labels(path, values):
            arr = np.asarray(values, dtype=np.uint8)
            path.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, arr.size)
                             + arr.tobytes())

        images(tmp_path / "tr", 4)
        labels(tmp_path / "trl", [0, 0, 1, 1])
        images(tmp_path / "va", 2)
        labels(tmp_path / "val", [2, 0])
        spec = ProblemSpec(family="hypercleaning",
                           idx_train=str(tmp_path / "tr"),
                           idx_train_labels=str(tmp_path / "trl"),
                           idx_val=str(tmp_path / "va"),
                           idx_val_labels=str(tmp_path / "val"))
        built = build_problem(spec)
        assert built.train.n_classes == 3
        assert built.val.n_classes == 3
        assert built.problem.n == 4


GOLDEN_STUDY_DIGESTS = {
    "counterexample":
        "37831d959e1fb039e0449fdeda12635a5f09ff08b054b6ace4b803e22ef4bc35",
    "eta-sweep":
        "3be48e9cf959bb161bfbcfa76c36f5f63359eaf6e06a83bd6ea3732ab6b50c8a",
    "ll-accuracy":
        "3f9dedfc0ccfd7074e2614edc779bd6758fe3f18e6b9f36297a4bcf375abe0d7",
    "dimension-scaling":
        "1cd9e4d205b5685dcd9209938412c15b2b6d30b41e7eb13b023864296508474f",
    # asserted by test_multimin_study_checks on the run it makes; recorded before
    # bda became rhg on psi_mu and the aggregated residual kkt_residual at mu
    "multimin":
        "effd32af83b4c76d53bb3b306fd1c365db75e99e32ff9ca5502a4ec3a24cdf3f",
}


class TestReproduce:
    def test_unknown_study(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown study"):
            reproduce("warmup", tmp_path)

    def test_idx_only_for_hypercleaning(self, tmp_path):
        with pytest.raises(ConfigError, match="only apply"):
            reproduce("counterexample", tmp_path, idx={"idx_train": "x"})

    def test_counterexample_study_artifacts(self, tmp_path):
        rc = reproduce("counterexample", tmp_path)
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["study"] == "counterexample"
        assert summary["ok"] is True
        assert all(summary["checks"].values())
        config = json.loads((tmp_path / "config.json").read_text())
        assert [r["name"] for r in config["runs"]] == ["nosa", "bagdc"]
        comparison = (tmp_path / "comparison.csv").read_text().splitlines()
        assert comparison[0] == "label,metric,k,wall_seconds,value"
        assert any(line.startswith("nosa,dist_x_rel,") for line in comparison[1:])
        assert (tmp_path / "fig_dist_x.svg").read_text().startswith("<svg ")
        for name in ("nosa", "bagdc"):
            run_dir = tmp_path / name
            assert (run_dir / "trace.csv").read_text().splitlines()[0] == TRACE_HEADER
            payload = json.loads((run_dir / "summary.json").read_text())
            assert payload["status"] in ("converged", "max-iters")

    def test_comparison_cells_are_the_trace_cells(self, tmp_path):
        assert reproduce("counterexample", tmp_path) == 0
        traces = {}
        for name in ("nosa", "bagdc"):
            header, *lines = (tmp_path / name / "trace.csv").read_text().splitlines()
            for line in lines:
                cells = dict(zip(header.split(","), line.split(",")))
                traces.setdefault((name, cells["k"]), []).append(cells)
        header, *rows = (tmp_path / "comparison.csv").read_text().splitlines()
        assert header == "label,metric,k,wall_seconds,value" and rows
        for row in rows:
            label, metric, k, wall_seconds, value = row.split(",")
            assert any((cells["wall_seconds"], cells[metric]) == (wall_seconds, value)
                       for cells in traces[label, k]), row

    def test_figures_go_through_the_module_attribute_with_a_positional_path(
            self, tmp_path, monkeypatch):
        # perfbench patches blo.svgplot.emit_svg and reads svg.bytes from args[2]
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return []

        monkeypatch.setattr(blo.svgplot, "emit_svg", spy)
        assert reproduce("counterexample", tmp_path) == 0
        assert len(calls) == 1
        args, kwargs = calls[0]
        assert kwargs == {} and len(args) == 3
        assert str(args[2]).endswith("fig_dist_x.svg")

    def test_dimension_scaling_config_matches_runs(self, tmp_path):
        assert reproduce("dimension-scaling", tmp_path) == 0
        config = json.loads((tmp_path / "config.json").read_text())
        names = [r["name"] for r in config["runs"]]
        assert names == [f"{m}-n{n}" for n in (100, 1000, 10000)
                         for m in ("bagdc", "rhg-T100")]
        for run in config["runs"]:
            payload = json.loads((tmp_path / run["name"] / "summary.json").read_text())
            assert payload["config"] == run

    def test_multimin_study_checks(self, tmp_path):
        # bagdc and bda reach x = 1; rhg and implicit-ns stall elsewhere, and
        # implicit-cg meets the singular lower-level Hessian
        assert reproduce("multimin", tmp_path) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"] == {"bagdc_reaches_solution": True,
                                     "bda_reaches_solution": True,
                                     "rhg_stalls_elsewhere": True,
                                     "implicit_cg_hits_singular_hessian": True,
                                     "implicit_ns_stalls_elsewhere": True}
        payload = json.loads((tmp_path / "implicit-cg" / "summary.json").read_text())
        assert payload["status"] == "singular-hessian"
        # the only study that runs bda and reports kkt_residual_aggregated
        assert masked_study_digest(tmp_path) == GOLDEN_STUDY_DIGESTS["multimin"]

    @pytest.mark.parametrize("study", ["counterexample", "eta-sweep",
                                       "ll-accuracy", "dimension-scaling"])
    def test_golden_study_outputs(self, study, tmp_path):
        # recorded before the studies ran through one shared runner
        reproduce(study, tmp_path)
        assert masked_study_digest(tmp_path) == GOLDEN_STUDY_DIGESTS[study]

    @pytest.mark.parametrize("passed", [True, False])
    def test_failed_runs_printed_only_when_the_study_fails(self, tmp_path, capsys,
                                                           passed):
        # a passing study may hold a run meant to fail, as multimin's implicit-cg
        configs = [quick_config("bad", max_iters=20000, beta=2.5), quick_config("good")]
        study = Study(configs=lambda seed, idx: configs, columns=(), figures=(),
                      checks=lambda runs: {"bad_diverged": passed, "good_ran": True})
        rc = _run_study("toy", study, configs, tmp_path, seed=0)
        err = capsys.readouterr().err
        if passed:
            assert rc == 0 and err == ""
        else:
            bad = json.loads((tmp_path / "summary.json").read_text())["runs"]["bad"]
            assert rc == 1
            assert err.splitlines() == [f"run bad: diverged: {bad['error']}",
                                        "study toy: failed checks: bad_diverged"]

    @pytest.mark.parametrize("eta, passes", [(None, True), (1e-300, False)],
                             ids=["bagdc", "multiplier-off"])
    def test_hypercleaning_loss_check_needs_the_multiplier(self, tmp_path, eta, passes):
        # with eta = 1e-300 the multiplier never moves from 0 and bagdc's
        # validation loss stalls at 0.8422, above rhg-T100's best 0.83543
        study = _STUDIES["hypercleaning"]
        configs = study.configs(study.seed, None)
        configs[0] = replace(configs[0], schedule=replace(configs[0].schedule, eta=eta))
        _run_study("hypercleaning", study, configs, tmp_path, study.seed, parallel=1)
        checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
        assert checks["matched_val_loss_3x_fewer_products"] is passes

    def test_study_names_stable(self):
        assert STUDIES == ("counterexample", "eta-sweep", "ll-accuracy",
                           "dimension-scaling", "multimin", "hypercleaning")
