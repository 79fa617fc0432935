import hashlib
import json
import struct

import numpy as np
import pytest

import blo
from blo.config import ProblemSpec, config_to_dict, parse_config
from blo.dataio import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from blo.errors import ConfigError
from blo.experiments import (STUDIES, Study, _run_study, build_problem,
                             execute_run, reproduce, run_experiments)
from blo.metrics import TRACE_HEADER


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


def masked_study_digest(out):
    """SHA-256 of a study's outputs with every wall-clock figure left out.

    Covers config.json, the study summary without the runs'
    ``wall_seconds``, each run's trace without its ``wall_seconds``
    column, comparison.csv with the ``wall_seconds`` cells and the
    ``seconds_per_iteration`` values blanked, and every SVG except
    fig_scaling.svg, whose y axis is time.
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
        if svg.name != "fig_scaling.svg":
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
        assert built.aux.train.n == 21
        assert built.aux.val.n == 9
        assert int((~built.aux.train.clean_mask).sum()) == 6

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
        assert built.aux.train.n_classes == 3
        assert built.aux.val.n_classes == 3
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

    def test_dimension_scaling_config_matches_runs(self, tmp_path):
        assert reproduce("dimension-scaling", tmp_path) == 0
        config = json.loads((tmp_path / "config.json").read_text())
        names = [r["name"] for r in config["runs"]]
        assert names == [f"{m}-n{n}" for n in (100, 1000, 10000)
                         for m in ("bagdc", "rhg-T100")]
        for run in config["runs"]:
            payload = json.loads((tmp_path / run["name"] / "summary.json").read_text())
            assert payload["config"] == run

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

    def test_study_names_stable(self):
        assert STUDIES == ("counterexample", "eta-sweep", "ll-accuracy",
                           "dimension-scaling", "multimin", "hypercleaning")
