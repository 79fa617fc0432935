import dataclasses
import json

import numpy as np
import pytest

from blo import cli, solvers
from blo.cli import main
from blo.metrics import TRACE_HEADER


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


QUAD_RUN = {
    "problem": {"family": "quadratic", "n": 4},
    "method": {"name": "bagdc"},
    "schedule": {"alpha": 0.1, "beta": 0.5, "eta": 0.5},
    "stop": {"max_iters": 25},
}


class TestRunCommand:
    def test_success_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_RUN)
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out)]) == 0
        trace = (out / "run-000" / "trace.csv").read_text().splitlines()
        assert trace[0] == TRACE_HEADER

    @pytest.mark.parametrize("name, attr", [("bagdc", "bagdc_step"),
                                            ("rhg", "rhg_hypergradient")])
    def test_step_function_is_looked_up_when_a_step_runs(self, tmp_path, monkeypatch,
                                                         name, attr):
        # perfbench times each step by replacing these module attributes
        real, calls = getattr(solvers, attr), []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solvers, attr, counted)
        cfg = write_config(tmp_path, dict(QUAD_RUN, method={"name": name, "T": 3}))
        out = tmp_path / "results"
        assert main(["run", cfg, "--out", str(out), "--parallel", "1"]) == 0
        summary = json.loads((out / "run-000" / "summary.json").read_text())
        assert summary["iterations"] == 25 and len(calls) == 25

    def test_failed_run_exit_one(self, tmp_path):
        doc = dict(QUAD_RUN, schedule={"alpha": 0.1, "beta": 2.5, "eta": 0.5},
                   stop={"max_iters": 20000})
        cfg = write_config(tmp_path, doc)
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 1

    def test_config_error_exit_two(self, tmp_path, capsys):
        doc = {"problem": {"family": "quadratic"}, "method": {"name": "bgdc"}}
        cfg = write_config(tmp_path, doc)
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "runs[0].method.name: unknown method 'bgdc'" in err

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_on_a_file_exits_two_and_writes_nothing(self, tmp_path, capsys, out):
        cfg = write_config(tmp_path, QUAD_RUN)
        (tmp_path / "afile").write_text("kept")
        assert main(["run", cfg, "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot create output directory {tmp_path / out}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]
        assert (tmp_path / "afile").read_text() == "kept"

    # the second run's name is taken by a file: the first run's directory,
    # made before it, is removed again and no run starts
    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_file_named_like_a_run_exits_two_and_writes_nothing(self, tmp_path, capsys,
                                                                 parallel):
        cfg = write_config(tmp_path, {"runs": [QUAD_RUN, QUAD_RUN]})
        out = tmp_path / "r"
        out.mkdir()
        (out / "run-001").write_text("kept")
        assert main(["run", cfg, "--parallel", parallel, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: cannot create output directory {out / 'run-001'}: ")
        assert "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["run-001"]
        assert (out / "run-001").read_text() == "kept"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_parallel_flag(self, tmp_path):
        doc = {"runs": [dict(QUAD_RUN, name="a"), dict(QUAD_RUN, name="b")]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "results"
        assert main(["run", cfg, "--parallel", "2", "--out", str(out)]) == 0
        assert (out / "a" / "summary.json").exists()
        assert (out / "b" / "summary.json").exists()

    def test_parallel_below_one_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUAD_RUN)
        out = tmp_path / "results"
        assert main(["run", cfg, "--parallel", "0", "--out", str(out)]) == 2
        assert "config error: --parallel must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, QUAD_RUN)
        out = tmp_path / "results"
        monkeypatch.setenv("BLO_SEED", "9")
        assert main(["run", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "run-000" / "summary.json").read_text())
        assert payload["config"]["seed"] == 9
        assert payload["config"]["problem"]["seed"] == 9

    def test_numpy_error_settings_untouched(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_RUN)
        before = np.geterr()
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 0
        assert np.geterr() == before

    def test_bad_seed_env(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, QUAD_RUN)
        monkeypatch.setenv("BLO_SEED", "many")
        assert main(["run", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "BLO_SEED must be an integer" in capsys.readouterr().err


# Each value has the right JSON type but fails its dataclass's own check.
BAD_VALUES = [
    ({"family": "quadratic", "n": 0}, {"name": "bagdc"},
     "runs[0].problem: n must be >= 1"),
    ({"family": "quadratic", "n": 2, "z0": [1, 2, 3]}, {"name": "bagdc"},
     "runs[0].problem: z0 has 3 entries, expected n = 2"),
    ({"family": "quadratic", "spectrum": [2, 1]}, {"name": "bagdc"},
     "runs[0].problem: spectrum bounds must satisfy 0 < lmin <= lmax"),
    ({"family": "hypercleaning", "rho": 2.0}, {"name": "bagdc"},
     "runs[0].problem: rho must lie in [0, 1]"),
    ({"family": "quadratic"}, {"name": "bda", "mu": 0.7},
     "runs[0].method: mu must lie in [0, 1/2]"),
    ({"family": "quadratic"}, {"name": "rhg", "T": 0},
     "runs[0].method: T must be >= 1"),
    ({"family": "quadratic"}, {"name": "implicit-ns", "M": -1},
     "runs[0].method: M must be >= 0"),
    ({"family": "hypercleaning", "classes": 3, "n_train": 10, "n_val": 1}, {"name": "bagdc"},
     "runs[0].problem: n_train + n_val = 11 must be divisible by classes = 3"),
    ({"family": "hypercleaning", "idx_train": "a.idx"}, {"name": "bagdc"},
     "runs[0].problem: hypercleaning with IDX data needs all four paths"),
]


class TestParseTimeChecks:
    @pytest.mark.parametrize("problem, method, message", BAD_VALUES,
                             ids=["n", "z0", "spectrum", "rho", "mu", "T", "M",
                                  "divisibility", "partial-idx"])
    def test_rejected_before_any_run(self, tmp_path, capsys, problem, method, message):
        cfg = write_config(tmp_path, {"problem": problem, "method": method})
        out = tmp_path / "r"
        assert main(["run", cfg, "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    # hypercleaning has no upper-level curvature, so both runs fail at k = 0
    @pytest.mark.parametrize("method, schedule", [
        ({"name": "bda"}, {}),
        ({"name": "bagdc"}, {"mode": "merely-convex"}),
    ], ids=["bda", "bagdc-merely-convex"])
    def test_capability_error_stays_in_its_run(self, tmp_path, method, schedule):
        doc = {"problem": {"family": "hypercleaning", "classes": 3, "dim": 4,
                           "n_train": 21, "n_val": 9},
               "method": method, "schedule": schedule, "stop": {"max_iters": 5}}
        out = tmp_path / "r"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 1
        payload = json.loads((out / "run-000" / "summary.json").read_text())
        assert payload["status"] == "error"
        assert payload["at_iteration"] == 0
        # a library error keeps its bare message, with no type prefix
        assert payload["error"] == ("aggregation with mu > 0 needs hvp_yy_ul and "
                                    "jvp_xy_ul, which this problem does not provide")

    def test_failed_build_stays_in_its_run(self, tmp_path, capsys):
        missing = {key: str(tmp_path / key) for key in
                   ("idx_train", "idx_train_labels", "idx_val", "idx_val_labels")}
        doc = {"runs": [
            {"name": "idx", "problem": {"family": "hypercleaning", **missing},
             "method": {"name": "bagdc"}},
            dict(QUAD_RUN, name="quad")]}
        out = tmp_path / "r"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        bad = json.loads((out / "idx" / "summary.json").read_text())
        assert bad["status"] == "error" and bad["iterations"] == 0
        assert "idx_train" in bad["error"]
        # one line per failed run: name, status and error
        assert err.splitlines() == [f"run idx: error: {bad['error']}"]
        good = json.loads((out / "quad" / "summary.json").read_text())
        assert good["status"] == "max-iters" and good["iterations"] == 25


class TestCheckCommand:
    def test_reports_each_problem_once(self, tmp_path, capsys):
        doc = {"runs": [dict(QUAD_RUN, name="a"), dict(QUAD_RUN, name="b"),
                        {"problem": {"family": "multimin"},
                         "method": {"name": "bda"}}]}
        cfg = write_config(tmp_path, doc)
        assert main(["check", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        # two distinct problems, the duplicate quadratic is skipped
        assert len(out) == 2
        assert out[0].startswith("ok   a: max relative error ")
        assert out[1].startswith("ok   multimin: max relative error ")

    def test_hypercleaning_check(self, tmp_path, capsys):
        doc = {"problem": {"family": "hypercleaning", "classes": 3, "dim": 4,
                           "n_train": 21, "n_val": 9},
               "method": {"name": "bagdc"}}
        cfg = write_config(tmp_path, doc)
        assert main(["check", cfg]) == 0
        assert "ok   hypercleaning" in capsys.readouterr().out

    def test_unbuildable_problem_fails_and_the_rest_are_checked(self, tmp_path, capsys):
        idx = {f"idx_{part}": str(tmp_path / part)
               for part in ("train", "train_labels", "val", "val_labels")}
        doc = {"runs": [{"problem": {"family": "hypercleaning", **idx},
                         "method": {"name": "bagdc"}, "name": "mnist"},
                        {"problem": {"family": "multimin"}, "method": {"name": "bagdc"}}]}
        cfg = write_config(tmp_path, doc)
        assert main(["check", cfg]) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[0].startswith("FAIL mnist: FileNotFoundError: ")
        assert str(tmp_path / "train") in out[0]
        assert out[1].startswith("ok   multimin: max relative error ")


    def test_wrong_cross_product_fails_and_the_rest_are_checked(self, tmp_path, capsys,
                                                                 monkeypatch):
        build = cli.build_problem

        def scaled_cross_product(spec):
            bed = build(spec)
            if spec.family != "quadratic":
                return bed
            jvp = bed.problem.jvp_xy_ll
            return dataclasses.replace(bed, problem=dataclasses.replace(
                bed.problem, jvp_xy_ll=lambda x, y, u: 1.5 * jvp(x, y, u)))

        monkeypatch.setattr(cli, "build_problem", scaled_cross_product)
        doc = {"runs": [dict(QUAD_RUN, name="scaled"),
                        {"problem": {"family": "multimin"}, "method": {"name": "bagdc"}}]}
        assert main(["check", write_config(tmp_path, doc)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "FAIL scaled: derivative check FAILED (tol 0.0001)"
        entries = {line.split()[0]: line.split()[-1] for line in out[1:-1]}
        assert entries["jvp_xy_ll"] == "[FAIL]"
        assert [k for k, flag in entries.items() if flag == "[FAIL]"] == ["jvp_xy_ll"]
        assert out[-1].startswith("ok   multimin: max relative error ")

    @pytest.mark.parametrize("kind", ["hvp_yy_ll", "jvp_xy_ll"])
    def test_nan_curvature_product_fails(self, tmp_path, capsys, monkeypatch, kind):
        # the worst error over the probe directions is nan, not the finite ones
        build = cli.build_problem

        def nan_product(spec):
            bed = build(spec)
            product = getattr(bed.problem, kind)
            return dataclasses.replace(bed, problem=dataclasses.replace(
                bed.problem, **{kind: lambda x, y, u: np.nan * product(x, y, u)}))

        monkeypatch.setattr(cli, "build_problem", nan_product)
        assert main(["check", write_config(tmp_path, dict(QUAD_RUN, name="nan"))]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "FAIL nan: derivative check FAILED (tol 0.0001)"
        entries = {line.split()[0]: line.split()[-2:] for line in out[1:]}
        assert entries[kind] == ["nan", "[FAIL]"]
        assert [k for k, (_, flag) in entries.items() if flag == "[FAIL]"] == [kind]


class TestReproduceCommand:
    def test_study_smoke(self, tmp_path):
        out = tmp_path / "study"
        assert main(["reproduce", "counterexample", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ok"] is True
        assert summary["seed"] == 0

    def test_seed_flag_recorded(self, tmp_path):
        out = tmp_path / "study"
        assert main(["reproduce", "counterexample", "--seed", "3",
                     "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == 3

    def test_unknown_study_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "warmup"])

    @pytest.mark.parametrize("argv, message", [
        (["counterexample", "--seed", "-1"], "seed must be >= 0"),
        (["hypercleaning", "--idx-train", "x"], "needs all four paths"),
    ], ids=["seed", "idx"])
    def test_rejected_study_inputs_exit_two(self, tmp_path, capsys, argv, message):
        out = tmp_path / "s"
        assert main(["reproduce", *argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_on_a_file_exits_two_and_writes_nothing(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_text("kept")
        assert main(["reproduce", "counterexample", "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot create output directory {tmp_path / out}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert (tmp_path / "afile").read_text() == "kept"

    # counterexample runs nosa then bagdc on one process; hypercleaning runs
    # bagdc then rhg-T100 on a pool
    @pytest.mark.parametrize("study, taken", [("counterexample", "bagdc"),
                                              ("hypercleaning", "rhg-T100")])
    def test_file_named_like_a_run_exits_two_and_writes_nothing(self, tmp_path, capsys,
                                                                 study, taken):
        (tmp_path / taken).write_text("kept")
        assert main(["reproduce", study, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: cannot create output directory {tmp_path / taken}: ")
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == [taken]
        assert (tmp_path / taken).read_text() == "kept"

    def test_missing_idx_files_fail_the_study(self, tmp_path, capsys):
        out = tmp_path / "hc"
        argv = ["reproduce", "hypercleaning", "--out", str(out)]
        for flag in ("train", "train-labels", "val", "val-labels"):
            argv += [f"--idx-{flag}", str(tmp_path / flag)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ok"] is False
        assert summary["checks"] == {"all_runs_built": False}
        for label in ("bagdc", "rhg-T100"):
            run = summary["runs"][label]
            assert run["status"] == "error" and run["iterations"] == 0
            assert run["error"].startswith("FileNotFoundError")
            assert (out / label / "summary.json").exists()
        # one line per failed run, as ``blo run`` prints it, then the failed checks
        runs = summary["runs"]
        assert err.splitlines() == [
            f"run bagdc: error: {runs['bagdc']['error']}",
            f"run rhg-T100: error: {runs['rhg-T100']['error']}",
            "study hypercleaning: failed checks: all_runs_built"]

    def test_idx_flags_rejected_outside_hypercleaning(self, tmp_path, capsys):
        rc = main(["reproduce", "counterexample", "--out", str(tmp_path / "s"),
                   "--idx-train", "x"])
        assert rc == 2
        assert "only apply" in capsys.readouterr().err
