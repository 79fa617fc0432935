import dataclasses
import itertools
import json
import typing

import pytest
from hypothesis import given, settings, strategies as st

from blo.config import (ExperimentConfig, ProblemSpec, config_to_dict,
                        parse_config)
from blo.errors import ConfigError, FieldError
from blo.experiments import _STUDIES, STUDIES, build_problem
from blo.solvers import (METHOD_NAMES, MethodSpec, ScheduleConfig, StopRule,
                         run_solver)

MINIMAL = json.dumps({
    "problem": {"family": "quadratic", "n": 10},
    "method": {"name": "bagdc"},
})


class TestParsing:
    def test_minimal_run_gets_defaults(self):
        (cfg,) = parse_config(MINIMAL)
        assert cfg.problem.family == "quadratic"
        assert cfg.problem.n == 10
        assert cfg.method.name == "bagdc"
        assert cfg.schedule.mode == "strongly-convex"
        assert cfg.schedule.alpha is None
        assert cfg.stop.max_iters == 1000
        assert cfg.stop.d_norm_tol == 1e-6
        assert cfg.stop.max_seconds is None
        assert cfg.seed == 0
        assert cfg.trace_every == 1
        assert cfg.name is None

    def test_runs_wrapper(self):
        doc = json.dumps({"runs": [json.loads(MINIMAL), json.loads(MINIMAL)]})
        assert len(parse_config(doc)) == 2

    def test_bare_list(self):
        doc = json.dumps([json.loads(MINIMAL)])
        assert len(parse_config(doc)) == 1

    def test_unknown_top_level_key(self):
        doc = json.dumps({"runs": [json.loads(MINIMAL)], "note": "hi"})
        with pytest.raises(ConfigError, match="note: unknown top-level key"):
            parse_config(doc)

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    def test_non_object_run(self):
        with pytest.raises(ConfigError, match=r"runs\[0\]: expected an object"):
            parse_config("[3]")

    def test_scalar_document(self):
        with pytest.raises(ConfigError, match="expected an object or a list"):
            parse_config("3")

    def test_empty_runs(self):
        with pytest.raises(ConfigError, match="no runs"):
            parse_config('{"runs": []}')

    def test_full_run_round_trips(self):
        doc = {
            "name": "demo",
            "problem": {"family": "quadratic", "n": 4, "spectrum": [0.5, 5],
                        "z0": [1.0, 2.0, 3.0, 4.0], "seed": 3},
            "method": {"name": "rhg", "T": 7},
            "schedule": {"mode": "merely-convex", "alpha": 0.2, "beta": 0.5,
                         "eta": 0.5, "mu_bar": 0.4, "p": 0.05},
            "stop": {"max_iters": 50, "kkt_tol": 1e-9},
            "seed": 2,
            "trace_every": 5,
        }
        (cfg,) = parse_config(json.dumps(doc))
        assert cfg.problem.spectrum == (0.5, 5.0)
        assert cfg.problem.z0 == (1.0, 2.0, 3.0, 4.0)
        assert cfg.method.T == 7
        assert cfg.schedule.mu_bar == 0.4
        assert cfg.stop.kkt_tol == 1e-9
        (cfg2,) = parse_config(json.dumps(config_to_dict(cfg)))
        assert cfg2 == cfg

    def test_echo_drops_unset_fields(self):
        (cfg,) = parse_config(MINIMAL)
        echo = config_to_dict(cfg)
        assert "idx_train" not in echo["problem"]
        assert "max_seconds" not in echo["stop"]
        assert "name" not in echo


class TestValidationErrors:
    def test_missing_family(self):
        doc = json.dumps({"problem": {"n": 3}, "method": {"name": "bagdc"}})
        with pytest.raises(ConfigError, match=r"runs\[0\].problem.family: required"):
            parse_config(doc)

    def test_unknown_family(self):
        doc = json.dumps({"problem": {"family": "cubic"},
                          "method": {"name": "bagdc"}})
        with pytest.raises(ConfigError, match="unknown problem family 'cubic'"):
            parse_config(doc)

    def test_unknown_method_name(self):
        doc = json.dumps({"problem": {"family": "quadratic"},
                          "method": {"name": "bgdc"}})
        with pytest.raises(ConfigError,
                           match=r"runs\[0\].method.name: unknown method 'bgdc' "
                                 r"\(expected one of"):
            parse_config(doc)

    def test_missing_method(self):
        doc = json.dumps({"problem": {"family": "quadratic"}})
        with pytest.raises(ConfigError, match=r"runs\[0\].method: required"):
            parse_config(doc)

    def test_unknown_key_lists_alternatives(self):
        doc = json.dumps({"problem": {"family": "quadratic", "size": 5},
                          "method": {"name": "bagdc"}})
        with pytest.raises(ConfigError,
                           match=r"runs\[0\].problem.size: unknown key \(allowed:"):
            parse_config(doc)

    def test_bool_is_not_a_number(self):
        doc = json.dumps({"problem": {"family": "quadratic"},
                          "method": {"name": "bagdc"},
                          "schedule": {"alpha": True}})
        with pytest.raises(ConfigError, match=r"schedule.alpha: expected a number, got bool"):
            parse_config(doc)

    def test_float_is_not_an_integer(self):
        doc = json.dumps({"problem": {"family": "quadratic", "n": 10.5},
                          "method": {"name": "bagdc"}})
        with pytest.raises(ConfigError, match=r"problem.n: expected an integer, got float"):
            parse_config(doc)

    def test_schedule_constraint_carries_path(self):
        doc = json.dumps({"problem": {"family": "quadratic"},
                          "method": {"name": "bagdc"},
                          "schedule": {"alpha": -1.0}})
        with pytest.raises(ConfigError,
                           match=r"runs\[0\].schedule: alpha must be positive"):
            parse_config(doc)

    def test_empty_stop_rejected(self):
        doc = json.dumps({"problem": {"family": "quadratic"},
                          "method": {"name": "bagdc"}, "stop": {}})
        with pytest.raises(ConfigError,
                           match=r"runs\[0\].stop: at least one stop criterion"):
            parse_config(doc)

    def test_trace_every_bound(self):
        doc = json.dumps({"problem": {"family": "quadratic"},
                          "method": {"name": "bagdc"}, "trace_every": 0})
        with pytest.raises(ConfigError, match=r"trace_every: must be >= 1"):
            parse_config(doc)

    def test_bad_spectrum(self):
        base = {"problem": {"family": "quadratic", "spectrum": "flat"},
                "method": {"name": "bagdc"}}
        with pytest.raises(ConfigError, match=r"problem.spectrum"):
            parse_config(json.dumps(base))
        base["problem"]["spectrum"] = [1.0, 2.0, 3.0]
        with pytest.raises(ConfigError, match=r"problem.spectrum"):
            parse_config(json.dumps(base))

    def test_bad_z0(self):
        for z0 in ("mean", ["a"]):
            doc = json.dumps({"problem": {"family": "quadratic", "z0": z0},
                              "method": {"name": "bagdc"}})
            with pytest.raises(ConfigError, match=r"runs\[0\]\.problem\.z0"):
                parse_config(doc)


# JSON fragments that parse as JSON but cannot run: Python's json reads NaN
# and Infinity, and these stop rules, method parameters, schedules and
# problems never end a run or run a meaningless one.  The library assumes
# parsed values, so these rows are the only checks of their rules.  Each is
# merged into a quadratic bagdc run.
UNWORKABLE = [
    ('"schedule": {"alpha": NaN}', r"runs\[0\]\.schedule\.alpha: expected a finite number, got nan"),
    ('"schedule": {"lam": Infinity}', r"runs\[0\]\.schedule\.lam: expected a finite number, got inf"),
    ('"schedule": {"eta": [1.0, -Infinity]}',
     r"runs\[0\]\.schedule\.eta: expected a finite number, got -inf"),
    ('"schedule": {"beta": 1' + "0" * 400 + '}',
     r"runs\[0\]\.schedule\.beta: expected a finite number, got inf"),
    ('"problem": {"family": "quadratic", "n": 5, "spectrum": [1, Infinity]}',
     r"runs\[0\]\.problem\.spectrum\[1\]: expected a finite number, got inf"),
    ('"problem": {"family": "quadratic", "n": 3, "z0": [1, NaN, 3]}',
     r"runs\[0\]\.problem\.z0\[1\]: expected a finite number, got nan"),
    ('"stop": {"kkt_tol": NaN}', r"runs\[0\]\.stop\.kkt_tol: expected a finite number, got nan"),
    ('"stop": {"max_seconds": Infinity}',
     r"runs\[0\]\.stop\.max_seconds: expected a finite number, got inf"),
    ('"stop": {"d_norm_tol": -1.0}', r"runs\[0\]\.stop: d_norm_tol must be >= 0, got -1\.0"),
    ('"stop": {"kkt_tol": -1e-9}', r"runs\[0\]\.stop: kkt_tol must be >= 0, got -1e-09"),
    ('"stop": {"max_iters": -3}', r"runs\[0\]\.stop: max_iters must be >= 0, got -3"),
    ('"method": {"name": "bagdc", "eps": -1.0}', r"runs\[0\]\.method: eps must be positive, got -1\.0"),
    ('"method": {"name": "implicit-cg", "eps": 0}', r"runs\[0\]\.method: eps must be positive, got 0"),
    ('"method": {"name": "implicit-cg", "T": -3}', r"runs\[0\]\.method: T must be >= 0, got -3"),
    ('"method": {"name": "bda", "T": -3}', r"runs\[0\]\.method: T must be >= 1, got -3"),
    ('"stop": {"max_seconds": -1}', r"runs\[0\]\.stop: max_seconds must be >= 0, got -1\.0"),
    ('"method": {"name": "bda", "mu": 0.6}',
     r"runs\[0\]\.method: mu must lie in \[0, 1/2\], got 0\.6"),
    ('"method": {"name": "bda", "lam": 0}', r"runs\[0\]\.method: lam must be positive, got 0\.0"),
    ('"schedule": {"lam": 0}', r"runs\[0\]\.schedule: lam must be positive, got 0\.0"),
    ('"problem": {"family": "quadratic", "n": 0}', r"runs\[0\]\.problem: n must be >= 1, got 0"),
    ('"problem": {"family": "quadratic", "n": 5, "spectrum": [-1, 2]}',
     r"runs\[0\]\.problem: spectrum bounds must satisfy 0 < lmin <= lmax, got \[-1\.0, 2\.0\]"),
    ('"problem": {"family": "quadratic", "n": 5, "z0": [1, 2, 3]}',
     r"runs\[0\]\.problem: z0 has 3 entries, expected n = 5"),
    ('"problem": {"family": "hypercleaning", "rho": 1.5}',
     r"runs\[0\]\.problem: rho must lie in \[0, 1\], got 1\.5"),
    ('"problem": {"family": "hypercleaning", "rho": -0.1}',
     r"runs\[0\]\.problem: rho must lie in \[0, 1\], got -0\.1"),
    ('"problem": {"family": "hypercleaning", "reg_c": 0}',
     r"runs\[0\]\.problem: reg_c must be positive, got 0\.0"),
    ('"method": {"name": "implicit-ns", "M": -1}', r"runs\[0\]\.method: M must be >= 0, got -1"),
    ('"name": "../escaped"', r"runs\[0\]\.name: must be a directory name .*'\.\./escaped'"),
    ('"name": ""', r"runs\[0\]\.name: must be a directory name .*got ''"),
    ('"name": "a\\u0000b"', r"runs\[0\]\.name: must be a directory name .*'a\\x00b'"),
]


def _run_text(fragment: str) -> str:
    base = {"problem": '"problem": {"family": "quadratic", "n": 5}',
            "method": '"method": {"name": "bagdc"}'}
    key = fragment.split('"')[1]
    base[key] = fragment
    return "{" + ", ".join(base.values()) + "}"


class TestUnworkableValues:
    @pytest.mark.parametrize("fragment, message", UNWORKABLE,
                             ids=["alpha-nan", "lam-inf", "eta-sweep-inf", "beta-huge-int",
                                  "spectrum-inf", "z0-nan", "kkt_tol-nan", "max_seconds-inf",
                                  "d_norm_tol-negative", "kkt_tol-negative",
                                  "max_iters-negative", "eps-negative", "eps-zero",
                                  "implicit-cg-T-negative", "bda-T-negative",
                                  "max_seconds-negative", "bda-mu-above-half", "bda-lam-zero",
                                  "schedule-lam-zero", "n-zero", "spectrum-negative",
                                  "z0-wrong-length", "rho-above-one", "rho-negative",
                                  "reg_c-zero", "implicit-ns-M-negative", "name-escapes-out",
                                  "name-empty", "name-nul"])
    def test_rejected_with_its_path(self, fragment, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(_run_text(fragment))

    @pytest.mark.parametrize("fragment", [
        '"stop": {"max_iters": 0}', '"stop": {"d_norm_tol": 0, "kkt_tol": 0}',
        '"method": {"name": "implicit-cg", "T": 0}', '"schedule": {"alpha": 1e308}',
        '"stop": {"max_seconds": 0}',
        '"problem": {"family": "quadratic", "n": 5, "spectrum": [1, 1e300]}',
    ])
    def test_edge_values_still_parse(self, fragment):
        (cfg,) = parse_config(_run_text(fragment))
        assert cfg.problem.family == "quadratic"


class TestSweeps:
    def test_eta_sweep_expands(self):
        doc = json.dumps({"problem": {"family": "quadratic", "n": 10},
                          "method": {"name": "bagdc"},
                          "schedule": {"alpha": 0.1, "beta": 0.5,
                                       "eta": [0.01, 0.1, 1.0]}})
        cfgs = parse_config(doc)
        assert [c.schedule.eta for c in cfgs] == [0.01, 0.1, 1.0]
        assert all(c.schedule.alpha == 0.1 for c in cfgs)

    def test_cross_product(self):
        doc = json.dumps({"problem": {"family": "quadratic"},
                          "method": {"name": "bagdc"},
                          "schedule": {"eta": [0.1, 1.0]},
                          "seed": [0, 1]})
        cfgs = parse_config(doc)
        assert [(c.schedule.eta, c.seed) for c in cfgs] == [
            (0.1, 0), (0.1, 1), (1.0, 0), (1.0, 1)]

    def test_axes_vary_in_key_order_first_slowest(self):
        # keys out of field order, at the top level and in two nested objects
        doc = json.dumps({"seed": [0, 1], "name": "tune",
                          "schedule": {"eta": [0.1, 1.0], "alpha": [0.2, 0.3]},
                          "problem": {"family": "quadratic", "n": 3},
                          "method": {"T": [1, 2], "name": "rhg"}})
        cfgs = parse_config(doc)
        assert [(c.seed, c.schedule.eta, c.schedule.alpha, c.method.T) for c in cfgs] == \
            list(itertools.product([0, 1], [0.1, 1.0], [0.2, 0.3], [1, 2]))
        assert [c.name for c in cfgs] == [f"tune-{j}" for j in range(16)]

    def test_named_sweep_gets_suffixes(self):
        doc = json.dumps({"name": "tune", "problem": {"family": "quadratic"},
                          "method": {"name": "bagdc"},
                          "schedule": {"eta": [0.1, 1.0]}})
        cfgs = parse_config(doc)
        assert [c.name for c in cfgs] == ["tune-0", "tune-1"]

    def test_structural_lists_are_not_sweeps(self):
        doc = json.dumps({"problem": {"family": "quadratic", "n": 2,
                                      "spectrum": [0.5, 5.0], "z0": [1.0, 2.0]},
                          "method": {"name": "bagdc"}})
        cfgs = parse_config(doc)
        assert len(cfgs) == 1
        assert cfgs[0].problem.spectrum == (0.5, 5.0)

    def test_method_parameter_sweep(self):
        doc = json.dumps({"problem": {"family": "quadratic"},
                          "method": {"name": "rhg", "T": [1, 10, 100]}})
        assert [c.method.T for c in parse_config(doc)] == [1, 10, 100]

    def test_empty_sweep_list_rejected(self):
        doc = json.dumps({"problem": {"family": "quadratic"},
                          "method": {"name": "bagdc"},
                          "schedule": {"eta": []}})
        with pytest.raises(ConfigError,
                           match=r"^runs\[0\]\.schedule\.eta: sweep list must be non-empty$"):
            parse_config(doc)

    def test_swept_object_holds_its_own_sweep(self):
        doc = json.dumps({"problem": {"family": "quadratic"},
                          "method": [{"name": "bagdc"}, {"name": "rhg", "T": [1, 10]}],
                          "seed": [0, 1]})
        assert [(c.method.name, c.method.T, c.seed) for c in parse_config(doc)] == [
            ("bagdc", 100, 0), ("bagdc", 100, 1), ("rhg", 1, 0), ("rhg", 1, 1),
            ("rhg", 10, 0), ("rhg", 10, 1)]

    def test_entry_of_a_scalar_sweep_is_not_swept_again(self):
        doc = json.dumps({"problem": {"family": "quadratic"},
                          "method": {"name": "bagdc"}, "seed": [0, [1, 2]]})
        with pytest.raises(ConfigError, match=r"^runs\[0\]\.seed: expected an integer, got list$"):
            parse_config(doc)

    def test_multi_run_document_with_sweep(self):
        runs = [{"problem": {"family": "quadratic"},
                 "method": {"name": "bagdc"},
                 "schedule": {"eta": [0.1, 1.0]}},
                {"problem": {"family": "multimin"},
                 "method": {"name": "bda"}}]
        cfgs = parse_config(json.dumps({"runs": runs}))
        assert len(cfgs) == 3
        assert cfgs[2].problem.family == "multimin"


class TestVectorFields:
    @pytest.mark.parametrize("key, value, message", [
        ("spectrum", None, 'expected "identity" or \\[lmin, lmax\\]'),
        ("spectrum", 3, 'expected "identity" or \\[lmin, lmax\\]'),
        ("spectrum", [1.0, 2.0, 3.0], 'expected "identity" or \\[lmin, lmax\\]'),
        ("z0", None, 'expected "ones", "random", or a vector'),
        ("z0", 2, 'expected "ones", "random", or a vector'),
        ("z0", "mean", 'expected "ones", "random", or a vector'),
    ], ids=["spectrum-null", "spectrum-number", "spectrum-triple", "z0-null", "z0-number",
            "z0-name"])
    def test_wrong_value_keeps_its_message(self, key, value, message):
        doc = json.dumps({"problem": {"family": "quadratic", "n": 3, key: value},
                          "method": {"name": "bagdc"}})
        with pytest.raises(ConfigError, match=rf"^runs\[0\]\.problem\.{key}: {message}$"):
            parse_config(doc)

    @pytest.mark.parametrize("key, value, message", [
        ("z0", ["a", 1, 1], r"z0\[0\]: expected a number, got str"),
        ("z0", [1, 1, True], r"z0\[2\]: expected a number, got bool"),
        ("spectrum", [0.5, [5]], r"spectrum\[1\]: expected a number, got list"),
    ], ids=["z0-str", "z0-bool", "spectrum-list"])
    def test_bad_entry_names_its_index(self, key, value, message):
        doc = json.dumps({"problem": {"family": "quadratic", "n": 3, key: value},
                          "method": {"name": "bagdc"}})
        with pytest.raises(ConfigError, match=rf"^runs\[0\]\.problem\.{message}$"):
            parse_config(doc)

    def test_problem_spec_checks_them(self):
        for key, value in (("spectrum", "flat"), ("spectrum", (1.0,)), ("z0", "mean"),
                           ("z0", [1.0])):
            with pytest.raises(FieldError) as info:
                ProblemSpec(family="quadratic", n=1, **{key: value})
            assert info.value.field == key


@pytest.mark.parametrize("study", STUDIES)
def test_study_configs_round_trip(study):
    """A study's config.json parses back to the study's own configs."""
    spec = _STUDIES[study]
    configs = spec.configs(spec.seed, None)
    doc = {"runs": [config_to_dict(c) for c in configs]}
    assert parse_config(json.dumps(doc, sort_keys=True)) == configs


class TestProblemSpecFields:
    def test_hypercleaning_fields(self):
        doc = json.dumps({"problem": {"family": "hypercleaning", "classes": 3,
                                      "dim": 4, "n_train": 30, "n_val": 12,
                                      "rho": 0.2, "separation": 2.5,
                                      "reg_c": 1e-2},
                          "method": {"name": "bagdc"}})
        (cfg,) = parse_config(doc)
        assert cfg.problem.classes == 3
        assert cfg.problem.rho == 0.2
        assert cfg.problem.reg_c == 1e-2

    def test_idx_paths(self):
        doc = json.dumps({"problem": {"family": "hypercleaning",
                                      "idx_train": "a", "idx_train_labels": "b",
                                      "idx_val": "c", "idx_val_labels": "d"},
                          "method": {"name": "bagdc"}})
        (cfg,) = parse_config(doc)
        assert cfg.problem.idx_train == "a"
        assert cfg.problem.idx_val_labels == "d"

    def test_spec_is_frozen(self):
        spec = ProblemSpec(family="quadratic")
        with pytest.raises(Exception):
            spec.n = 5

    def test_experiment_config_is_frozen(self):
        (cfg,) = parse_config(MINIMAL)
        assert isinstance(cfg, ExperimentConfig)
        with pytest.raises(Exception):
            cfg.seed = 5


# Every run status the README documents for summary.json.
DOCUMENTED_STATUSES = ("converged", "max-iters", "time-limit", "diverged",
                       "singular-hessian", "error")

# Small integers keep every generated problem desk-sized; the fractions
# reach the open intervals of mu, mu_bar and p.
_SMALL_INT = st.integers(-1, 3)
_SMALL_NUM = st.sampled_from([-1, 0, 0.05, 0.5, 1, 3])
_BY_KEY = {
    "family": st.sampled_from(["quadratic", "multimin", "hypercleaning", "cubic"]),
    "name": st.sampled_from(METHOD_NAMES + ("newton",)),
    "mode": st.sampled_from(["strongly-convex", "merely-convex", "flat"]),
    "eta_rule": st.sampled_from(["fixed", "adaptive", "fast"]),
    "spectrum": st.one_of(st.just("identity"), st.lists(_SMALL_INT, min_size=2, max_size=2)),
    "z0": st.one_of(st.sampled_from(["ones", "random"]),
                    st.lists(_SMALL_INT, min_size=1, max_size=3)),
}


def _value(key, kind):
    if key in _BY_KEY:
        return _BY_KEY[key]
    base = (typing.get_args(kind) or (kind,))[0]
    if base is str:  # the IDX paths: null, never a file to read
        return st.none()
    leaf = _SMALL_NUM if base is float else _SMALL_INT
    return leaf if base is kind else st.one_of(st.none(), leaf)


def _object(cls, **nested):
    """A JSON object over the keys of ``cls``: required keys always, the
    others sometimes."""
    kinds = typing.get_type_hints(cls)
    required, optional = {}, {}
    for f in dataclasses.fields(cls):
        value = nested[f.name] if f.name in nested else _value(f.name, kinds[f.name])
        (required if f.default is dataclasses.MISSING else optional)[f.name] = value
    return st.fixed_dictionaries(required, optional=optional)


RUN_DOCS = _object(ExperimentConfig, problem=_object(ProblemSpec),
                   method=_object(MethodSpec), schedule=_object(ScheduleConfig),
                   stop=_object(StopRule))


class TestParseOrRun:
    """A document either fails to parse with a ConfigError, or every run it
    gives builds and steps once to a documented status."""

    @settings(max_examples=150, deadline=None)
    @given(doc=RUN_DOCS)
    def test_rejected_or_runs(self, doc):
        try:
            configs = parse_config(json.dumps(doc))
        except ConfigError:
            return
        for cfg in configs:
            built = build_problem(cfg.problem)
            _, summary = run_solver(built.problem, cfg.method, cfg.schedule,
                                    StopRule(max_iters=1), oracle=built.oracle,
                                    seed=cfg.seed, trace_every=cfg.trace_every)
            assert summary.status in DOCUMENTED_STATUSES
