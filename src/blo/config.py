"""JSON experiment configs: parsing, validation, sweep expansion.

A config file is a single run object, a list of them, or
{"runs": [...]}.  Numeric leaves given as lists are swept: the run
expands into the cross product of all list-valued entries, so

    {"schedule": {"eta": [0.25, 1.0]}, "seed": [0, 1]}

yields four runs.  Validation errors carry the JSON path of the
offending entry.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import ConfigError
from .solvers import METHOD_NAMES, MethodSpec, ScheduleConfig, StopRule

_PROBLEM_FAMILIES = ("quadratic", "multimin", "hypercleaning")


@dataclass(frozen=True)
class ProblemSpec:
    """What to optimize.  Fields beyond ``family`` apply selectively:

    quadratic:      n, spectrum ("identity" or [lmin, lmax]), z0, seed
    multimin:       (no parameters)
    hypercleaning:  classes, dim, n_train, n_val, rho, separation, reg_c,
                    seed, or idx_* paths to load IDX data instead
    """

    family: str
    n: int = 100
    spectrum: object = "identity"
    z0: object = "ones"
    seed: int = 0
    classes: int = 10
    dim: int = 20
    n_train: int = 1000
    n_val: int = 500
    rho: float = 0.3
    separation: float = 3.0
    reg_c: float = 1e-3
    idx_train: str | None = None
    idx_train_labels: str | None = None
    idx_val: str | None = None
    idx_val_labels: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    method: MethodSpec
    schedule: ScheduleConfig
    stop: StopRule
    seed: int = 0
    trace_every: int = 1
    name: str | None = None


def _type_name(value) -> str:
    return type(value).__name__


def _require_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {_type_name(value)}")
    return value


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key (allowed: {sorted(allowed)})")


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _num(obj: dict, key: str, path: str, default, *, optional=False):
    if key not in obj:
        return default
    val = obj[key]
    if val is None and optional:
        return None
    if not _is_number(val):
        raise ConfigError(f"{path}.{key}: expected a number, got {_type_name(val)}")
    return val


def _int(obj: dict, key: str, path: str, default, *, optional=False):
    if key not in obj:
        return default
    val = obj[key]
    if val is None and optional:
        return None
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {_type_name(val)}")
    return val


def _str(obj: dict, key: str, path: str, default, *, optional=False):
    if key not in obj:
        return default
    val = obj[key]
    if val is None and optional:
        return None
    if not isinstance(val, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {_type_name(val)}")
    return val


_PROBLEM_KEYS = {"family", "n", "spectrum", "z0", "seed", "classes", "dim",
                 "n_train", "n_val", "rho", "separation", "reg_c",
                 "idx_train", "idx_train_labels", "idx_val", "idx_val_labels"}
_METHOD_KEYS = {"name", "T", "eps", "M", "mu", "lam"}
_SCHEDULE_KEYS = {"mode", "alpha", "beta", "eta", "mu_bar", "p", "lam", "eta_rule"}
_STOP_KEYS = {"max_iters", "max_seconds", "d_norm_tol", "kkt_tol"}
_RUN_KEYS = {"problem", "method", "schedule", "stop", "seed", "trace_every", "name"}


def _parse_problem(obj: dict, path: str) -> ProblemSpec:
    _check_keys(obj, _PROBLEM_KEYS, path)
    family = _str(obj, "family", path, None)
    if family is None:
        raise ConfigError(f"{path}.family: required")
    if family not in _PROBLEM_FAMILIES:
        raise ConfigError(f"{path}.family: unknown problem family {family!r} "
                          f"(expected one of {_PROBLEM_FAMILIES})")
    spectrum = obj.get("spectrum", "identity")
    if isinstance(spectrum, list):
        if len(spectrum) != 2 or not all(_is_number(s) for s in spectrum):
            raise ConfigError(f"{path}.spectrum: expected \"identity\" or [lmin, lmax]")
        spectrum = (float(spectrum[0]), float(spectrum[1]))
    elif spectrum != "identity":
        raise ConfigError(f"{path}.spectrum: expected \"identity\" or [lmin, lmax]")
    z0 = obj.get("z0", "ones")
    if isinstance(z0, list) and all(_is_number(c) for c in z0):
        z0 = tuple(float(c) for c in z0)
    elif z0 not in ("ones", "random"):
        raise ConfigError(f"{path}.z0: expected \"ones\", \"random\", or a vector")
    return ProblemSpec(
        family=family,
        n=_int(obj, "n", path, 100),
        spectrum=spectrum,
        z0=z0,
        seed=_int(obj, "seed", path, 0),
        classes=_int(obj, "classes", path, 10),
        dim=_int(obj, "dim", path, 20),
        n_train=_int(obj, "n_train", path, 1000),
        n_val=_int(obj, "n_val", path, 500),
        rho=float(_num(obj, "rho", path, 0.3)),
        separation=float(_num(obj, "separation", path, 3.0)),
        reg_c=float(_num(obj, "reg_c", path, 1e-3)),
        idx_train=_str(obj, "idx_train", path, None, optional=True),
        idx_train_labels=_str(obj, "idx_train_labels", path, None, optional=True),
        idx_val=_str(obj, "idx_val", path, None, optional=True),
        idx_val_labels=_str(obj, "idx_val_labels", path, None, optional=True),
    )


def _parse_method(obj: dict, path: str) -> MethodSpec:
    _check_keys(obj, _METHOD_KEYS, path)
    name = _str(obj, "name", path, None)
    if name is None:
        raise ConfigError(f"{path}.name: required")
    if name not in METHOD_NAMES:
        raise ConfigError(f"{path}.name: unknown method {name!r} "
                          f"(expected one of {METHOD_NAMES})")
    try:
        return MethodSpec(
            name=name,
            T=_int(obj, "T", path, 100),
            eps=float(_num(obj, "eps", path, 1e-8)),
            M=_int(obj, "M", path, 100),
            mu=float(_num(obj, "mu", path, 0.5)),
            lam=float(_num(obj, "lam", path, 1.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_schedule(obj: dict, path: str) -> ScheduleConfig:
    _check_keys(obj, _SCHEDULE_KEYS, path)
    mode = _str(obj, "mode", path, "strongly-convex")
    alpha = _num(obj, "alpha", path, None, optional=True)
    beta = _num(obj, "beta", path, None, optional=True)
    eta = _num(obj, "eta", path, None, optional=True)
    try:
        return ScheduleConfig(
            mode=mode,
            alpha=None if alpha is None else float(alpha),
            beta=None if beta is None else float(beta),
            eta=None if eta is None else float(eta),
            mu_bar=float(_num(obj, "mu_bar", path, 0.5)),
            p=float(_num(obj, "p", path, 1.0 / 12.0)),
            lam=float(_num(obj, "lam", path, 1.0)),
            eta_rule=_str(obj, "eta_rule", path, "fixed"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_stop(obj: dict, path: str) -> StopRule:
    _check_keys(obj, _STOP_KEYS, path)
    try:
        return StopRule(
            max_iters=_int(obj, "max_iters", path, None, optional=True),
            max_seconds=_num(obj, "max_seconds", path, None, optional=True),
            d_norm_tol=_num(obj, "d_norm_tol", path, None, optional=True),
            kkt_tol=_num(obj, "kkt_tol", path, None, optional=True),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# Keys whose list values are structural, never sweep axes.
_NO_SWEEP = {"spectrum", "z0"}


def _sweep_axes(obj: dict, prefix: str) -> list[tuple[str, list]]:
    """Collect (dotted-path, values) for every list-valued sweepable leaf."""
    axes = []
    for key, val in obj.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(val, dict):
            axes.extend(_sweep_axes(val, path))
        elif isinstance(val, list) and key not in _NO_SWEEP:
            if not val:
                raise ConfigError(f"{path}: sweep list must be non-empty")
            axes.append((path, val))
    return axes


def _set_path(obj: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    for part in parts[:-1]:
        obj = obj[part]
    obj[parts[-1]] = value


def _expand_sweeps(run: dict, path: str) -> list[dict]:
    axes = _sweep_axes(run, "")
    if not axes:
        return [run]
    expanded = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        variant = json.loads(json.dumps(run))
        for (dotted, _), value in zip(axes, combo):
            _set_path(variant, dotted, value)
        expanded.append(variant)
    return expanded


def _parse_run(obj: dict, path: str) -> ExperimentConfig:
    _check_keys(obj, _RUN_KEYS, path)
    if "problem" not in obj:
        raise ConfigError(f"{path}.problem: required")
    if "method" not in obj:
        raise ConfigError(f"{path}.method: required")
    problem = _parse_problem(_require_dict(obj["problem"], f"{path}.problem"),
                             f"{path}.problem")
    method = _parse_method(_require_dict(obj["method"], f"{path}.method"),
                           f"{path}.method")
    schedule = _parse_schedule(_require_dict(obj.get("schedule", {}), f"{path}.schedule"),
                               f"{path}.schedule")
    stop_obj = obj.get("stop", {"max_iters": 1000, "d_norm_tol": 1e-6})
    stop = _parse_stop(_require_dict(stop_obj, f"{path}.stop"), f"{path}.stop")
    trace_every = _int(obj, "trace_every", path, 1)
    if trace_every < 1:
        raise ConfigError(f"{path}.trace_every: must be >= 1, got {trace_every}")
    return ExperimentConfig(
        problem=problem,
        method=method,
        schedule=schedule,
        stop=stop,
        seed=_int(obj, "seed", path, 0),
        trace_every=trace_every,
        name=_str(obj, "name", path, None, optional=True),
    )


def parse_config(text: str) -> list[ExperimentConfig]:
    """Parse a JSON config document into a flat list of runs."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if isinstance(doc, dict) and "runs" in doc:
        extra = sorted(set(doc) - {"runs"})
        if extra:
            raise ConfigError(f"{extra[0]}: unknown top-level key")
        doc = doc["runs"]
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise ConfigError(f"expected an object or a list of runs, got {_type_name(doc)}")
    configs = []
    for i, raw in enumerate(doc):
        path = f"runs[{i}]"
        raw = _require_dict(raw, path)
        variants = _expand_sweeps(raw, path)
        for j, variant in enumerate(variants):
            cfg = _parse_run(variant, path)
            if cfg.name is not None and len(variants) > 1:
                cfg = ExperimentConfig(**{**cfg.__dict__, "name": f"{cfg.name}-{j}"})
            configs.append(cfg)
    if not configs:
        raise ConfigError("config contains no runs")
    return configs


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-serializable echo of a parsed run (for summary files)."""
    problem = {k: v for k, v in cfg.problem.__dict__.items() if v is not None}
    if isinstance(problem.get("spectrum"), tuple):
        problem["spectrum"] = list(problem["spectrum"])
    if isinstance(problem.get("z0"), tuple):
        problem["z0"] = list(problem["z0"])
    out = {
        "problem": problem,
        "method": dict(cfg.method.__dict__),
        "schedule": dict(cfg.schedule.__dict__),
        "stop": {k: v for k, v in cfg.stop.__dict__.items() if v is not None},
        "seed": cfg.seed,
        "trace_every": cfg.trace_every,
    }
    if cfg.name is not None:
        out["name"] = cfg.name
    return out
