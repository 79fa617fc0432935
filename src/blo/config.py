"""JSON experiment configs: parsing, validation, sweep expansion.

A config file is a single run object, a list of them, or
{"runs": [...]}.  Numeric leaves given as lists are swept: the run
expands into the cross product of all list-valued entries, so

    {"schedule": {"eta": [0.25, 1.0]}, "seed": [0, 1]}

yields four runs.  The run dataclasses are the schema: each JSON object
takes its allowed keys, defaults, required keys and leaf types from the
fields of its dataclass, and its semantic checks from that dataclass's
``__post_init__``.  Validation errors carry the JSON path of the
offending entry.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import typing
from dataclasses import dataclass

from .errors import ConfigError, FieldError
from .solvers import MethodSpec, ScheduleConfig, StopRule

_PROBLEM_FAMILIES = ("quadratic", "multimin", "hypercleaning")


@dataclass(frozen=True)
class ProblemSpec:
    """What to optimize.  Fields beyond ``family`` apply selectively:

    quadratic:      n, spectrum ("identity" or (lmin, lmax)), z0, seed
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

    def __post_init__(self):
        if self.family not in _PROBLEM_FAMILIES:
            raise FieldError("family", f"unknown problem family {self.family!r} "
                                       f"(expected one of {_PROBLEM_FAMILIES})")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.spectrum, str) and not 0.0 < self.spectrum[0] <= self.spectrum[1]:
            raise ValueError(f"spectrum bounds must satisfy 0 < lmin <= lmax, "
                             f"got {list(self.spectrum)}")
        if not isinstance(self.z0, str) and len(self.z0) != self.n:
            raise ValueError(f"z0 has {len(self.z0)} entries, expected n = {self.n}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if self.family != "hypercleaning":
            return
        if self.reg_c <= 0.0:
            raise ValueError(f"reg_c must be positive, got {self.reg_c}")
        idx = (self.idx_train, self.idx_train_labels, self.idx_val, self.idx_val_labels)
        if idx.count(None) in (1, 2, 3):
            raise ValueError("hypercleaning with IDX data needs all four paths: "
                             "idx_train, idx_train_labels, idx_val, idx_val_labels")
        if self.idx_train is not None:
            return
        if self.classes < 2 or self.dim < 1 or self.n_train < 1 or self.n_val < 1:
            raise ValueError("synthetic hypercleaning needs classes >= 2 and dim, "
                             "n_train, n_val >= 1")
        if (self.n_train + self.n_val) % self.classes:
            raise ValueError(f"n_train + n_val = {self.n_train + self.n_val} must be "
                             f"divisible by classes = {self.classes}")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    method: MethodSpec
    schedule: ScheduleConfig = ScheduleConfig()
    stop: StopRule = StopRule(max_iters=1000, d_norm_tol=1e-6)
    seed: int = 0
    trace_every: int = 1
    name: str | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.trace_every < 1:
            raise FieldError("trace_every", f"must be >= 1, got {self.trace_every}")
        # a run writes into <out>/<name>, so the name must be one path component
        if self.name is not None and (self.name in ("", ".", "..") or "/" in self.name
                                      or "\0" in self.name):
            raise FieldError("name", f"must be a directory name other than . or .., "
                                     f"without / or NUL, got {self.name!r}")


def _require_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _float(val, path: str) -> float:
    """A JSON number as a float; ``json`` reads NaN and Infinity, which no
    field can use."""
    try:
        out = float(val)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{path}: expected a finite number, got {out}")
    return out


def _vector(val: list, path: str) -> tuple[float, ...]:
    return tuple(_float(c, f"{path}[{i}]") for i, c in enumerate(val))


def _spectrum(val, path: str):
    if val == "identity":
        return val
    if isinstance(val, list) and len(val) == 2 and all(map(_is_number, val)):
        return _vector(val, path)
    raise ConfigError(f"{path}: expected \"identity\" or [lmin, lmax]")


def _z0(val, path: str):
    if val in ("ones", "random"):
        return val
    if isinstance(val, list) and all(map(_is_number, val)):
        return _vector(val, path)
    raise ConfigError(f"{path}: expected \"ones\", \"random\", or a vector")


# Fields whose JSON value is a structure with its own reader; their list
# values are never sweep axes.
_STRUCTURAL = {"spectrum": _spectrum, "z0": _z0}

_EXPECTED = {int: "an integer", float: "a number", str: "a string"}
# Resolving the string annotations is slow, so each class is resolved once.
_field_types = functools.cache(typing.get_type_hints)


def _leaf(val, kind, path: str):
    """Read one value as ``kind``: a run dataclass, int, float, str or X | None."""
    if dataclasses.is_dataclass(kind):
        return _parse_obj(kind, val, path)
    if type(None) in typing.get_args(kind):
        if val is None:
            return None
        kind = typing.get_args(kind)[0]
    if kind is float and _is_number(val):
        return _float(val, path)
    if kind is not float and isinstance(val, kind) and not isinstance(val, bool):
        return val
    raise ConfigError(f"{path}: expected {_EXPECTED[kind]}, got {type(val).__name__}")


def _parse_obj(cls, obj, path: str):
    """Build the dataclass ``cls`` from the JSON object ``obj`` at ``path``,
    taking allowed keys, defaults, required keys and leaf types from its
    fields.  A ``ValueError`` from its ``__post_init__`` becomes a
    ``ConfigError`` at ``path`` (at the field, for a ``FieldError``)."""
    obj = _require_dict(obj, path)
    fields, kinds = dataclasses.fields(cls), _field_types(cls)
    allowed = sorted(kinds)
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key (allowed: {allowed})")
    kwargs = {}
    for f in fields:
        at = f"{path}.{f.name}"
        if f.name not in obj:
            if f.default is dataclasses.MISSING:
                raise ConfigError(f"{at}: required")
        elif f.name in _STRUCTURAL:
            kwargs[f.name] = _STRUCTURAL[f.name](obj[f.name], at)
        else:
            kwargs[f.name] = _leaf(obj[f.name], kinds[f.name], at)
    try:
        return cls(**kwargs)
    except FieldError as exc:
        raise ConfigError(f"{path}.{exc.field}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _sweep_axes(obj: dict, prefix: str) -> list[tuple[str, list]]:
    """Collect (dotted-path, values) for every list-valued sweepable leaf."""
    axes = []
    for key, val in obj.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(val, dict):
            axes.extend(_sweep_axes(val, path))
        elif isinstance(val, list) and key not in _STRUCTURAL:
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
        raise ConfigError(f"expected an object or a list of runs, got {type(doc).__name__}")
    configs = []
    for i, raw in enumerate(doc):
        path = f"runs[{i}]"
        variants = _expand_sweeps(_require_dict(raw, path), path)
        for j, variant in enumerate(variants):
            cfg = _parse_obj(ExperimentConfig, variant, path)
            if cfg.name is not None and len(variants) > 1:
                cfg = dataclasses.replace(cfg, name=f"{cfg.name}-{j}")
            configs.append(cfg)
    if not configs:
        raise ConfigError("config contains no runs")
    return configs


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON echo of a parsed run (for summary files), without unset optionals."""
    out = dataclasses.asdict(cfg)
    for key in ("problem", "stop"):
        out[key] = {k: v for k, v in out[key].items() if v is not None}
    if cfg.name is None:
        del out["name"]
    return out
