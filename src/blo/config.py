"""JSON experiment configs: parsing, validation, sweep expansion.

A config file is a single run object, a list of them, or
{"runs": [...]}.  The run dataclasses are the schema: each JSON object
takes its allowed keys, defaults, required keys and value types from the
fields of its dataclass, and its semantic checks from that dataclass's
``__post_init__``.  Validation errors carry the JSON path of the
offending entry.

A list given for a field that takes one value is a sweep.  An object
stands for the cross product of its fields' values, taken in the
document's key order with the first key varying slowest, so

    {"schedule": {"eta": [0.25, 1.0]}, "seed": [0, 1]}

yields four runs: eta 0.25 with seeds 0 and 1, then eta 1.0 with both.
An entry of a swept object may hold sweeps of its own.  A vector field
(``spectrum``, ``z0``) takes a JSON list as its value, not as a sweep.
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
    spectrum: str | tuple[float, ...] = "identity"
    z0: str | tuple[float, ...] = "ones"
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
        if self.spectrum != "identity" and not (isinstance(self.spectrum, tuple)
                                                and len(self.spectrum) == 2):
            raise FieldError("spectrum", 'expected "identity" or [lmin, lmax]')
        if self.z0 not in ("ones", "random") and not isinstance(self.z0, tuple):
            raise FieldError("z0", 'expected "ones", "random", or a vector')
        if self.family not in _PROBLEM_FAMILIES:
            raise FieldError("family", f"unknown problem family {self.family!r} "
                                       f"(expected one of {_PROBLEM_FAMILIES})")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if isinstance(self.spectrum, tuple) and not 0.0 < self.spectrum[0] <= self.spectrum[1]:
            raise ValueError(f"spectrum bounds must satisfy 0 < lmin <= lmax, "
                             f"got {list(self.spectrum)}")
        if isinstance(self.z0, tuple) and len(self.z0) != self.n:
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


class _Field(typing.NamedTuple):
    """One dataclass field as the parser reads it."""

    kind: type  # int, float, str, or a run dataclass
    optional: bool  # takes null
    vector: bool  # takes a JSON list as its value, a tuple of floats
    required: bool
    nested: bool  # ``kind`` is a run dataclass


@functools.cache
def _plan(cls) -> dict[str, _Field]:
    """The fields of ``cls`` by name, in field order.  Resolving the string
    annotations is slow, so each class is resolved once."""
    plan = {}
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
        plan[f.name] = _Field(kinds[0], type(None) in kinds,
                              any(typing.get_origin(k) is tuple for k in kinds),
                              f.default is dataclasses.MISSING,
                              dataclasses.is_dataclass(kinds[0]))
    return plan


def _number(val, path: str) -> float:
    """A JSON number as a float; ``json`` reads NaN and Infinity, which no
    field can use."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{path}: expected a number, got {type(val).__name__}")
    try:
        out = float(val)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{path}: expected a finite number, got {out}")
    return out


_EXPECTED = {int: "an integer", str: "a string"}


def _leaf(field: _Field, val, path: str):
    """One JSON value as ``field`` takes it: int, float, str, null or vector."""
    if field.vector and isinstance(val, list):
        return tuple(_number(c, f"{path}[{i}]") for i, c in enumerate(val))
    if field.vector or (field.optional and val is None):
        return val  # the dataclass checks a vector field's names and rejects the rest
    if field.kind is float:
        return _number(val, path)
    if isinstance(val, field.kind) and not isinstance(val, bool):
        return val
    raise ConfigError(f"{path}: expected {_EXPECTED[field.kind]}, got {type(val).__name__}")


def _parse_obj(cls, obj, path: str) -> list:
    """Every ``cls`` the JSON object ``obj`` at ``path`` stands for.  Allowed
    keys, defaults, required keys and value types come from the fields of
    ``cls``.  A list given for a field that takes one value is a sweep, and a
    nested object may stand for several values; the result is the cross
    product, in ``obj``'s key order with the first key varying slowest.  A
    ``ValueError`` from ``__post_init__`` becomes a ``ConfigError`` at ``path``
    (at the field, for a ``FieldError``)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    plan = _plan(cls)
    unknown = sorted(obj.keys() - plan.keys())
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key (allowed: {sorted(plan)})")
    values = {}
    for name, field in plan.items():
        at = f"{path}.{name}"
        if name not in obj:
            if field.required:
                raise ConfigError(f"{at}: required")
            continue
        entries = obj[name] if isinstance(obj[name], list) and not field.vector else [obj[name]]
        if not entries:
            raise ConfigError(f"{at}: sweep list must be non-empty")
        values[name] = ([out for entry in entries for out in _parse_obj(field.kind, entry, at)]
                        if field.nested else [_leaf(field, entry, at) for entry in entries])
    out = []
    for combo in itertools.product(*(values[name] for name in obj)):
        try:
            out.append(cls(**dict(zip(obj, combo))))
        except FieldError as exc:
            raise ConfigError(f"{path}.{exc.field}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return out


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
        runs = _parse_obj(ExperimentConfig, raw, f"runs[{i}]")
        if len(runs) > 1:  # each run of a named sweep gets its own name
            runs = [cfg if cfg.name is None else dataclasses.replace(cfg, name=f"{cfg.name}-{j}")
                    for j, cfg in enumerate(runs)]
        configs += runs
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
