"""Experiment configuration: the INI format, its key table and validation.

A benchmark is described by one INI-style config file:

    [experiment]
    alpha = 0.9
    horizon = 10000
    runs = 10
    seed = 0
    out = results
    trace = false
    lambda1 = 0.1
    lambda2 = 10

    [environment]
    kind = synthetic            ; synthetic | score_log | auction
    distribution = uniform
    a = 0.0
    b = 1.0

    [policy:sps]
    kind = sps

CLI flags override the [experiment] keys of the same name.  Each is one
`ExperimentConfig` field; the loss is derived from ``lambda1``,
``lambda2`` and ``alpha``, never stored beside them.  `KEYS` lists the
keys each section reads: [experiment] its own, [environment] those of
its ``kind`` and of its ``distribution``, ``[policy:<id>]`` those of its
kind (the id when ``kind`` is absent).  `SWEEPS` names the swept
parameters: ``gamma`` or ``gamma_grid`` for ACI, ``m`` or ``m_grid`` for
ETC and Con-ETC, each with a default grid.  DLR's ``tau_init`` defaults
to the environment's lower score bound when that bound is finite.

A file that is not UTF-8 (a byte-order mark is skipped) or that
`configparser` cannot read is a config error, and so is a section or
key that nothing reads, a number that does not parse or is not finite,
an empty grid or one whose values print alike, and a policy id outside
``[A-Za-z0-9_.-]+``.  A ``[DEFAULT]`` key must be one some section reads;
where it is spread into a section that does not read it, it is ignored.
"""

from __future__ import annotations

import configparser
import math
import os
import re
from dataclasses import dataclass, field

from .environments import DISTRIBUTION_PARAMS, EnvironmentConfigError, EnvironmentSpec
from .metrics import LossParams
from .policies import ACI_GAMMA_GRID, ETC_M_GRID, POLICY_KINDS, PolicyConfigError, PolicySpec


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration (exit code 1)."""


# Converters: raw INI text to a value, or a ValueError saying why not.

def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{raw!r}: not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{raw!r}: not a finite number")
    return value


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{raw!r}: not an integer") from None


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"{raw!r}: not a boolean") from None


def _list(convert):
    """A converter for comma-separated values, each through `convert`."""
    return lambda raw: tuple(convert(v.strip()) for v in raw.split(",") if v.strip())


# reader -> {key: converter}.  A reader is [experiment], an environment kind,
# a distribution or a policy kind; every environment and policy section also
# reads `kind`.
KEYS = {
    "experiment": {"alpha": _number, "horizon": _integer, "runs": _integer,
                   "seed": _integer, "out": str, "trace": _boolean,
                   "lambda1": _number, "lambda2": _number},
    "synthetic": {"distribution": str},
    "score_log": {"path": str, "sampling": str},
    "auction": {"pool": str, "bidders": _integer, "distribution": str},
    **{name: {key: _list(_number) if name == "pointmix" else _number for key in keys}
       for name, keys in DISTRIBUTION_PARAMS.items()},
    "sps": {},
    "greedy": {},
    "aci": {"gamma": _number, "gamma_grid": _list(_number)},
    "dlr": {"tau_init": _number},
    "etc": {"m": _integer, "m_grid": _list(_integer)},
    "con_etc": {"m": _integer, "m_grid": _list(_integer)},
}

# swept policy kind -> (key, PolicySpec field, default grid); `<key>_grid`
# lists the values to sweep
SWEEPS = {
    "aci": ("gamma", "gamma", ACI_GAMMA_GRID),
    "etc": ("m", "explore_rounds", ETC_M_GRID),
    "con_etc": ("m", "explore_rounds", ETC_M_GRID),
}

_POLICY_ID = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class PolicyEntry:
    """One policy section: fixed PolicySpec fields plus an optional sweep.

    `grid` is (key, values) for a ``<key>_grid`` line; a swept kind with
    neither grid nor fixed value sweeps its default grid (see `SWEEPS`).
    """

    policy_id: str
    kind: str
    params: dict = field(default_factory=dict)
    grid: tuple[str, tuple] | None = None

    def grid_points(self) -> list[tuple[str, dict]]:
        """(grid_key, spec overrides) pairs; a single point when fixed."""
        if self.kind not in SWEEPS:
            return [("", {})]
        key, spec_field, default = SWEEPS[self.kind]
        if spec_field in self.params:
            values = (self.params[spec_field],)
        else:
            values = self.grid[1] if self.grid is not None else default
        return [(f"{key}={v:g}" if isinstance(v, float) else f"{key}={v}", {spec_field: v})
                for v in values]


@dataclass
class ExperimentConfig:
    """One experiment: one field per [experiment] key (``out`` is `out_dir`)."""

    environment: EnvironmentSpec
    policies: list[PolicyEntry]
    alpha: float = 0.9
    horizon: int = 10000
    runs: int = 10
    seed: int = 0
    lambda1: float = LossParams.lambda1
    lambda2: float = LossParams.lambda2
    out_dir: str = "results"
    trace: bool = False

    @property
    def loss(self) -> LossParams:
        """The loss regret is measured by, at this config's alpha."""
        return LossParams(self.lambda1, self.lambda2, self.alpha)

    def validate(self) -> None:
        try:
            self.loss  # checks alpha and the lambdas
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.horizon < 2:
            raise ConfigError(f"horizon must be >= 2, got {self.horizon}")
        if not self.policies:
            raise ConfigError("at least one [policy:*] section is required")
        try:
            env = self.environment.build()
        except EnvironmentConfigError as exc:
            raise ConfigError(str(exc)) from exc
        spec = self.environment
        if spec.kind == "score_log" and not spec.with_replacement and len(env.scores) < self.horizon:
            raise ConfigError(
                f"score log {spec.path} has {len(env.scores)} rows: too few to "
                f"sample {self.horizon} rounds without replacement"
            )
        # surface per-policy parameter errors (grids included) at config time
        for entry in self.policies:
            where = f"[policy:{entry.policy_id}]"
            if not _POLICY_ID.fullmatch(entry.policy_id):
                raise ConfigError(f"{where} policy id must match {_POLICY_ID.pattern}")
            points = entry.grid_points()
            if entry.grid is not None:
                key, values = entry.grid
                if SWEEPS[entry.kind][1] in entry.params:
                    raise ConfigError(
                        f"{where} sets both {key} and {key}_grid; {key} alone would run")
                if not values:
                    raise ConfigError(f"{where} {key}_grid is empty")
                # grid keys name the runs and seed them: two values that print
                # alike would run twice under one name
                shown = [grid_key.split("=", 1)[1] for grid_key, _ in points]
                for i, value in enumerate(shown):
                    if value in shown[:i]:
                        raise ConfigError(f"{where} {key}_grid repeats {value}")
            for _, overrides in points:
                try:
                    self.policy_spec(entry, overrides)
                except PolicyConfigError as exc:
                    raise ConfigError(f"{where} {exc}") from exc

    def policy_spec(self, entry: PolicyEntry, overrides: dict) -> PolicySpec:
        """The entry's spec with `overrides` (one grid point's fields) on top."""
        params = {**entry.params, **overrides}
        if entry.kind == "dlr" and "tau_init" not in params:
            lo = self.environment.build().dist.support[0]
            if not math.isfinite(lo):
                raise PolicyConfigError(
                    "dlr needs tau_init: environment score range is unbounded below"
                )
            params["tau_init"] = lo
        return PolicySpec(kind=entry.kind, alpha=self.alpha, horizon=self.horizon, **params)


def _read(section, reads: dict, defaults) -> dict:
    """The keys of `section` that `reads` names, each through its converter;
    a key outside `reads` is a ConfigError unless [DEFAULT] spreads it here."""
    unread = sorted(set(section) - set(reads) - set(defaults))
    if unread:
        raise ConfigError(
            f"[{section.name}] unknown key {unread[0]!r}; this section reads "
            f"{', '.join(reads)}"
        )
    values = {}
    for key, convert in reads.items():
        if key in section:
            try:
                values[key] = convert(section[key])
            except ValueError as exc:
                raise ConfigError(f"[{section.name}] {key} = {exc}") from exc
    return values


def _environment(section, base_dir: str, defaults) -> EnvironmentSpec:
    kind = section.get("kind")
    if kind is None:
        raise ConfigError("[environment] requires a 'kind' key")
    if kind not in ("synthetic", "score_log", "auction"):
        raise ConfigError(f"[environment] unknown kind {kind!r}")
    dist = section.get("distribution")
    if dist is not None and dist not in DISTRIBUTION_PARAMS:
        raise ConfigError(f"[environment] unknown distribution {dist!r}")
    values = _read(section, {"kind": str, **KEYS[kind], **KEYS.get(dist, {})}, defaults)
    if "pool" in values and dist is not None:
        raise ConfigError("[environment] sets both pool and distribution; pool alone would run")
    path = values.get("path") or values.get("pool")
    if path and not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    sampling = values.get("sampling", "with_replacement")
    if sampling not in ("with_replacement", "without_replacement"):
        raise ConfigError(f"[environment] unknown sampling mode {sampling!r}")
    return EnvironmentSpec(
        kind=kind,
        distribution=dist,
        dist_params={key: values[key] for key in KEYS.get(dist, ()) if key in values},
        path=path,
        with_replacement=(sampling == "with_replacement"),
        bidders=values.get("bidders", EnvironmentSpec.bidders),
    )


def _policy(section, defaults) -> PolicyEntry:
    policy_id = section.name.split(":", 1)[1]
    kind = section.get("kind", policy_id)
    if kind not in POLICY_KINDS:
        raise ConfigError(f"[{section.name}] unknown policy kind {kind!r}")
    params = _read(section, {"kind": str, **KEYS[kind]}, defaults)
    params.pop("kind", None)
    grid = None
    if kind in SWEEPS:
        key, spec_field, _ = SWEEPS[kind]
        if key in params:
            params[spec_field] = params.pop(key)
        if f"{key}_grid" in params:
            grid = (key, params.pop(f"{key}_grid"))
    return PolicyEntry(policy_id, kind, params, grid)


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a config file; `overrides` holds CLI flags (None: unset)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not parser.read(path, encoding="utf-8-sig"):
            raise ConfigError(f"config file not found: {path}")
        cfg = _experiment(parser, os.path.dirname(os.path.abspath(path)), overrides or {})
    except (configparser.Error, UnicodeDecodeError) as exc:  # malformed, bad '%', not UTF-8
        raise ConfigError(f"{path}: {exc}") from exc
    cfg.validate()
    return cfg


def _experiment(parser, base_dir: str, overrides: dict) -> ExperimentConfig:
    """The unvalidated config in `parser`; data paths resolve against `base_dir`."""
    if "environment" not in parser:
        raise ConfigError("config needs an [environment] section")
    for name in parser.sections():
        if name not in ("experiment", "environment") and not name.startswith("policy:"):
            raise ConfigError(f"unknown section [{name}]")
    defaults = parser.defaults()
    unread = sorted(set(defaults) - {"kind"}.union(*KEYS.values()))
    if unread:
        raise ConfigError(f"[DEFAULT] unknown key {unread[0]!r}; no section reads it")
    exp = _read(parser["experiment"] if "experiment" in parser else parser["DEFAULT"],
                KEYS["experiment"], defaults)
    overrides = {key: value for key, value in overrides.items() if value is not None}
    exp.update((key, value) for key, value in overrides.items() if key in KEYS["experiment"])
    if "out" in exp:
        exp["out_dir"] = exp.pop("out")
    cfg = ExperimentConfig(
        environment=_environment(parser["environment"], base_dir, defaults),
        policies=[_policy(parser[name], defaults)
                  for name in parser.sections() if name.startswith("policy:")],
        **exp,
    )
    if "policy" in overrides:
        wanted = overrides["policy"]
        cfg.policies = [p for p in cfg.policies if p.policy_id == wanted]
        if not cfg.policies:
            raise ConfigError(f"no [policy:{wanted}] section in config")
    return cfg
