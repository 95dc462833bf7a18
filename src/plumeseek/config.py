"""JSON run configuration: parsing, validation, defaults, and echo.

A config file may specify any subset of the sections below; everything else
falls back to the field defaults of the dataclass that the section builds
(GridSpec, PlumeParams, CostModel, QuadratureSpec, SimConfig,
HybridEnvConfig, RewardWeights, TrainConfig). Every section is built, and so
validated, at load time. Unknown keys are rejected rather than ignored so
typos fail loudly. The fully resolved config can be re-serialized
(effective_dict) and reloaded to reproduce a run exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .field import GridSpec, PlumeParams, is_integer
from .planner import TIER_EXACT, CostModel, QuadratureSpec
from .rl.env import HybridEnvConfig, RewardWeights
from .rl.train import TrainConfig
from .swarm import POLICIES, SimConfig

# exact-tier expected-IG scoring is quartic in grid size; refuse silly runs
EXACT_TIER_MAX_MEAS_CELLS = 64 * 64
EXACT_TIER_MAX_SRC_CELLS = 32 * 32


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


_TOP_LEVEL_KEYS = ("grid", "plume", "cost", "planner", "prior", "sim", "rl", "seeds")
_PLANNER_KEYS = ("tier", "quad_nodes")
_SIM_KEYS = ("n_agents", "n_steps", "policies", "source")
# HybridEnvConfig fields that other sections set, and TrainConfig fields each job sets
_ENV_FROM_OTHER_SECTIONS = ("grid", "plume", "reward", "source_xy", "prior_weights")
_TRAIN_PER_JOB = ("env", "mode", "seed")


def _names(cls, skip=()) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in skip)


def _values(obj, skip=()) -> dict:
    return {name: getattr(obj, name) for name in _names(type(obj), skip)}


_ENV_KEYS = _names(HybridEnvConfig, _ENV_FROM_OTHER_SECTIONS)
_RL_KEYS = _ENV_KEYS + _names(TrainConfig, _TRAIN_PER_JOB) + ("reward",)


def _section(name: str, given, keys) -> dict:
    """The keys a config section sets, with JSON arrays as tuples.

    Keys the section leaves out are not filled in here: the dataclass the
    section builds supplies its own field defaults.
    """
    if not isinstance(given, dict):
        raise ConfigError(f"{name}: expected an object")
    unknown = set(given) - set(keys)
    if unknown:
        raise ConfigError(f"{name}: unknown key(s) {sorted(unknown)}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in given.items()}


def _source_xy(src, grid: GridSpec):
    """sim.source as a fixed (x, y) in the world, or None for a source sampled from the prior."""
    if not isinstance(src, dict) or src.get("placement") not in ("fixed", "sampled"):
        raise ConfigError("sim.source.placement must be 'fixed' or 'sampled'")
    sampled = src["placement"] == "sampled"
    _section("sim.source", src, ("placement",) if sampled else ("placement", "x", "y"))
    if sampled:
        return None
    if not ("x" in src and "y" in src):
        raise ConfigError("sim.source: fixed placement requires x and y")
    x, y = src["x"], src["y"]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
    if not (numbers and grid.x_min <= x <= grid.x_max and grid.y_min <= y <= grid.y_max):
        raise ConfigError(f"sim.source: fixed ({x!r}, {y!r}) is not a point of the world")
    return (float(x), float(y))


def check_seeds(seeds) -> tuple[int, ...]:
    """The config's seeds or the --seed values as a tuple, unless one is not an integer >= 0."""
    if not isinstance(seeds, list) or not seeds or any(not is_integer(s) or s < 0 for s in seeds):
        raise ConfigError(f"seeds must be a non-empty list of nonnegative integers, got {seeds!r}")
    return tuple(int(s) for s in seeds)


def _prior_weights(prior, grid: GridSpec):
    """The prior section as row-major weights, or None for a uniform prior."""
    if not isinstance(prior, dict) or prior.get("kind") not in ("uniform", "weights"):
        raise ConfigError("prior.kind must be 'uniform' or 'weights'")
    uniform = prior["kind"] == "uniform"
    _section("prior", prior, ("kind",) if uniform else ("kind", "values"))
    if uniform:
        return None
    values = prior.get("values")
    if not isinstance(values, list) or len(values) != grid.n_src_cells:
        raise ConfigError(f"prior.values must list {grid.n_src_cells} weights (row-major)")
    if not all(0.0 <= v < math.inf for v in values) or not any(v > 0 for v in values):
        raise ConfigError("prior.values must be finite, nonnegative and with positive mass")
    return tuple(values)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration.

    sim and train are templates: each job sets its policy or mode and its seed.
    """

    sim: SimConfig
    policies: tuple[str, ...]
    train: TrainConfig
    seeds: tuple[int, ...]

    @property
    def grid(self) -> GridSpec:
        return self.sim.grid

    @property
    def plume(self) -> PlumeParams:
        return self.sim.plume

    def prior_weights(self):
        return self.sim.prior_weights

    def sim_config(self, seed: int, policy: str) -> SimConfig:
        return replace(self.sim, seed=seed, policy=policy)

    def train_config(self, seed: int, mode: str) -> TrainConfig:
        return replace(self.train, seed=seed, mode=mode)

    def effective_dict(self) -> dict:
        """JSON-ready dict with every default made explicit."""
        sim, env = self.sim, self.train.env
        if sim.source_xy is None:
            source = {"placement": "sampled"}
        else:
            source = {"placement": "fixed", "x": sim.source_xy[0], "y": sim.source_xy[1]}
        if sim.prior_weights is None:
            prior = {"kind": "uniform"}
        else:
            prior = {"kind": "weights", "values": sim.prior_weights}
        out = {
            "grid": _values(sim.grid),
            "plume": _values(sim.plume),
            "cost": _values(sim.cost),
            "planner": {"tier": sim.tier, "quad_nodes": sim.quad.n_nodes},
            "prior": prior,
            "sim": {
                "n_agents": sim.n_agents,
                "n_steps": sim.n_steps,
                "policies": self.policies,
                "source": source,
            },
            "rl": {
                **_values(env, _ENV_FROM_OTHER_SECTIONS),
                **_values(self.train, _TRAIN_PER_JOB),
                "reward": _values(env.reward),
            },
            "seeds": self.seeds,
        }
        return json.loads(json.dumps(out))


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    _section("top level", raw, _TOP_LEVEL_KEYS)
    # ConfigError is a ValueError: the handler below re-raises it unchanged in text
    try:
        planner = _section("planner", raw.get("planner", {}), _PLANNER_KEYS)
        sim = _section("sim", raw.get("sim", {}), _SIM_KEYS)
        rl = _section("rl", raw.get("rl", {}), _RL_KEYS)
        reward = _section("rl.reward", rl.pop("reward", {}), _names(RewardWeights))

        policies = sim.pop("policies", POLICIES)
        for pol in policies:
            if pol not in POLICIES:
                raise ConfigError(f"sim.policies: {pol!r} is not one of {list(POLICIES)}")
        # a config without seeds runs the episode's default seed
        seeds = check_seeds(raw.get("seeds", [SimConfig.seed]))

        grid = GridSpec(**_section("grid", raw.get("grid", {}), _names(GridSpec)))
        if "source" in sim:
            sim["source_xy"] = _source_xy(sim.pop("source"), grid)
        if "prior" in raw:
            sim["prior_weights"] = _prior_weights(raw["prior"], grid)
        if "quad_nodes" in planner:
            sim["quad"] = QuadratureSpec(planner.pop("quad_nodes"))
        sim = SimConfig(
            grid=grid,
            plume=PlumeParams(**_section("plume", raw.get("plume", {}), _names(PlumeParams))),
            cost=CostModel(**_section("cost", raw.get("cost", {}), _names(CostModel))),
            **planner,
            **sim,
        )
        env = HybridEnvConfig(
            grid=grid,
            plume=sim.plume,
            reward=RewardWeights(**reward),
            source_xy=sim.source_xy,
            prior_weights=sim.prior_weights,
            **{k: v for k, v in rl.items() if k in _ENV_KEYS},
        )
        train = TrainConfig(env=env, **{k: v for k, v in rl.items() if k not in _ENV_KEYS})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(sim=sim, policies=tuple(policies), train=train, seeds=seeds)


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    return parse_config(raw)


def check_tier_budget(cfg: RunConfig, force: bool = False) -> None:
    """Reject exact-tier scoring on large grids unless explicitly forced."""
    if force or cfg.sim.tier != TIER_EXACT:
        return
    if (
        cfg.grid.n_meas_cells > EXACT_TIER_MAX_MEAS_CELLS
        or cfg.grid.n_src_cells > EXACT_TIER_MAX_SRC_CELLS
    ):
        raise ConfigError(
            "exact tier on a grid this large would be intractable "
            f"(measurement cells > {EXACT_TIER_MAX_MEAS_CELLS} or source cells > "
            f"{EXACT_TIER_MAX_SRC_CELLS}); pass --force to override"
        )
