"""JSON run configuration: parsing, validation, defaults, and echo.

A config file may specify any subset of the sections below; everything else
falls back to the field defaults of the dataclass that the section builds
(GridSpec, PlumeParams, CostModel, World, SimConfig, HybridEnvConfig,
RewardWeights, TrainConfig). Every section is built, and so validated, at
load time. Unknown keys are rejected rather than ignored so
typos fail loudly. The fully resolved config can be re-serialized
(effective_dict) and reloaded to reproduce a run exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .field import GridSpec, PlumeParams, check_values
from .planner import TIER_EXACT, CostModel
from .rl.env import HybridEnvConfig, RewardWeights
from .rl.train import TrainConfig
from .swarm import POLICIES, SimConfig, World

# exact-tier expected-IG scoring is quartic in grid size; refuse silly runs
EXACT_TIER_MAX_MEAS_CELLS = 64 * 64
EXACT_TIER_MAX_SRC_CELLS = 32 * 32


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


_TOP_LEVEL_KEYS = ("grid", "plume", "cost", "planner", "prior", "sim", "rl", "seeds")
_PLANNER_KEYS = ("tier", "quad_nodes")
_SIM_KEYS = ("n_agents", "n_steps", "policies", "source")
# HybridEnvConfig fields that other sections set, and TrainConfig fields each job sets
_ENV_FROM_OTHER_SECTIONS = ("world", "reward")
_TRAIN_PER_JOB = ("env", "mode", "seed")


def _names(cls, skip=()) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in skip)


def _values(obj, skip=()) -> dict:
    return {name: getattr(obj, name) for name in _names(type(obj), skip)}


_ENV_KEYS = _names(HybridEnvConfig, _ENV_FROM_OTHER_SECTIONS)
_RL_KEYS = _ENV_KEYS + _names(TrainConfig, _TRAIN_PER_JOB) + ("reward",)


def _section(name: str, given, keys) -> dict:
    """The keys a config section sets, as given.

    Keys the section leaves out are not filled in here: the dataclass the
    section builds supplies its own field defaults, and stores each list
    setting as the tuple field.check_values returns.
    """
    if not isinstance(given, dict):
        raise ConfigError(f"{name}: expected an object")
    unknown = set(given) - set(keys)
    if unknown:
        raise ConfigError(f"{name}: unknown key(s) {sorted(unknown)}")
    return dict(given)


def _source_xy(src):
    """sim.source as a fixed (x, y), or None for a source sampled from the prior."""
    if not isinstance(src, dict) or src.get("placement") not in ("fixed", "sampled"):
        raise ConfigError("sim.source.placement must be 'fixed' or 'sampled'")
    sampled = src["placement"] == "sampled"
    _section("sim.source", src, ("placement",) if sampled else ("placement", "x", "y"))
    if sampled:
        return None
    if not ("x" in src and "y" in src):
        raise ConfigError("sim.source: fixed placement requires x and y")
    return (src["x"], src["y"])


def check_seeds(seeds) -> tuple[int, ...]:
    """The config's seeds or the --seed values as a tuple, unless one is not an integer >= 0."""
    try:
        seeds = check_values("seeds", seeds, low=0, integer=True)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not seeds:
        raise ConfigError("seeds must be a non-empty list")
    return tuple(int(s) for s in seeds)


def _prior_weights(prior):
    """The prior section as row-major weights, or None for a uniform prior."""
    if not isinstance(prior, dict) or prior.get("kind") not in ("uniform", "weights"):
        raise ConfigError("prior.kind must be 'uniform' or 'weights'")
    uniform = prior["kind"] == "uniform"
    _section("prior", prior, ("kind",) if uniform else ("kind", "values"))
    if uniform:
        return None
    if "values" not in prior:
        raise ConfigError("prior: kind 'weights' requires values")
    return prior["values"]


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
        return self.sim.world.grid

    @property
    def plume(self) -> PlumeParams:
        return self.sim.world.plume

    def prior_weights(self):
        return self.sim.world.prior_weights

    def sim_config(self, seed: int, policy: str) -> SimConfig:
        return replace(self.sim, seed=seed, policy=policy)

    def train_config(self, seed: int, mode: str) -> TrainConfig:
        return replace(self.train, seed=seed, mode=mode)

    def effective_dict(self) -> dict:
        """JSON-ready dict with every default made explicit."""
        sim, env, world = self.sim, self.train.env, self.sim.world
        if world.source_xy is None:
            source = {"placement": "sampled"}
        else:
            source = {"placement": "fixed", "x": world.source_xy[0], "y": world.source_xy[1]}
        if world.prior_weights is None:
            prior = {"kind": "uniform"}
        else:
            prior = {"kind": "weights", "values": world.prior_weights}
        out = {
            "grid": _values(world.grid),
            "plume": _values(world.plume),
            "cost": _values(sim.cost),
            "planner": {"tier": sim.tier, "quad_nodes": sim.quad_nodes},
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
        if not isinstance(policies, (list, tuple)):  # a JSON list, or the default
            raise ConfigError(f"sim.policies must be a list, got {policies!r}")
        for pol in policies:
            if pol not in POLICIES:
                raise ConfigError(f"sim.policies: {pol!r} is not one of {list(POLICIES)}")
        # a config without seeds runs the episode's default seed
        seeds = check_seeds(raw.get("seeds", [SimConfig.seed]))

        world = World(
            grid=GridSpec(**_section("grid", raw.get("grid", {}), _names(GridSpec))),
            plume=PlumeParams(**_section("plume", raw.get("plume", {}), _names(PlumeParams))),
            source_xy=_source_xy(sim.pop("source", {"placement": "sampled"})),
            prior_weights=_prior_weights(raw.get("prior", {"kind": "uniform"})),
        )
        sim = SimConfig(
            world=world,
            cost=CostModel(**_section("cost", raw.get("cost", {}), _names(CostModel))),
            **planner,
            **sim,
        )
        env = HybridEnvConfig(
            world=world,
            reward=RewardWeights(**reward),
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
        raw = json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8 text ({exc})") from exc
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
