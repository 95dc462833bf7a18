"""Multi-agent search episodes with a shared belief.

Each step runs measure -> broadcast -> update -> plan -> move. Every agent's
reading is shared before the single Bayes update, so all agents act on the
same posterior; movement is an instantaneous relocation that pays the cost
model's price. Two sampling baselines (uniform-random and inverse-cost) ride
alongside the information-driven policy for efficiency comparisons.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .belief import (
    MeasurementRecord,
    SourcePosterior,
    info_gain_bits,
    posterior_from_weights,
    posterior_summary,
    posterior_update,
    uniform_posterior,
)
from .field import GridSpec, PlumeParams, concentration, is_integer, squared_snr_kernel
from .planner import (
    TIER_SNR_FFT,
    TIERS,
    CostModel,
    QuadratureSpec,
    compute_score_map,
    movement_cost,
    movement_cost_map,
    select_next,
)

POLICY_INFO = "info"
POLICY_COST_ONLY = "cost-only"
POLICY_RANDOM = "random"
POLICIES = (POLICY_INFO, POLICY_COST_ONLY, POLICY_RANDOM)

EPISODE_CSV_COLUMNS = ("step", "agent_id", "x", "y", "m", "ig_bits", "cost")


@dataclass(frozen=True)
class SimConfig:
    """Everything one heuristic episode needs, including its RNG seed."""

    grid: GridSpec
    plume: PlumeParams
    cost: CostModel
    n_agents: int = 5
    n_steps: int = 100
    policy: str = POLICY_INFO
    tier: str = TIER_SNR_FFT
    quad: QuadratureSpec = QuadratureSpec()
    source_xy: tuple[float, float] | None = None  # None: sample from the prior
    prior_weights: tuple | None = None            # None: uniform
    seed: int = 0

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown motion policy {self.policy!r}")
        if self.tier not in TIERS:
            raise ValueError(f"planner tier {self.tier!r} is not one of {list(TIERS)}")
        if not is_integer(self.n_agents) or self.n_agents < 1:
            raise ValueError("n_agents must be an integer >= 1")
        if not is_integer(self.n_steps) or self.n_steps < 0:
            raise ValueError("n_steps must be an integer >= 0")


@dataclass(frozen=True)
class StepRecord:
    """One agent's slice of one step: where it measured and what came of it."""

    step: int
    agent_id: int
    x: float
    y: float
    m: float
    ig_bits: float
    cost: float
    next_x: float
    next_y: float


def ig_by_step(records, n_steps: int) -> np.ndarray:
    """Shared info gain after each step's update, one value per step, from step records."""
    out = np.empty(n_steps)
    for rec in records:
        out[rec.step] = rec.ig_bits
    return out


@dataclass
class EpisodeLog:
    seed: int
    policy: str
    n_steps: int
    n_agents: int
    source_xy: tuple[float, float]
    records: list[StepRecord] = field(default_factory=list)
    prior: SourcePosterior | None = None
    final_posterior: SourcePosterior | None = None
    cumulative_cost: float = 0.0

    def ig_series(self) -> np.ndarray:
        """Shared info gain after each step's update (one value per step)."""
        return ig_by_step(self.records, self.n_steps)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(EPISODE_CSV_COLUMNS)
            for r in self.records:
                writer.writerow(
                    [
                        r.step,
                        r.agent_id,
                        repr(r.x),
                        repr(r.y),
                        repr(r.m),
                        repr(r.ig_bits),
                        repr(r.cost),
                    ]
                )

    def summary(self, ig_thresholds=(10.0,)) -> dict:
        out = {
            "seed": self.seed,
            "policy": self.policy,
            "n_agents": self.n_agents,
            "n_steps": self.n_steps,
            "source_xy": list(self.source_xy),
            "cumulative_cost": self.cumulative_cost,
            "final": posterior_summary(self.final_posterior, self.prior),
        }
        for thr in ig_thresholds:
            out[f"steps_to_ig_{thr:g}"] = steps_to_ig(self, thr)
        return out


def agent_streams(seed: int, n_agents: int):
    """Per-agent RNG streams split so extra agents never shift earlier ones.

    Returns (world_rng, measurement_rngs, policy_rngs); stream k of an agent
    depends only on the seed and the agent id. In `run_episode` they draw the
    source and start positions, each agent's reading noise, and each agent's
    random or cost-only targets. In `rl.train` they draw each episode's reset
    seed, each agent's initial Q-net weights, and each agent's exploration
    and replay picks.
    """
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(1 + 2 * n_agents)
    world = np.random.default_rng(children[0])
    meas = [np.random.default_rng(children[1 + 2 * i]) for i in range(n_agents)]
    policy = [np.random.default_rng(children[2 + 2 * i]) for i in range(n_agents)]
    return world, meas, policy


def random_policy(rng: np.random.Generator, grid: GridSpec):
    """Uniformly random measurement cell center."""
    return grid.meas_cell_center(int(rng.integers(grid.n_meas_cells)))


def cost_only_policy(position, cm: CostModel, rng: np.random.Generator, grid: GridSpec):
    """Sample a cell with probability proportional to 1 / movement cost from position."""
    w = 1.0 / movement_cost_map(cm, grid, position).ravel()
    flat = int(rng.choice(w.size, p=w / w.sum()))
    return grid.meas_cell_center(flat)


def world_setup(grid: GridSpec, prior_weights, source_xy, world_rng, n_agents: int):
    """(prior, source, start positions) of one episode, drawn from the world stream.

    prior_weights None means a uniform prior. A fixed source_xy is used as
    given; otherwise the source is the center of a cell drawn from the prior.
    Start positions are uniform over the world and drawn after the source.
    """
    if prior_weights is None:
        prior = uniform_posterior(grid)
    else:
        prior = posterior_from_weights(grid, np.asarray(prior_weights, dtype=float))
    if source_xy is not None:
        source = np.asarray(source_xy, dtype=float)
    else:
        flat = int(world_rng.choice(grid.n_src_cells, p=prior.probs().ravel()))
        source = np.asarray(grid.src_cell_center(flat))
    positions = world_rng.uniform(
        low=(grid.x_min, grid.y_min), high=(grid.x_max, grid.y_max), size=(n_agents, 2)
    )
    return prior, source, positions


def sense(
    position, source, plume: PlumeParams, rng: np.random.Generator, step: int, agent_id: int
) -> MeasurementRecord:
    """One noisy reading at position: the true concentration plus Gaussian noise from rng.

    Both episode engines measure through here: the shared-belief episodes
    and the RL environment.
    """
    f = float(concentration(position, source, plume))
    return MeasurementRecord(
        x=float(position[0]),
        y=float(position[1]),
        value=f + plume.noise_sigma * float(rng.standard_normal()),
        step=step,
        agent_id=agent_id,
    )


def run_episode(cfg: SimConfig) -> EpisodeLog:
    """Run one seeded episode and return its full log."""
    world_rng, meas_rngs, policy_rngs = agent_streams(cfg.seed, cfg.n_agents)
    prior, source, positions = world_setup(
        cfg.grid, cfg.prior_weights, cfg.source_xy, world_rng, cfg.n_agents
    )
    belief = prior
    kernel = None
    if cfg.policy == POLICY_INFO and cfg.tier == TIER_SNR_FFT:
        kernel = squared_snr_kernel(cfg.plume, cfg.grid)

    log = EpisodeLog(
        seed=cfg.seed,
        policy=cfg.policy,
        n_steps=cfg.n_steps,
        n_agents=cfg.n_agents,
        source_xy=(float(source[0]), float(source[1])),
        prior=prior,
    )

    for step in range(cfg.n_steps):
        # measure, in agent-id order, each on its own noise stream
        readings = [
            sense(positions[i], source, cfg.plume, meas_rngs[i], step, i)
            for i in range(cfg.n_agents)
        ]
        # broadcast: every reading reaches every agent before one shared update
        belief = posterior_update(belief, readings, cfg.plume)
        ig = info_gain_bits(belief, prior)

        scores = None
        if cfg.policy == POLICY_INFO:
            scores = compute_score_map(
                belief, cfg.plume, cfg.grid, cfg.tier, cfg.quad, prior, kernel
            )
        for i, position in enumerate(positions):
            if cfg.policy == POLICY_INFO:
                target = select_next(scores, cfg.cost, position)
            elif cfg.policy == POLICY_COST_ONLY:
                target = cost_only_policy(position, cfg.cost, policy_rngs[i], cfg.grid)
            else:
                target = random_policy(policy_rngs[i], cfg.grid)
            paid = float(movement_cost(cfg.cost, position, np.asarray(target)))
            log.records.append(
                StepRecord(
                    step=step,
                    agent_id=i,
                    x=float(position[0]),
                    y=float(position[1]),
                    m=readings[i].value,
                    ig_bits=ig,
                    cost=paid,
                    next_x=float(target[0]),
                    next_y=float(target[1]),
                )
            )
            log.cumulative_cost += paid
            positions[i] = target

    log.final_posterior = belief
    return log


def steps_to_ig(log: EpisodeLog, threshold_bits: float) -> int | None:
    """First step whose post-update shared IG reaches the threshold."""
    for step, ig in enumerate(log.ig_series()):
        if ig >= threshold_bits:
            return step
    return None


def read_episode_csv(path) -> list[StepRecord]:
    """Parse an episode CSV back into step records (next_* not stored)."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(
                StepRecord(
                    step=int(row["step"]),
                    agent_id=int(row["agent_id"]),
                    x=float(row["x"]),
                    y=float(row["y"]),
                    m=float(row["m"]),
                    ig_bits=float(row["ig_bits"]),
                    cost=float(row["cost"]),
                    next_x=float("nan"),
                    next_y=float("nan"),
                )
            )
    return out
