"""Multi-agent search episodes on the team state both episode engines share.

`Team` sets up a search and holds each agent's readings, belief and info
gain; `Team.fold` is the one place a reading becomes evidence. `run_episode`
is its broadcast case: measure -> broadcast -> one shared update -> plan ->
move, where a move is an instantaneous relocation that pays the cost
model's price. Uniform-random and inverse-cost baselines ride alongside the
information-driven policy.
"""
from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .belief import (
    LOG_2,
    MeasurementRecord,
    SourcePosterior,
    info_gain_bits,
    posterior_from_weights,
    posterior_summary,
    posterior_update,
    uniform_posterior,
)
from .field import (
    GridSpec, PlumeParams, check_number, check_values, concentration, offset_lattice,
    squared_snr_kernel,
)
from .planner import (
    TIER_SNR_FFT,
    TIERS,
    CostModel,
    compute_score_map,
    movement_cost,
    movement_cost_map,
    select_next,
)

POLICY_INFO = "info"
POLICY_COST_ONLY = "cost-only"
POLICY_RANDOM = "random"
POLICIES = (POLICY_INFO, POLICY_COST_ONLY, POLICY_RANDOM)


@dataclass(frozen=True)
class World:
    """The searched world both episode engines share, and the one check on its source and prior.

    source_xy None samples the source from the prior; prior_weights None is
    uniform, else one weight per source cell, row-major. Errors name the
    config keys that set these fields (sim.source, prior.values).
    """

    grid: GridSpec
    plume: PlumeParams
    source_xy: tuple[float, float] | None = None
    prior_weights: tuple | None = None

    def __post_init__(self):
        g = self.grid
        if self.source_xy is not None:
            x, y = check_values("sim.source", self.source_xy, length=2)
            x = float(check_number("sim.source.x", x, g.x_min, g.x_max))
            y = float(check_number("sim.source.y", y, g.y_min, g.y_max))
            object.__setattr__(self, "source_xy", (x, y))
        if self.prior_weights is not None:
            prior = check_values("prior.values", self.prior_weights, g.n_src_cells, low=0.0)
            if not any(prior):
                raise ValueError("prior.values must have positive mass")
            object.__setattr__(self, "prior_weights", prior)

    def prior(self) -> SourcePosterior:
        """The prior over source cells: uniform, or the normalized prior weights."""
        if self.prior_weights is None:
            return uniform_posterior(self.grid)
        return posterior_from_weights(self.grid, np.asarray(self.prior_weights, dtype=float))

    @property
    def max_info_bits(self) -> float:
        """The most bits a posterior can gain: -log2 of the least positive prior probability."""
        lp = self.prior().log_probs
        return -float(lp[lp > -np.inf].min()) / LOG_2


@dataclass(frozen=True)
class SimConfig:
    """Everything one heuristic episode needs, including its RNG seed.

    The cost model must keep finite, whatever the policy, the cost of
    n_steps x n_agents longest moves: a bound on the summary's cumulative cost.
    The move count n_steps x n_agents must itself be a finite float.
    """

    world: World
    cost: CostModel
    n_agents: int = 5
    n_steps: int = 100
    policy: str = POLICY_INFO
    tier: str = TIER_SNR_FFT
    quad_nodes: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown motion policy {self.policy!r}")
        if self.tier not in TIERS:
            raise ValueError(f"planner tier {self.tier!r} is not one of {list(TIERS)}")
        for name, low in (("n_agents", 1), ("n_steps", 0), ("seed", 0), ("quad_nodes", 1)):
            check_number(name, getattr(self, name), low, integer=True)
        grid, plume, cost = self.world.grid, self.world.plume, self.cost
        if self.tier == TIER_SNR_FFT:  # the offset lattice must serve the grid and plume
            offset_lattice(grid, plume)
        moves = max(1.0, float(self.n_steps) * float(self.n_agents))
        if not moves < np.inf:
            raise ValueError(
                f"sim.n_steps × sim.n_agents must be a finite float, "
                f"got {self.n_steps:.6g} × {self.n_agents:.6g}"
            )
        longest = 1.0 + cost.quad_coeff * grid.diagonal * grid.diagonal
        if not moves * longest < np.inf:
            raise ValueError(
                f"cost.quad_coeff must keep the cost of n_steps × n_agents moves "
                f"({moves:.6g}) of the longest move ({longest:.6g}) finite, got {cost}"
            )


class StepRecord(NamedTuple):
    """One agent's slice of one step, and one row of the episode CSV, in this order.

    (x, y) is where the agent measured and m what it read; ig_bits is the
    shared info gain after the step's update, and cost what the agent paid to
    move to its next target, which is its (x, y) at the next step, in units of
    one move's fixed cost.
    """

    step: int
    agent_id: int
    x: float
    y: float
    m: float
    ig_bits: float
    cost: float


def write_rows(path, rows, row_type) -> None:
    """Write rows as a CSV table under the header row_type._fields.

    The csv module writes floats as repr, so every value reads back exactly.
    This and read_rows are the program's only CSV writer and reader. A row
    holding a value that is not finite raises a ValueError naming the file
    and the row's line, and no file is left at path. The rows stream
    through, so a long table is never held twice.
    """
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(row_type._fields)
            writer.writerows(_finite_rows(path, rows))
    except ValueError:
        Path(path).unlink(missing_ok=True)
        raise


def _finite_rows(path, rows):
    """The rows, unchanged, up to the first holding a value that is not finite, which raises."""
    for line, row in enumerate(rows, start=2):  # line 1 is the header
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}: line {line}: {row} holds a value that is not finite")
        yield row


def _utf8_lines(path):
    """The lines of a UTF-8 file as csv.reader takes them; a ValueError names a file that is not."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from None


def read_rows(path, row_type) -> list:
    """The rows of a step table that write_rows wrote, each field parsed to its annotated type.

    A step table's row type starts with step and agent_id, and its rows are
    steps 0, 1, ... in order with agents 0..n-1 in order in each. Raises
    ValueError naming the file for text that is not UTF-8, another header, a
    row that is not one finite value of each field's type (naming its line),
    a cell that is not the repr write_rows gives its value (such as ' 1_0.5 '
    for 10.5), or rows out of that order.
    """
    fields, hints = row_type._fields, get_type_hints(row_type)
    kinds = [hints[name] for name in fields]
    reader = csv.reader(_utf8_lines(path))
    header = tuple(next(reader, ()))
    if header != fields:
        raise ValueError(f"{path}: CSV header {list(header)} is not {list(fields)}")
    rows, n_agents = [], 0  # the team size, known once step 1 starts
    for cells in reader:
        if len(cells) != len(kinds):
            raise ValueError(
                f"{path}: line {reader.line_num}: {len(cells)} values, not {len(kinds)}"
            )
        try:
            values = [kind(cell) for kind, cell in zip(kinds, cells)]
        except ValueError:
            names = ", ".join(kind.__name__ for kind in kinds)
            raise ValueError(
                f"{path}: line {reader.line_num}: {cells} is not one each of {names}"
            ) from None
        if not all(map(math.isfinite, values)):  # the program writes only finite values
            raise ValueError(
                f"{path}: line {reader.line_num}: {cells} holds a value that is not finite"
            )
        written = list(map(repr, values))  # what write_rows writes for int and float
        if written != cells:
            cell, value = next((c, w) for c, w in zip(cells, written) if c != w)
            raise ValueError(
                f"{path}: line {reader.line_num}: {cell!r} reads as {value}, "
                f"which write_rows writes as {value!r}"
            )
        row = row_type._make(values)
        if not n_agents and row.step == 1:
            n_agents = len(rows)
        expected = divmod(len(rows), n_agents) if n_agents else (0, len(rows))
        if (row.step, row.agent_id) != expected:
            raise ValueError(
                f"{path}: line {reader.line_num}: step {row.step} agent {row.agent_id} "
                "is out of order"
            )
        rows.append(row)
    if n_agents and len(rows) % n_agents:
        raise ValueError(f"{path}: the last step lists {len(rows) % n_agents} of {n_agents} agents")
    return rows


def ig_by_step(records) -> np.ndarray:
    """Shared info gain after each step's update, one value per step, from step-major records."""
    out = np.empty(records[-1].step + 1 if records else 0)
    for rec in records:
        out[rec.step] = rec.ig_bits
    return out


@dataclass
class EpisodeLog:
    """One episode: its config (seed, policy, team size, steps), source, records and beliefs."""

    cfg: SimConfig
    source_xy: tuple[float, float]
    records: list[StepRecord] = field(default_factory=list)
    prior: SourcePosterior | None = None
    final_posterior: SourcePosterior | None = None

    def to_csv(self, path) -> None:
        """Write the records as a StepRecord table; read_episode_csv reads it back exactly."""
        write_rows(path, self.records, StepRecord)

    def summary(self) -> dict:
        cumulative_cost = 0.0
        for r in self.records:  # in step order, as paid; Python 3.12's sum() rounds otherwise
            cumulative_cost += r.cost
        return {
            "seed": self.cfg.seed,
            "policy": self.cfg.policy,
            "n_agents": self.cfg.n_agents,
            "n_steps": self.cfg.n_steps,
            "source_xy": list(self.source_xy),
            "cumulative_cost": cumulative_cost,
            "final": posterior_summary(self.final_posterior, self.prior),
            "steps_to_ig_10": steps_to_ig(self, 10.0),
        }


def agent_streams(seed: int, n_agents: int):
    """Per-agent RNG streams split so extra agents never shift earlier ones.

    The program's one stream layout. Returns (world_rng, measurement_rngs,
    policy_rngs); stream k of an agent depends only on the seed and the agent
    id. In `Team`, which both episode engines set up through, they draw the
    source and start positions, each agent's reading noise, and (in
    `run_episode`) each agent's random or cost-only targets, so at one seed
    agent i's readings in an RL episode carry the noise of its `run_episode`
    readings. In `rl.train` they draw each episode's reset seed, each agent's
    initial Q-net weights, and each agent's exploration and replay picks.
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


def cost_only_probs(position, cm: CostModel, grid: GridSpec) -> np.ndarray:
    """Row-major probabilities of each cell under the cost-only policy from position.

    w / w.sum() with w = 1 / movement_cost_map(cm, grid, position).
    """
    w = (1.0 / movement_cost_map(cm, grid, position)).ravel()
    return w / w.sum()


def cost_only_policy(position, cm: CostModel, rng: np.random.Generator, grid: GridSpec):
    """Sample a cell with probability proportional to 1 / movement_cost_map from position.

    The draw is Generator.choice(n_meas_cells, p=cost_only_probs(...))'s own
    inverse CDF: cdf = p.cumsum(), cdf /= cdf[-1], then the first cell whose
    cdf exceeds one rng.random(). It takes the same cell and leaves rng in
    the same state as choice, without choice's checks of p.
    """
    cdf = cost_only_probs(position, cm, grid).cumsum()
    cdf /= cdf[-1]
    return grid.meas_cell_center(int(cdf.searchsorted(rng.random(), side="right")))


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


class Team:
    """The per-agent half of a search, set up and folded alike for both episode engines.

    From the seed's agent_streams: the prior, the source (fixed, else a cell
    center drawn from the prior) and start positions, then each agent's
    reading and policy streams, newest `keep` readings, belief and info gain.
    seen[i, j] is the step of agent j's newest reading that i folded or passed
    over. Agents that have folded the same readings share one belief object.
    """

    def __init__(self, world: World, seed: int, n_agents: int, keep: int = 1, kernel=None):
        world_rng, self.meas_rngs, self.policy_rngs = agent_streams(seed, n_agents)
        grid = world.grid
        self.plume, self.kernel = world.plume, kernel
        self.prior = world.prior()
        source = world.source_xy
        if source is None:
            flat = int(world_rng.choice(grid.n_src_cells, p=self.prior.probs().ravel()))
            source = grid.src_cell_center(flat)
        self.source = np.asarray(source)
        self.positions = world_rng.uniform(
            low=(grid.x_min, grid.y_min), high=(grid.x_max, grid.y_max), size=(n_agents, 2)
        )
        self.beliefs = [self.prior] * n_agents
        self.igs = np.zeros(n_agents)
        self.readings = [deque(maxlen=keep) for _ in range(n_agents)]
        self.seen = np.full((n_agents, n_agents), -1, dtype=int)

    def measure(self, i: int, step: int) -> MeasurementRecord:
        """Agent i's reading at its position on its own noise stream, kept as its newest."""
        rec = sense(self.positions[i], self.source, self.plume, self.meas_rngs[i], step, i)
        self.readings[i].append(rec)
        return rec

    def fold(self, agents, readings) -> SourcePosterior | None:
        """Fold readings into the belief the listed agents hold, and mark them seen.

        The listed agents must hold one belief object, as agents that have
        folded the same readings do. Each then holds the new belief, which is
        returned, and its info gain; no readings change nothing and return None.
        """
        if not readings:
            return None
        for rec in readings:
            self.seen[agents, rec.agent_id] = rec.step
        # no local holds the old belief, so it is freed before the info gain is computed
        belief = posterior_update(self.beliefs[agents[0]], readings, self.plume, self.kernel)
        for i in agents:
            self.beliefs[i] = belief
        self.igs[agents] = info_gain_bits(belief, self.prior)
        return belief


def run_episode(cfg: SimConfig) -> EpisodeLog:
    """Run one seeded episode and return its full log."""
    grid, plume = cfg.world.grid, cfg.world.plume
    kernel = squared_snr_kernel(plume, grid) if cfg.tier == TIER_SNR_FFT else None
    team = Team(cfg.world, cfg.seed, cfg.n_agents, kernel=kernel)
    everyone = np.arange(cfg.n_agents)

    log = EpisodeLog(cfg, (float(team.source[0]), float(team.source[1])), prior=team.prior)

    for step in range(cfg.n_steps):
        # measure, in agent-id order, each on its own noise stream; broadcast:
        # every reading reaches every agent before one shared update
        readings = [team.measure(i, step) for i in range(cfg.n_agents)]
        team.fold(everyone, readings)
        ig = float(team.igs[0])

        if cfg.policy == POLICY_INFO:
            scores = compute_score_map(team.beliefs[0], plume, cfg.tier, cfg.quad_nodes, kernel)
            targets = [select_next(scores, cfg.cost, position) for position in team.positions]
        elif cfg.policy == POLICY_COST_ONLY:
            targets = [
                cost_only_policy(position, cfg.cost, rng, grid)
                for position, rng in zip(team.positions, team.policy_rngs)
            ]
        else:
            targets = [random_policy(rng, grid) for rng in team.policy_rngs]
        # one call prices the team's moves; each row sums two terms, as one move's would
        paid = movement_cost(cfg.cost, team.positions, targets).tolist()
        for i, (x, y) in enumerate(team.positions.tolist()):
            log.records.append(StepRecord(step, i, x, y, readings[i].value, ig, paid[i]))
        team.positions[:] = targets

    log.final_posterior = team.beliefs[0]
    return log


def steps_to_ig(log: EpisodeLog, threshold_bits: float) -> int | None:
    """First step whose post-update shared IG reaches the threshold."""
    for step, ig in enumerate(ig_by_step(log.records)):
        if ig >= threshold_bits:
            return step
    return None


def read_episode_csv(path) -> list[StepRecord]:
    """The step records an episode CSV was written from, equal to the log's own.

    Raises read_rows' ValueError, naming the file, for anything but a StepRecord table.
    """
    return read_rows(path, StepRecord)
