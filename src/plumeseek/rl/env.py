"""Per-agent control environment layered on the grid Bayes filter.

A discrete action chooses between idling, moving toward the agent's MAP
estimate of the source, sensing, folding its own unfolded readings into its
belief, or pulling its peers' newest readings.
Beliefs are per agent here, unlike the fully shared heuristic episodes, so
communication is a real choice with a real price.
"""
from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..belief import (
    MeasurementRecord,
    SourcePosterior,
    info_gain_bits,
    map_estimate,
    posterior_update,
)
from ..field import check_number, check_values
from ..swarm import World, sense

OBS_SIZE = 17

# Observation layout (all entries normalized; see HybridEnv._observe):
#  0,1  position            2,3  velocity        4,5  wind
#  6    latest reading      7,8  source estimate 9    info gain so far
#  10   moved-since-last-measurement flag
#  11   same-action-repeated-more-than-4-times flag
#  12..16 one-hot of the previous action
OBS_POS = slice(0, 2)
OBS_VEL = slice(2, 4)
OBS_WIND = slice(4, 6)
OBS_LAST_M = 6
OBS_ESTIMATE = slice(7, 9)
OBS_IG = 9
OBS_MOVED_FLAG = 10
OBS_REPEAT_FLAG = 11
OBS_LAST_ACTION = slice(12, 17)


class Action(enum.IntEnum):
    DO_NOTHING = 0
    MOVE = 1
    MEASURE = 2
    UPDATE = 3
    COMMUNICATE = 4

N_ACTIONS = len(Action)


class EpisodeDone(RuntimeError):
    """step() was called on a finished episode."""


@dataclass(frozen=True)
class RewardWeights:
    """Reward term weights and per-action costs.

    reward = w_info * (info gain this step, bits)
           + w_est * (1 - estimate_error / world_diagonal)
           - action_costs[action]

    action_costs is indexed by Action: do-nothing, move, measure, update,
    communicate.
    """

    w_info: float = 1.0
    w_est: float = 1.0
    action_costs: tuple[float, ...] = (0.0, 0.2, 0.1, 0.1, 0.3)

    def __post_init__(self):
        for name in ("w_info", "w_est"):
            check_number(name, getattr(self, name))
        costs = check_values("action_costs", self.action_costs, length=N_ACTIONS)
        object.__setattr__(self, "action_costs", costs)


@dataclass(frozen=True)
class HybridEnvConfig:
    world: World
    n_agents: int = 3
    horizon: int = 200
    a_max: float = 0.5        # velocity one Move adds; one step is the unit of time
    damping: float = 0.95     # velocity retained per step before the kick
    v_max: float = 1.0        # the most one step can cover
    buffer_capacity: int = 4  # newest readings kept per agent
    reward: RewardWeights = field(default_factory=RewardWeights)

    def __post_init__(self):
        for name in ("n_agents", "horizon", "buffer_capacity"):
            check_number(name, getattr(self, name), low=1, integer=True)
        for name in ("a_max", "v_max"):
            check_number(name, getattr(self, name), low=0.0, above=True)
        check_number("damping", self.damping, 0.0, 1.0)


class HybridEnv:
    """Multi-agent episode with per-agent beliefs and discrete control."""

    def __init__(self, cfg: HybridEnvConfig):
        self.cfg = cfg
        self._done = True
        self._grid = g = cfg.world.grid
        self._plume = cfg.world.plume
        # observation scales, fixed by cfg
        self._origin = np.array([g.x_min, g.y_min])
        self._corner = np.array([g.x_max, g.y_max])
        self._span = np.array([g.x_max - g.x_min, g.y_max - g.y_min])
        self._wind_obs = np.clip(np.asarray(self._plume.wind), -1.0, 1.0)
        self._max_ig = cfg.world.max_info_bits
        self._costs = np.asarray(cfg.reward.action_costs, dtype=float)

    @property
    def prior(self) -> SourcePosterior:
        return self._prior

    @property
    def done(self) -> bool:
        return self._done

    @property
    def beliefs(self) -> list[SourcePosterior]:
        return list(self._beliefs)

    @property
    def source(self) -> np.ndarray:
        return self._source.copy()

    @property
    def positions(self) -> np.ndarray:
        return self._pos.copy()

    @property
    def velocities(self) -> np.ndarray:
        return self._vel.copy()

    def reset(self, seed: int = 0) -> np.ndarray:
        cfg = self.cfg
        seed = check_number("seed", seed, low=0, integer=True)
        children = np.random.SeedSequence(seed).spawn(1 + cfg.n_agents)
        world = np.random.default_rng(children[0])
        self._meas_rngs = [np.random.default_rng(c) for c in children[1:]]
        self._prior, self._source, self._pos = cfg.world.setup(world, cfg.n_agents)
        self._vel = np.zeros((cfg.n_agents, 2))
        self._beliefs = [self._prior] * cfg.n_agents
        # readings[i]: agent i's newest readings, oldest first, named by (agent_id, step);
        # seen[i, j]: the step of agent j's newest reading that i folded or passed over
        self._readings = [deque(maxlen=cfg.buffer_capacity) for _ in range(cfg.n_agents)]
        self._seen = np.full((cfg.n_agents, cfg.n_agents), -1, dtype=int)
        self._last_action = np.full(cfg.n_agents, -1, dtype=int)
        self._repeat_count = np.zeros(cfg.n_agents, dtype=int)
        self._moved_since_measure = np.zeros(cfg.n_agents, dtype=bool)
        self._igs = np.zeros(cfg.n_agents)
        self._estimates = np.tile(map_estimate(self._prior)[1], (cfg.n_agents, 1))
        self.t = 0
        self._done = False
        return self._observe()

    # -- action effects -----------------------------------------------------

    def _do_nothing(self, i: int) -> None:
        pass

    def _do_move(self, i: int) -> None:
        cfg = self.cfg
        target = self._estimates[i]
        delta = target - self._pos[i]
        dist = float(np.hypot(*delta))
        accel = (cfg.a_max / dist) * delta if dist > 0 else np.zeros(2)
        v = cfg.damping * self._vel[i] + accel
        speed = float(np.hypot(*v))
        if speed > cfg.v_max:
            v *= cfg.v_max / speed
        pos = self._pos[i] + v
        # walls are sticky: clamp and zero the offending velocity component
        clamped = np.clip(pos, self._origin, self._corner)
        v[clamped != pos] = 0.0
        self._pos[i] = clamped
        self._vel[i] = v
        self._moved_since_measure[i] = True

    def _do_measure(self, i: int) -> None:
        rec = sense(self._pos[i], self._source, self._plume, self._meas_rngs[i], self.t, i)
        self._readings[i].append(rec)
        self._moved_since_measure[i] = False

    def _fold(self, i: int, readings: list[MeasurementRecord]) -> None:
        """Mark readings seen by agent i and fold them in; with none, the belief stays put."""
        if not readings:
            return
        for rec in readings:
            self._seen[i, rec.agent_id] = rec.step
        self._beliefs[i] = posterior_update(self._beliefs[i], readings, self._plume)
        self._igs[i] = info_gain_bits(self._beliefs[i], self._prior)
        self._estimates[i] = map_estimate(self._beliefs[i])[1]

    def _do_update(self, i: int) -> None:
        self._fold(i, [r for r in self._readings[i] if r.step > self._seen[i, i]])

    def _do_communicate(self, i: int) -> None:
        # each peer's newest reading only, each reading evidence once
        newest = [r[-1] for j, r in enumerate(self._readings) if j != i and r]
        self._fold(i, [r for r in newest if r.step > self._seen[i, r.agent_id]])

    # indexed by Action: do-nothing, move, measure, update, communicate
    _HANDLERS = (_do_nothing, _do_move, _do_measure, _do_update, _do_communicate)

    # -- step/observe ---------------------------------------------------------

    def step(self, actions) -> tuple[np.ndarray, np.ndarray, bool]:
        if self._done:
            raise EpisodeDone("episode is over; call reset()")
        actions = [int(check_number("action", a, 0, N_ACTIONS - 1, integer=True)) for a in actions]
        if len(actions) != self.cfg.n_agents:
            raise ValueError("one action per agent required")

        prev_ig = self._igs.copy()
        for i, a in enumerate(actions):  # effects resolve in agent-id order
            self._HANDLERS[a](self, i)
            self._repeat_count[i] = self._repeat_count[i] + 1 if a == self._last_action[i] else 1
            self._last_action[i] = a

        info, estimate, action_cost = self.reward_components(actions, self._igs - prev_ig)
        self.t += 1
        self._done = self.t >= self.cfg.horizon
        return self._observe(), info + estimate - action_cost, self._done

    def reward_components(self, actions, delta_ig_bits) -> tuple[np.ndarray, ...]:
        """The three reward terms, one array each: (info, estimate, action_cost).

        One entry per agent; the step reward is info + estimate - action_cost.
        """
        w = self.cfg.reward
        err = np.hypot(*(self._estimates - self._source).T)
        return (
            w.w_info * np.asarray(delta_ig_bits, dtype=float),
            w.w_est * (1.0 - err / self._grid.diagonal),
            self._costs[actions],
        )

    def _observe(self) -> np.ndarray:
        cfg = self.cfg
        obs = np.zeros((cfg.n_agents, OBS_SIZE))
        obs[:, OBS_POS] = (self._pos - self._origin) / self._span
        obs[:, OBS_VEL] = self._vel / cfg.v_max
        obs[:, OBS_WIND] = self._wind_obs
        obs[:, OBS_LAST_M] = np.clip([r[-1].value if r else 0.0 for r in self._readings], 0.0, 1.0)
        obs[:, OBS_ESTIMATE] = (self._estimates - self._origin) / self._span
        if self._max_ig > 0:
            obs[:, OBS_IG] = np.clip(self._igs / self._max_ig, 0.0, 1.0)
        obs[:, OBS_MOVED_FLAG] = self._moved_since_measure
        obs[:, OBS_REPEAT_FLAG] = self._repeat_count > 4
        acted = self._last_action >= 0  # -1 before the first step: no one-hot
        obs[acted, OBS_LAST_ACTION.start + self._last_action[acted]] = 1.0
        return obs
