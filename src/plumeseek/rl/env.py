"""Per-agent control environment layered on the grid Bayes filter.

A discrete action chooses between idling, moving toward the agent's MAP
estimate of the source, sensing, folding its own unfolded readings into its
belief, or pulling its peers' newest readings. Beliefs are per agent here,
on the same `swarm.Team` as the shared heuristic episodes, so communication
is a real choice with a real price.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..belief import SourcePosterior, map_estimate
from ..field import check_number, check_values
from ..swarm import Team, World

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
        # observation scales, fixed by cfg
        self._origin = np.array([g.x_min, g.y_min])
        self._corner = np.array([g.x_max, g.y_max])
        self._span = np.array([g.x_max - g.x_min, g.y_max - g.y_min])
        self._wind_obs = np.clip(np.asarray(cfg.world.plume.wind), -1.0, 1.0)
        self._max_ig = cfg.world.max_info_bits
        self._costs = np.asarray(cfg.reward.action_costs, dtype=float)

    @property
    def done(self) -> bool:
        return self._done

    @property
    def velocities(self) -> np.ndarray:
        return self._vel.copy()

    def reset(self, seed: int = 0) -> np.ndarray:
        cfg = self.cfg
        seed = check_number("seed", seed, low=0, integer=True)
        self.team = Team(cfg.world, seed, cfg.n_agents, keep=cfg.buffer_capacity)
        self._vel = np.zeros((cfg.n_agents, 2))
        self._last_action = np.full(cfg.n_agents, -1, dtype=int)
        self._repeat_count = np.zeros(cfg.n_agents, dtype=int)
        self._moved_since_measure = np.zeros(cfg.n_agents, dtype=bool)
        self._estimates = np.tile(map_estimate(self.team.prior)[1], (cfg.n_agents, 1))
        self.t = 0
        self._done = False
        return self._observe()

    # -- action effects -----------------------------------------------------

    def _do_nothing(self, i: int) -> None:
        pass

    def _do_move(self, i: int) -> None:
        cfg, positions = self.cfg, self.team.positions
        target = self._estimates[i]
        delta = target - positions[i]
        dist = float(np.hypot(*delta))
        accel = cfg.a_max * (delta / dist) if dist > 0 else np.zeros(2)
        v = cfg.damping * self._vel[i] + accel
        speed = float(np.hypot(*v))
        if speed > cfg.v_max:
            v *= cfg.v_max / speed
        pos = positions[i] + v
        # walls are sticky: clamp and zero the offending velocity component
        clamped = np.clip(pos, self._origin, self._corner)
        v[clamped != pos] = 0.0
        positions[i] = clamped
        self._vel[i] = v
        self._moved_since_measure[i] = True

    def _do_measure(self, i: int) -> None:
        self.team.measure(i, self.t)
        self._moved_since_measure[i] = False

    def _do_update(self, i: int) -> None:
        team = self.team
        self._estimate(i, team.fold([i], [r for r in team.readings[i] if r.step > team.seen[i, i]]))

    def _do_communicate(self, i: int) -> None:
        # each peer's newest reading only, each reading evidence once
        team = self.team
        newest = [r[-1] for j, r in enumerate(team.readings) if j != i and r]
        self._estimate(i, team.fold([i], [r for r in newest if r.step > team.seen[i, r.agent_id]]))

    def _estimate(self, i: int, belief: SourcePosterior | None) -> None:
        """Agent i's MAP estimate from the belief a fold returned; None leaves it as it was."""
        if belief is not None:
            self._estimates[i] = map_estimate(belief)[1]

    # indexed by Action: do-nothing, move, measure, update, communicate
    _HANDLERS = (_do_nothing, _do_move, _do_measure, _do_update, _do_communicate)

    # -- step/observe ---------------------------------------------------------

    def step(self, actions) -> tuple[np.ndarray, np.ndarray, bool]:
        if self._done:
            raise EpisodeDone("episode is over; call reset()")
        actions = [int(check_number("action", a, 0, N_ACTIONS - 1, integer=True)) for a in actions]
        if len(actions) != self.cfg.n_agents:
            raise ValueError("one action per agent required")

        prev_ig = self.team.igs.copy()
        for i, a in enumerate(actions):  # effects resolve in agent-id order
            self._HANDLERS[a](self, i)
            self._repeat_count[i] = self._repeat_count[i] + 1 if a == self._last_action[i] else 1
            self._last_action[i] = a

        info, estimate, action_cost = self.reward_components(actions, self.team.igs - prev_ig)
        self.t += 1
        self._done = self.t >= self.cfg.horizon
        return self._observe(), info + estimate - action_cost, self._done

    def reward_components(self, actions, delta_ig_bits) -> tuple[np.ndarray, ...]:
        """The three reward terms, one array each: (info, estimate, action_cost).

        One entry per agent; the step reward is info + estimate - action_cost.
        """
        w = self.cfg.reward
        err = np.hypot(*(self._estimates - self.team.source).T)
        return (
            w.w_info * np.asarray(delta_ig_bits, dtype=float),
            w.w_est * (1.0 - err / self._grid.diagonal),
            self._costs[actions],
        )

    def _observe(self) -> np.ndarray:
        cfg, team = self.cfg, self.team
        obs = np.zeros((cfg.n_agents, OBS_SIZE))
        obs[:, OBS_POS] = (team.positions - self._origin) / self._span
        obs[:, OBS_VEL] = self._vel / cfg.v_max
        obs[:, OBS_WIND] = self._wind_obs
        obs[:, OBS_LAST_M] = np.clip([r[-1].value if r else 0.0 for r in team.readings], 0.0, 1.0)
        obs[:, OBS_ESTIMATE] = (self._estimates - self._origin) / self._span
        if self._max_ig > 0:
            obs[:, OBS_IG] = np.clip(team.igs / self._max_ig, 0.0, 1.0)
        obs[:, OBS_MOVED_FLAG] = self._moved_since_measure
        obs[:, OBS_REPEAT_FLAG] = self._repeat_count > 4
        acted = self._last_action >= 0  # -1 before the first step: no one-hot
        obs[acted, OBS_LAST_ACTION.start + self._last_action[acted]] = 1.0
        return obs
