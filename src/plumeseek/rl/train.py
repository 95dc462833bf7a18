"""DQN training loop over the hybrid control environment.

Each agent trains its own network against its own target copy, on its own
draws from one team replay ring. The networks are held as one stacked team
net (`QNet.stack`), so a train step runs one forward pass to act, one push,
one sample and one TD step for the whole team; each agent's slice computes
exactly what its own net would. A net's output heads are the actions its
agent can take: an individual agent's net has one head for each action
before Communicate, the last `Action`, and a communicating agent's net one
for every action. Exploration draws among the heads and greedy selection
takes their argmax, so an individual agent never communicates, and its TD
target is the max over its own actions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..field import check_number, check_values
from .env import Action, HybridEnv, HybridEnvConfig, N_ACTIONS, OBS_SIZE
from ..swarm import agent_streams, read_rows, write_rows
from .qnet import QNet, ReplayBuffer, epsilon, td_train_step

MODE_INDIVIDUAL = "individual"
MODE_COMMUNICATING = "communicating"
MODES = (MODE_INDIVIDUAL, MODE_COMMUNICATING)


class CurveRow(NamedTuple):
    """One row of a curves CSV: one agent's smoothed reward after one training step."""

    step: int
    agent_id: int
    smoothed_reward: float


@dataclass(frozen=True)
class TrainConfig:
    env: HybridEnvConfig
    mode: str = MODE_COMMUNICATING
    train_steps: int = 10_000
    hidden: tuple[int, ...] = (64, 64)
    batch_size: int = 32
    replay_capacity: int = 10_000
    gamma: float = 0.95
    learning_rate: float = 1e-3
    target_sync: int = 500
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 10_000
    smoothing: float = 0.02  # EMA weight for the reported reward curves
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown training mode {self.mode!r}")
        for name, low in (
            ("train_steps", 0),
            ("eps_decay_steps", 0),
            ("batch_size", 1),
            ("replay_capacity", 1),
            ("target_sync", 1),
            ("seed", 0),
        ):
            check_number(name, getattr(self, name), low, integer=True)
        if self.batch_size > self.replay_capacity:
            raise ValueError("batch_size must not exceed replay_capacity")
        hidden = check_values("hidden", self.hidden, low=1, integer=True)
        object.__setattr__(self, "hidden", hidden)
        for name in ("gamma", "eps_start", "eps_end"):
            check_number(name, getattr(self, name), 0.0, 1.0)
        check_number("learning_rate", self.learning_rate, low=0.0, above=True)
        check_number("smoothing", self.smoothing, 0.0, 1.0, above=True)
        # |reward| <= R = the terms' sum; R times max(2, n_agents, train_steps) bounds
        # the curve EMA's step and both means of the train summary
        reward, bits = self.env.reward, self.env.world.max_info_bits
        scale = max(2, self.env.n_agents, self.train_steps)
        terms = {
            "rl.reward.w_info": abs(reward.w_info) * bits,
            "rl.reward.w_est": abs(reward.w_est),
            "rl.reward.action_costs": max(map(abs, reward.action_costs)),
        }
        if not sum(terms.values()) * scale < np.inf:
            raise ValueError(
                f"{max(terms, key=terms.get)} must keep (|w_info|·{bits:.6g} bits + |w_est| + "
                f"max|action_costs|) × {scale} finite, got {reward}"
            )


@dataclass
class TrainResult:
    """What a training run returns; its mode and seed are the TrainConfig's."""

    curves: np.ndarray                 # (train_steps, n_agents) smoothed reward
    nets: list[QNet]                   # per-agent views into the trained team net
    n_episodes: int


def greedy_action(q: np.ndarray) -> np.ndarray:
    """The argmax action of each row of action values."""
    return np.argmax(q, axis=-1)


def train(cfg: TrainConfig) -> TrainResult:
    """Run seeded DQN training and return per-agent smoothed reward curves."""
    n_agents = cfg.env.n_agents
    episode_seeder, init_rngs, explore_rngs = agent_streams(cfg.seed, n_agents)
    # Communicate is the last Action: an individual agent's heads are the actions before it
    heads = int(Action.COMMUNICATE) if cfg.mode == MODE_INDIVIDUAL else N_ACTIONS
    team = QNet.stack([QNet((OBS_SIZE, *cfg.hidden, heads), rng) for rng in init_rngs])
    team_target = team.clone()
    replay = ReplayBuffer(cfg.replay_capacity)

    env = HybridEnv(cfg.env)
    curves = np.zeros((cfg.train_steps, n_agents))
    ema = np.zeros(n_agents)

    step = 0
    n_episodes = 0
    while step < cfg.train_steps:
        obs = env.reset(seed=int(episode_seeder.integers(2**31)))
        n_episodes += 1
        done = False
        while not done and step < cfg.train_steps:
            eps = epsilon(step, cfg.eps_start, cfg.eps_end, cfg.eps_decay_steps)
            greedy = greedy_action(team.forward(obs[:, None, :])[:, 0])
            actions = [
                int(rng.integers(team.n_actions)) if rng.random() < eps else int(a)
                for rng, a in zip(explore_rngs, greedy)
            ]
            next_obs, rewards, done = env.step(actions)
            replay.push(obs, actions, rewards, next_obs, done)
            if len(replay) >= cfg.batch_size:
                batch = replay.sample(cfg.batch_size, explore_rngs)
                td_train_step(team, team_target, batch, cfg.gamma, cfg.learning_rate)
            if step == 0:
                ema[:] = rewards
            else:
                ema += cfg.smoothing * (rewards - ema)
            curves[step] = ema
            obs = next_obs
            step += 1
            if step % cfg.target_sync == 0:
                team_target.copy_from(team)

    return TrainResult(curves, [team.agent(i) for i in range(n_agents)], n_episodes)


def curves_to_csv(result: TrainResult, path) -> None:
    """Write the reward curves as a CurveRow table, step-major."""
    rows = (CurveRow(step, agent, float(v)) for (step, agent), v in np.ndenumerate(result.curves))
    write_rows(path, rows, CurveRow)


def read_curves_csv(path) -> np.ndarray:
    """Load a curves CSV back into an (n_steps, n_agents) array; (0, 0) if it has no rows."""
    rows = read_rows(path, CurveRow)
    shape = (rows[-1].step + 1, rows[-1].agent_id + 1) if rows else (0, 0)
    return np.array([row.smoothed_reward for row in rows]).reshape(shape)
