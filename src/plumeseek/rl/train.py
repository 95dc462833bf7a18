"""DQN training loop over the hybrid control environment.

Each agent trains its own network against its own target copy, on its own
draws from one team replay ring. The networks are held as one stacked team
net (`QNet.stack`), so a train step runs one forward pass to act, one push,
one sample and one TD step for the whole team; each agent's slice computes
exactly what its own net would. In individual mode the Communicate action
is masked out: greedy selection never considers it and an exploratory draw
of it lands on DoNothing, so no transition ever records it.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ..field import is_integer
from .env import Action, HybridEnv, HybridEnvConfig, N_ACTIONS, OBS_SIZE
from ..swarm import agent_streams
from .qnet import QNet, ReplayBuffer, epsilon, td_train_step

MODE_INDIVIDUAL = "individual"
MODE_COMMUNICATING = "communicating"
MODES = (MODE_INDIVIDUAL, MODE_COMMUNICATING)

CURVES_CSV_COLUMNS = ("step", "agent_id", "smoothed_reward")


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
        ):
            value = getattr(self, name)
            if not is_integer(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        if self.batch_size > self.replay_capacity:
            raise ValueError("batch_size must not exceed replay_capacity")
        if not isinstance(self.hidden, (tuple, list)) or not all(
            is_integer(n) and n >= 1 for n in self.hidden
        ):
            raise ValueError("hidden must be a list of integer layer widths >= 1")
        for name in ("gamma", "eps_start", "eps_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")


@dataclass
class TrainResult:
    mode: str
    seed: int
    curves: np.ndarray                 # (train_steps, n_agents) smoothed reward
    nets: list[QNet]                   # per-agent views into the trained team net
    n_episodes: int


def greedy_action(q_row: np.ndarray, mode: str) -> int:
    """Argmax action; individual mode never considers Communicate."""
    if mode == MODE_INDIVIDUAL:
        return int(np.argmax(q_row[: Action.COMMUNICATE]))
    return int(np.argmax(q_row))


def train(cfg: TrainConfig) -> TrainResult:
    """Run seeded DQN training and return per-agent smoothed reward curves."""
    n_agents = cfg.env.n_agents
    episode_seeder, init_rngs, explore_rngs = agent_streams(cfg.seed, n_agents)
    team = QNet.stack([QNet((OBS_SIZE, *cfg.hidden, N_ACTIONS), rng) for rng in init_rngs])
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
            q = team.forward(obs[:, None, :])  # (n_agents, 1, N_ACTIONS)
            actions = []
            for i in range(n_agents):
                if explore_rngs[i].random() < eps:
                    a = int(explore_rngs[i].integers(N_ACTIONS))
                else:
                    a = greedy_action(q[i, 0], cfg.mode)
                if cfg.mode == MODE_INDIVIDUAL and a == Action.COMMUNICATE:
                    a = int(Action.DO_NOTHING)
                actions.append(a)
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

    return TrainResult(
        mode=cfg.mode,
        seed=cfg.seed,
        curves=curves,
        nets=[team.agent(i) for i in range(n_agents)],
        n_episodes=n_episodes,
    )


def curves_to_csv(result: TrainResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVES_CSV_COLUMNS)
        for step in range(result.curves.shape[0]):
            for agent in range(result.curves.shape[1]):
                writer.writerow([step, agent, repr(float(result.curves[step, agent]))])


def read_curves_csv(path) -> np.ndarray:
    """Load a curves CSV back into an (n_steps, n_agents) array."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append((int(row["step"]), int(row["agent_id"]), float(row["smoothed_reward"])))
    if not rows:
        return np.zeros((0, 0))
    n_steps = max(r[0] for r in rows) + 1
    n_agents = max(r[1] for r in rows) + 1
    out = np.zeros((n_steps, n_agents))
    for s, a, v in rows:
        out[s, a] = v
    return out
