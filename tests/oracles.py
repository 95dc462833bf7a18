"""Slow, obviously-correct versions of fast or shared code paths, for oracle tests.

Most mirror the per-agent code that a batched version replaced: the
list-of-Transition replay ring, the 2-D TD step, the per-agent training
loop with one Q-net, target and buffer per agent, the per-agent
observation loop and the per-agent reward. The rest are direct sums, the
inline reading formula that `swarm.sense` replaced, and the plume and
likelihood closed forms written as plain expressions, one fresh array per
operation, for the in-place versions in `field` and `belief`. They share
no arithmetic with the code under test, so a change there that moves a
bit shows up against them.
"""
from typing import NamedTuple

import numpy as np

from plumeseek.belief import LOG_2, LOGLIK_FLOOR, MeasurementRecord
from plumeseek.field import BLOB, concentration
from plumeseek.rl.env import OBS_LAST_ACTION, OBS_SIZE, Action, HybridEnv, N_ACTIONS
from plumeseek.rl.qnet import Batch, QNet, epsilon
from plumeseek.rl.train import MODE_INDIVIDUAL, greedy_action


class Transition(NamedTuple):
    """One agent's replay row."""

    obs: np.ndarray
    action: int
    reward: float
    next_obs: np.ndarray
    done: bool


class ListReplayOracle:
    """Fixed-capacity ring kept as a list of Transition tuples."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []
        self.pos = 0

    def __len__(self):
        return len(self.items)

    def push(self, t):
        if len(self.items) < self.capacity:
            self.items.append(t)
        else:
            self.items[self.pos] = t
        self.pos = (self.pos + 1) % self.capacity

    def sample(self, batch_size, rng):
        picks = rng.integers(0, len(self.items), size=batch_size)
        rows = [self.items[int(i)] for i in picks]
        return Batch(
            obs=np.stack([r.obs for r in rows]),
            actions=np.array([r.action for r in rows], dtype=int),
            rewards=np.array([r.reward for r in rows], dtype=float),
            next_obs=np.stack([r.next_obs for r in rows]),
            dones=np.array([float(r.done) for r in rows]),
        )


def forward_2d(net, x):
    """Activations (input first) and pre-activations of a single 2-D net."""
    acts, pre = [np.atleast_2d(x)], []
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if k < len(net.weights) - 1 else z)
    return acts, pre


def per_agent_td_step(net, target_net, batch, gamma, lr):
    """One SGD step of a single 2-D net on the TD(0) target; the pre-step loss."""
    next_q = forward_2d(target_net, batch.next_obs)[0][-1]
    targets = batch.rewards + gamma * (1.0 - batch.dones) * next_q.max(axis=1)
    acts, pre = forward_2d(net, batch.obs)
    q = acts[-1]
    idx = np.arange(q.shape[0])
    err = q[idx, batch.actions] - targets
    dq = np.zeros_like(q)
    dq[idx, batch.actions] = 2.0 * err / q.shape[0]
    delta = dq
    for k in range(len(net.weights) - 1, -1, -1):
        w_grad = acts[k].T @ delta
        b_grad = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ net.weights[k].T) * (pre[k - 1] > 0.0)
        net.weights[k] -= lr * w_grad
        net.biases[k] -= lr * b_grad
    return float(np.mean(err * err))


def per_agent_train(cfg):
    """(curves, nets) of `train`, one net, target and buffer per agent."""
    n_agents = cfg.env.n_agents
    children = np.random.SeedSequence(cfg.seed).spawn(1 + 2 * n_agents)
    episode_seeder = np.random.default_rng(children[0])
    nets = [
        QNet((OBS_SIZE, *cfg.hidden, N_ACTIONS), np.random.default_rng(children[1 + 2 * i]))
        for i in range(n_agents)
    ]
    explore_rngs = [np.random.default_rng(children[2 + 2 * i]) for i in range(n_agents)]
    targets = [net.clone() for net in nets]
    buffers = [ListReplayOracle(cfg.replay_capacity) for _ in range(n_agents)]
    env = HybridEnv(cfg.env)
    curves = np.zeros((cfg.train_steps, n_agents))
    ema = np.zeros(n_agents)
    step = 0
    while step < cfg.train_steps:
        obs = env.reset(seed=int(episode_seeder.integers(2**31)))
        done = False
        while not done and step < cfg.train_steps:
            eps = epsilon(step, cfg.eps_start, cfg.eps_end, cfg.eps_decay_steps)
            actions = []
            for i in range(n_agents):
                if explore_rngs[i].random() < eps:
                    a = int(explore_rngs[i].integers(N_ACTIONS))
                else:
                    a = greedy_action(forward_2d(nets[i], obs[i])[0][-1][0], cfg.mode)
                if cfg.mode == MODE_INDIVIDUAL and a == Action.COMMUNICATE:
                    a = int(Action.DO_NOTHING)
                actions.append(a)
            next_obs, rewards, done = env.step(actions)
            for i in range(n_agents):
                t = Transition(obs[i].copy(), actions[i], float(rewards[i]), next_obs[i].copy(), done)
                buffers[i].push(t)
                if len(buffers[i]) >= cfg.batch_size:
                    batch = buffers[i].sample(cfg.batch_size, explore_rngs[i])
                    per_agent_td_step(nets[i], targets[i], batch, cfg.gamma, cfg.learning_rate)
            ema = rewards.copy() if step == 0 else ema + cfg.smoothing * (rewards - ema)
            curves[step] = ema
            obs = next_obs
            step += 1
            if step % cfg.target_sync == 0:
                targets = [net.clone() for net in nets]
    return curves, nets


def per_agent_observe(env):
    """HybridEnv observations built one agent at a time."""
    cfg = env.cfg
    g = cfg.grid
    obs = np.zeros((cfg.n_agents, OBS_SIZE))
    span = np.array([g.x_max - g.x_min, g.y_max - g.y_min])
    origin = np.array([g.x_min, g.y_min])
    max_ig = np.log2(g.n_src_cells)
    for i in range(cfg.n_agents):
        obs[i, 0:2] = (env._pos[i] - origin) / span
        obs[i, 2:4] = env._vel[i] / cfg.v_max
        obs[i, 4:6] = np.clip(np.asarray(cfg.plume.wind) / cfg.w_max, -1.0, 1.0)
        obs[i, 6] = np.clip(env._last_m[i], 0.0, 1.0)
        obs[i, 7:9] = (env._estimates[i] - origin) / span
        obs[i, 9] = np.clip(env._igs[i] / max_ig, 0.0, 1.0) if max_ig > 0 else 0.0
        obs[i, 10] = float(env._moved_since_measure[i])
        obs[i, 11] = float(env._repeat_count[i] > 4)
        if env._last_action[i] >= 0:
            obs[i, OBS_LAST_ACTION.start + env._last_action[i]] = 1.0
    return obs


def per_agent_rewards(env, actions, delta_ig_bits):
    """Step rewards one agent at a time: info + estimate - action_cost."""
    w = env.cfg.reward
    out = np.empty(len(actions))
    for i, a in enumerate(actions):
        err = float(np.hypot(*(env._estimates[i] - env._source)))
        info = w.w_info * delta_ig_bits[i]
        estimate = w.w_est * (1.0 - err / env.cfg.grid.diagonal)
        out[i] = info + estimate - w.action_costs[int(a)]
    return out


def inline_reading(position, source, plume, rng, step, agent_id):
    """The reading formula as both episode engines once wrote it inline."""
    f = float(concentration(position, source, plume))
    m = f + plume.noise_sigma * float(rng.standard_normal())
    return MeasurementRecord(
        x=float(position[0]), y=float(position[1]), value=m, step=step, agent_id=agent_id
    )


def snr_score_bruteforce(post, candidate, params):
    """Posterior-weighted squared SNR at one candidate, in bits.

    Direct sum over every source hypothesis; the oracle the FFT map must
    reproduce.
    """
    f = concentration(np.asarray(candidate, float), post.grid.src_centers(), params)
    f = f.ravel()
    score = post.probs().ravel() @ (f * f) / (2.0 * params.noise_sigma**2)
    return float(score / LOG_2)


def plain_concentration(loc, source, params):
    """Mean concentration at loc for a source at source, as plain closed forms."""
    offset = np.asarray(loc, dtype=float) - np.asarray(source, dtype=float)
    dx, dy = offset[..., 0], offset[..., 1]
    if params.kind == BLOB:
        r2 = dx * dx + dy * dy
        return params.strength * np.exp(-r2 / (2.0 * params.length_scale**2))
    wx, wy = params.wind
    wnorm = float(np.hypot(wx, wy))
    ux, uy = wx / wnorm, wy / wnorm
    down = dx * ux + dy * uy
    cross = -dx * uy + dy * ux
    width = params.sigma0 + params.spread_rate * np.maximum(down, 0.0)
    shape = params.strength * (params.sigma0 / width) * np.exp(
        -(cross * cross) / (2.0 * width * width)
    )
    return np.where(down > 0.0, shape, 0.0)


def plain_gaussian_loglik(m, f, sigma):
    """Floored Gaussian log-density as one plain expression."""
    resid = (m - f) / sigma
    return np.maximum(-0.5 * resid * resid - np.log(sigma * np.sqrt(2.0 * np.pi)), LOGLIK_FLOOR)


def plain_loglik_grid(record, grid, params):
    """Log-likelihood of one record against every source-cell center, (I, J)."""
    f = plain_concentration(np.array([record.x, record.y]), grid.src_centers(), params)
    return plain_gaussian_loglik(record.value, f, params.noise_sigma)
