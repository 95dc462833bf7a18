"""Slow, obviously-correct versions of fast or shared code paths, for oracle tests.

Most mirror the per-agent code that a batched version replaced: the
list-of-Transition replay ring, the 2-D TD step, the per-agent training
loop with one Q-net, target and buffer per agent, the per-agent
observation loop and the per-agent reward. The buffer ledger keeps
`HybridEnv`'s readings as it first did, in three structures. The rest are direct sums, the
inline reading formula that `swarm.sense` replaced, the float pitch-ratio
rule the lattice strides replaced, the pick and cost-only probabilities
under a move cost `overhead + quad_coeff * d^2` whose fixed part was a
setting rather than the unit of cost, and the plume and
likelihood closed forms written as plain expressions, one fresh array per
operation, for the closed forms in `field` and the in-place likelihood in
`belief`. The per-reading fold is the Bayes update as it was first
written: one full-grid `loglik_grid` per reading, checked and added in
turn, where `posterior_update` adds each reading on its window only. They
share no code with the code under test, so a change there that moves a
bit shows up against them.
"""
from collections import deque
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from plumeseek.belief import (
    LOG_2,
    LOGLIK_FLOOR,
    AllMassLost,
    MeasurementRecord,
    SourcePosterior,
    info_gain_bits,
    loglik_grid,
    logsumexp,
    map_estimate,
    posterior_update,
)
from plumeseek.field import BLOB, concentration
from plumeseek.rl.env import OBS_LAST_ACTION, OBS_SIZE, Action, HybridEnv, N_ACTIONS
from plumeseek.rl.qnet import Batch, QNet, epsilon
from plumeseek.rl.train import MODE_INDIVIDUAL


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
    # an individual agent's net has one head per action it can take: all but Communicate
    n_actions = N_ACTIONS - 1 if cfg.mode == MODE_INDIVIDUAL else N_ACTIONS
    nets = [
        QNet((OBS_SIZE, *cfg.hidden, n_actions), np.random.default_rng(children[1 + 2 * i]))
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
                    a = int(explore_rngs[i].integers(n_actions))
                else:
                    a = int(np.argmax(forward_2d(nets[i], obs[i])[0][-1][0]))
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
    g = cfg.world.grid
    obs = np.zeros((cfg.n_agents, OBS_SIZE))
    span = np.array([g.x_max - g.x_min, g.y_max - g.y_min])
    origin = np.array([g.x_min, g.y_min])
    max_ig = np.log2(g.n_src_cells)
    for i in range(cfg.n_agents):
        obs[i, 0:2] = (env._pos[i] - origin) / span
        obs[i, 2:4] = env._vel[i] / cfg.v_max
        obs[i, 4:6] = np.clip(np.asarray(cfg.world.plume.wind), -1.0, 1.0)
        obs[i, 6] = np.clip(env._readings[i][-1].value if env._readings[i] else 0.0, 0.0, 1.0)
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
        estimate = w.w_est * (1.0 - err / env.cfg.world.grid.diagonal)
        out[i] = info + estimate - w.action_costs[int(a)]
    return out


class BufferLedgerOracle:
    """HybridEnv's reading bookkeeping as it was first written, run beside an env.

    Per agent: a deque of unfolded readings that update clears, the
    (id, record) of the newest reading under a global id counter, and an
    n x n matrix of the newest reading id each agent consumed from each peer.
    It takes each new record from the env and folds with posterior_update
    itself. Call step(env, actions) after each env.step(actions).
    """

    def __init__(self, env):
        n, cap = env.cfg.n_agents, env.cfg.buffer_capacity
        self.prior, self.plume = env.prior, env.cfg.world.plume
        self.beliefs = [env.prior] * n
        self.buffers = [deque(maxlen=cap) for _ in range(n)]
        self.latest = [None] * n
        self.next_id = 1
        self.consumed = np.zeros((n, n), dtype=int)
        self.last_m = np.zeros(n)
        self.igs = np.zeros(n)
        self.estimates = np.tile(map_estimate(env.prior)[1], (n, 1))
        self.rewards = None

    def _fold(self, i, records):
        self.beliefs[i] = posterior_update(self.beliefs[i], records, self.plume)
        self.igs[i] = info_gain_bits(self.beliefs[i], self.prior)
        self.estimates[i] = map_estimate(self.beliefs[i])[1]

    def step(self, env, actions):
        prev_ig = self.igs.copy()
        for i, a in enumerate(actions):
            if a == Action.MEASURE:
                rec = env._readings[i][-1]
                assert (rec.agent_id, rec.step) == (i, env.t - 1)
                self.buffers[i].append(rec)
                self.latest[i] = (self.next_id, rec)
                self.next_id += 1
                self.last_m[i] = rec.value
            elif a == Action.UPDATE and self.buffers[i]:
                self._fold(i, list(self.buffers[i]))
                self.buffers[i].clear()
            elif a == Action.COMMUNICATE:
                fresh = []
                for j, latest in enumerate(self.latest):
                    if j != i and latest is not None and latest[0] > self.consumed[i, j]:
                        fresh.append(latest[1])
                        self.consumed[i, j] = latest[0]
                if fresh:
                    self._fold(i, fresh)
        w, diag = env.cfg.reward, env.cfg.world.grid.diagonal
        self.rewards = np.empty(len(actions))
        for i, a in enumerate(actions):
            err = float(np.hypot(*(self.estimates[i] - env._source)))
            estimate = w.w_est * (1.0 - err / diag)
            self.rewards[i] = w.w_info * (self.igs[i] - prev_ig[i]) + estimate - w.action_costs[a]

    def observe(self, env):
        """env's observation: the ledger's last reading, estimate and IG, the rest per agent."""
        g = env.cfg.world.grid
        obs = per_agent_observe(env)
        max_ig = np.log2(g.n_src_cells)
        for i in range(env.cfg.n_agents):
            obs[i, 6] = np.clip(self.last_m[i], 0.0, 1.0)
            obs[i, 7] = (self.estimates[i, 0] - g.x_min) / (g.x_max - g.x_min)
            obs[i, 8] = (self.estimates[i, 1] - g.y_min) / (g.y_max - g.y_min)
            obs[i, 9] = np.clip(self.igs[i] / max_ig, 0.0, 1.0) if max_ig > 0 else 0.0
        return obs


def inline_reading(position, source, plume, rng, step, agent_id):
    """The reading formula as both episode engines once wrote it inline."""
    f = float(concentration(position, source, plume))
    m = f + plume.noise_sigma * float(rng.standard_normal())
    return MeasurementRecord(
        x=float(position[0]), y=float(position[1]), value=m, step=step, agent_id=agent_id
    )


def _overhead_costs(grid, overhead, quad_coeff, position):
    """overhead + quad_coeff * d^2 from position to every measurement center, row-major."""
    d = grid.meas_centers().reshape(-1, 2) - np.asarray(position, dtype=float)
    return overhead + quad_coeff * (d[:, 0] ** 2 + d[:, 1] ** 2)


def overhead_pick(scores, overhead, quad_coeff, position):
    """The cell maximizing score / (overhead + quad_coeff * d^2); ties go to the first."""
    ratio = scores.values.ravel() / _overhead_costs(scores.grid, overhead, quad_coeff, position)
    return scores.grid.meas_cell_center(int(np.argmax(ratio)))


def overhead_cost_only_probs(grid, overhead, quad_coeff, position):
    """Cost-only probabilities, proportional to 1 / (overhead + quad_coeff * d^2), row-major."""
    w = 1.0 / _overhead_costs(grid, overhead, quad_coeff, position)
    return w / w.sum()


def snr_score_bruteforce(post, candidate, params):
    """Posterior-weighted squared SNR at one candidate, in bits.

    Direct sum over every source hypothesis; the oracle the FFT map must
    reproduce.
    """
    f = concentration(np.asarray(candidate, float), post.grid.src_centers(), params)
    f = f.ravel()
    score = post.probs().ravel() @ (f * f) / (2.0 * params.noise_sigma**2)
    return float(score / LOG_2)


def fraction_strides(meas_pitch, src_pitch):
    """Lattice strides (p, q) by the float pitch-ratio rule, or None where it refuses.

    The rule the offset lattice once took its strides by: the ratio
    meas_pitch / src_pitch as a float, its nearest fraction p/q with q at
    most 4096, accepted within a relative 1e-9.
    """
    ratio = meas_pitch / src_pitch
    frac = Fraction(ratio).limit_denominator(4096)
    if frac.numerator <= 0 or abs(float(frac) - ratio) > 1e-9 * ratio:
        return None
    return frac.numerator, frac.denominator


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


def per_reading_fold(post, records, params, kernel=None):
    """posterior_update with one full-grid loglik_grid per record, each checked, then added."""
    total = np.array(post.log_probs, dtype=float, copy=True)
    for rec in records:
        ll = loglik_grid(rec, post.grid, params, kernel)
        if np.all(ll <= LOGLIK_FLOOR):
            raise AllMassLost(
                f"measurement {rec.value!r} at ({rec.x}, {rec.y}) is impossible "
                "under every source hypothesis"
            )
        total += ll
    norm = logsumexp(total)
    if not np.isfinite(norm):
        raise AllMassLost("no posterior mass survived the update")
    return SourcePosterior(total - norm, post.grid)


def masked_info_gain_bits(post, reference):
    """KL divergence in bits summed over the posterior's support only, gathered by a mask."""
    p = post.probs()
    support = p > 0.0
    diff = post.log_probs[support] - reference.log_probs[support]
    return float(np.sum(p[support] * diff) / LOG_2)


def same_bits(a, b):
    """True when two float arrays have one shape and equal bits (NaNs and signed zeros too)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
