"""Small fully-connected Q-network with hand-rolled backprop.

float64 numpy throughout: training must be bit-reproducible under a fixed
seed, and the analytic gradients are checked against finite differences in
the tests, so there is no autograd framework underneath.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..field import check_number


class Batch(NamedTuple):
    """Sampled rows by column; a team batch adds a leading agent axis."""

    obs: np.ndarray       # (B, obs_size)
    actions: np.ndarray   # (B,) int
    rewards: np.ndarray   # (B,)
    next_obs: np.ndarray  # (B, obs_size)
    dones: np.ndarray     # (B,) float 0/1


class QNet:
    """MLP with ReLU hidden layers and a linear action-value head.

    A single net holds 2-D weights (fan_in, fan_out) and 1-D biases. A team
    net (see `stack`) holds every agent's layer stacked along a leading axis:
    weights (n_agents, fan_in, fan_out), biases (n_agents, 1, fan_out), and
    inputs (n_agents, batch, sizes[0]). The same code serves both, and each
    agent's slice of a team computes exactly what its own net would.
    """

    def __init__(self, sizes, rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = tuple(int(s) for s in sizes)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)  # He init for the ReLU stack
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @classmethod
    def _from_layers(cls, sizes, weights, biases) -> "QNet":
        net = cls.__new__(cls)
        net.sizes = tuple(sizes)
        net.weights = list(weights)
        net.biases = list(biases)
        return net

    @classmethod
    def stack(cls, nets) -> "QNet":
        """A team net holding copies of the given same-shaped nets, in order."""
        sizes = nets[0].sizes
        if any(net.sizes != sizes for net in nets):
            raise ValueError("cannot stack networks of different shapes")
        return cls._from_layers(
            sizes,
            [np.stack(ws) for ws in zip(*(net.weights for net in nets))],
            [np.stack(bs)[:, None, :] for bs in zip(*(net.biases for net in nets))],
        )

    def agent(self, i: int) -> "QNet":
        """Agent i's single net of a team, as views into the team's arrays."""
        return QNet._from_layers(
            self.sizes, [w[i] for w in self.weights], [b[i, 0] for b in self.biases]
        )

    @property
    def n_actions(self) -> int:
        return self.sizes[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Action values, shape (batch, n_actions), or (n_agents, batch, n_actions)."""
        activations, _ = self._forward_cached(x)
        return activations[-1]

    def _forward_cached(self, x: np.ndarray):
        """Forward pass keeping pre-activations for backprop."""
        h = np.atleast_2d(np.asarray(x, dtype=float))
        activations = [h]
        pre = []
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = activations[-1] @ w + b
            pre.append(z)
            activations.append(np.maximum(z, 0.0) if k < last else z)
        return activations, pre

    def clone(self) -> "QNet":
        return QNet._from_layers(
            self.sizes, [w.copy() for w in self.weights], [b.copy() for b in self.biases]
        )

    def copy_from(self, other: "QNet") -> None:
        """Overwrite this net's parameters in place with other's."""
        if other.sizes != self.sizes:
            raise ValueError("cannot sync networks of different shapes")
        for dst, src in zip(self.weights + self.biases, other.weights + other.biases):
            np.copyto(dst, src)

    def save(self, path) -> None:
        """Write the net as JSON; a parameter that is not finite raises a ValueError first."""
        payload = {
            "sizes": list(self.sizes),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }
        try:
            text = json.dumps(payload, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise ValueError(f"checkpoint {path}: {exc}") from None
        with open(path, "w") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "QNet":
        with open(path) as fh:
            payload = json.load(fh)
        net = cls._from_layers(
            payload["sizes"],
            [np.array(w, dtype=float) for w in payload["weights"]],
            [np.array(b, dtype=float) for b in payload["biases"]],
        )
        expect = list(zip(net.sizes[:-1], net.sizes[1:]))
        got = [w.shape for w in net.weights]
        if got != expect or any(
            b.shape != (n,) for b, (_, n) in zip(net.biases, expect)
        ):
            raise ValueError("checkpoint layer shapes disagree with header")
        return net


def loss_and_grads(net: QNet, obs: np.ndarray, actions: np.ndarray, targets: np.ndarray):
    """Mean squared TD error on the taken actions, plus its exact gradient.

    Returns (loss, weight_grads, bias_grads) without touching net parameters.
    For a team net, obs is (n_agents, batch, obs_size), actions and targets
    are (n_agents, batch), and the loss is one value per agent.
    """
    acts, pre = net._forward_cached(obs)
    q = acts[-1]
    batch = q.shape[-2]
    actions = np.asarray(actions)
    taken = (*np.indices(actions.shape, sparse=True), actions)  # q[..., b, actions[..., b]]
    err = q[taken] - targets
    loss = np.mean(err * err, axis=-1)

    dq = np.zeros_like(q)
    dq[taken] = 2.0 * err / batch
    w_grads = [None] * len(net.weights)
    b_grads = [None] * len(net.biases)
    delta = dq
    for k in range(len(net.weights) - 1, -1, -1):
        w_grads[k] = acts[k].swapaxes(-1, -2) @ delta
        b_grads[k] = delta.sum(axis=-2).reshape(net.biases[k].shape)
        if k > 0:
            delta = (delta @ net.weights[k].swapaxes(-1, -2)) * (pre[k - 1] > 0.0)
    return loss, w_grads, b_grads


def td_train_step(
    net: QNet, target_net: QNet, batch: Batch, gamma: float, lr: float
) -> float | np.ndarray:
    """One SGD step on the TD(0) target; returns the pre-step loss.

    A team net takes a batch stacked per agent, (n_agents, batch, ...), and
    returns one loss per agent.
    """
    next_q = target_net.forward(batch.next_obs)
    targets = batch.rewards + gamma * (1.0 - batch.dones) * next_q.max(axis=-1)
    loss, w_grads, b_grads = loss_and_grads(net, batch.obs, batch.actions, targets)
    for w, g in zip(net.weights, w_grads):
        w -= lr * g
    for b, g in zip(net.biases, b_grads):
        b -= lr * g
    return loss


class ReplayBuffer:
    """Fixed-capacity ring of team steps with uniform sampling.

    Row k holds one team step: obs and next_obs (n_agents, obs_size), one
    action and one reward per agent, and one done flag. The columns are
    allocated on the first push; the oldest row is overwritten once the ring
    is full.
    """

    def __init__(self, capacity: int):
        self.capacity = check_number("capacity", capacity, low=1, integer=True)
        self._columns: Batch | None = None
        self._size = 0
        self._pos = 0

    def __len__(self) -> int:
        return self._size

    def push(self, obs, actions, rewards, next_obs, done: bool) -> None:
        """Copy one team step into the ring, overwriting the oldest when full.

        The first push sets the team's shape: obs and next_obs (n_agents,
        obs_size), actions and rewards (n_agents,). A step of another shape
        raises ValueError rather than broadcasting into the ring.
        """
        if self._columns is None:
            if np.ndim(obs) != 2:
                raise ValueError(f"obs must be (n_agents, obs_size), got shape {np.shape(obs)}")
            n_agents, obs_size = np.shape(obs)
            self._columns = Batch(
                obs=np.empty((self.capacity, n_agents, obs_size)),
                actions=np.empty((self.capacity, n_agents), dtype=int),
                rewards=np.empty((self.capacity, n_agents)),
                next_obs=np.empty((self.capacity, n_agents, obs_size)),
                dones=np.empty(self.capacity),
            )
        cols, k = self._columns, self._pos
        team = cols.obs.shape[1:]
        shapes = (np.shape(obs), np.shape(next_obs), np.shape(actions), np.shape(rewards))
        if shapes != (team, team, team[:1], team[:1]):
            raise ValueError(
                f"a team step is obs and next_obs {team}, actions and rewards {team[:1]}; "
                f"got {shapes}"
            )
        cols.obs[k] = obs
        cols.actions[k] = actions
        cols.rewards[k] = rewards
        cols.next_obs[k] = next_obs
        cols.dones[k] = float(done)
        self._pos = (k + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rngs) -> Batch:
        """A (n_agents, batch_size, ...) batch; rngs[i] draws agent i's rows."""
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        n_agents = self._columns.actions.shape[1]
        if len(rngs) != n_agents:
            raise ValueError(f"sample needs one stream per agent, {n_agents}, got {len(rngs)}")
        picks = np.array([rng.integers(0, self._size, size=batch_size) for rng in rngs])
        agents = np.arange(len(rngs))[:, None]
        *per_agent, dones = self._columns
        return Batch(*(col[picks, agents] for col in per_agent), dones[picks])


def epsilon(step: int, start: float, end: float, decay_steps: int) -> float:
    """Linear exploration schedule, clamped at `end` after decay_steps."""
    if decay_steps < 1:
        return end
    frac = min(max(step, 0) / decay_steps, 1.0)
    if frac >= 1.0:
        return end  # land exactly on the floor, no arithmetic residue
    return start + (end - start) * frac
