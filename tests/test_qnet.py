"""Q-network forward/backward math, TD updates, replay, schedules."""
import numpy as np
import pytest
from oracles import ListReplayOracle, Transition, per_agent_td_step

from plumeseek.rl.qnet import (
    Batch,
    QNet,
    ReplayBuffer,
    epsilon,
    loss_and_grads,
    td_train_step,
)


def flat_params(net):
    return np.concatenate([w.ravel() for w in net.weights] + [b.ravel() for b in net.biases])


# -- forward pass -----------------------------------------------------------------


def test_forward_shapes_and_single_row_promotion():
    net = QNet((3, 4, 2), rng=np.random.default_rng(0))
    assert net.forward(np.zeros(3)).shape == (1, 2)
    assert net.forward(np.zeros((7, 3))).shape == (7, 2)
    assert net.n_actions == 2


def test_forward_hand_computed_tiny_net():
    net = QNet((2, 2, 2), rng=np.random.default_rng(0))
    net.weights = [np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[1.0, 0.0], [-1.0, 3.0]])]
    net.biases = [np.array([0.1, -0.2]), np.array([0.0, 1.0])]
    x = np.array([2.0, 1.0])
    hidden = np.maximum(x @ net.weights[0] + net.biases[0], 0.0)  # relu([2.6, -0.2])
    want = hidden @ net.weights[1] + net.biases[1]
    got = net.forward(x)[0]
    assert np.allclose(got, want)
    assert np.allclose(got, [2.6, 1.0])  # negative pre-activation was clipped


def test_forward_batch_rows_are_independent():
    net = QNet((5, 8, 3), rng=np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(6, 5))
    batch_out = net.forward(x)
    for k in range(6):
        assert np.allclose(batch_out[k], net.forward(x[k])[0])
    perm = np.array([3, 1, 5, 0, 2, 4])
    assert np.array_equal(net.forward(x[perm]), batch_out[perm])


def test_init_is_seeded_and_biases_start_at_zero():
    a = QNet((4, 6, 2), rng=np.random.default_rng(42))
    b = QNet((4, 6, 2), rng=np.random.default_rng(42))
    assert all(np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))
    assert all(np.all(bias == 0.0) for bias in a.biases)
    c = QNet((4, 6, 2), rng=np.random.default_rng(43))
    assert not all(np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_qnet_rejects_too_few_layers():
    with pytest.raises(ValueError):
        QNet((5,), np.random.default_rng(0))


def test_qnet_has_no_default_sizes_or_seed():
    with pytest.raises(TypeError):
        QNet()
    with pytest.raises(TypeError):
        QNet((3, 4, 2))


# -- gradients ---------------------------------------------------------------------


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    net = QNet((3, 5, 4, 2), rng=rng)
    obs = rng.normal(size=(6, 3))
    actions = rng.integers(0, 2, size=6)
    targets = rng.normal(size=6)

    loss, w_grads, b_grads = loss_and_grads(net, obs, actions, targets)
    assert loss >= 0.0

    eps = 1e-6
    for params, grads in ((net.weights, w_grads), (net.biases, b_grads)):
        for layer, grad in zip(params, grads):
            flat = layer.ravel()
            gflat = grad.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up, _, _ = loss_and_grads(net, obs, actions, targets)
                flat[idx] = orig - eps
                down, _, _ = loss_and_grads(net, obs, actions, targets)
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                assert numeric == pytest.approx(gflat[idx], rel=1e-6, abs=1e-8)


def test_loss_only_counts_taken_actions():
    net = QNet((2, 3, 3), rng=np.random.default_rng(3))
    obs = np.array([[1.0, -1.0], [0.5, 2.0]])
    actions = np.array([0, 2])
    q = net.forward(obs)
    targets = q[np.arange(2), actions].copy()
    loss, w_grads, b_grads = loss_and_grads(net, obs, actions, targets)
    assert loss == 0.0
    assert all(np.all(g == 0.0) for g in w_grads)
    assert all(np.all(g == 0.0) for g in b_grads)


# -- TD training step -----------------------------------------------------------------


def make_batch(rng, net, batch=5, rewards=None, dones=None):
    obs_size = net.sizes[0]
    return Batch(
        obs=rng.normal(size=(batch, obs_size)),
        actions=rng.integers(0, net.n_actions, size=batch),
        rewards=np.zeros(batch) if rewards is None else rewards,
        next_obs=rng.normal(size=(batch, obs_size)),
        dones=np.zeros(batch) if dones is None else dones,
    )


def test_td_step_loss_uses_bootstrapped_target():
    rng = np.random.default_rng(11)
    net = QNet((4, 6, 3), rng=rng)
    target_net = net.clone()
    batch = make_batch(rng, net, rewards=rng.normal(size=5))
    gamma = 0.9
    want_targets = batch.rewards + gamma * target_net.forward(batch.next_obs).max(axis=1)
    q = net.forward(batch.obs)
    taken = q[np.arange(5), batch.actions]
    want_loss = float(np.mean((taken - want_targets) ** 2))
    got_loss = td_train_step(net, target_net, batch, gamma=gamma, lr=1e-3)
    assert got_loss == pytest.approx(want_loss, rel=1e-12)


def test_td_step_terminal_transitions_ignore_next_state():
    rng = np.random.default_rng(13)
    net = QNet((4, 6, 3), rng=rng)
    target_net = QNet((4, 6, 3), rng=np.random.default_rng(99))
    rewards = rng.normal(size=5)
    batch = make_batch(rng, net, rewards=rewards, dones=np.ones(5))
    q = net.forward(batch.obs)
    taken = q[np.arange(5), batch.actions]
    want_loss = float(np.mean((taken - rewards) ** 2))  # target is the reward alone
    got_loss = td_train_step(net, target_net, batch, gamma=0.9, lr=0.0)
    assert got_loss == pytest.approx(want_loss, rel=1e-12)


def test_td_step_with_zero_gamma_and_zero_reward_on_zero_net():
    net = QNet((3, 4, 2), rng=np.random.default_rng(0))
    for w in net.weights:
        w[:] = 0.0
    target_net = net.clone()
    rng = np.random.default_rng(1)
    batch = make_batch(rng, net)
    before = flat_params(net).copy()
    loss = td_train_step(net, target_net, batch, gamma=0.0, lr=0.5)
    assert loss == 0.0
    assert np.array_equal(flat_params(net), before)  # zero gradient, no drift


def test_td_step_applies_sgd_with_given_learning_rate():
    rng = np.random.default_rng(17)
    net = QNet((3, 5, 2), rng=rng)
    target_net = net.clone()
    batch = make_batch(rng, net, rewards=rng.normal(size=5))
    targets = batch.rewards + 0.9 * target_net.forward(batch.next_obs).max(axis=1)
    _, w_grads, b_grads = loss_and_grads(net, batch.obs, batch.actions, targets)
    want_w = [w - 0.01 * g for w, g in zip(net.weights, w_grads)]
    want_b = [b - 0.01 * g for b, g in zip(net.biases, b_grads)]
    td_train_step(net, target_net, batch, gamma=0.9, lr=0.01)
    for got, want in zip(net.weights + net.biases, want_w + want_b):
        assert np.allclose(got, want, atol=1e-15)


def test_team_td_step_equals_per_agent_loop_across_target_sync():
    sizes = (5, 8, 6, 4)
    agents = [QNet(sizes, rng=np.random.default_rng(40 + i)) for i in range(3)]
    agent_targets = [net.clone() for net in agents]
    team = QNet.stack(agents)
    team_target = team.clone()
    data = np.random.default_rng(41)
    for step in range(1, 8):
        batches = [
            make_batch(data, agents[0], batch=6, rewards=data.normal(size=6),
                       dones=(data.random(6) < 0.3).astype(float))
            for _ in agents
        ]
        team_batch = Batch(*(np.array(column) for column in zip(*batches)))
        want = [
            per_agent_td_step(n, t, b, 0.9, 0.05) for n, t, b in zip(agents, agent_targets, batches)
        ]
        got = td_train_step(team, team_target, team_batch, gamma=0.9, lr=0.05)
        assert np.array_equal(got, want)
        for i, net in enumerate(agents):
            mine = team.agent(i)
            for g, w in zip(mine.weights + mine.biases, net.weights + net.biases):
                assert g.shape == w.shape and np.array_equal(g, w)
        x = data.normal(size=(3, 2, 5))
        acting = team.forward(x)
        for i, net in enumerate(agents):
            assert np.array_equal(acting[i], net.forward(x[i]))
            assert np.array_equal(team.forward(x[:, :1])[i], net.forward(x[i, 0]))
        if step % 3 == 0:
            team_target.copy_from(team)
            for net, tgt in zip(agents, agent_targets):
                tgt.copy_from(net)
            for g, w in zip(team_target.weights + team_target.biases, team.weights + team.biases):
                assert np.array_equal(g, w)


def test_team_agent_views_save_the_single_net_checkpoint(tmp_path):
    nets = [QNet((4, 6, 3), rng=np.random.default_rng(50 + i)) for i in range(2)]
    team = QNet.stack(nets)
    for i, net in enumerate(nets):
        net.save(tmp_path / f"own{i}.json")
        team.agent(i).save(tmp_path / f"view{i}.json")
        assert (tmp_path / f"own{i}.json").read_bytes() == (tmp_path / f"view{i}.json").read_bytes()
    with pytest.raises(ValueError):
        QNet.stack([nets[0], QNet((4, 5, 3), np.random.default_rng(52))])


# -- clone / sync / checkpoints ---------------------------------------------------------


def test_save_refuses_a_parameter_that_is_not_finite_before_opening(tmp_path):
    net = QNet((3, 4, 2), rng=np.random.default_rng(20))
    net.biases[1][0] = np.nan
    path = tmp_path / "qnet.json"
    with pytest.raises(ValueError, match=r"checkpoint .*qnet\.json: .*not JSON compliant"):
        net.save(path)
    assert not path.exists()


def test_clone_is_independent_and_copy_from_syncs():
    rng = np.random.default_rng(19)
    net = QNet((3, 4, 2), rng=rng)
    twin = net.clone()
    assert np.array_equal(net.forward(np.ones(3)), twin.forward(np.ones(3)))
    net.weights[0][0, 0] += 1.0
    assert not np.array_equal(net.forward(np.ones(3)), twin.forward(np.ones(3)))
    twin.copy_from(net)
    assert np.array_equal(net.forward(np.ones(3)), twin.forward(np.ones(3)))
    with pytest.raises(ValueError):
        twin.copy_from(QNet((3, 5, 2), rng=rng))


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    net = QNet((4, 8, 3), rng=rng)
    path = tmp_path / "net.json"
    net.save(path)
    back = QNet.load(path)
    assert back.sizes == net.sizes
    x = rng.normal(size=(5, 4))
    assert np.array_equal(back.forward(x), net.forward(x))


def test_checkpoint_rejects_tampered_shapes(tmp_path):
    import json

    net = QNet((3, 4, 2), rng=np.random.default_rng(29))
    path = tmp_path / "net.json"
    net.save(path)
    payload = json.loads(path.read_text())
    payload["sizes"] = [3, 5, 2]  # header no longer matches the arrays
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        QNet.load(path)


# -- replay buffer -----------------------------------------------------------------------


def team_step(tag, n_agents=2):
    """A tagged team step: agent i's obs row and reward are 10 * i + tag."""
    own = 10.0 * np.arange(n_agents) + tag
    obs = np.repeat(own[:, None], 2, axis=1)
    return obs, [tag % 3] * n_agents, own, np.zeros((n_agents, 2)), False


def streams(*seeds):
    return [np.random.default_rng(s) for s in seeds]


def test_replay_drops_oldest_beyond_capacity():
    buf = ReplayBuffer(capacity=4)
    for tag in range(7):
        buf.push(*team_step(tag))
    assert len(buf) == 4
    rewards = buf.sample(1000, streams(0, 1)).rewards
    for i in range(2):
        held = {int(r) - 10 * i for r in rewards[i]}
        assert held == {3, 4, 5, 6}


def test_columnar_replay_equals_list_oracle_across_wraparound():
    # one team ring against one list ring per agent
    data = np.random.default_rng(31)
    n_agents = 3
    buf = ReplayBuffer(capacity=7)
    oracles = [ListReplayOracle(capacity=7) for _ in range(n_agents)]
    rngs_buf, rngs_oracle = streams(5, 6, 7), streams(5, 6, 7)
    for step in range(25):  # wraps the ring three times
        obs, next_obs = data.normal(size=(n_agents, 3)), data.normal(size=(n_agents, 3))
        actions = [int(a) for a in data.integers(5, size=n_agents)]
        rewards, done = data.normal(size=n_agents), step % 4 == 0
        buf.push(obs, actions, rewards, next_obs, done)
        for i, oracle in enumerate(oracles):
            oracle.push(
                Transition(obs[i].copy(), actions[i], float(rewards[i]), next_obs[i].copy(), done)
            )
        obs[:] = np.nan  # the buffer holds its own copy of what was pushed
        assert len(buf) == len(oracles[0].items)
        got = buf.sample(6, rngs_buf)
        want = [oracle.sample(6, rng) for oracle, rng in zip(oracles, rngs_oracle)]
        for g, column in zip(got, zip(*want)):
            w = np.stack(column)
            assert g.dtype == w.dtype and np.array_equal(g, w)
    for rng_buf, rng_oracle in zip(rngs_buf, rngs_oracle):
        assert np.array_equal(rng_buf.random(4), rng_oracle.random(4))  # same draws consumed


def test_replay_sample_shapes_and_contents():
    buf = ReplayBuffer(capacity=8)
    for tag in range(5):
        buf.push(*team_step(tag))
    batch = buf.sample(12, streams(0, 1))  # replacement allows 12 > 5
    assert batch.obs.shape == (2, 12, 2)
    assert batch.next_obs.shape == (2, 12, 2)
    assert batch.actions.shape == (2, 12) and batch.actions.dtype.kind == "i"
    assert batch.dones.shape == (2, 12)
    assert set(batch.rewards[0]).issubset({0.0, 1.0, 2.0, 3.0, 4.0})
    assert set(batch.rewards[1]).issubset({10.0, 11.0, 12.0, 13.0, 14.0})
    assert np.all(batch.obs[..., 0] == batch.rewards)  # rows stay aligned


def test_replay_sampling_is_uniform():
    buf = ReplayBuffer(capacity=100)
    for tag in range(100):
        buf.push(*team_step(tag))
    draws = 400_000
    batch = buf.sample(draws, streams(5, 6))
    for i in range(2):
        counts = np.bincount(batch.rewards[i].astype(int) - 10 * i, minlength=100)
        freqs = counts / draws
        # each item should land near 1/100; allow 10% relative slack
        assert np.all(np.abs(freqs - 0.01) < 0.001)


def test_replay_empty_and_bad_capacity():
    for bad in (0, True, 2.5):
        with pytest.raises(ValueError, match="capacity"):
            ReplayBuffer(bad)
    buf = ReplayBuffer(3)
    with pytest.raises(ValueError):
        buf.sample(1, streams(0))


def test_replay_refuses_a_team_of_the_wrong_size():
    buf = ReplayBuffer(8)
    obs, actions, rewards, next_obs, done = team_step(0, n_agents=3)
    with pytest.raises(ValueError, match="n_agents, obs_size"):
        buf.push(obs[0], actions[0], rewards[0], next_obs[0], done)  # one agent's row first
    buf.push(obs, actions, rewards, next_obs, done)
    for bad in (
        (obs[0], actions[0], rewards[0], next_obs[0], done),  # would broadcast to every agent
        (obs[:2], actions[:2], rewards[:2], next_obs[:2], done),
        (obs, actions, rewards, next_obs[:, :1], done),
        (obs, actions[:2], rewards, next_obs, done),
        (obs, actions, rewards[:2], next_obs, done),
    ):
        with pytest.raises(ValueError, match="team step"):
            buf.push(*bad)
    assert len(buf) == 1  # nothing refused reached the ring
    for rngs in (streams(0), streams(0, 1), streams(0, 1, 2, 3)):
        with pytest.raises(ValueError, match="one stream per agent"):
            buf.sample(4, rngs)
    assert buf.sample(4, streams(0, 1, 2)).obs.shape == (3, 4, 2)


# -- exploration schedule -----------------------------------------------------------------


def test_epsilon_linear_schedule():
    schedule = dict(start=1.0, end=0.05, decay_steps=10_000)  # TrainConfig's eps_* defaults
    assert epsilon(0, **schedule) == 1.0
    assert epsilon(10_000, **schedule) == 0.05
    assert epsilon(20_000, **schedule) == 0.05  # clamped after the decay window
    assert epsilon(5_000, **schedule) == pytest.approx(0.525)
    assert epsilon(-3, **schedule) == 1.0
    assert epsilon(2, start=0.9, end=0.1, decay_steps=4) == pytest.approx(0.5)
    assert epsilon(99, start=1.0, end=0.05, decay_steps=0) == 0.05
