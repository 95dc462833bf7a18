"""DQN training loop: determinism, action masking, curves."""
from dataclasses import replace

import numpy as np
import pytest
from oracles import per_agent_train

from plumeseek.field import BLOB, GridSpec, PlumeParams
from plumeseek.rl.env import Action, HybridEnv, HybridEnvConfig
from plumeseek.rl.train import (
    MODE_COMMUNICATING,
    MODE_INDIVIDUAL,
    TrainConfig,
    curves_to_csv,
    greedy_action,
    read_curves_csv,
    train,
)


def tiny_train_config(mode=MODE_COMMUNICATING, seed=0, train_steps=30, **env_overrides):
    env_kwargs = dict(
        grid=GridSpec(0.0, 4.0, 0.0, 4.0, 4, 4, 4, 4),
        plume=PlumeParams(kind=BLOB, strength=1.0, length_scale=1.0, noise_sigma=0.5),
        n_agents=2,
        horizon=10,
        source_xy=(2.5, 2.5),
    )
    env_kwargs.update(env_overrides)
    return TrainConfig(
        env=HybridEnvConfig(**env_kwargs),
        mode=mode,
        train_steps=train_steps,
        hidden=(8,),
        batch_size=4,
        replay_capacity=64,
        target_sync=10,
        seed=seed,
    )


def record_env_steps(monkeypatch):
    """Log every HybridEnv.step call as (obs, actions, rewards, next_obs, done).

    obs is what the agents saw when they chose the actions.
    """
    log = []
    real_step = HybridEnv.step

    def step(env, actions):
        obs = env._observe()
        next_obs, rewards, done = real_step(env, actions)
        log.append((obs, list(actions), rewards.copy(), next_obs.copy(), done))
        return next_obs, rewards, done

    monkeypatch.setattr(HybridEnv, "step", step)
    return log


def test_train_config_validation():
    with pytest.raises(ValueError):
        tiny_train_config(mode="telepathic")
    with pytest.raises(ValueError):
        tiny_train_config(train_steps=-1)
    cfg = tiny_train_config()
    with pytest.raises(ValueError):
        TrainConfig(env=cfg.env, smoothing=0.0)


def test_greedy_action_masks_communicate_in_individual_mode():
    q = np.array([0.1, 0.2, 0.3, 0.4, 9.9])
    assert greedy_action(q, MODE_COMMUNICATING) == int(Action.COMMUNICATE)
    assert greedy_action(q, MODE_INDIVIDUAL) == int(Action.UPDATE)


def test_training_is_deterministic_per_seed():
    a = train(tiny_train_config(seed=3))
    b = train(tiny_train_config(seed=3))
    assert np.array_equal(a.curves, b.curves)
    for na, nb in zip(a.nets, b.nets):
        assert all(np.array_equal(wa, wb) for wa, wb in zip(na.weights, nb.weights))
    c = train(tiny_train_config(seed=4))
    assert not np.array_equal(a.curves, c.curves)


@pytest.mark.parametrize("mode", [MODE_COMMUNICATING, MODE_INDIVIDUAL])
def test_team_training_equals_per_agent_loop(mode):
    # 45 steps: four full or partial episodes, four target syncs, buffers wrap
    cfg = tiny_train_config(mode=mode, seed=5, train_steps=45, n_agents=3)
    cfg = replace(cfg, replay_capacity=16, eps_decay_steps=30)
    result = train(cfg)
    want_curves, want_nets = per_agent_train(cfg)
    assert np.array_equal(result.curves, want_curves)
    for got, want in zip(result.nets, want_nets, strict=True):
        for g, w in zip(got.weights + got.biases, want.weights + want.biases, strict=True):
            assert g.shape == w.shape and np.array_equal(g, w)


def test_curves_shape_and_episode_count():
    result = train(tiny_train_config(train_steps=25))
    assert result.curves.shape == (25, 2)
    assert np.all(np.isfinite(result.curves))
    # horizon 10: 25 steps span three partial-or-full episodes
    assert result.n_episodes == 3


def test_individual_mode_never_records_communicate(monkeypatch):
    log = record_env_steps(monkeypatch)
    train(tiny_train_config(mode=MODE_INDIVIDUAL, train_steps=60))
    seen = {a for _, actions, *_ in log for a in actions}
    assert int(Action.COMMUNICATE) not in seen
    assert seen <= {0, 1, 2, 3}
    assert len(seen) > 1  # exploration actually varied the actions


def test_communicating_mode_does_record_communicate(monkeypatch):
    log = record_env_steps(monkeypatch)
    train(tiny_train_config(mode=MODE_COMMUNICATING, train_steps=60))
    seen = {a for _, actions, *_ in log for a in actions}
    assert int(Action.COMMUNICATE) in seen


def test_transitions_are_per_agent_and_cover_all_steps(monkeypatch):
    steps = 40
    log = record_env_steps(monkeypatch)
    train(tiny_train_config(train_steps=steps))
    assert len(log) == steps
    for obs, actions, rewards, next_obs, _ in log:
        assert len(actions) == 2 and rewards.shape == (2,)
        assert obs.shape == (2, 17) and next_obs.shape == (2, 17)


def test_smoothed_curve_starts_at_first_reward_and_tracks_ema(monkeypatch):
    cfg = tiny_train_config(train_steps=20)
    log = record_env_steps(monkeypatch)
    result = train(cfg)
    rewards = np.array([r for _, _, r, _, _ in log])  # (steps, agents)
    ema = rewards[0].copy()
    assert np.allclose(result.curves[0], ema)
    for k in range(1, 20):
        ema = ema + cfg.smoothing * (rewards[k] - ema)
        assert np.allclose(result.curves[k], ema, atol=1e-12)


def test_zero_train_steps_returns_empty_curves():
    result = train(tiny_train_config(train_steps=0))
    assert result.curves.shape == (0, 2)
    assert result.n_episodes == 0


def test_curves_csv_round_trip(tmp_path):
    result = train(tiny_train_config(train_steps=15))
    path = tmp_path / "curves.csv"
    curves_to_csv(result, path)
    back = read_curves_csv(path)
    assert np.array_equal(back, result.curves)


def test_read_curves_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("step,agent_id,smoothed_reward\n")
    assert read_curves_csv(path).shape == (0, 0)
