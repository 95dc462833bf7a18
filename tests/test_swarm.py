"""Shared-belief search episodes: determinism, streams, logs, baselines."""
import numpy as np
import pytest
from oracles import inline_reading

from plumeseek.belief import (
    MeasurementRecord,
    info_gain_bits,
    posterior_update,
    uniform_posterior,
)
from plumeseek.field import ADVECTED, BLOB, GridSpec, PlumeParams
from plumeseek.planner import CostModel, TIER_SNR_FFT, movement_cost, snr_score_map_bruteforce
from plumeseek.rl.env import HybridEnv, HybridEnvConfig
from plumeseek.swarm import (
    POLICY_COST_ONLY,
    POLICY_INFO,
    POLICY_RANDOM,
    SimConfig,
    agent_streams,
    cost_only_policy,
    random_policy,
    read_episode_csv,
    run_episode,
    sense,
    steps_to_ig,
)


def small_config(policy=POLICY_RANDOM, seed=0, **overrides):
    kwargs = dict(
        grid=GridSpec(0.0, 8.0, 0.0, 8.0, 8, 8, 8, 8),
        plume=PlumeParams(kind=BLOB, strength=1.0, length_scale=1.0, noise_sigma=0.4),
        cost=CostModel(overhead=1.0, quad_coeff=0.05),
        n_agents=3,
        n_steps=6,
        policy=policy,
        seed=seed,
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        small_config(policy="psychic")
    with pytest.raises(ValueError):
        small_config(n_agents=0)
    with pytest.raises(ValueError):
        small_config(n_steps=-1)


def test_episode_is_deterministic_and_seed_sensitive(tmp_path):
    for policy in (POLICY_RANDOM, POLICY_COST_ONLY, POLICY_INFO):
        a = run_episode(small_config(policy=policy, seed=3))
        b = run_episode(small_config(policy=policy, seed=3))
        pa, pb = tmp_path / f"{policy}_a.csv", tmp_path / f"{policy}_b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert a.records == b.records
        c = run_episode(small_config(policy=policy, seed=4))
        assert c.records != a.records


def test_adding_agents_does_not_perturb_existing_streams():
    # under the random policy each agent's trajectory depends only on its own
    # streams, so a larger team replays the smaller team's records exactly
    small = run_episode(small_config(n_agents=2, n_steps=5, seed=11))
    big = run_episode(small_config(n_agents=4, n_steps=5, seed=11))
    assert small.source_xy == big.source_xy
    small_recs = {(r.step, r.agent_id): r for r in small.records}
    big_recs = {(r.step, r.agent_id): r for r in big.records}
    for key, rec in small_recs.items():
        twin = big_recs[key]
        assert (twin.x, twin.y, twin.m) == (rec.x, rec.y, rec.m)
        assert (twin.next_x, twin.next_y) == (rec.next_x, rec.next_y)


def test_world_stream_sets_source_before_positions():
    world, meas, policy = agent_streams(seed=5, n_agents=3)
    assert len(meas) == 3 and len(policy) == 3
    # same seed, fewer agents: world stream identical
    world2, _, _ = agent_streams(seed=5, n_agents=1)
    assert world.uniform() == world2.uniform()


def test_all_agents_share_one_belief():
    cfg = small_config(policy=POLICY_INFO, n_steps=3)
    # replicate the loop manually to observe the agents mid-episode
    log = run_episode(cfg)
    # final posterior equals replaying all logged readings in order
    post = uniform_posterior(cfg.grid)
    for step in range(cfg.n_steps):
        batch = [
            MeasurementRecord(x=r.x, y=r.y, value=r.m, step=r.step, agent_id=r.agent_id)
            for r in log.records
            if r.step == step
        ]
        post = posterior_update(post, batch, cfg.plume)
    assert np.allclose(post.log_probs, log.final_posterior.log_probs, atol=1e-12, rtol=0)


def test_logged_ig_matches_replay_from_csv(tmp_path):
    cfg = small_config(policy=POLICY_INFO, n_steps=5, seed=2)
    log = run_episode(cfg)
    path = tmp_path / "episode.csv"
    log.to_csv(path)
    recs = read_episode_csv(path)
    prior = uniform_posterior(cfg.grid)
    post = prior
    by_step = {}
    for step in range(cfg.n_steps):
        batch = [
            MeasurementRecord(x=r.x, y=r.y, value=r.m, step=r.step, agent_id=r.agent_id)
            for r in recs
            if r.step == step
        ]
        post = posterior_update(post, batch, cfg.plume)
        by_step[step] = info_gain_bits(post, prior)
    for rec in recs:
        assert rec.ig_bits == pytest.approx(by_step[rec.step], abs=1e-9)


def test_csv_round_trip_preserves_values(tmp_path):
    log = run_episode(small_config(seed=7))
    path = tmp_path / "episode.csv"
    log.to_csv(path)
    recs = read_episode_csv(path)
    assert len(recs) == len(log.records)
    for got, want in zip(recs, log.records):
        assert (got.step, got.agent_id) == (want.step, want.agent_id)
        assert got.x == want.x and got.y == want.y and got.m == want.m
        assert got.ig_bits == want.ig_bits and got.cost == want.cost


def test_cumulative_cost_sums_record_costs():
    log = run_episode(small_config(seed=1))
    assert log.cumulative_cost == pytest.approx(sum(r.cost for r in log.records))


def test_fixed_source_is_respected_and_sampled_source_comes_from_prior():
    cfg = small_config(source_xy=(2.5, 6.5))
    assert run_episode(cfg).source_xy == (2.5, 6.5)
    # prior mass on a single cell pins the sampled source to that cell center
    weights = np.zeros(64)
    weights[10] = 1.0
    cfg2 = small_config(prior_weights=tuple(weights))
    log = run_episode(cfg2)
    assert log.source_xy == cfg2.grid.src_cell_center(10)


def test_silent_world_yields_no_information():
    cfg = small_config(
        plume=PlumeParams(kind=BLOB, strength=0.0, length_scale=1.0, noise_sigma=0.4),
        policy=POLICY_RANDOM,
        n_steps=4,
    )
    log = run_episode(cfg)
    assert np.all(np.abs(log.ig_series()) <= 1e-9)


def test_ig_series_is_one_value_per_step():
    log = run_episode(small_config(n_steps=5))
    series = log.ig_series()
    assert series.shape == (5,)
    per_step = {}
    for r in log.records:
        per_step.setdefault(r.step, set()).add(r.ig_bits)
    for step, vals in per_step.items():
        assert vals == {series[step]}


def test_steps_to_ig_thresholds():
    log = run_episode(small_config(policy=POLICY_INFO, n_steps=5))
    assert steps_to_ig(log, 0.0) == 0
    assert steps_to_ig(log, 1e9) is None
    series = log.ig_series()
    mid = float(series[2])
    first = steps_to_ig(log, mid)
    assert first is not None and series[first] >= mid
    assert all(series[s] < mid for s in range(first))


def test_info_policy_with_fft_matches_bruteforce_tier(monkeypatch):
    a = run_episode(small_config(policy=POLICY_INFO, tier=TIER_SNR_FFT, seed=9))
    monkeypatch.setattr(
        "plumeseek.swarm.compute_score_map",
        lambda post, params, grid, *rest: snr_score_map_bruteforce(post, params, grid),
    )
    b = run_episode(small_config(policy=POLICY_INFO, tier=TIER_SNR_FFT, seed=9))
    for ra, rb in zip(a.records, b.records):
        assert (ra.x, ra.y, ra.m) == (rb.x, rb.y, rb.m)
        assert (ra.next_x, ra.next_y) == (rb.next_x, rb.next_y)


def test_random_policy_is_uniform_over_cells():
    g = GridSpec(0.0, 2.0, 0.0, 2.0, 2, 2, 2, 2)
    rng = np.random.default_rng(0)
    counts = {}
    n = 100_000
    for _ in range(n):
        cell = random_policy(rng, g)
        counts[cell] = counts.get(cell, 0) + 1
    assert len(counts) == 4
    for c in counts.values():
        assert abs(c / n - 0.25) < 0.01


def test_cost_only_policy_prefers_cheap_cells():
    # two cells, distances 0 and 1, unit overhead and unit quadratic term:
    # weights 1 and 1/2, so probabilities 2/3 and 1/3
    g = GridSpec(0.0, 2.0, 0.0, 1.0, 2, 1, 2, 1)
    position = np.array([0.5, 0.5])
    cm = CostModel(overhead=1.0, quad_coeff=1.0)
    rng = np.random.default_rng(1)
    n = 30_000
    near = 0
    for _ in range(n):
        if cost_only_policy(position, cm, rng, g) == (0.5, 0.5):
            near += 1
    assert abs(near / n - 2 / 3) < 0.01


def test_cost_only_policy_equals_movement_cost_oracle():
    g = GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 8, 6)
    cm = CostModel(overhead=0.7, quad_coeff=0.03)
    centers = g.meas_centers().reshape(-1, 2)
    # (8.0, 6.0) sits on a cell corner: its four nearest cells tie exactly
    for pos in [np.array([8.0, 6.0]), np.array([2.3, 10.9]), np.array([15.1, 0.2])]:
        w = 1.0 / movement_cost(cm, pos, centers)
        want_rng, got_rng = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(50):
            want = g.meas_cell_center(int(want_rng.choice(w.size, p=w / w.sum())))
            assert cost_only_policy(pos, cm, got_rng, g) == want


def test_episode_and_rl_env_draw_the_same_world():
    # the world stream is child 0 of the seed in both layouts, and both draw
    # the source and then the start positions from it in one shared helper
    weights = tuple(np.arange(1.0, 65.0))
    cfg = small_config(n_agents=3, n_steps=1, seed=21, prior_weights=weights)
    log = run_episode(cfg)
    env = HybridEnv(
        HybridEnvConfig(grid=cfg.grid, plume=cfg.plume, n_agents=3, prior_weights=cfg.prior_weights)
    )
    env.reset(seed=21)
    assert tuple(env.source) == log.source_xy
    assert [(r.x, r.y) for r in log.records] == [tuple(p) for p in env.positions]
    assert np.array_equal(env.prior.log_probs, log.prior.log_probs)


@pytest.mark.parametrize("plume", [
    PlumeParams(kind=BLOB, strength=1.0, length_scale=1.0, noise_sigma=0.4),
    PlumeParams(kind=ADVECTED, wind=(1.5, -0.3), sigma0=0.7, spread_rate=0.2, noise_sigma=0.1),
])
def test_sense_equals_inline_reading_oracle(plume):
    # the same stream drawn through sense and through the old inline formula
    rng = np.random.default_rng(4)
    positions = rng.uniform(0.0, 8.0, size=(40, 2))
    source = np.array([3.25, 5.5])
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    for t, pos in enumerate(positions):
        got = sense(pos, source, plume, got_rng, t, t % 3)
        want = inline_reading(pos, source, plume, want_rng, t, t % 3)
        assert got == want  # every field, compared exactly
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
