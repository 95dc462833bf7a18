"""Discrete-control environment: actions, observations, rewards, streams."""
from dataclasses import replace

import numpy as np
import pytest
from oracles import BufferLedgerOracle, per_agent_observe, per_agent_rewards

from plumeseek.belief import MeasurementRecord, posterior_update
from plumeseek.field import ADVECTED, BLOB, GridSpec, PlumeParams
from plumeseek.rl.env import (
    Action,
    EpisodeDone,
    HybridEnv,
    HybridEnvConfig,
    N_ACTIONS,
    OBS_ESTIMATE,
    OBS_IG,
    OBS_LAST_ACTION,
    OBS_LAST_M,
    OBS_MOVED_FLAG,
    OBS_POS,
    OBS_REPEAT_FLAG,
    OBS_SIZE,
    OBS_VEL,
    OBS_WIND,
    RewardWeights,
)
from plumeseek.swarm import World, agent_streams

GRID = GridSpec(0.0, 4.0, 0.0, 4.0, 4, 4, 4, 4)
PLUME = PlumeParams(kind=BLOB, strength=1.0, length_scale=1.0, noise_sigma=0.5)


def make_env(**overrides):
    kwargs = dict(grid=GRID, plume=PLUME, n_agents=2, horizon=50, source_xy=(2.5, 2.5))
    kwargs.update(overrides)
    world = World(**{k: kwargs.pop(k) for k in World.__dataclass_fields__ if k in kwargs})
    return HybridEnv(HybridEnvConfig(world=world, **kwargs))


def meas_rng(seed, n_agents, agent):
    # the per-agent measurement stream contract: agent i's reading-noise stream
    # of swarm.agent_streams at the reset seed, as in run_episode
    return agent_streams(seed, n_agents)[1][agent]


NOTHING, MOVE, MEASURE, UPDATE, COMM = (
    Action.DO_NOTHING,
    Action.MOVE,
    Action.MEASURE,
    Action.UPDATE,
    Action.COMMUNICATE,
)


# -- configuration and bookkeeping ------------------------------------------------


def test_env_config_validation():
    with pytest.raises(ValueError):
        make_env(n_agents=0)
    with pytest.raises(ValueError):
        make_env(horizon=0)
    with pytest.raises(ValueError):
        make_env(a_max=0.0)
    with pytest.raises(ValueError):
        make_env(damping=1.5)
    with pytest.raises(ValueError):
        make_env(buffer_capacity=0)
    env = make_env()
    for seed in (True, 2.5, "3", -1):  # a bool, a float, a string and a negative
        with pytest.raises(ValueError, match="seed"):
            env.reset(seed=seed)


def test_action_enum_is_stable():
    assert [int(a) for a in Action] == [0, 1, 2, 3, 4]
    assert N_ACTIONS == 5


def test_reset_is_deterministic_and_seed_sensitive():
    env = make_env(source_xy=None)
    a = env.reset(seed=3)
    src_a = env.team.source.copy()
    b = env.reset(seed=3)
    assert np.array_equal(a, b)
    assert np.array_equal(src_a, env.team.source)
    c = env.reset(seed=4)
    assert not np.array_equal(a, c)


def test_reset_samples_source_from_prior():
    weights = np.zeros(16)
    weights[5] = 1.0
    env = make_env(source_xy=None, prior_weights=tuple(weights))
    env.reset(seed=0)
    assert tuple(env.team.source) == GRID.src_cell_center(5)


def test_step_validates_actions():
    env = make_env()
    env.reset(seed=0)
    with pytest.raises(ValueError):
        env.step([0])  # one action per agent
    with pytest.raises(ValueError):
        env.step([0, 7])
    with pytest.raises(ValueError):
        env.step([2.7, 0])  # not an integer, even though int() would truncate it
    with pytest.raises(ValueError):
        env.step(["2", 0])
    with pytest.raises(ValueError):
        env.step([True, 0])  # a bool is not an action index


def test_step_after_horizon_raises():
    env = make_env(horizon=2)
    env.reset(seed=0)
    env.step([NOTHING, NOTHING])
    _, _, done = env.step([NOTHING, NOTHING])
    assert done and env.done
    with pytest.raises(EpisodeDone):
        env.step([NOTHING, NOTHING])


# -- observation layout ------------------------------------------------------------


def test_initial_observation_layout():
    env = make_env()
    obs = env.reset(seed=1)
    assert obs.shape == (2, OBS_SIZE)
    span = 4.0
    for i in range(2):
        assert np.allclose(obs[i, OBS_POS] * span, env.team.positions[i])
        assert np.all(obs[i, OBS_VEL] == 0.0)
        assert np.all(obs[i, OBS_WIND] == 0.0)  # calm world
        assert obs[i, OBS_LAST_M] == 0.0
        # uniform prior: estimate is the first cell center, normalized
        assert np.allclose(obs[i, OBS_ESTIMATE] * span, GRID.src_cell_center(0))
        assert obs[i, OBS_IG] == 0.0
        assert obs[i, OBS_MOVED_FLAG] == 0.0 and obs[i, OBS_REPEAT_FLAG] == 0.0
        assert np.all(obs[i, OBS_LAST_ACTION] == 0.0)  # no action taken yet


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"n_agents": 4, "grid": GridSpec(-3.0, 5.0, 1.0, 7.0, 8, 6, 4, 3)},
        {"plume": PlumeParams(kind=ADVECTED, wind=(2.5, -0.4), sigma0=0.5, spread_rate=0.2),
         "source_xy": None},
    ],
)
def test_vectorised_observation_equals_per_agent_oracle(overrides):
    env = make_env(**overrides)
    rng = np.random.default_rng(8)
    for episode in range(2):
        obs = env.reset(seed=episode)
        assert np.all(env._last_action == -1)  # no one-hot right after reset
        assert np.array_equal(obs, per_agent_observe(env))
        for t in range(30):
            # a run of six moves first, so the repeat and moved flags are raised
            n = env.cfg.n_agents
            actions = [MOVE] * n if t < 6 else rng.integers(0, N_ACTIONS, size=n)
            obs, _, _ = env.step(actions)
            assert np.array_equal(obs, per_agent_observe(env))
            if t == 5:
                assert np.all(obs[:, OBS_REPEAT_FLAG] == 1.0)
                assert np.all(obs[:, OBS_MOVED_FLAG] == 1.0)


def test_ig_observation_is_a_share_of_the_worlds_most_bits():
    # the least likely cell of this prior holds 0.5 / 20.5 = 1/41 of the
    # mass, so a belief can learn log2(41) ~ 5.36 bits, more than the
    # log2(16) = 4 of a uniform prior; the observation reaches 1 only there
    weights = (1, 2, 0, 1, 0.5, 1, 1, 3, 1, 1, 0, 2, 1, 1, 1, 4)
    env = make_env(n_agents=3, prior_weights=weights, source_xy=None)
    env.reset(seed=0)
    most = env.cfg.world.max_info_bits
    assert most > np.log2(GRID.n_src_cells)
    env.team.igs[:] = (3.0, 4.5, most)  # below log2(16), above it, and the most
    obs = env._observe()
    assert np.array_equal(obs[:, OBS_IG], [3.0 / most, 4.5 / most, 1.0])
    assert np.array_equal(obs, per_agent_observe(env))


def test_wind_observation_normalized_and_clipped():
    windy = PlumeParams(
        kind=ADVECTED, strength=1.0, wind=(0.6, -0.8), sigma0=1.0, noise_sigma=0.5
    )
    obs = make_env(plume=windy).reset(seed=0)
    assert np.array_equal(obs[0, OBS_WIND], [0.6, -0.8])
    gale = replace(windy, wind=(1.2, -2.0))
    obs2 = make_env(plume=gale).reset(seed=0)
    assert np.array_equal(obs2[0, OBS_WIND], [1.0, -1.0])


def test_one_hot_tracks_last_action_per_agent():
    env = make_env()
    env.reset(seed=2)
    obs, _, _ = env.step([MEASURE, MOVE])
    hot0 = np.zeros(5)
    hot0[int(MEASURE)] = 1.0
    hot1 = np.zeros(5)
    hot1[int(MOVE)] = 1.0
    assert np.array_equal(obs[0, OBS_LAST_ACTION], hot0)
    assert np.array_equal(obs[1, OBS_LAST_ACTION], hot1)


def test_repeat_flag_raised_on_fifth_consecutive_action():
    env = make_env()
    env.reset(seed=2)
    for k in range(4):
        obs, _, _ = env.step([NOTHING, NOTHING])
        assert obs[0, OBS_REPEAT_FLAG] == 0.0, f"flag too early at repeat {k + 1}"
    obs, _, _ = env.step([NOTHING, NOTHING])
    assert obs[0, OBS_REPEAT_FLAG] == 1.0
    obs, _, _ = env.step([MEASURE, NOTHING])  # switching clears agent 0 only
    assert obs[0, OBS_REPEAT_FLAG] == 0.0
    assert obs[1, OBS_REPEAT_FLAG] == 1.0


def test_moved_flag_set_by_move_cleared_by_measure():
    env = make_env()
    env.reset(seed=3)
    obs, _, _ = env.step([MOVE, NOTHING])
    assert obs[0, OBS_MOVED_FLAG] == 1.0
    obs, _, _ = env.step([MEASURE, NOTHING])
    assert obs[0, OBS_MOVED_FLAG] == 0.0


# -- action effects -----------------------------------------------------------------


def test_do_nothing_changes_no_state():
    env = make_env()
    env.reset(seed=4)
    pos, vel = env.team.positions.copy(), env.velocities
    beliefs = list(env.team.beliefs)
    obs, rewards, _ = env.step([NOTHING, NOTHING])
    assert np.array_equal(env.team.positions, pos)
    assert np.array_equal(env.velocities, vel)
    assert env.team.beliefs[0] is beliefs[0] and env.team.beliefs[1] is beliefs[1]
    assert obs[0, OBS_IG] == 0.0


def test_move_kicks_toward_estimate_with_damped_velocity():
    env = make_env(a_max=0.5, damping=0.95, v_max=1.0)
    env.reset(seed=5)
    start = env.team.positions[0].copy()
    target = env._estimates[0].copy()
    direction = (target - start) / np.hypot(*(target - start))
    env.step([MOVE, NOTHING])
    want_v = 0.5 * direction  # velocity started at zero
    assert np.allclose(env.velocities[0], want_v, atol=1e-12)
    assert np.allclose(env.team.positions[0], start + want_v, atol=1e-12)
    # second kick: damped old velocity plus a fresh unit kick, speed capped
    env.step([MOVE, NOTHING])
    assert np.hypot(*env.velocities[0]) <= 1.0 + 1e-12


def test_move_at_zero_distance_stays_put():
    env = make_env()
    env.reset(seed=6)
    env.team.positions[0] = env._estimates[0].copy()
    before = env.team.positions[0].copy()
    env.step([MOVE, NOTHING])
    assert np.array_equal(env.team.positions[0], before)
    assert np.array_equal(env.velocities[0], np.zeros(2))


def test_walls_are_sticky():
    env = make_env(a_max=0.5)
    env.reset(seed=7)
    env.team.positions[0] = np.array([0.3, 2.0])
    env._estimates[0] = np.array([0.0, 2.0])  # pull straight into the wall
    env.step([MOVE, NOTHING])
    assert env.team.positions[0][0] == 0.0
    assert env.velocities[0][0] == 0.0
    assert env.team.positions[0][1] == 2.0


def test_positions_stay_in_bounds_under_random_actions():
    env = make_env(a_max=2.0, v_max=3.0)  # deliberately violent kinematics
    env.reset(seed=8)
    rng = np.random.default_rng(0)
    for _ in range(40):
        env.step(rng.integers(0, N_ACTIONS, size=2))
        pos = env.team.positions
        assert np.all(pos[:, 0] >= 0.0) and np.all(pos[:, 0] <= 4.0)
        assert np.all(pos[:, 1] >= 0.0) and np.all(pos[:, 1] <= 4.0)


def test_measure_reading_follows_the_agent_stream():
    env = make_env(n_agents=2)
    env.reset(seed=9)
    pos = env.team.positions.copy()
    obs, _, _ = env.step([MEASURE, MEASURE])
    from plumeseek.field import concentration

    for i in range(2):
        f = float(concentration(pos[i], env.team.source, PLUME))
        want = f + PLUME.noise_sigma * float(meas_rng(9, 2, i).standard_normal())
        assert obs[i, OBS_LAST_M] == pytest.approx(np.clip(want, 0.0, 1.0), abs=1e-12)


def test_update_folds_buffer_and_clears_it():
    env = make_env()
    env.reset(seed=10)
    pos = env.team.positions[0].copy()
    env.step([MEASURE, NOTHING])
    rng = meas_rng(10, 2, 0)
    from plumeseek.field import concentration

    f = float(concentration(pos, env.team.source, PLUME))
    m = f + PLUME.noise_sigma * float(rng.standard_normal())
    rec = MeasurementRecord(x=pos[0], y=pos[1], value=m, step=0, agent_id=0)
    want = posterior_update(env.team.prior, [rec], PLUME)

    env.step([UPDATE, NOTHING])
    assert np.array_equal(env.team.beliefs[0].log_probs, want.log_probs)
    # buffer consumed: a second update is a no-op on the same belief object
    folded = env.team.beliefs[0]
    env.step([UPDATE, NOTHING])
    assert env.team.beliefs[0] is folded


def test_update_with_empty_buffer_is_a_no_op():
    env = make_env()
    env.reset(seed=11)
    before = env.team.beliefs[0]
    _, rewards, _ = env.step([UPDATE, NOTHING])
    assert env.team.beliefs[0] is before
    # still pays the update price
    assert rewards[0] == pytest.approx(
        env.reward_components([UPDATE, NOTHING], [0.0, 0.0])[1][0] - 0.1
    )


def test_buffer_keeps_only_the_newest_readings():
    env = make_env(buffer_capacity=2)
    env.reset(seed=12)
    pos = env.team.positions[0].copy()
    for _ in range(3):
        env.step([MEASURE, NOTHING])
    rng = meas_rng(12, 2, 0)
    from plumeseek.field import concentration

    f = float(concentration(pos, env.team.source, PLUME))
    ms = [f + PLUME.noise_sigma * float(rng.standard_normal()) for _ in range(3)]
    # capacity 2: the first reading fell off the front
    recs = [
        MeasurementRecord(x=pos[0], y=pos[1], value=m, step=t + 1, agent_id=0)
        for t, m in enumerate(ms[1:])
    ]
    want = posterior_update(env.team.prior, recs, PLUME)
    env.step([UPDATE, NOTHING])
    assert np.allclose(env.team.beliefs[0].log_probs, want.log_probs, atol=1e-12, rtol=0)


def test_communicate_pulls_peer_reading_once():
    env = make_env()
    env.reset(seed=13)
    env.step([MEASURE, NOTHING])
    # agent 0 folds its own reading; agent 1 pulls the same reading by radio
    env.step([UPDATE, COMM])
    assert np.array_equal(env.team.beliefs[1].log_probs, env.team.beliefs[0].log_probs)
    # no new peer readings: a repeat communicate leaves the belief object alone
    pulled = env.team.beliefs[1]
    env.step([NOTHING, COMM])
    assert env.team.beliefs[1] is pulled
    # a fresh reading becomes available and is folded exactly once
    env.step([MEASURE, NOTHING])
    env.step([UPDATE, COMM])
    assert np.allclose(
        env.team.beliefs[1].log_probs, env.team.beliefs[0].log_probs, atol=1e-12, rtol=0
    )


def test_communicate_with_no_peer_readings_is_a_no_op():
    env = make_env()
    env.reset(seed=14)
    before = env.team.beliefs[1]
    env.step([NOTHING, COMM])
    assert env.team.beliefs[1] is before


def test_communicate_does_not_consume_own_reading():
    env = make_env()
    env.reset(seed=15)
    env.step([MEASURE, NOTHING])
    before = env.team.beliefs[0]
    env.step([COMM, NOTHING])  # nobody else has measured
    assert env.team.beliefs[0] is before


# -- rewards ---------------------------------------------------------------------------


def test_reward_components_hand_example():
    # two bits of fresh information, estimate off by half the diagonal,
    # update price 0.1: reward = 2.0 + 0.5 - 0.1 = 2.4
    env = make_env()
    env.reset(seed=16)
    env._estimates[0] = env.team.source + np.array([GRID.diagonal / 2.0, 0.0])
    info, estimate, action_cost = env.reward_components([UPDATE, NOTHING], [2.0, 0.0])
    assert info[0] == 2.0
    assert estimate[0] == pytest.approx(0.5)
    assert action_cost[0] == pytest.approx(0.1)
    assert info[0] + estimate[0] - action_cost[0] == pytest.approx(2.4)


def test_reward_weights_price_each_action():
    w = RewardWeights(action_costs=(0.0, 0.2, 0.1, 0.1, 0.3))
    assert [w.action_costs[a] for a in Action] == [0.0, 0.2, 0.1, 0.1, 0.3]


def test_step_reward_is_component_sum():
    env = make_env()
    env.reset(seed=17)
    _, rewards, _ = env.step([NOTHING, MOVE])
    info, estimate, action_cost = env.reward_components([NOTHING, MOVE], [0.0, 0.0])
    assert rewards[0] == pytest.approx(info[0] + estimate[0] - action_cost[0])
    assert rewards[1] == pytest.approx(info[1] + estimate[1] - action_cost[1])


@pytest.mark.parametrize(
    "n_agents,grid", [(2, GRID), (3, GridSpec(-3.0, 5.0, 1.0, 7.0, 8, 6, 4, 3))]
)
def test_team_reward_equals_per_agent_oracle(n_agents, grid):
    # the reward term depends on the estimates after the step and the info
    # gained in it, so the oracle reads the env state the step left behind
    env = make_env(n_agents=n_agents, grid=grid, horizon=80, source_xy=None)
    rng = np.random.default_rng(n_agents)
    env.reset(seed=19)
    done = False
    while not done:
        actions = rng.integers(0, N_ACTIONS, size=n_agents)
        prev_ig = env.team.igs.copy()
        _, rewards, done = env.step(actions)
        want = per_agent_rewards(env, actions, env.team.igs - prev_ig)
        assert np.array_equal(rewards, want)


def test_scripted_episode_shifts_from_information_to_exploitation():
    # sense-fold-approach loop near a strong source: early updates pay out in
    # bits, late updates mostly hold position with a sharp estimate
    env = make_env(
        n_agents=1,
        horizon=60,
        plume=PlumeParams(kind=BLOB, strength=1.0, length_scale=1.0, noise_sigma=0.2),
    )
    obs = env.reset(seed=18)
    max_bits = env.cfg.world.max_info_bits
    ig_before, deltas, errors = 0.0, [], []
    for cycle in range(20):
        env.step([MEASURE])
        obs, _, _ = env.step([UPDATE])
        ig_now = float(obs[0, OBS_IG]) * max_bits
        deltas.append(ig_now - ig_before)
        ig_before = ig_now
        errors.append(float(np.hypot(*(env._estimates[0] - env.team.source))))
        env.step([MOVE])
    assert ig_before > 2.0  # learned most of the four available bits
    assert errors[-1] <= errors[0]
    assert np.mean(deltas[-5:]) < np.mean(deltas[:5])


# -- reading ledger ----------------------------------------------------------------


@pytest.mark.parametrize(
    "seed,n_agents,capacity,grid",
    [
        (0, 1, 1, GRID),
        (1, 2, 3, GRID),
        (2, 3, 2, GridSpec(-3.0, 5.0, 1.0, 7.0, 8, 6, 4, 3)),
        (3, 4, 1, GRID),
        (4, 4, 3, GridSpec(-3.0, 5.0, 1.0, 7.0, 8, 6, 4, 3)),
        (5, 3, 1, GRID),
    ],
)
def test_reading_ledger_matches_buffer_ledger_oracle(seed, n_agents, capacity, grid):
    # the oracle keeps the readings in a buffer cleared on update, an (id, record)
    # latest reading and an id-consumed matrix, and folds them itself
    env = make_env(
        n_agents=n_agents, buffer_capacity=capacity, grid=grid, horizon=48, source_xy=None
    )
    env.reset(seed=seed)
    oracle = BufferLedgerOracle(env)
    # measure, update and communicate weigh most, so buffers fill and overflow
    p = np.array([0.1, 0.1, 0.35, 0.2, 0.25])
    rng = np.random.default_rng(100 + seed)
    done = False
    while not done:
        actions = rng.choice(N_ACTIONS, size=n_agents, p=p)
        obs, rewards, done = env.step(actions)
        oracle.step(env, actions)
        for got, want in zip(env.team.beliefs, oracle.beliefs):
            assert np.array_equal(got.log_probs, want.log_probs)
        assert np.array_equal(obs, oracle.observe(env))
        assert np.array_equal(rewards, oracle.rewards)
    assert oracle.next_id > n_agents  # readings were taken, so the ledgers were exercised


def test_communicate_pulls_only_the_peers_newest_reading():
    env = make_env()
    env.reset(seed=20)
    pos = env.team.positions[1].copy()
    env.step([NOTHING, MEASURE])
    env.step([NOTHING, MEASURE])
    env.step([COMM, NOTHING])
    from plumeseek.field import concentration

    f = float(concentration(pos, env.team.source, PLUME))
    rng = meas_rng(20, 2, 1)
    ms = [f + PLUME.noise_sigma * float(rng.standard_normal()) for _ in range(2)]
    newest = MeasurementRecord(x=pos[0], y=pos[1], value=ms[1], step=1, agent_id=1)
    want = posterior_update(env.team.prior, [newest], PLUME)
    assert np.array_equal(env.team.beliefs[0].log_probs, want.log_probs)
    # the older reading was passed over: a second communicate folds nothing
    pulled = env.team.beliefs[0]
    env.step([COMM, NOTHING])
    assert env.team.beliefs[0] is pulled


def test_reading_dropped_from_a_full_buffer_is_never_folded():
    env = make_env(buffer_capacity=1)
    env.reset(seed=21)
    pos = env.team.positions[0].copy()
    env.step([MEASURE, NOTHING])  # step 0
    env.step([UPDATE, NOTHING])
    env.step([MEASURE, NOTHING])  # step 2: dropped when step 3's reading arrives
    env.step([MEASURE, NOTHING])  # step 3
    env.step([UPDATE, NOTHING])
    from plumeseek.field import concentration

    f = float(concentration(pos, env.team.source, PLUME))
    rng = meas_rng(21, 2, 0)
    m0, _, m3 = (f + PLUME.noise_sigma * float(rng.standard_normal()) for _ in range(3))
    r0, r3 = (
        MeasurementRecord(x=pos[0], y=pos[1], value=m, step=t, agent_id=0)
        for m, t in ((m0, 0), (m3, 3))
    )
    want = posterior_update(posterior_update(env.team.prior, [r0], PLUME), [r3], PLUME)
    assert np.array_equal(env.team.beliefs[0].log_probs, want.log_probs)
    folded = env.team.beliefs[0]
    for _ in range(3):
        env.step([UPDATE, NOTHING])
        assert env.team.beliefs[0] is folded


def test_readings_stay_bounded_by_buffer_capacity():
    env = make_env(n_agents=3, buffer_capacity=2, horizon=40)
    env.reset(seed=22)
    done = False
    while not done:
        _, _, done = env.step([MEASURE] * 3)
        assert all(len(r) <= 2 for r in env.team.readings)
    # each agent holds exactly its two newest readings
    assert [[(r.agent_id, r.step) for r in rs] for rs in env.team.readings] == [
        [(i, 38), (i, 39)] for i in range(3)
    ]
