"""Shared-belief search episodes: determinism, streams, logs, baselines."""
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import inline_reading, overhead_cost_only_probs, same_bits

from plumeseek import swarm

from plumeseek.belief import (
    MeasurementRecord,
    info_gain_bits,
    posterior_update,
    uniform_posterior,
)
from plumeseek.config import load_config
from plumeseek.field import ADVECTED, BLOB, GridSpec, PlumeParams, squared_snr_kernel
from plumeseek.planner import (
    TIER_SNR_FFT,
    CostModel,
    _cost_table,
    movement_cost,
    snr_score_map_bruteforce,
)
from plumeseek.rl.env import Action, HybridEnv, HybridEnvConfig
from plumeseek.rl.train import CurveRow
from plumeseek.swarm import (
    POLICY_COST_ONLY,
    POLICY_INFO,
    POLICY_RANDOM,
    POLICIES,
    SimConfig,
    StepRecord,
    Team,
    World,
    agent_streams,
    cost_only_policy,
    cost_only_probs,
    ig_by_step,
    random_policy,
    read_episode_csv,
    read_rows,
    run_episode,
    sense,
    steps_to_ig,
    write_rows,
)


def small_config(policy=POLICY_RANDOM, seed=0, **overrides):
    kwargs = dict(
        grid=GridSpec(0.0, 8.0, 0.0, 8.0, 8, 8, 8, 8),
        plume=PlumeParams(kind=BLOB, strength=1.0, length_scale=1.0, noise_sigma=0.4),
        cost=CostModel(quad_coeff=0.05),
        n_agents=3,
        n_steps=6,
        policy=policy,
        seed=seed,
    )
    kwargs.update(overrides)
    world = World(**{k: kwargs.pop(k) for k in World.__dataclass_fields__ if k in kwargs})
    return SimConfig(world=world, **kwargs)


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
        # ig_bits is the team's shared gain; x, y, m and cost (the price of the
        # move to the next target, the last step's included) are the agent's own
        assert big_recs[key]._replace(ig_bits=rec.ig_bits) == rec


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
    post = uniform_posterior(cfg.world.grid)
    for step in range(cfg.n_steps):
        batch = [
            MeasurementRecord(x=r.x, y=r.y, value=r.m, step=r.step, agent_id=r.agent_id)
            for r in log.records
            if r.step == step
        ]
        post = posterior_update(post, batch, cfg.world.plume)
    assert np.allclose(post.log_probs, log.final_posterior.log_probs, atol=1e-12, rtol=0)


def test_logged_ig_matches_replay_from_csv(tmp_path):
    cfg = small_config(policy=POLICY_INFO, n_steps=5, seed=2)
    log = run_episode(cfg)
    path = tmp_path / "episode.csv"
    log.to_csv(path)
    recs = read_episode_csv(path)
    prior = uniform_posterior(cfg.world.grid)
    post = prior
    by_step = {}
    for step in range(cfg.n_steps):
        batch = [
            MeasurementRecord(x=r.x, y=r.y, value=r.m, step=r.step, agent_id=r.agent_id)
            for r in recs
            if r.step == step
        ]
        post = posterior_update(post, batch, cfg.world.plume)
        by_step[step] = info_gain_bits(post, prior)
    for rec in recs:
        assert rec.ig_bits == pytest.approx(by_step[rec.step], abs=1e-9)


def test_csv_round_trip_preserves_values(tmp_path):
    for policy in (POLICY_INFO, POLICY_COST_ONLY, POLICY_RANDOM):
        log = run_episode(small_config(policy=policy, seed=7))
        path = tmp_path / f"{policy}.csv"
        log.to_csv(path)
        assert path.read_text().splitlines()[0] == ",".join(StepRecord._fields)
        assert read_episode_csv(path) == log.records


@pytest.mark.parametrize(
    "header", ["", "step,agent_id,x,y,m,ig_bits", "step,agent_id,x,y,m,ig_bits,cost,next_x"]
)
def test_csv_with_another_header_is_refused(tmp_path, header):
    path = tmp_path / "episode.csv"
    path.write_text(header + "\n" if header else "")
    with pytest.raises(ValueError, match="episode.csv: CSV header"):
        read_episode_csv(path)


ROW = "0.5,0.5,0.1,0.0,1.0"  # x, y, m, ig_bits, cost after step and agent_id


@pytest.mark.parametrize(
    "body,error",
    [
        (f"0,0,{ROW}\n0,1,x,0.5,0.1,0.0,1.0\n", "line 3: .*'x'.* is not one each of int, int"),
        (f"0.0,0,{ROW}\n", "line 2: .*'0.0'.* is not one each of int"),
        (f"0,0,{ROW}\n0,1,{ROW},2.0\n", "line 3: 8 values, not 7"),
        (f"1,0,{ROW}\n", "line 2: step 1 agent 0 is out of order"),
        (f"0,0,{ROW}\n0,0,{ROW}\n", "line 3: step 0 agent 0 is out of order"),
        (f"0,0,{ROW}\n0,1,{ROW}\n1,1,{ROW}\n", "line 4: step 1 agent 1 is out of order"),
        (f"0,0,{ROW}\n0,1,{ROW}\n1,0,{ROW}\n", "the last step lists 1 of 2 agents"),
        (f"0,0,{ROW}\n0,1,0.5,0.5,nan,0.0,1.0\n", "line 3: .*'nan'.* holds a value that is not"),
        ("0,0,0.5,-inf,0.1,0.0,1.0\n", "line 2: .*'-inf'.* holds a value that is not finite"),
        (f"0,0,{ROW}\n".encode() + b"0,1,0.5,0.5,0.1,0.0,\xff\n", "not UTF-8 text"),
        ("0,0, 1_0.5 ,0.5,0.1,0.0,1.0\n", "line 2: ' 1_0.5 ' reads as 10.5, which write_rows"),
        (f"0,0,{ROW}\n0,+1,{ROW}\n", "line 3: '\\+1' reads as 1, which write_rows writes as '1'"),
        ("0,0,0.5,0.5,1e-3,0.0,1.0\n", "line 2: '1e-3' reads as 0.001"),
        ("0,0,0.5,0.5,0.1,0.0,1\n", "line 2: '1' reads as 1.0"),
    ],
    ids=[
        "not-a-number",
        "fractional-step",
        "extra-value",
        "starts-at-step-1",
        "repeated-row",
        "agents-out-of-order",
        "short-last-step",
        "nan",
        "inf",
        "not-utf-8",
        "spaces-and-underscore",
        "plus-sign",
        "float-not-repr",
        "int-in-float-field",
    ],
)
def test_step_table_rows_are_checked(tmp_path, body, error):
    path = tmp_path / "episode.csv"
    body = body if isinstance(body, bytes) else body.encode()
    path.write_bytes(",".join(StepRecord._fields).encode() + b"\n" + body)
    with pytest.raises(ValueError, match=f"episode.csv: {error}"):
        read_episode_csv(path)


# -0.0, the extreme subnormals and normals, and +-1e308 on top of any finite float
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e308, -1e308]
)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    row_type=st.sampled_from([StepRecord, CurveRow]),
    n_steps=st.integers(0, 5),
    n_agents=st.integers(1, 5),
    data=st.data(),
)
def test_rows_read_back_as_written(tmp_path_factory, row_type, n_steps, n_agents, data):
    n_floats = len(row_type._fields) - 2
    rows = [
        row_type(step, agent, *data.draw(st.lists(FINITE, min_size=n_floats, max_size=n_floats)))
        for step in range(n_steps)
        for agent in range(n_agents)
    ]
    path = tmp_path_factory.mktemp("rows") / "table.csv"
    write_rows(path, rows, row_type)
    back = read_rows(path, row_type)
    assert back == rows
    assert [list(map(repr, row)) for row in back] == [list(map(repr, row)) for row in rows]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_write_rows_refuses_a_value_that_is_not_finite_and_leaves_no_file(tmp_path, bad):
    rows = (StepRecord(0, 0, 0.5, 0.5, 0.1, 0.0, 1.0), StepRecord(0, 1, 0.5, 0.5, 0.1, 0.0, bad))
    path = tmp_path / "episode.csv"
    with pytest.raises(ValueError, match=r"episode\.csv: line 3: StepRecord\(step=0, agent_id=1,"):
        write_rows(path, iter(rows), StepRecord)
    assert not path.exists()


def test_one_module_reads_and_writes_csv():
    # every CSV goes through swarm.write_rows and swarm.read_rows; a module
    # with its own csv import is a second table format
    src = Path(swarm.__file__).parent
    importers = [
        path.relative_to(src).as_posix()
        for path in sorted(src.rglob("*.py"))
        if re.search(r"^\s*(import\s.*\bcsv\b|from\s+csv\s+import)", path.read_text(), re.M)
    ]
    assert importers == ["swarm.py"]


def test_one_module_seeds_rng_streams():
    # swarm.agent_streams is the one stream layout: both episode engines and
    # training draw from it, so no other module splits a seed
    src = Path(swarm.__file__).parent
    seeders = [
        path.relative_to(src).as_posix()
        for path in sorted(src.rglob("*.py"))
        for _ in re.finditer(r"\bSeedSequence\s*\(", path.read_text())
    ]
    assert seeders == ["swarm.py"]


def test_one_module_folds_readings():
    # swarm.Team.fold is the one place a reading becomes evidence: both
    # episode engines fold through it, so no other module calls the update
    src = Path(swarm.__file__).parent
    callers = [
        path.relative_to(src).as_posix()
        for path in sorted(src.rglob("*.py"))
        for _ in re.finditer(r"(?<!def )\bposterior_update\s*\(", path.read_text())
    ]
    assert callers == ["swarm.py"]


class _CountingNumpy:
    """numpy, except that exp notes each call on an array of `size` entries in `events`."""

    def __init__(self, events, size):
        self._events, self._size = events, size

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        if np.size(x) == self._size:
            self._events.append("exp")
        return np.exp(x, *args, **kwargs)


def test_an_info_step_exponentiates_two_grids(monkeypatch):
    # the update's normaliser and the new posterior's one readout: the
    # information gain and the score map read that readout, not exp again
    cfg = load_config(Path(__file__).parent.parent / "configs" / "quickstart.json")
    sim = replace(cfg.sim_config(0, POLICY_INFO), n_steps=20)
    events = []
    for module in ("plumeseek.belief", "plumeseek.field"):
        monkeypatch.setattr(f"{module}.np", _CountingNumpy(events, sim.world.grid.n_src_cells))
    fold = Team.fold

    def marked_fold(self, *args):
        events.append("step")
        return fold(self, *args)

    monkeypatch.setattr(Team, "fold", marked_fold)
    run_episode(sim)
    per_step = [part.count("exp") for part in " ".join(events).split("step")[1:]]
    assert len(per_step) == 20
    assert per_step[1:] == [2] * 19


@pytest.mark.parametrize("n_agents,keep,with_kernel", [(1, 1, True), (3, 1, True), (4, 2, False)])
def test_broadcast_fold_equals_each_agent_folding_alone(n_agents, keep, with_kernel):
    # the aliasing fast path: one update shared by the whole team gives every
    # agent the bits it gets by folding the same readings through its own fold
    cfg = small_config(n_agents=n_agents)
    world = cfg.world
    kernel = squared_snr_kernel(world.plume, world.grid) if with_kernel else None
    broadcast, alone = (Team(world, 7, n_agents, keep, kernel) for _ in range(2))
    everyone = list(range(n_agents))
    rng = np.random.default_rng(n_agents)
    for step in range(10):
        readings = [broadcast.measure(i, step) for i in everyone]
        assert [alone.measure(i, step) for i in everyone] == readings
        shared = broadcast.fold(everyone, readings)
        assert all(belief is shared for belief in broadcast.beliefs)
        for i in everyone:
            alone.fold([i], readings)
        for got, want in zip(broadcast.beliefs, alone.beliefs):
            assert same_bits(got.log_probs, want.log_probs)
        assert same_bits(broadcast.igs, alone.igs)
        assert np.array_equal(broadcast.seen, alone.seen)
        moves = rng.uniform(0.0, 8.0, size=(n_agents, 2))
        broadcast.positions[:] = alone.positions[:] = moves
    assert broadcast.igs.min() > 0.0


def test_fold_of_no_readings_changes_nothing():
    team = Team(small_config().world, 0, 2)
    assert team.fold([0, 1], []) is None
    assert all(belief is team.prior for belief in team.beliefs)
    assert not team.igs.any() and np.all(team.seen == -1)
    team.fold([0], [team.measure(0, 0)])
    assert team.fold([0], []) is None
    assert team.seen.tolist() == [[0, -1], [-1, -1]] and team.beliefs[1] is team.prior


def test_cumulative_cost_sums_record_costs():
    log = run_episode(small_config(seed=1))
    paid = 0.0
    for r in log.records:
        paid += r.cost
    assert same_bits(log.summary()["cumulative_cost"], paid)
    assert type(run_episode(small_config(n_steps=0)).summary()["cumulative_cost"]) is float


def test_fixed_source_is_respected_and_sampled_source_comes_from_prior():
    cfg = small_config(source_xy=(2.5, 6.5))
    assert run_episode(cfg).source_xy == (2.5, 6.5)
    # prior mass on a single cell pins the sampled source to that cell center
    weights = np.zeros(64)
    weights[10] = 1.0
    cfg2 = small_config(prior_weights=tuple(weights))
    log = run_episode(cfg2)
    assert log.source_xy == cfg2.world.grid.src_cell_center(10)


def test_silent_world_yields_no_information():
    cfg = small_config(
        plume=PlumeParams(kind=BLOB, strength=0.0, length_scale=1.0, noise_sigma=0.4),
        policy=POLICY_RANDOM,
        n_steps=4,
    )
    log = run_episode(cfg)
    assert np.all(np.abs(ig_by_step(log.records)) <= 1e-9)


def test_ig_series_is_one_value_per_step():
    log = run_episode(small_config(n_steps=5))
    series = ig_by_step(log.records)
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
    series = ig_by_step(log.records)
    mid = float(series[2])
    first = steps_to_ig(log, mid)
    assert first is not None and series[first] >= mid
    assert all(series[s] < mid for s in range(first))


def test_info_policy_with_fft_matches_bruteforce_tier(monkeypatch):
    a = run_episode(small_config(policy=POLICY_INFO, tier=TIER_SNR_FFT, seed=9))
    monkeypatch.setattr(
        "plumeseek.swarm.compute_score_map",
        lambda post, params, *rest: snr_score_map_bruteforce(post, params),
    )
    b = run_episode(small_config(policy=POLICY_INFO, tier=TIER_SNR_FFT, seed=9))
    assert a.records == b.records


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "plume",
    [
        PlumeParams(kind=BLOB, strength=1.0, length_scale=1.0, noise_sigma=0.4),
        PlumeParams(kind=ADVECTED, wind=(1.0, 0.5), sigma0=0.8, spread_rate=0.3, noise_sigma=0.4),
    ],
    ids=["blob", "advected"],
)
def test_update_kernel_changes_no_output(monkeypatch, policy, plume):
    # every snr-fft episode builds the kernel and hands it to each update
    cfg = small_config(policy=policy, tier=TIER_SNR_FFT, plume=plume, seed=4, n_steps=12)
    with_kernel = run_episode(cfg)
    kernels = []

    def closed_form_update(post, records, params, kernel):
        kernels.append(kernel)
        return posterior_update(post, records, params)

    monkeypatch.setattr("plumeseek.swarm.posterior_update", closed_form_update)
    closed_form = run_episode(cfg)
    assert len(kernels) == 12 and all(k is not None for k in kernels)
    assert with_kernel.records == closed_form.records
    assert same_bits(with_kernel.final_posterior.log_probs, closed_form.final_posterior.log_probs)


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
    # two cells, distances 0 and 1, unit quadratic term:
    # weights 1 and 1/2, so probabilities 2/3 and 1/3
    g = GridSpec(0.0, 2.0, 0.0, 1.0, 2, 1, 2, 1)
    position = np.array([0.5, 0.5])
    cm = CostModel(quad_coeff=1.0)
    rng = np.random.default_rng(1)
    n = 30_000
    near = 0
    for _ in range(n):
        if cost_only_policy(position, cm, rng, g) == (0.5, 0.5):
            near += 1
    assert abs(near / n - 2 / 3) < 0.01


def test_cost_only_policy_equals_movement_cost_oracle():
    # the policy's inverse-CDF draw is Generator.choice's: the same cell, and
    # the generator left in the same state, off the centres (the cost map)
    # and on them (a view of the cost table)
    g = GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 8, 6)
    centers = g.meas_centers().reshape(-1, 2)
    # (8.0, 6.0) sits on a cell corner: its four nearest cells tie exactly
    off_centre = [np.array([8.0, 6.0]), np.array([2.3, 10.9]), np.array([15.1, 0.2])]
    on_centre = [np.asarray(g.meas_cell_center(flat)) for flat in (0, 77, 100, 191)]
    for quad_coeff in (0.03, 0.0, 250.0):
        cm = CostModel(quad_coeff=quad_coeff)
        assert _cost_table(cm, g) is not None  # the on-centre draws read the table
        for pos in off_centre + on_centre:
            w = 1.0 / movement_cost(cm, pos, centers)
            want_rng, got_rng = np.random.default_rng(9), np.random.default_rng(9)
            for _ in range(50):
                want = g.meas_cell_center(int(want_rng.choice(w.size, p=w / w.sum())))
                assert cost_only_policy(pos, cm, got_rng, g) == want
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(4))
def test_cost_only_probabilities_do_not_depend_on_the_unit_of_cost(seed):
    # 1 / (o + q d^2) = (1 / o) / (1 + (q / o) d^2): normalizing drops the 1 / o;
    # cost_only_probs is what the policy draws from, on and off the centres
    rng = np.random.default_rng(seed)
    g = GridSpec(0.0, 16.0, 0.0, 12.0, 16, 12, 8, 6)
    on_centre = [g.meas_cell_center(int(flat)) for flat in rng.integers(g.n_meas_cells, size=3)]
    for overhead, quad_coeff in [(0.7, 0.03), (1e-3, 0.5), (250.0, 0.01), (3.0, 0.0)]:
        for pos in [*rng.uniform((0.0, 0.0), (16.0, 12.0), size=(5, 2)), *on_centre]:
            got = cost_only_probs(pos, CostModel(quad_coeff=quad_coeff / overhead), g)
            want = overhead_cost_only_probs(g, overhead, quad_coeff, pos)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize(
    "bad",
    [
        {"source_xy": (1000.0, 1.0)},  # 992 units outside the 8-wide world
        {"source_xy": (float("nan"), 1.0)},
        {"source_xy": (True, 1.0)},
        {"source_xy": ("1", 2)},
        {"prior_weights": (1.0,) * 63},
        {"prior_weights": (1.0,) * 63 + (-1.0,)},  # after positive mass: every entry is checked
        {"prior_weights": (1.0,) * 63 + (float("nan"),)},
        {"prior_weights": (True,) * 64},
        {"prior_weights": (0.0,) * 64},
        {"source_xy": (1.0,)},  # wrong shapes: the error still names the setting
        {"source_xy": (1.0, 2.0, 3.0)},
        {"source_xy": 1.0},
        {"prior_weights": 1.0},
    ],
)
def test_world_rejects_bad_source_and_prior_in_both_engines(bad):
    grid, plume = GridSpec(0.0, 8.0, 0.0, 8.0, 8, 8, 8, 8), PlumeParams()
    setting = "sim.source" if "source_xy" in bad else "prior.values"
    with pytest.raises(ValueError, match=setting):
        World(grid, plume, **bad)
    with pytest.raises(ValueError, match=setting):
        run_episode(small_config(**bad))
    with pytest.raises(ValueError, match=setting):
        HybridEnv(HybridEnvConfig(world=World(grid, plume, **bad))).reset(seed=0)


def test_episode_and_rl_env_draw_the_same_world():
    # both engines set up through swarm.Team on agent_streams: they draw the
    # source and then the start positions from the world stream, and agent i's
    # first reading from its own reading-noise stream
    weights = tuple(np.arange(1.0, 65.0))
    cfg = small_config(n_agents=3, n_steps=1, seed=21, prior_weights=weights)
    log = run_episode(cfg)
    env = HybridEnv(HybridEnvConfig(world=cfg.world, n_agents=3))
    env.reset(seed=21)
    assert tuple(env.team.source) == log.source_xy
    assert [(r.x, r.y) for r in log.records] == [tuple(p) for p in env.team.positions]
    assert np.array_equal(env.team.prior.log_probs, log.prior.log_probs)
    env.step([Action.MEASURE] * 3)
    assert [r.m for r in log.records] == [rs[-1].value for rs in env.team.readings]


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
