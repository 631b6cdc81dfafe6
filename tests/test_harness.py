import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import engine_bytes

from hierts import (
    BoundReport,
    ConfigError,
    HierarchyError,
    PriorSpec,
    RunConfig,
    balanced_tree,
    complexity_term,
    constant_prior,
    dataset_bandit_curve,
    dataset_instance,
    doubling_prior,
    fit_priors_from_data,
    make_cluster_dataset,
    ratio_experiment,
    regret_bound,
    run_bayes_regret,
    save_tree_json,
    ts_complexity_term,
    write_bound_csv,
    write_ratio_csv,
    write_regret_csv,
)
from hierts import agents, harness
from hierts.checks import random_tree
from hierts.hierarchy import build_hierarchy
from hierts.posterior import SHORT_SUM_MAX


def _cfg(**kw):
    base = dict(branching=2, height=1, horizon=20, instances=3, seed=0)
    base.update(kw)
    return RunConfig(**base)


@pytest.mark.parametrize(
    "kw",
    [
        dict(branching=None, height=None),  # no tree source
        dict(parents=((2, 1), (3, 1))),  # two sources
        dict(branching=2, height=None),
        dict(prior_scheme="spectral"),
        dict(prior_scheme="explicit"),  # needs node_variance
        dict(prior_scheme="file"),  # needs tree_file
        dict(horizon=-1),
        dict(instances=0),
        dict(agents=()),
        dict(agents=("HierTS", "HierTS")),
        dict(agents=("UCB",)),
        dict(model="bandit"),
        dict(model="linear", dim=0),
        dict(noise_std=0.0),
        dict(seed=-3),
        dict(delta=1.0),
        dict(horizon=True),  # bool is not an integer here
        dict(prior_value=True),
        dict(noise_std="x"),
        dict(hyper_mean=float("nan")),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ConfigError):
        _cfg(**kw)


def test_from_dict_nested_sections():
    cfg = RunConfig.from_dict(
        {
            "tree": {"b": 3, "h": 2},
            "prior": {"scheme": "constant", "value": 2.0},
            "horizon": 10,
            "instances": 2,
            "agents": ["HierTS", "TS"],
        }
    )
    assert cfg.branching == 3 and cfg.height == 2
    assert cfg.prior_value == 2.0
    hierarchy, prior = cfg.resolve()
    assert hierarchy.num_actions == 9
    assert prior.node_variance[1] == 2.0
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"tree": {"b": 2, "h": 1}, "horizons": 5})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"tree": {"b": 2, "h": 1}, "prior": {"value": 1.0}})


def test_from_dict_explicit_parents_and_prior():
    cfg = RunConfig.from_dict(
        {
            "tree": {"parents": {"2": 1, "3": 1}},
            "prior": {"scheme": "explicit", "node_variance": {"1": 0.5, "2": 1.5, "3": 2.5}},
            "horizon": 5,
            "instances": 1,
        }
    )
    hierarchy, prior = cfg.resolve()
    assert prior.node_variance == {1: 0.5, 2: 1.5, 3: 2.5}
    missing = RunConfig.from_dict(
        {
            "tree": {"parents": {"2": 1, "3": 1}},
            "prior": {"scheme": "explicit", "node_variance": {"1": 0.5}},
            "horizon": 5,
            "instances": 1,
        }
    )
    with pytest.raises(ConfigError, match="missing variances"):
        missing.resolve()
    with pytest.raises(ConfigError, match=r"missing variances for nodes \[2, 3\]"):
        dataclasses.replace(missing, model="linear", dim=2).resolve()


def test_from_json_file_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"tree": {"b": 2,}}')
    with pytest.raises(ConfigError, match="line 1 column"):
        RunConfig.from_json_file(path)
    with pytest.raises(OSError):
        RunConfig.from_json_file(tmp_path / "absent.json")


def test_to_dict_roundtrip():
    cfg = _cfg(parents=((2, 1), (3, 1)), branching=None, height=None,
               prior_scheme="explicit", node_variance=((1, 1.0), (2, 2.0), (3, 3.0)))
    doc = cfg.to_dict()
    again = RunConfig.from_dict(
        {
            "tree": {"parents": doc["parents"]},
            "prior": {"scheme": "explicit", "node_variance": doc["node_variance"]},
            "horizon": doc["horizon"],
            "instances": doc["instances"],
            "agents": doc["agents"],
            "seed": doc["seed"],
        }
    )
    assert again.parents == cfg.parents
    assert again.node_variance == cfg.node_variance


LINEAR_EXPLICIT = {
    "tree": {"parents": {"2": 1, "3": 1}},
    "prior": {"scheme": "explicit", "node_variance": {"1": 0.5, "2": 1.5, "3": 2.5}},
    "model": "linear",
    "dim": 2,
    "horizon": 5,
    "instances": 1,
}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize(
    "source",
    ["doubling_b5_h2.json", "explicit_tree.json", "constant_b2_h2_linear.json", LINEAR_EXPLICIT],
    ids=["doubling_b5_h2", "explicit_tree", "constant_b2_h2_linear", "linear_explicit"],
)
def test_replay_config_roundtrip(source):
    """The flat config that replay.json records holds only set fields that apply, so the reader,
    which rejects a field set where it does not apply, reads it back as the same RunConfig."""
    cfg = RunConfig.from_json_file(CONFIGS / source) if isinstance(source, str) else RunConfig.from_dict(source)
    doc = json.loads(json.dumps(cfg.to_dict()))
    assert None not in doc.values()
    again = RunConfig.from_dict(doc)
    assert again == cfg
    assert again.to_dict() == doc


def test_resolve_file_scheme(tmp_path):
    tree = balanced_tree(2, 1)
    prior = constant_prior(tree, 1.25, noise_std=0.5)
    path = tmp_path / "tree.json"
    save_tree_json(path, tree, prior)
    cfg = RunConfig(tree_file=str(path), prior_scheme="file", horizon=4, instances=1)
    hierarchy, got = cfg.resolve()
    assert hierarchy.num_nodes == 3
    assert got.node_variance[2] == 1.25 and got.noise_std == 0.5
    # the file's prior must fit the config's model: a mismatch once ended in a traceback or a numpy message
    with pytest.raises(ConfigError, match="its prior fits model k-armed, not 'linear'"):
        RunConfig(tree_file=str(path), prior_scheme="file", model="linear", dim=2, horizon=4, instances=1).resolve()
    save_tree_json(path, tree, PriorSpec(np.zeros(2), {n: np.eye(2) for n in (1, 2, 3)}, noise_std=1.0))
    with pytest.raises(ConfigError, match="its prior fits model linear with dim 2, not 'k-armed'"):
        RunConfig(tree_file=str(path), prior_scheme="file", horizon=4, instances=1).resolve()
    with pytest.raises(ConfigError, match="linear with dim 2"):
        RunConfig(tree_file=str(path), prior_scheme="file", model="linear", dim=3, horizon=4, instances=1).resolve()
    cfg = RunConfig(tree_file=str(path), prior_scheme="file", model="linear", dim=2, horizon=4, instances=1)
    assert cfg.resolve()[1].dim == 2
    save_tree_json(path, tree)  # no prior section
    with pytest.raises(ConfigError, match="no prior section"):
        RunConfig(tree_file=str(path), prior_scheme="file", horizon=4, instances=1).resolve()


def test_resolve_linear_prior_matrices():
    cfg = _cfg(model="linear", dim=3, prior_scheme="doubling")
    hierarchy, prior = cfg.resolve()
    assert not prior.is_scalar and prior.dim == 3
    assert np.allclose(prior.node_variance[1], 2.0 * np.eye(3))
    assert np.allclose(prior.node_variance[2], np.eye(3))
    _, prior = RunConfig.from_dict(LINEAR_EXPLICIT).resolve()
    assert np.array_equal(prior.node_variance[3], 2.5 * np.eye(2))


def test_resolved_delta_default():
    assert _cfg(horizon=500).resolved_delta() == pytest.approx(1 / 500)
    assert _cfg(delta=0.05).resolved_delta() == 0.05
    assert _cfg(horizon=2).resolved_delta() == 0.5
    for horizon in (0, 1):  # 1 / horizon would leave (0, 1): no default, and no bound without a delta
        assert _cfg(horizon=horizon).resolved_delta() is None
        assert _cfg(horizon=horizon, delta=0.05).resolved_delta() == 0.05


def test_zero_horizon_empty_curve():
    curve = run_bayes_regret(_cfg(horizon=0))
    assert curve.horizon == 0
    for kind in curve.agents:
        assert curve.mean[kind].shape == (0,)
    assert curve.final("HierTS") == (0.0, 0.0)


def test_curves_nonneg_and_nondecreasing():
    curve = run_bayes_regret(_cfg(branching=2, height=2, horizon=40, instances=5))
    for kind in curve.agents:
        m = curve.mean[kind]
        assert m.shape == (40,)
        assert m[0] >= -1e-12
        assert (np.diff(m) >= -1e-9).all()  # mean cumulative regret cannot fall
        assert curve.se[kind].shape == (40,)


def test_single_instance_has_zero_se():
    curve = run_bayes_regret(_cfg(instances=1, horizon=10))
    assert (curve.se["TS"] == 0).all()


def test_degenerate_prior_gives_no_regret():
    cfg = _cfg(prior_scheme="constant", prior_value=1e-9, horizon=50, instances=3)
    curve = run_bayes_regret(cfg)
    for kind in curve.agents:
        assert curve.final(kind)[0] < 0.01


def test_reruns_are_bit_identical():
    cfg = _cfg(branching=3, height=2, horizon=30, instances=4, model="linear", dim=2)
    a = run_bayes_regret(cfg)
    b = run_bayes_regret(cfg)
    for kind in cfg.agents:
        assert np.array_equal(a.mean[kind], b.mean[kind])
        assert np.array_equal(a.se[kind], b.se[kind])


def test_worker_count_does_not_change_results():
    cfg = _cfg(branching=2, height=2, horizon=25, instances=4)
    serial = run_bayes_regret(cfg, jobs=1)
    parallel = run_bayes_regret(cfg, jobs=2)
    for kind in cfg.agents:
        assert np.array_equal(serial.mean[kind], parallel.mean[kind])
        assert np.array_equal(serial.se[kind], parallel.se[kind])
    # the feature-dataset path shares the same worker pool
    dataset, hierarchy, _ = make_cluster_dataset(
        np.random.default_rng(2), num_groups=2, classes_per_group=2, dim=2,
        train_per_class=8, test_per_class=4,
    )
    prior, theta_star, _ = fit_priors_from_data(dataset, hierarchy, noise_std=0.5)
    instance = dataset_instance(hierarchy, prior, theta_star)
    curves = [
        dataset_bandit_curve(instance, dataset, horizon=20, runs=3, seed=5, jobs=jobs) for jobs in (1, 2)
    ]
    for kind in curves[0].agents:
        assert np.array_equal(curves[0].mean[kind], curves[1].mean[kind])
        assert np.array_equal(curves[0].se[kind], curves[1].se[kind])


def test_worker_chunks_share_the_cell_setup(monkeypatch):
    """With jobs workers, FlatTS's flat tree is built at most once per worker, not per instance."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("counting calls across workers needs forked workers")
    calls = multiprocessing.get_context("fork").Value("i", 0)
    flatten = agents.flatten_hierarchy

    def counting_flatten(hierarchy, prior):
        with calls.get_lock():
            calls.value += 1
        return flatten(hierarchy, prior)

    monkeypatch.setattr(agents, "flatten_hierarchy", counting_flatten)
    run_bayes_regret(_cfg(branching=2, height=3, horizon=10, instances=6), jobs=2)
    assert 1 <= calls.value <= 2


def test_worker_pool_is_capped_at_the_run_count(monkeypatch):
    """jobs above the run count starts one worker per run, each worker maps one contiguous block of runs, and
    the curve is that of jobs=1."""
    import concurrent.futures

    pools = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size and the block sizes and maps in this process."""

        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.blocks = []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks, *iterables):
            self.blocks.append([len(block) for block in blocks])
            return map(fn, blocks, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = _cfg(instances=2)
    serial = run_bayes_regret(cfg, jobs=1)
    capped = run_bayes_regret(cfg, jobs=64)
    for kind in cfg.agents:
        assert np.array_equal(serial.mean[kind], capped.mean[kind])
        assert np.array_equal(serial.se[kind], capped.se[kind])
    ratio_experiment(cfg, (1, 2), jobs=64)  # one pool per height
    run_bayes_regret(_cfg(instances=7), jobs=3)  # fewer jobs than runs: the pool keeps jobs workers
    assert [(p.max_workers, p.blocks) for p in pools] == [(2, [[1, 1]]), (2, [[1, 1]]), (2, [[1, 1]]), (3, [[3, 3, 1]])]


# a root with SHORT_SUM_MAX + 2 children, two of them parents: leaves at depths 1 and 2, and a pooled numpy sum
WIDE_TREE = build_hierarchy({**{c: 1 for c in range(2, SHORT_SUM_MAX + 4)}, SHORT_SUM_MAX + 4: 2,
                             SHORT_SUM_MAX + 5: 2, SHORT_SUM_MAX + 6: 3, SHORT_SUM_MAX + 7: 3})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), instances=st.integers(1, 5), wide=st.booleans(), doubling=st.booleans())
def test_lockstep_cell_matches_per_agent_runs(seed, instances, wide, doubling):
    """_cell_runs in lockstep gives each instance's cumulative regret for every kind of its per-agent loop bit for
    bit, and each agent ends in the state of its per-agent replay: the same float lists, TS arms and written-through
    copies. The threshold is patched to force each loop. Random trees of up to 80 nodes on 6 levels; a per-agent
    state draws on its floats, and a lockstep cell runs the level loop."""
    rng = np.random.default_rng(seed)
    tree = WIDE_TREE if wide else random_tree(rng, max_levels=6, max_nodes=80)
    prior = doubling_prior(tree) if doubling else constant_prior(tree, float(rng.uniform(0.2, 3.0)))
    tasks = [(run, seed, tree, prior, 30, agents.AGENT_KINDS,
              harness.sample_instance(tree, prior, harness._instance_rng(seed, run, harness._STREAM_INSTANCE)).leaf_parameters(),
              None)
             for run in range(instances)]
    made = []

    def recording_make_agent(*args):
        made.append(agents.make_agent(*args))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:  # hypothesis reruns the body, so no function-scoped fixture
        mp.setattr(harness, "make_agent", recording_make_agent)
        mp.setattr(harness, "LOCKSTEP_MIN_INSTANCES", instances + 1)
        replay = harness._cell_runs(tasks)
        replayed, made = made, []
        mp.setattr(harness, "LOCKSTEP_MIN_INSTANCES", 1)
        cell = harness._cell_runs(tasks)
    for res, ref in zip(cell, replay):
        for kind in agents.AGENT_KINDS:
            assert np.array_equal(res[kind], ref[kind]), kind
    assert len(made) == len(replayed) == 3 * instances
    # each loop was taken: a lockstep draw is not counted in sample_ops
    assert all(a.sample_ops == 0 and r.sample_ops > 0 for a, r in zip(made, replayed) if a.kind != "TS")
    for agent, ref in zip(made, replayed):
        assert agent.kind == ref.kind
        assert engine_bytes(agent) == engine_bytes(ref)  # and the lockstep columns hold every node's floats
        if agent.kind != "TS":  # the replayed state never joined a cell, so keeps no columns
            assert agent.state.level_copies is not None and ref.state.level_copies is None


@pytest.mark.parametrize("model", ["k-armed", "linear"])
def test_block_rule_never_changes_a_curve(monkeypatch, model):
    """Uneven blocks, blocks of 1 and 2 in lockstep, a tail block below the threshold and a cell that runs per
    agent all give the default curve's bits, as does any block rule on a linear cell."""
    cfg = _cfg(horizon=40, instances=11, **({"model": "linear", "dim": 2} if model == "linear" else {}))
    default = run_bayes_regret(cfg)
    for low, high in ((1, 2), (3, 4), (4, 5), (12, 16), (1, 16)):
        monkeypatch.setattr(harness, "LOCKSTEP_MIN_INSTANCES", low)
        monkeypatch.setattr(harness, "LOCKSTEP_MAX_INSTANCES", high)
        curve = run_bayes_regret(cfg)
        for kind in cfg.agents:
            assert np.array_equal(curve.mean[kind], default.mean[kind]), (low, high, kind)
            assert np.array_equal(curve.se[kind], default.se[kind]), (low, high, kind)


def test_lockstep_crossover_script_runs():
    """scripts/lockstep_crossover.py drives _cell_runs both ways and stops unless both give the same bits."""
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(repo / "scripts" / "lockstep_crossover.py"), "--heights", "1",
                           "--instances", "2", "3", "--horizon", "5", "--repeats", "1"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "h,M,per_agent_s,lockstep_s,ratio"


def test_simulated_rounds_hand_agents_python_floats(monkeypatch):
    """The round loop passes float rewards, and the tree agents' per-node lists hold only floats after a run."""
    made = []
    reward_types = set()

    def recording_make_agent(kind, hierarchy, prior, rng):
        agent = agents.make_agent(kind, hierarchy, prior, rng)
        update = agent.update

        def recording_update(action, reward, context=None):
            reward_types.add(type(reward))
            update(action, reward, context)

        agent.update = recording_update
        made.append(agent)
        return agent

    monkeypatch.setattr(harness, "make_agent", recording_make_agent)
    run_bayes_regret(_cfg(branching=2, height=3, horizon=60, instances=2), jobs=1)
    assert reward_types == {float}
    states = [agent.state for agent in made if agent.kind != "TS"]
    assert len(states) == 4
    for state in states:
        engine_bytes(state)  # every per-node value a Python float


def test_complexity_term_worked_values():
    tree = balanced_tree(2, 1)
    prior = constant_prior(tree, 1.0, noise_std=1.0)
    report = complexity_term(tree, prior, 1)
    weights = {node: w for node, _, _, w in report.nodes}
    assert weights[2] == pytest.approx(1.0)  # (1/log2) * log2 at n=1
    assert weights[1] == pytest.approx(math.log(3) / math.log(2))  # two unit children
    assert report.c == pytest.approx(2.0)
    assert report.sigma_max == pytest.approx(math.sqrt(2.0))
    assert report.num_actions == 2
    # G(n) discounts by c**height
    assert report.total == pytest.approx(2.0 * weights[1] + weights[2] + weights[3])
    with pytest.raises(ValueError):
        complexity_term(tree, prior, 0)


def test_complexity_term_respects_explicit_c():
    tree = balanced_tree(2, 2)
    prior = doubling_prior(tree, noise_std=4.0)  # noise above every prior width
    report = complexity_term(tree, prior, 100)
    assert report.c == pytest.approx(1.0 + 4.0 / 16.0)
    forced = complexity_term(tree, prior, 100, c=2.0)
    assert forced.total > report.total  # larger discount at the root levels


@pytest.mark.parametrize("term", [complexity_term, ts_complexity_term])
def test_complexity_terms_check_their_inputs(term, b2h2, linear_prior):
    """Both G(n) forms take a scalar prior and a horizon of at least 1, and say so in one message each."""
    with pytest.raises(HierarchyError, match=f"^{term.__name__} requires a scalar prior$"):
        term(b2h2, linear_prior, 10)
    for n in (0, -5):
        with pytest.raises(ValueError, match=f"^horizon must be at least 1, got {n}$"):
            term(b2h2, constant_prior(b2h2, 1.0), n)


def test_ts_vs_hier_complexity_ratio_trend():
    """Independent-arm complexity exceeds the tree's by roughly log_b K."""
    ratios = []
    for h in (1, 2, 3):
        tree = balanced_tree(2, h)
        prior = constant_prior(tree, 1.0, noise_std=1.0)
        g = complexity_term(tree, prior, 500, c=1.0).total
        ratios.append(ts_complexity_term(tree, prior, 500) / g)
        # coarse agreement: the claim drops all log factors
        assert 0.5 * h <= ratios[-1] <= 2.0 * h
    assert ratios == sorted(ratios)
    tree = balanced_tree(5, 2)
    prior = constant_prior(tree, 1.0, noise_std=1.0)
    r = ts_complexity_term(tree, prior, 500) / complexity_term(tree, prior, 500, c=1.0).total
    assert 1.0 <= r <= 4.0


def test_regret_bound_formula():
    report = BoundReport(n=500, c=2.0, sigma_max=1.5, num_actions=8, nodes=(), total=12.0)
    delta = 1 / 500
    expect = math.sqrt(2 * 500 * 12.0 * math.log(500)) + math.sqrt(2 / math.pi) * 1.5 * 8 * 500 * delta
    assert regret_bound(report, delta) == pytest.approx(expect, rel=1e-12)
    # delta = 1/n collapses the tail term to sqrt(2/pi) sigma_max K
    tail = regret_bound(BoundReport(n=500, c=2.0, sigma_max=1.5, num_actions=8, nodes=(), total=0.0), delta)
    assert tail == pytest.approx(math.sqrt(2 / math.pi) * 1.5 * 8)
    with pytest.raises(ValueError):
        regret_bound(report, 0.0)


def test_ratio_experiment_shapes_and_guards():
    cfg = _cfg(horizon=30, instances=6, agents=("HierTS", "TS"))
    result = ratio_experiment(cfg, heights=(1, 2))
    assert result.heights == (1, 2)
    assert result.agents == ("HierTS",)
    assert result.ratio["HierTS"].shape == (2,)
    assert np.isfinite(result.ratio["HierTS"]).all()
    assert len(result.curves) == 2
    assert result.curves[1].mean["TS"].shape == (30,)
    with pytest.raises(ConfigError, match="requires the TS agent"):
        ratio_experiment(_cfg(agents=("HierTS",)), heights=(1,))
    with pytest.raises(ConfigError, match="non-TS"):
        ratio_experiment(_cfg(agents=("TS",)), heights=(1,))
    with pytest.raises(ConfigError, match="height"):
        ratio_experiment(cfg, heights=())
    with pytest.raises(ConfigError, match="balanced-tree"):
        ratio_experiment(
            _cfg(parents=((2, 1), (3, 1)), branching=None, height=None, agents=("HierTS", "TS")),
            heights=(1,),
        )


def test_csv_writers_golden(tmp_path):
    cfg = _cfg(horizon=2, instances=2, agents=("TS",), seed=1)
    curve = run_bayes_regret(cfg)
    path = tmp_path / "regret.csv"
    write_regret_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,agent,mean_regret,se,instances"
    assert len(lines) == 3
    assert lines[1].startswith("1,TS,") and lines[1].endswith(",2")
    write_regret_csv(curve, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    tree = balanced_tree(2, 1)
    report = complexity_term(tree, constant_prior(tree, 1.0), 10)
    write_bound_csv(report, tmp_path / "bound.csv")
    blines = (tmp_path / "bound.csv").read_text().splitlines()
    assert blines[0] == "node,height,sigma0_sq,w_i"
    assert len(blines) == 4

    result = ratio_experiment(_cfg(horizon=10, instances=2, agents=("HierTS", "TS")), heights=(1,))
    write_ratio_csv(result, tmp_path / "ratio.csv")
    rlines = (tmp_path / "ratio.csv").read_text().splitlines()
    assert rlines[0] == "h,agent,ratio,se"
    assert rlines[1].startswith("1,HierTS,")
