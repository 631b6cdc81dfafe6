import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import LinearReference, ScalarReference, engine_bytes

from hierts import (
    AGENT_KINDS,
    FlatTSAgent,
    HierTSAgent,
    LinearPosteriorState,
    PosteriorState,
    PriorSpec,
    TSAgent,
    balanced_tree,
    constant_prior,
    doubling_prior,
    flatten_hierarchy,
    hierts_sample,
    make_agent,
)
from hierts import agents, posterior
from hierts.checks import random_linear_prior, random_scalar_prior, random_tree
from hierts.hierarchy import HierarchyError


def _linear_prior(tree, dim, noise_std=1.0, seed=2):
    rng = np.random.default_rng(seed)
    cov = {}
    for node in range(1, tree.num_nodes + 1):
        a = rng.standard_normal((dim, dim))
        cov[node] = a @ a.T / dim + np.eye(dim)
    return PriorSpec(hyper_mean=np.zeros(dim), node_variance=cov, noise_std=noise_std)


def test_hierts_sample_shapes(b2h2, b2h2_prior):
    state = PosteriorState(b2h2, b2h2_prior)
    one = hierts_sample(state, np.random.default_rng(0))
    assert one.shape == (8,)
    assert np.isnan(one[0]) and np.isfinite(one[1:]).all()
    many = hierts_sample(state, np.random.default_rng(0), size=7)
    assert many.shape == (7, 8)
    assert np.isnan(many[:, 0]).all() and np.isfinite(many[:, 1:]).all()


def test_hierts_sample_linear_shapes(b2h2, linear_prior):
    state = LinearPosteriorState(b2h2, linear_prior)
    one = hierts_sample(state, np.random.default_rng(0))
    assert one.shape == (8, 3)
    assert np.isnan(one[0]).all() and np.isfinite(one[1:]).all()
    many = hierts_sample(state, np.random.default_rng(0), size=4)
    assert many.shape == (4, 8, 3)
    with pytest.raises(TypeError):
        hierts_sample(object(), np.random.default_rng(0))


def _updates(rng, tree, chunks, per_chunk):
    return [[(int(rng.choice(tree.action_nodes)), float(rng.normal(0.0, 2.0))) for _ in range(per_chunk)]
            for _ in range(chunks)]


@pytest.mark.parametrize("size", [None, 1, 2, 5])
def test_hierts_sample_keeps_per_level_draw_order(size):
    """One draw per call yields exactly the reference model's draw from the same normals (root first, then in
    sample order, d per node), in bytes and stream position; a sized call, that many of them in a row.

    The trees include the 257-node flat tree of b=2 h=8 (a 256-child root), b=2 h=8, b=16 h=2, and
    random trees with mixed-depth leaves, whose levels and sample order are not id runs.
    """
    rng = np.random.default_rng(21)
    b2h3, b2h8 = balanced_tree(2, 3), balanced_tree(2, 8)
    trees = [b2h3, balanced_tree(16, 2)] + [flatten_hierarchy(t, constant_prior(t))[0] for t in (b2h3, b2h8)]
    trees += [b2h8] + [random_tree(rng) for _ in range(4)]
    assert any(not isinstance(idx, slice) for t in trees for idx, _, _, _ in t.level_index)
    assert any(t.sample_nodes != tuple(range(2, t.num_nodes + 1)) for t in trees)  # a sample order that is no id run
    for tree in trees:
        for dim in (None, 1, 3):
            if dim is None:
                prior = random_scalar_prior(rng, tree)
                state, ref = PosteriorState(tree, prior), ScalarReference(tree, prior)
            else:
                prior = random_linear_prior(rng, tree, dim)
                state, ref = LinearPosteriorState(tree, prior), LinearReference(tree, prior)
            for _ in range(30):
                leaf = int(rng.choice(tree.action_nodes))
                context = None if dim is None else rng.standard_normal(dim)
                reward = float(rng.normal(0.0, 2.0))
                state.update_path(leaf, reward, context)
                ref.update_path(leaf, reward, context)
            width = tree.num_nodes * (dim or 1)
            for seed in range(3):
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = hierts_sample(state, got_rng, size)
                want = [ref.draw(want_rng.standard_normal(width)) for _ in range(size or 1)]
                want = want[0] if size is None else np.stack(want)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sized_draw_is_that_many_draws_in_a_row():
    """hierts_sample(state, rng, m) stacks m draws without a size from rng, for both models, on b=2 h=3, b=2 h=8,
    b=16 h=2 and a random tree with leaves at mixed depths; the generator ends where the m draws leave it."""
    rng = np.random.default_rng(31)
    mixed = random_tree(rng, max_levels=4, max_nodes=20)
    assert len({mixed.path_to_root(a).size for a in mixed.action_nodes.tolist()}) > 1
    trees = [balanced_tree(2, 3), balanced_tree(2, 8), balanced_tree(16, 2), mixed]
    for tree in trees:
        for dim in (None, 3):
            if dim is None:
                state = PosteriorState(tree, random_scalar_prior(rng, tree))
            else:
                state = LinearPosteriorState(tree, random_linear_prior(rng, tree, dim))
            for _ in range(20):
                context = None if dim is None else rng.standard_normal(dim)
                state.update_path(int(rng.choice(tree.action_nodes)), float(rng.normal(0.0, 2.0)), context)
            for m in (1, 4):
                got_rng, want_rng = np.random.default_rng(m), np.random.default_rng(m)
                got = hierts_sample(state, got_rng, m)
                want = [hierts_sample(state, want_rng) for _ in range(m)]
                assert got.shape == (m, *want[0].shape)
                assert [row.tobytes() for row in got] == [w.tobytes() for w in want]
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), columns=st.integers(1, 5))
def test_lockstep_columns_equal_each_state_own_draw(seed, columns):
    """A LockstepDraw hands column copies to its states, which keep none before. Each column of its draw equals the
    bytes of the draw its state would make alone (a twin fed the same updates, never in the cell), before and
    after more updates through the write-through; each state's own draw, still on its floats, equals the
    reference model's draw from the same normals in bytes and stream position. Random trees have leaves at mixed
    depths."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    prior = random_scalar_prior(rng, tree)
    before, after = _updates(rng, tree, columns, 10), _updates(rng, tree, columns, 10)
    states, twins = ([PosteriorState(tree, prior) for _ in range(columns)] for _ in range(2))
    refs = [ScalarReference(tree, prior) for _ in range(columns)]
    assert all(s.level_copies is None for s in states + twins)
    for phase, updates in enumerate((before, after)):
        for state, twin, ref, chunk in zip(states, twins, refs, updates):
            for leaf, reward in chunk:
                state.update_path(leaf, reward)
                twin.update_path(leaf, reward)
                ref.update_path(leaf, reward)
        if not phase:
            cell = posterior.LockstepDraw(states)
        seeds = [10 * phase + j for j in range(columns)]
        theta = cell.draw(np.stack([np.random.default_rng(s).standard_normal(tree.num_nodes) for s in seeds], axis=1))
        for j, (state, twin, ref) in enumerate(zip(states, twins, refs)):
            assert state.level_copies is not None and state.level_copies[0].base is cell.copies[0]
            alone = hierts_sample(twin, np.random.default_rng(seeds[j])).tobytes()
            assert theta[:, j].tobytes() == alone
            got_rng, want_rng = np.random.default_rng(seeds[j]), np.random.default_rng(seeds[j])
            want = ref.draw(want_rng.standard_normal(tree.num_nodes)).tobytes()
            assert hierts_sample(state, got_rng).tobytes() == want == alone
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_scalar_ts_act_reads_cached_arm_moments(monkeypatch):
    """TSAgent's cached mean and sd give the draws of wmean / prec + z / sqrt(prec), bit for bit."""
    rng = np.random.default_rng(4)
    tree = random_tree(rng)
    agent = TSAgent(tree, random_scalar_prior(rng, tree), np.random.default_rng(9))
    drawn = []
    monkeypatch.setattr(agents, "_argmax_score", lambda values, context: drawn.append(values.copy()) or 0)
    for _ in range(200):
        agent.update(int(rng.choice(tree.action_nodes)), float(rng.normal(0.0, 3.0)))
        want_rng = copy.deepcopy(agent.rng)
        want = agent.wmean / agent.prec + want_rng.standard_normal(tree.num_actions) / np.sqrt(agent.prec)
        agent.act()
        assert np.array_equal(drawn[-1], want)
        assert agent.rng.bit_generator.state == want_rng.bit_generator.state


def test_hierts_sample_prior_moments(b2h2):
    """Level-by-level draws must reproduce the tree prior's joint moments."""
    prior = doubling_prior(b2h2)
    state = PosteriorState(b2h2, prior)
    draws = hierts_sample(state, np.random.default_rng(1), size=200_000)
    leaves = draws[:, b2h2.action_nodes]
    # marginal variance 4+2+1, sibling covariance 4+2, cousin covariance 4
    assert abs(leaves[:, 0].var() - 7.0) < 0.15
    cov = np.cov(leaves.T)
    assert abs(cov[0, 1] - 6.0) < 0.15
    assert abs(cov[0, 2] - 4.0) < 0.15


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_round_one_marginals_agree_scalar(kind, b2h2):
    prior = doubling_prior(b2h2, noise_std=0.8, hyper_mean=0.4)
    agent = make_agent(kind, b2h2, prior, np.random.default_rng(0))
    for leaf in b2h2.action_nodes:
        mean, var = agent.marginal_action_moments(int(leaf))
        assert mean == pytest.approx(0.4, abs=1e-12)
        assert var == pytest.approx(7.0, rel=1e-12)


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_round_one_marginals_agree_linear(kind, b2h2):
    prior = _linear_prior(b2h2, dim=2)
    expect = {
        int(a): sum(prior.node_variance[int(i)] for i in b2h2.path_to_root(int(a)))
        for a in b2h2.action_nodes
    }
    agent = make_agent(kind, b2h2, prior, np.random.default_rng(0))
    for leaf in b2h2.action_nodes:
        mean, cov = agent.marginal_action_moments(int(leaf))
        assert np.allclose(mean, 0.0, atol=1e-12)
        assert np.allclose(cov, expect[int(leaf)], rtol=1e-10, atol=1e-12)


def test_same_seed_same_trajectory(b2h2, b2h2_prior):
    def run(kind):
        agent = make_agent(kind, b2h2, b2h2_prior, np.random.default_rng(42))
        taken = []
        for t in range(30):
            a = agent.act()
            agent.update(a, 0.1 * t)
            taken.append(a)
        return taken

    for kind in AGENT_KINDS:
        assert run(kind) == run(kind)


def test_sample_ops_counts_node_draws(b2h2, b2h2_prior):
    agent = HierTSAgent(b2h2, b2h2_prior, np.random.default_rng(0))
    assert agent.sample_ops == 0
    agent.act()
    assert agent.sample_ops == b2h2.num_nodes
    agent.sample_model(size=10)
    assert agent.sample_ops == 11 * b2h2.num_nodes
    flat = FlatTSAgent(b2h2, b2h2_prior, np.random.default_rng(0))
    flat.act()
    # the collapsed tree has root + one node per action
    assert flat.sample_ops == b2h2.num_actions + 1


def test_act_breaks_ties_at_lowest_leaf(b2h2, b2h2_prior, monkeypatch):
    agent = HierTSAgent(b2h2, b2h2_prior, np.random.default_rng(0))
    theta = np.zeros(b2h2.num_nodes + 1)
    monkeypatch.setattr(agent, "sample_model", lambda size=None: theta)
    assert agent.act() == int(b2h2.action_nodes[0])
    theta2 = theta.copy()
    theta2[[5, 7]] = 3.0
    monkeypatch.setattr(agent, "sample_model", lambda size=None: theta2)
    assert agent.act() == 5


def test_flat_agent_translates_and_validates(b2h2, b2h2_prior):
    agent = FlatTSAgent(b2h2, b2h2_prior, np.random.default_rng(0))
    action = agent.act()
    assert action in set(int(a) for a in b2h2.action_nodes)
    agent.update(action, 1.0)
    with pytest.raises(HierarchyError):
        agent.update(2, 1.0)  # internal node of the original tree
    mean, var = agent.marginal_action_moments(int(b2h2.action_nodes[0]))
    assert var < 3.0  # updated arm pool shrinks every marginal below prior


def test_flat_agent_shares_only_root(b2h2, b2h2_prior):
    """After observing leaf 4, FlatTS moves its sibling less than HierTS does."""
    hier = HierTSAgent(b2h2, b2h2_prior, np.random.default_rng(0))
    flat = FlatTSAgent(b2h2, b2h2_prior, np.random.default_rng(0))
    for _ in range(20):
        hier.update(4, 2.0)
        flat.update(4, 2.0)
    sib_hier = hier.marginal_action_moments(5)[0]
    sib_flat = flat.marginal_action_moments(5)[0]
    cousin_hier = hier.marginal_action_moments(7)[0]
    cousin_flat = flat.marginal_action_moments(7)[0]
    assert sib_hier > sib_flat > 0.0
    assert cousin_flat == pytest.approx(sib_flat, rel=1e-9)  # no extra structure
    assert cousin_hier < sib_hier


def test_ts_agent_scalar_update_is_conjugate(b2h2):
    prior = constant_prior(b2h2, 1.0, noise_std=0.5)
    agent = TSAgent(b2h2, prior, np.random.default_rng(0))
    agent.update(4, 2.0)
    mean, var = agent.marginal_action_moments(4)
    # prior N(0, 3), one obs at noise var 0.25
    expect_var = 1.0 / (1.0 / 3.0 + 4.0)
    assert var == pytest.approx(expect_var, rel=1e-12)
    assert mean == pytest.approx(expect_var * 2.0 * 4.0, rel=1e-12)
    # the other arms are untouched
    assert agent.marginal_action_moments(5) == (pytest.approx(0.0), pytest.approx(3.0))
    with pytest.raises(HierarchyError):
        agent.update(1, 0.0)
    with pytest.raises(HierarchyError):
        agent.marginal_action_moments(3)


@pytest.mark.parametrize("bad", ["internal", 0, -1, "past_end"])
@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_agents_reject_non_leaf_actions(kind, bad, b2h2, b2h2_prior):
    """Every agent maps actions through one checked lookup: a non-leaf id never wraps or leaks."""
    action = {"internal": 2, "past_end": b2h2.num_nodes + 1}.get(bad, bad)
    agent = make_agent(kind, b2h2, b2h2_prior, np.random.default_rng(0))
    before = [agent.marginal_action_moments(int(a)) for a in b2h2.action_nodes]
    with pytest.raises(HierarchyError, match=rf"action {action} is not a leaf"):
        agent.update(action, 1.0)
    with pytest.raises(HierarchyError, match=rf"action {action} is not a leaf"):
        agent.marginal_action_moments(action)
    assert [agent.marginal_action_moments(int(a)) for a in b2h2.action_nodes] == before


@pytest.mark.parametrize("dim", [None, 2], ids=["scalar", "linear"])
def test_ts_agent_rejects_non_finite_input(b2h2, b2h2_prior, dim):
    prior = b2h2_prior if dim is None else _linear_prior(b2h2, dim=dim)
    agent = TSAgent(b2h2, prior, np.random.default_rng(0))
    x = None if dim is None else np.ones(dim)
    before = agent.marginal_action_moments(4)
    for reward in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            agent.update(4, reward, x)
    if dim is not None:
        with pytest.raises(ValueError, match="finite"):
            agent.update(4, 1.0, np.array([1.0, np.nan]))
    after = agent.marginal_action_moments(4)
    assert all(np.array_equal(a, b) for a, b in zip(after, before))


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_agents_reject_non_finite_context(kind, b2h2):
    """A NaN or inf in the context raises instead of playing the first leaf (np.argmax takes the first NaN)."""
    agent = make_agent(kind, b2h2, _linear_prior(b2h2, dim=2), np.random.default_rng(0))
    for bad in ([np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="context must be finite"):
            agent.act(np.array(bad))
    assert agent.act(np.array([1.0, 0.0])) in set(b2h2.action_nodes.tolist())


@pytest.mark.parametrize("kind", AGENT_KINDS)
@pytest.mark.parametrize("dim, context, message", [
    (2, np.ones((2, 1)), r"context must have shape \(2,\), got \(2, 1\)"),
    (2, np.ones((2, 2)), r"context must have shape \(2,\), got \(2, 2\)"),
    (2, None, r"context must have shape \(2,\), got None"),
    (None, np.ones(2), r"context must be None for the k-armed model, got shape \(2,\)"),
], ids=["column", "matrix", "missing", "scalar-given-context"])
def test_act_rejects_a_context_of_the_wrong_shape(kind, dim, context, message):
    """act checks the context's shape as update does: a ValueError, not a TypeError or IndexError from
    the scoring, nor (HierTS without a context) the argmax of its flattened (K, d) draw."""
    tree = balanced_tree(2, 1)
    prior = constant_prior(tree, 1.0) if dim is None else _linear_prior(tree, dim)
    agent = make_agent(kind, tree, prior, np.random.default_rng(0))
    with pytest.raises(ValueError, match=message):
        agent.act(context)


@pytest.mark.parametrize("kind, dim, context, message", [
    pytest.param(kind, None, context, rf"context must be None for the k-armed model, got shape \({shape}\)",
                 id=f"{kind}-scalar-given-{name}")
    for kind in AGENT_KINDS for name, context, shape in (("vector", np.ones(2), "2,"), ("float", 1.0, ""))
] + [pytest.param(kind, 2, None, r"context must have shape \(2,\), got None", id=f"{kind}-linear-missing")
     for kind in ("HierTS", "FlatTS")])
def test_update_rejects_a_context_that_does_not_fit(kind, dim, context, message):
    """update checks the context as act does, with act's ValueError and before any state changes: a k-armed
    model takes none (HierTS and FlatTS used to pass it on as the reward, TS ignored it), and a linear model
    needs one (HierTS and FlatTS used to raise TypeError; TS's linear update already checked)."""
    tree = balanced_tree(2, 1)
    prior = constant_prior(tree, 1.0) if dim is None else _linear_prior(tree, dim)
    agent = make_agent(kind, tree, prior, np.random.default_rng(0))
    before = [agent.marginal_action_moments(int(a)) for a in tree.action_nodes]
    with pytest.raises(ValueError, match=message):
        agent.update(2, 1.0, context)
    after = [agent.marginal_action_moments(int(a)) for a in tree.action_nodes]
    assert all(np.array_equal(x, y) for a, b in zip(after, before) for x, y in zip(a, b))


@pytest.mark.parametrize("size", [0, -1, 2.5, True])
@pytest.mark.parametrize("dim", [None, 2], ids=["scalar", "linear"])
def test_sampling_rejects_a_size_that_is_not_a_positive_integer(b2h2, b2h2_prior, dim, size):
    """A size of 0, -1, 2.5 or True raises a ValueError naming size before any draw, and sample_model counts nothing."""
    prior = b2h2_prior if dim is None else _linear_prior(b2h2, dim)
    agent = HierTSAgent(b2h2, prior, np.random.default_rng(0))
    rng_state = agent.rng.bit_generator.state
    with pytest.raises(ValueError, match="size must be a positive integer"):
        hierts_sample(agent.state, agent.rng, size)
    with pytest.raises(ValueError, match="size must be a positive integer"):
        agent.sample_model(size)
    assert agent.sample_ops == 0
    assert agent.rng.bit_generator.state == rng_state


def test_ts_agent_linear_update(b2h2):
    prior = _linear_prior(b2h2, dim=2, noise_std=1.0)
    agent = TSAgent(b2h2, prior, np.random.default_rng(0))
    x = np.array([1.0, -2.0])
    agent.update(4, 0.5, x)
    mean, cov = agent.marginal_action_moments(4)
    marg = sum(prior.node_variance[i] for i in (1, 2, 4))
    lam = np.linalg.inv(marg) + np.outer(x, x)
    expect_cov = np.linalg.inv(lam)
    assert np.allclose(cov, expect_cov, rtol=1e-9)
    assert np.allclose(mean, expect_cov @ (x * 0.5), rtol=1e-9)


@pytest.mark.parametrize("dim", [None, 2], ids=["scalar", "linear"])
def test_agents_of_one_cell_share_their_setup(b2h2, b2h2_prior, monkeypatch, dim):
    """FlatTS's flat tree and TS's per-arm prior are built once per (tree, prior) pair.

    Each agent still owns its posterior, and a new prior object (even an
    equal one) gets its own build.
    """
    prior = b2h2_prior if dim is None else _linear_prior(b2h2, dim)
    calls = []

    def counting_flatten(hierarchy, prior):
        calls.append(1)
        return flatten_hierarchy(hierarchy, prior)

    monkeypatch.setattr(agents, "flatten_hierarchy", counting_flatten)
    flats = [FlatTSAgent(b2h2, prior, np.random.default_rng(i)) for i in range(3)]
    assert len(calls) == 1
    assert flats[0].state.hierarchy is flats[2].state.hierarchy
    assert flats[0].state is not flats[2].state
    x = None if dim is None else np.ones(dim)
    flats[0].update(4, 1.0, x)
    assert not np.any(flats[2].state.ev_prec)
    FlatTSAgent(b2h2, PriorSpec(prior.hyper_mean, prior.node_variance, prior.noise_std),
                np.random.default_rng(0))
    assert len(calls) == 2

    a, b = (TSAgent(b2h2, prior, np.random.default_rng(i)) for i in range(2))
    assert all(not arr.flags.writeable for arr in agents._ts_prior(b2h2, prior))
    a.update(4, 1.0, x)
    agents._ts_prior.cache_clear()
    fresh = TSAgent(b2h2, prior, np.random.default_rng(0))
    assert engine_bytes(b) == engine_bytes(fresh)
    assert all(getattr(b, name).flags.writeable for name in engine_bytes(b))
    assert not np.array_equal(a.prec, b.prec)


def test_make_agent_rejects_unknown(b2h2, b2h2_prior):
    with pytest.raises(ValueError, match="unknown agent kind"):
        make_agent("UCB", b2h2, b2h2_prior, np.random.default_rng(0))


def test_near_degenerate_prior_keeps_agents_running():
    """Variances at the validity floor must not break sampling or updates."""
    tree = balanced_tree(2, 1)
    prior = constant_prior(tree, 1e-9, noise_std=1.0)
    for kind in AGENT_KINDS:
        agent = make_agent(kind, tree, prior, np.random.default_rng(0))
        for _ in range(5):
            a = agent.act()
            agent.update(a, 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float16, int])
def test_narrow_rewards_sum_like_their_floats(dtype):
    """A reward given as a numpy float32 or float16, or as an int, enters every running sum as float(reward):
    under NEP 50 a Python float plus a float32 is a float32, so summing the reward itself would round each tally
    to float32. The scalar posterior and TS arms, and the linear posterior and TS arms, each end with the tallies of
    a twin fed float(reward), byte for byte; 2,000 rewards of one value on one leaf make the rounding show."""
    rng = np.random.default_rng(12)
    tree = balanced_tree(2, 3)
    scalar, linear = random_scalar_prior(rng, tree), random_linear_prior(rng, tree, 2)
    leaves = [int(a) for a in rng.choice(tree.action_nodes, 300)] + [int(tree.action_nodes[0])] * 2000
    values = [dtype(v) for v in rng.normal(0.0, 3.0, 300).round(0 if dtype is int else 6)] + [dtype(1) / 10] * 2000
    contexts = rng.standard_normal((len(values), 2))
    for model in ("scalar", "linear"):
        pairs = ((PosteriorState(tree, scalar), PosteriorState(tree, scalar)),
                 (TSAgent(tree, scalar, None), TSAgent(tree, scalar, None))) if model == "scalar" else \
                ((LinearPosteriorState(tree, linear), LinearPosteriorState(tree, linear)),
                 (TSAgent(tree, linear, None), TSAgent(tree, linear, None)))
        for narrow, wide in pairs:
            update = "update" if isinstance(narrow, TSAgent) else "update_path"
            for leaf, value, x in zip(leaves, values, contexts):
                x = None if model == "scalar" else x
                getattr(narrow, update)(leaf, value, x)
                getattr(wide, update)(leaf, float(value), x)
            assert engine_bytes(narrow) == engine_bytes(wide)


def test_write_through_follows_rehomed_arrays():
    """PosteriorStates that move from one LockstepDraw to another, and a scalar TSAgent after TSAgent.lockstep,
    write through to their new columns only: over 100 updates each column equals its floats (the arm moments
    wmean / prec and sqrt(prec) for TS) byte for byte, and the arrays held before stop changing. A memoryview left
    bound to an old array fails this on the first update."""
    rng = np.random.default_rng(17)
    for tree in (balanced_tree(2, 8), balanced_tree(16, 2)):  # b=16 also a wide pool
        prior = random_scalar_prior(rng, tree)
        states = [PosteriorState(tree, prior) for _ in range(3)]
        posterior.LockstepDraw(states)
        arms = [TSAgent(tree, prior, np.random.default_rng(j)) for j in range(3)]
        for _ in range(20):
            for state, arm in zip(states, arms):
                leaf, reward = int(rng.choice(tree.action_nodes)), float(rng.normal(0.0, 2.0))
                state.update_path(leaf, reward)
                arm.update(leaf, reward)
        held = [state.level_copies for state in states] + [(arm.mean, arm.sd) for arm in arms]
        assert all(copies is not None for copies in held)
        frozen = [[a.tobytes() for a in copies] for copies in held]
        cell = posterior.LockstepDraw(states)
        TSAgent.lockstep(arms)
        for _ in range(100):
            for state, arm in zip(states, arms):
                leaf, reward = int(rng.choice(tree.action_nodes)), float(rng.normal(0.0, 2.0))
                state.update_path(leaf, reward)
                arm.update(leaf, reward)
        assert [[a.tobytes() for a in copies] for copies in held] == frozen
        for j, state in enumerate(states):
            engine_bytes(state)  # its level copies hold its floats
            for array, column in zip(state.level_copies, cell.copies):
                assert array.base is column and array.tobytes() == column[:, j].tobytes()
        for arm in arms:
            assert arm.mean.base is not None and arm.sd.base is not None
            assert arm.mean.tobytes() == (arm.wmean / arm.prec).tobytes()
            assert arm.sd.tobytes() == np.sqrt(arm.prec).tobytes()


@pytest.mark.parametrize("kind", AGENT_KINDS)
@pytest.mark.parametrize("mode", ["fresh", "lockstep", "linear"])
def test_agents_pickle_and_copy(kind, mode):
    """pickle and deepcopy give an agent that binds its write-through views to its own arrays: fed the same
    updates as the original, its draws, float lists and arrays stay the original's bytes. b=16 h=2 has a wide
    root, whose children's messages a state writes through; a lockstep agent writes through to its column. A
    linear agent (d = 3) reads and writes through the row views its state or TS arms bind, and post_cov and TS's
    prec and cov are views too; its twin keeps every array in bytes."""
    rng = np.random.default_rng(23)
    tree = balanced_tree(16, 2)
    dim = 3 if mode == "linear" else None
    prior = random_scalar_prior(rng, tree) if dim is None else random_linear_prior(rng, tree, dim)
    agents_ = [make_agent(kind, tree, prior, np.random.default_rng(j)) for j in range(3)]
    if mode == "lockstep":
        type(agents_[0]).lockstep(agents_)
    agent = agents_[0]

    def feed(*targets):
        leaf, reward = int(rng.choice(tree.action_nodes)), float(rng.normal(0.0, 2.0))
        context = None if dim is None else rng.standard_normal(dim)
        for target in targets:
            target.update(leaf, reward, context)

    for _ in range(30):
        feed(agent)
    for twin_of in (lambda a: pickle.loads(pickle.dumps(a)), copy.deepcopy):
        twin = twin_of(agent)
        assert engine_bytes(twin) == engine_bytes(agent)
        for _ in range(30):
            feed(agent, twin)
        assert engine_bytes(twin) == engine_bytes(agent)
        context = None if dim is None else rng.standard_normal(dim)
        assert twin.act(context) == agent.act(context)
        assert twin.rng.bit_generator.state == agent.rng.bit_generator.state
        if kind != "TS":
            assert twin.sample_model().tobytes() == agent.sample_model().tobytes()
