"""Scalar recursive posterior: worked examples, invariants, oracle agreement."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import engine_bytes

from hierts import (
    PosteriorState,
    action_marginals,
    balanced_tree,
    build_hierarchy,
    condition,
    constant_prior,
    doubling_prior,
    flatten_hierarchy,
    hierts_sample,
    joint_prior,
)
from hierts import posterior
from hierts.checks import random_scalar_prior, random_tree
from hierts.hierarchy import HierarchyError
from hierts.posterior import SHORT_SUM_MAX


def test_unobserved_leaf_sends_zero_message(two_leaf):
    tree, prior = two_leaf
    state = PosteriorState(tree, prior)
    state.update_path(2, 1.0)
    fresh = state.rebuild()  # recomputes every message, the zero-count leaf's too
    assert fresh.msg_prec[3] == 0.0 and fresh.msg_wmean[3] == 0.0


def test_one_observation_message(two_leaf):
    # one reward y=2 at noise var 1 and prior var 1:
    # below-evidence (1, 2), shrunk through the edge -> (1/2, 1)
    tree, prior = two_leaf
    state = PosteriorState(tree, prior)
    state.update_path(2, 2.0)
    assert state.msg_prec[2] == pytest.approx(0.5)
    assert state.msg_wmean[2] == pytest.approx(1.0)


def test_message_precision_saturates(two_leaf):
    # precision saturates at 1/sigma0_sq as count grows
    tree, _ = two_leaf
    state = PosteriorState(tree, constant_prior(tree, 2.0, noise_std=1.0))
    state.counts[2] = 1e6
    assert state.rebuild().msg_prec[2] == pytest.approx(0.5, rel=1e-5)
    with pytest.raises(ValueError):
        constant_prior(tree, 0.0, noise_std=1.0)
    with pytest.raises(ValueError):
        constant_prior(tree, 1.0, noise_std=-1.0)


def test_internal_node_pools_child_messages(b2h2, b2h2_prior):
    state = PosteriorState(b2h2, b2h2_prior)
    state.update_path(4, 2.0)  # leaf message (1/2, 1)
    state.update_path(5, -1.0)  # leaf message (1/2, -1/2)
    # node 2 pools its children's evidence (1, 1/2) and shrinks it through lam0=1
    assert state.ev_prec[2] == pytest.approx(1.0)
    assert state.ev_wmean[2] == pytest.approx(0.5)
    assert state.msg_prec[2] == pytest.approx(0.5)
    assert state.msg_wmean[2] == pytest.approx(0.25)
    # node 3 has no data below it and sends the zero message
    fresh = state.rebuild()
    assert fresh.msg_prec[3] == 0.0 and fresh.msg_wmean[3] == 0.0


def test_two_leaf_worked_example(two_leaf):
    """One reward y=2 at leaf 2, all variances 1.

    Root posterior: evidence = leaf message (1/2, 1) -> N(2/3, 2/3).
    Observed leaf marginal: N(4/3, 2/3). Unobserved leaf inherits the root
    marginal through a unit-variance edge: N(2/3, 5/3).
    """
    tree, prior = two_leaf
    state = PosteriorState(tree, prior)
    state.update_path(2, 2.0)

    root_prec = state.posterior_precisions()[1]
    assert state.ev_wmean[1] / root_prec == pytest.approx(2.0 / 3.0)  # hyper mean 0
    assert 1.0 / root_prec == pytest.approx(2.0 / 3.0)

    m2, v2 = state.marginal_action_moments(2)
    assert m2 == pytest.approx(4.0 / 3.0)
    assert v2 == pytest.approx(2.0 / 3.0)

    m3, v3 = state.marginal_action_moments(3)
    assert m3 == pytest.approx(2.0 / 3.0)
    assert v3 == pytest.approx(5.0 / 3.0)

    # dense-oracle cross-check of the same history
    joint = condition(joint_prior(tree, prior), [(2, 2.0)], 1.0)
    marg = action_marginals(joint)
    assert marg[2][0] == pytest.approx(m2) and marg[2][1] == pytest.approx(v2)
    assert marg[3][0] == pytest.approx(m3) and marg[3][1] == pytest.approx(v3)


def test_conditional_posterior_matches_oracle(two_leaf):
    """A node given its parent is N(slope * parent + intercept, 1 / precision)."""
    tree, prior = two_leaf
    state = PosteriorState(tree, prior)
    state.update_path(2, 2.0)
    prec = state.posterior_precisions()[2]
    slope, intercept = state.lam0[2] / prec, state.ev_wmean[2] / prec
    assert 0.0 < slope <= 1.0
    # the same conditional from the dense joint posterior
    joint = condition(joint_prior(tree, prior), [(2, 2.0)], 1.0)
    c = joint.cov
    oracle_slope = c[1, 0] / c[0, 0]
    assert slope == pytest.approx(oracle_slope, rel=1e-12)
    assert intercept == pytest.approx(joint.mean[1] - oracle_slope * joint.mean[0], rel=1e-12)
    assert 1.0 / prec == pytest.approx(c[1, 1] - c[1, 0] ** 2 / c[0, 0], rel=1e-12)


def test_prior_state_is_prior(b2h2, b2h2_prior):
    state = PosteriorState(b2h2, b2h2_prior)
    for leaf in b2h2.action_nodes:
        mean, var = state.marginal_action_moments(int(leaf))
        assert mean == pytest.approx(0.0)
        assert var == pytest.approx(3.0)  # path sum of unit variances
    assert state.posterior_precisions()[1] == pytest.approx(1.0)


def test_update_path_matches_rebuild_exactly(b2h2, b2h2_prior):
    rng = np.random.default_rng(0)
    cases = [(b2h2, b2h2_prior)]
    for _ in range(6):
        tree = random_tree(rng)
        cases.append((tree, random_scalar_prior(rng, tree)))
    # deep (8,191 nodes) and wide (64 children per parent: numpy's sum in _refresh) trees
    wide_rng = np.random.default_rng(1)
    for tree in (balanced_tree(2, 12), balanced_tree(64, 2)):
        cases.append((tree, random_scalar_prior(wide_rng, tree)))
    for tree, prior in cases:
        state = PosteriorState(tree, prior)
        for _ in range(60 if tree.num_nodes < 100 else 400):
            leaf = int(rng.choice(tree.action_nodes))
            state.update_path(leaf, float(rng.standard_normal()))
        # same reductions in the same order: bit-identical, not just close
        assert engine_bytes(state.rebuild()) == engine_bytes(state)


def test_update_path_input_checks(b2h2, b2h2_prior):
    state = PosteriorState(b2h2, b2h2_prior)
    with pytest.raises(HierarchyError):
        state.update_path(2, 1.0)  # internal node
    with pytest.raises(ValueError):
        state.update_path(4, float("nan"))
    with pytest.raises(ValueError, match=r"context must be None for the k-armed model, got shape \(2,\)"):
        state.update_path(4, 1.0, np.zeros(2))
    assert state.counts == [0.0] * 8  # a rejected update records nothing


def test_posterior_precisions_structure(b2h2, b2h2_prior):
    state = PosteriorState(b2h2, b2h2_prior)
    state.update_path(4, 1.0)
    prec = state.posterior_precisions()
    assert np.isnan(prec[0])
    assert prec[4] == pytest.approx(2.0)  # lam0 + 1 observation at noise 1
    assert prec[5] == pytest.approx(1.0)  # untouched sibling keeps its prior
    assert prec[2] > 1.0 and prec[3] == pytest.approx(1.0)


def test_marginals_match_oracle_during_run():
    tree = balanced_tree(3, 2)
    prior = constant_prior(tree, 1.7, noise_std=0.9, hyper_mean=-0.3)
    state = PosteriorState(tree, prior)
    joint = joint_prior(tree, prior)
    rng = np.random.default_rng(11)
    sigma_sq = prior.noise_std**2
    for _ in range(40):
        leaf = int(rng.choice(tree.action_nodes))
        y = float(rng.standard_normal())
        state.update_path(leaf, y)
        joint = condition(joint, [(leaf, y)], sigma_sq)
    marg = action_marginals(joint)
    for leaf in tree.action_nodes:
        mean, var = state.marginal_action_moments(int(leaf))
        assert mean == pytest.approx(marg[int(leaf)][0], rel=1e-9, abs=1e-9)
        assert var == pytest.approx(marg[int(leaf)][1], rel=1e-9)


@given(
    rewards=st.lists(st.floats(-5, 5), min_size=0, max_size=25),
    leaf_picks=st.lists(st.integers(0, 3), min_size=25, max_size=25),
    sigma0=st.floats(0.2, 4.0),
    noise=st.floats(0.3, 2.0),
)
@settings(max_examples=50, deadline=None)
def test_information_only_accumulates(rewards, leaf_picks, sigma0, noise):
    """Posterior precisions never drop and variances never rise with data."""
    tree = balanced_tree(2, 2)
    prior = constant_prior(tree, sigma0, noise_std=noise)
    state = PosteriorState(tree, prior)
    prev_prec = state.posterior_precisions()[1:]
    prev_vars = [state.marginal_action_moments(int(a))[1] for a in tree.action_nodes]
    for k, y in enumerate(rewards):
        leaf = int(tree.action_nodes[leaf_picks[k]])
        state.update_path(leaf, y)
        prec = state.posterior_precisions()[1:]
        assert (prec >= prev_prec - 1e-12).all()
        cur_vars = [state.marginal_action_moments(int(a))[1] for a in tree.action_nodes]
        for v_new, v_old in zip(cur_vars, prev_vars):
            assert v_new <= v_old + 1e-12
        prev_prec, prev_vars = prec, cur_vars
        # messages stay valid likelihood summaries
        for node in range(2, tree.num_nodes + 1):
            assert 0.0 <= state.msg_prec[node] < 1.0 / prior.node_variance[node] + 1e-12


@given(
    sigma0=st.floats(0.1, 5.0),
    noise=st.floats(0.1, 5.0),
    y=st.floats(-10, 10),
)
@settings(max_examples=80, deadline=None)
def test_single_observation_closed_form(sigma0, noise, y):
    """The observed leaf's marginal is plain scalar Bayes on its marginal prior.

    The reward depends on nothing but that leaf's parameter, so latent
    ancestors integrate out of its own marginal exactly.
    """
    tree = build_hierarchy({2: 1, 3: 1})
    prior = constant_prior(tree, sigma0, noise_std=noise)
    state = PosteriorState(tree, prior)
    state.update_path(2, y)
    mean, var = state.marginal_action_moments(2)
    s_marg = 2.0 * sigma0  # root + leaf edge
    expect_var = 1.0 / (1.0 / s_marg + 1.0 / noise**2)
    assert var == pytest.approx(expect_var, rel=1e-10)
    assert mean == pytest.approx(expect_var * y / noise**2, rel=1e-10, abs=1e-12)


def test_written_through_copies_equal_their_floats():
    """From the moment a state joins a LockstepDraw, each numpy copy is the floats' bits after every update.

    On b=2 h=8 the state writes through only the level loop's copies; its 257-node flat tree and b=16 h=2 also
    keep the messages of a wide parent's children. A rebuilt state keeps no level copies until it joins a
    LockstepDraw of its own, whose copies, built from its floats, equal the written-through ones.
    """
    rng = np.random.default_rng(8)
    deep = balanced_tree(2, 8)
    flat, flat_prior, _ = flatten_hierarchy(deep, doubling_prior(deep, noise_std=0.8, hyper_mean=0.4))
    wide = balanced_tree(16, 2)
    cases = [(deep, random_scalar_prior(rng, deep)), (flat, flat_prior), (wide, random_scalar_prior(rng, wide))]
    for tree, prior in cases:
        state = PosteriorState(tree, prior)
        assert state.level_copies is None
        posterior.LockstepDraw([state])
        levels = state.level_copies
        assert levels is not None
        engine_bytes(state)
        for step in range(400):
            state.update_path(int(rng.choice(tree.action_nodes)), float(rng.standard_normal() * 3.0))
            if step % 40 == 0:
                engine_bytes(state)
        assert state.level_copies is levels  # built once, then written through
        engine_bytes(state)
        fresh = state.rebuild()
        assert fresh.level_copies is None
        engine_bytes(fresh)
        posterior.LockstepDraw([fresh])
        engine_bytes(fresh)
        assert [a.tobytes() for a in fresh.level_copies] == [a.tobytes() for a in levels]


def test_level_copies_cover_only_what_the_level_loop_reads():
    """A state keeps no level copies until it joins a LockstepDraw: updates, draws and sized draws (which build
    their own arrays) add none. The level loop reads every node from the root, so the copies a state gets on
    joining cover every node, and its later updates, draws and sized draws keep the same copies."""
    rng = np.random.default_rng(9)
    deep, shallow = balanced_tree(2, 8), balanced_tree(2, 5)
    state = PosteriorState(deep, random_scalar_prior(rng, deep))
    floats = PosteriorState(shallow, random_scalar_prior(rng, shallow))
    for phase in range(2):
        for _ in range(100):
            for s, tree in ((state, deep), (floats, shallow)):
                s.update_path(int(rng.choice(tree.action_nodes)), float(rng.normal(0.0, 2.0)))
                hierts_sample(s, rng)
        hierts_sample(state, rng, 3)
        if phase == 0:
            assert state.level_copies is None
            cell = posterior.LockstepDraw([state])
            levels = state.level_copies
            assert cell.order == slice(1, 512) and all(a.shape == (512,) for a in levels)
    assert state.level_copies is levels
    assert floats.level_copies is None
    engine_bytes(state)
    engine_bytes(floats)


def test_numpy_rewards_stay_out_of_the_float_lists():
    """np.float64 rewards are summed into the tallies as Python floats, so no numpy scalar enters the walk."""
    rng = np.random.default_rng(3)
    for tree in (balanced_tree(2, 3), balanced_tree(16, 2)):
        state = PosteriorState(tree, random_scalar_prior(rng, tree))
        ref = PosteriorState(tree, state.prior)
        for _ in range(50):
            leaf, reward = int(rng.choice(tree.action_nodes)), np.float64(rng.standard_normal())
            state.update_path(leaf, reward)
            ref.update_path(leaf, float(reward))
        assert engine_bytes(state) == engine_bytes(ref)


@pytest.mark.parametrize("width", [8, 9, 16, 17, 31, 128, 129, 300])
def test_wide_pool_sums_like_numpy_over_view_or_gather(width):
    """A wide parent's pooled evidence is msg_*[children].sum(), bit for bit.

    Node 4's children are the width ids after the root's r extra leaves, so
    _refresh sums them as a slice view starting at id 5 + r; nodes 2 and 3 take
    turns over the 2 * width ids after those, so their children are gathered.
    """
    rng = np.random.default_rng(width)
    for r in range(4):
        parents = {2: 1, 3: 1, 4: 1}
        parents.update({5 + i: 1 for i in range(r)})
        parents.update({5 + r + i: 4 for i in range(width)})
        parents.update({5 + r + width + i: 2 + i % 2 for i in range(2 * width)})
        tree = build_hierarchy(parents)
        state = PosteriorState(tree, constant_prior(tree))
        assert state._children[4] == slice(5 + r, 5 + r + width)
        assert not isinstance(state._children[2], slice) and not isinstance(state._children[3], slice)
        n = tree.num_nodes + 1
        for _ in range(20):
            msgs = {"prec": np.abs(rng.standard_normal(n)) * 10.0 ** rng.uniform(-8, 8, n),
                    "wmean": rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)}
            # every message here is a wide parent's child's: set the floats and their numpy copies
            for (name, msg), array in zip(msgs.items(), state._msg_arrays):
                getattr(state, f"msg_{name}")[:] = msg.tolist()
                array[:] = msg
            for node in (2, 3, 4):
                state._refresh((node, 1))  # pools node's children; a refresh ends at the root
                ch = tree.children(node)
                for name, msg in msgs.items():
                    got = getattr(state, f"ev_{name}")[node]
                    assert type(got) is float and np.float64(got).tobytes() == msg[ch].sum().tobytes(), (name, node, r)


@pytest.mark.parametrize("n", range(1, SHORT_SUM_MAX + 1))
def test_numpy_short_sum_is_a_left_fold(n):
    """PosteriorState._refresh sums up to SHORT_SUM_MAX child messages in Python, left to right from 0.0.

    That is bit-identical to the numpy sum it replaces only while numpy sums
    that few float64 values in the same order.
    """
    rng = np.random.default_rng(n)
    draws = [np.full(n, -0.0)]
    draws += [rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n) for _ in range(3000)]
    for a in draws:
        fold = 0.0
        for x in a.tolist():
            fold += x
        assert np.float64(fold).tobytes() == a.sum(axis=0).tobytes(), (
            f"numpy no longer sums {n} float64 values left to right from 0.0; "
            "lower posterior.SHORT_SUM_MAX below this size"
        )


def test_numpy_pair_reduction_sums_each_row_alone():
    """PosteriorState._refresh sums a wide parent's two message rows with one reduction over a (2, m) pool: a
    slice view of _msg_pair when the child ids are consecutive, a take of them otherwise. Each row's sum must keep
    the bits of that row's own 1-D sum, on 3,000 random widths from 9 to 4,097 (past SHORT_SUM_MAX, where numpy
    sums pairwise). A fancy index on axis 1 gives a column-major copy instead, whose row sums take another order."""
    rng = np.random.default_rng(31)
    for _ in range(3000):
        m = int(rng.integers(SHORT_SUM_MAX + 2, 4098))
        pair = rng.standard_normal((2, m + 40)) * 10.0 ** rng.uniform(-8, 8, (2, m + 40))
        start = int(rng.integers(0, 41))
        ids = rng.permutation(m + 40)[:m]
        for pool, index in ((pair[:, start:start + m], slice(start, start + m)), (pair.take(ids, axis=1), ids)):
            got = np.add.reduce(pool, axis=1).tolist()
            assert got == [float(np.add.reduce(row[index])) for row in pair], (m, type(index).__name__)


def test_refresh_off_the_root_keeps_the_root_mean():
    """A refresh over nodes that does not reach the root leaves root_mean as it was: b=2 h=2 with hyper-mean 0.5
    reads a root mean of 0.875 (to rounding) after one reward of 2.0 on leaf 4, and refreshing leaf 4 alone keeps it."""
    tree = balanced_tree(2, 2)
    state = PosteriorState(tree, constant_prior(tree, 1.0, hyper_mean=0.5))
    state.update_path(4, 2.0)
    root_mean = state.root_mean
    assert root_mean == pytest.approx(0.875)
    state._refresh((4,))
    assert state.root_mean == root_mean


@pytest.mark.parametrize("seed", range(20))
def test_numpy_normal_draws_concatenate(seed):
    """The lockstep cell draws each stream's normals blocks ahead (harness._normal_blocks).

    That gives each round's draw bit for bit only while standard_normal(a + b) equals standard_normal(a)
    followed by standard_normal(b), and a draw into out= equals the draw it would return.
    """
    sizes = np.random.default_rng(1000 + seed).integers(0, 600, size=(50, 2))
    for a, b in sizes.tolist():
        whole = np.random.default_rng(seed).standard_normal(a + b)
        rng = np.random.default_rng(seed)
        parts = np.concatenate([rng.standard_normal(a), rng.standard_normal(b)])
        assert whole.tobytes() == parts.tobytes(), (a, b)
        buf = np.full(a + b + 7, np.nan)  # a leading slice of a longer row, as the blocks draw into
        np.random.default_rng(seed).standard_normal(a + b, out=buf[: a + b])
        assert buf[: a + b].tobytes() == whole.tobytes(), a + b
