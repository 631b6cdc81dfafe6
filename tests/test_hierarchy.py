import json

import numpy as np
import pytest
from conftest import ODD_VALUES
from reference import suite_trees
from hypothesis import given, settings, strategies as st

from hierts import (
    Hierarchy,
    HierarchyError,
    PriorSpec,
    balanced_tree,
    build_hierarchy,
    constant_prior,
    doubling_prior,
    flatten_hierarchy,
    load_tree_json,
    marginal_prior_variances,
    save_tree_json,
)
from hierts.checks import random_linear_prior, random_scalar_prior, random_tree
from hierts.hierarchy import MAX_BALANCED_NODES, ConfigError, _as_index, _balanced_size, tree_to_dict
from hierts.posterior import SHORT_SUM_MAX, LockstepDraw, PosteriorState


def test_build_basic_shape(two_leaf):
    tree, _ = two_leaf
    assert tree.num_nodes == 3
    assert tree.num_actions == 2
    assert tree.tree_height == 1
    assert list(tree.action_nodes) == [2, 3]
    assert tree.parent[2] == 1 and tree.parent[3] == 1
    assert tree.is_leaf(2) and not tree.is_leaf(1)


def test_balanced_tree_counts():
    tree = balanced_tree(5, 2)
    assert tree.num_nodes == 31
    assert tree.num_actions == 25
    assert tree.tree_height == 2
    assert tree.branching_factor == 5
    # breadth-first blocks: root, 5 internals, 25 leaves
    assert list(tree.action_nodes) == list(range(7, 32))


def test_path_and_lca(b2h2):
    assert list(b2h2.path_to_root(4)) == [1, 2, 4]
    assert b2h2.lca(4, 5) == 2
    assert b2h2.lca(4, 6) == 1
    assert b2h2.lca(4, 4) == 4
    assert list(b2h2.subtree_leaves(2)) == [4, 5]
    assert list(b2h2.subtree_leaves(1)) == [4, 5, 6, 7]


def test_heights_and_levels(b2h2):
    assert list(b2h2.height[1:]) == [2, 1, 1, 0, 0, 0, 0]
    # levels exclude the root, descend by height, parents first
    ids = np.arange(b2h2.num_nodes + 1)
    levels = [list(ids[idx]) for idx, _, _, _ in b2h2.level_index]
    assert levels == [[2, 3], [4, 5, 6, 7]]
    # contiguous levels index by slice; spans follow the root's position 0
    assert [(idx, list(par), start, stop) for idx, par, start, stop in b2h2.level_index] == [
        (slice(2, 4), [1, 1], 1, 3),
        (slice(4, 8), [2, 2, 3, 3], 3, 7),
    ]
    assert b2h2.leaf_index == slice(4, 8)
    assert b2h2.sample_nodes == (2, 3, 4, 5, 6, 7)


def test_as_index_takes_a_slice_only_for_a_strict_run():
    for ids, want in (([5], slice(5, 6)), ([2, 3, 4], slice(2, 5)), ([1, 3, 2, 4], None),
                      ([4, 3, 2], None), ([2, 2, 3], None), ([2, 4, 6], None)):
        got = _as_index(np.array(ids, dtype=np.int64))
        if want is None:
            assert np.array_equal(got, ids)
        else:
            assert got == want
    # leaves at depths 1, 2 and 3: the root-first order of the lockstep level loop is 1, 3, 4, 5, 2, 6, ...
    tree = build_hierarchy({2: 1, 3: 1, 4: 1, 5: 3, 6: 3, 7: 5, 8: 5, 9: 4, 10: 4})
    assert tree.sample_nodes == (3, 4, 5, 2, 6, 7, 8, 9, 10)
    assert list(LockstepDraw([PosteriorState(tree, constant_prior(tree))]).order) == [1, 3, 4, 5, 2, 6, 7, 8, 9, 10]


CYCLE = {2: 3, 3: 2, 4: 2, 5: 3, 6: 1, 7: 1, 8: 4, 9: 4}  # 2 and 3 parent each other; 4, 5, 8, 9 hang below


@pytest.mark.parametrize(
    "parents, message",
    [
        ({}, "tree must contain at least two action nodes besides the root"),
        ({3: 1}, r"node ids must be exactly 1..2; missing parents for \[2\], out-of-range ids \[3\]"),
        ({2: 1, 3: 2}, "node 1 has exactly one child; internal nodes need at least two"),
        ({2: 1, 3: 1, 4: 9}, "node 4 references unknown parent 9"),
        # 2 and 3 form a cycle, but each has a single child, which is reported first
        ({2: 3, 3: 2, 4: 1, 5: 1}, "node 2 has exactly one child; internal nodes need at least two"),
        ({1: 2, 2: 1, 3: 1}, r"the root \(index 1\) cannot appear as a child in the parent map"),
        (CYCLE, r"nodes \[2, 3, 4, 5, 8, 9\] are not reachable from the root \(cycle in parent map\)"),
    ],
    ids=[f"parents{i}" for i in range(7)],
)
def test_build_rejects_malformed(parents, message):
    with pytest.raises(HierarchyError, match=f"^{message}$"):
        build_hierarchy(parents)


def test_build_reports_unknown_parent_then_single_child_then_cycle():
    """A map with all three faults reports the unknown parent; mended one by one, the single child, then the cycle."""
    parents = {**CYCLE, 10: 6, 11: 99}  # node 6 has the single child 10, and 11's parent does not exist
    with pytest.raises(HierarchyError, match="^node 11 references unknown parent 99$"):
        build_hierarchy(parents)
    parents[11] = 7  # now node 7 has a single child too; the lowest such id is named
    with pytest.raises(HierarchyError, match="^node 6 has exactly one child; internal nodes need at least two$"):
        build_hierarchy(parents)
    parents.update({12: 6, 13: 7})
    with pytest.raises(HierarchyError, match=r"^nodes \[2, 3, 4, 5, 8, 9\] are not reachable from the root"):
        build_hierarchy(parents)


@pytest.mark.parametrize(
    "parents, entry",
    [
        ({2: 1.9, 3: 1.2, "4": "3", 5: 3}, "entry 2: 1.9"),  # was built with parents [1, 1, 3, 3]
        ({2: 1, 3: 1, "4": 3, 5: 3}, "entry '4': 3"),
        ({2: True, 3: 1}, "entry 2: True"),
        ({2: 1, True: 1}, "entry True: 1"),
        ({2: 1, 3: None}, "entry 3: None"),
    ],
    ids=["float-parent", "str-id", "bool-parent", "bool-id", "none-parent"],
)
def test_build_rejects_non_integer_ids(parents, entry):
    with pytest.raises(HierarchyError, match=f"parent map {entry}: node and parent ids must be integers"):
        build_hierarchy(parents)


def test_build_accepts_numpy_integer_ids():
    tree = build_hierarchy({np.int64(2): np.int32(1), np.int16(3): 1})
    assert tree.num_nodes == 3 and list(tree.children(1)) == [2, 3]


def test_node_bounds_checked(two_leaf):
    tree, _ = two_leaf
    with pytest.raises(HierarchyError):
        tree.is_leaf(0)
    with pytest.raises(HierarchyError):
        tree.path_to_root(4)


def test_balanced_tree_rejects_bad_shape():
    with pytest.raises(HierarchyError):
        balanced_tree(1, 2)
    with pytest.raises(HierarchyError):
        balanced_tree(2, 0)


def test_balanced_tree_size_limit_is_checked_before_building():
    """The node count is summed level by level, so a huge height fails at once instead of forming 2**10**9."""
    assert _balanced_size(2, 19) == 2**20 - 1 and MAX_BALANCED_NODES == 2**20
    assert _balanced_size(1023, 2) == 1 + 1023 + 1023**2
    for b, h in ((2, 20), (1024, 2), (2, 10**9), (10**100, 1)):
        with pytest.raises(ConfigError, match=f"branching factor {b} and height {h} has more than 1048576 nodes"):
            balanced_tree(b, h)


def test_prior_spec_scalar_validation(two_leaf):
    tree, _ = two_leaf
    with pytest.raises(HierarchyError):
        PriorSpec(hyper_mean=0.0, node_variance={1: 1.0, 2: -1.0, 3: 1.0}, noise_std=1.0)
    with pytest.raises(HierarchyError):
        PriorSpec(hyper_mean=0.0, node_variance={1: 1.0, 2: 1.0, 3: 1.0}, noise_std=0.0)
    with pytest.raises(HierarchyError):
        PriorSpec(hyper_mean=0.0, node_variance={}, noise_std=1.0)
    for bad in (True, "x", None, [1.0], float("nan")):
        with pytest.raises(HierarchyError, match="node 2"):
            PriorSpec(hyper_mean=0.0, node_variance={1: 1.0, 2: bad, 3: 1.0}, noise_std=1.0)
    for field, kwargs in (("noise_std", {"noise_std": "x"}), ("hyper_mean", {"hyper_mean": True})):
        with pytest.raises(HierarchyError, match=field):
            PriorSpec(**{"hyper_mean": 0.0, "node_variance": {1: 1.0}, "noise_std": 1.0, **kwargs})
    prior = constant_prior(tree, 2.5, noise_std=0.7)
    assert prior.is_scalar and prior.dim == 1
    vec = prior.variances(tree)
    assert vec.shape == (4,) and np.isnan(vec[0]) and (vec[1:] == 2.5).all()
    with pytest.raises(HierarchyError, match=r"missing variances for nodes \[4, 5\]"):
        prior.variances(build_hierarchy({2: 1, 3: 1, 4: 3, 5: 3}))
    # ids beyond the tree are ignored
    assert np.array_equal(constant_prior(balanced_tree(2, 2), 2.5).variances(tree), vec, equal_nan=True)


def test_prior_spec_matrix_validation():
    asym = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(HierarchyError):
        PriorSpec(hyper_mean=np.zeros(2), node_variance={1: asym, 2: np.eye(2), 3: np.eye(2)}, noise_std=1.0)
    semidef = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(HierarchyError):
        PriorSpec(hyper_mean=np.zeros(2), node_variance={1: semidef, 2: np.eye(2), 3: np.eye(2)}, noise_std=1.0)
    mixed = {1: 1.0, 2: np.eye(2), 3: np.eye(2)}
    with pytest.raises(HierarchyError):
        PriorSpec(hyper_mean=0.0, node_variance=mixed, noise_std=1.0)
    # scalar hyper mean broadcasts to the matrix dimension
    prior = PriorSpec(hyper_mean=0.5, node_variance={1: np.eye(3), 2: np.eye(3), 3: np.eye(3)}, noise_std=1.0)
    assert not prior.is_scalar and prior.dim == 3
    assert np.array_equal(prior.hyper_mean, np.full(3, 0.5))
    stack = prior.variances(build_hierarchy({2: 1, 3: 1}))
    assert stack.shape == (4, 3, 3) and (stack == np.eye(3)).all()  # slot 0 is the identity
    bool_entry = [[1.0, True], [True, 1.0]]
    with pytest.raises(HierarchyError, match="node 2 variance must be a finite number, got True"):
        PriorSpec(hyper_mean=np.zeros(2), node_variance={1: np.eye(2), 2: bool_entry}, noise_std=1.0)
    with pytest.raises(HierarchyError, match="node 1 variance"):
        PriorSpec(hyper_mean=np.zeros(2), node_variance={1: [[1.0, 0.0], [0.0]]}, noise_std=1.0)
    with pytest.raises(HierarchyError, match="hyper_mean"):
        PriorSpec(hyper_mean=[0.0, "x"], node_variance={1: np.eye(2)}, noise_std=1.0)


def test_action_position_is_a_checked_leaf_lookup(b2h2):
    assert [b2h2.action_position(int(a)) for a in b2h2.action_nodes] == [0, 1, 2, 3]
    assert b2h2.action_position(np.int64(7)) == 3
    for bad in (1, 2, 0, -1, b2h2.num_nodes + 1):
        with pytest.raises(HierarchyError, match=rf"action {bad} is not a leaf"):
            b2h2.action_position(bad)


def test_marginal_prior_variance_sums_path(b2h2):
    prior = constant_prior(b2h2, 1.0)
    assert marginal_prior_variances(b2h2, prior)[4] == pytest.approx(3.0)
    assert marginal_prior_variances(b2h2, prior)[2] == pytest.approx(2.0)
    dbl = doubling_prior(b2h2)
    # 2^2 + 2^1 + 2^0, the exact path sum rather than the rounded power of two
    assert marginal_prior_variances(b2h2, dbl)[4] == pytest.approx(7.0)


def test_marginal_prior_variances_match_path_sums():
    """The top-down pass gives every node its root-path sum, bit for bit."""
    rng = np.random.default_rng(4)
    trees = [balanced_tree(3, 2)] + [random_tree(rng) for _ in range(5)]
    for tree in trees:
        for prior in (random_scalar_prior(rng, tree), random_linear_prior(rng, tree, 3)):
            got = marginal_prior_variances(tree, prior)
            for node in range(1, tree.num_nodes + 1):
                want = 0.0
                for i in tree.path_to_root(node):
                    want = want + prior.node_variance[int(i)]
                assert np.array_equal(got[node], want)
            assert np.isnan(got[0]).all()


def test_marginal_prior_covariance(linear_prior, b2h2):
    total = marginal_prior_variances(b2h2, linear_prior)[5]
    expect = sum(linear_prior.node_variance[i] for i in (1, 2, 5))
    assert np.allclose(total, expect, atol=1e-12)


def test_flatten_preserves_marginals(b2h2):
    prior = doubling_prior(b2h2)
    flat, flat_prior, to_flat = flatten_hierarchy(b2h2, prior)
    assert flat.num_nodes == b2h2.num_actions + 1
    assert flat.tree_height == 1
    flat_marginal = marginal_prior_variances(flat, flat_prior)
    marginal = marginal_prior_variances(b2h2, prior)
    for leaf in b2h2.action_nodes:
        got = flat_marginal[to_flat[int(leaf)]]
        want = marginal[int(leaf)]
        assert got == pytest.approx(want, rel=1e-12)
    assert flat_prior.node_variance[1] == prior.node_variance[1]


def test_flatten_names_a_leaf_whose_flat_variance_is_out_of_range():
    """A flat leaf's variance is its marginal minus the root's, as computed; out of range it names the leaf."""
    tree = balanced_tree(2, 1)
    for root, leaf in ((1e17, 1.0), (1e20, 1e3)):  # 1e17 + 1.0 - 1e17 is 0.0
        prior = PriorSpec(0.0, {1: root, 2: 1.0, 3: leaf}, noise_std=1.0)
        with pytest.raises(HierarchyError, match="the root variance cancels leaf 2's flat variance"):
            flatten_hierarchy(tree, prior)
    deep = balanced_tree(2, 2)
    prior = PriorSpec(0.0, {n: 1.0 if n == 1 else 1e50 for n in range(1, 8)}, noise_std=1.0)
    with pytest.raises(HierarchyError, match="below the root overflow in leaf 4's flat variance"):
        flatten_hierarchy(deep, prior)
    # in range, a remainder is the subtraction's result, rounding included: 1e16 + 3.0 rounds to 1e16 + 4.0
    prior = PriorSpec(0.0, {1: 1e16, 2: 4.0, 3: 3.0}, noise_std=1.0)
    _, flat_prior, to_flat = flatten_hierarchy(tree, prior)
    assert flat_prior.node_variance[to_flat[2]] == flat_prior.node_variance[to_flat[3]] == 4.0


def test_tree_json_roundtrip(tmp_path, b2h2):
    prior = doubling_prior(b2h2, noise_std=0.5, hyper_mean=0.25)
    labels = {"a": 4, "b": 5, "c": 6, "d": 7}
    path = tmp_path / "tree.json"
    save_tree_json(path, b2h2, prior, labels)
    tree2, prior2, labels2 = load_tree_json(path)
    assert tree2.num_nodes == b2h2.num_nodes
    assert np.array_equal(tree2.parent, b2h2.parent)
    assert prior2 is not None and prior2.noise_std == 0.5
    assert prior2.node_variance == prior.node_variance
    assert labels2 == labels


def test_tree_json_matrix_roundtrip(tmp_path, b2h2, linear_prior):
    path = tmp_path / "tree.json"
    save_tree_json(path, b2h2, linear_prior)
    _, prior2, _ = load_tree_json(path)
    for node in range(1, b2h2.num_nodes + 1):
        assert np.allclose(prior2.node_variance[node], linear_prior.node_variance[node])


def test_tree_json_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"parents": {"2": 1,}}')
    with pytest.raises(HierarchyError, match="line 1"):
        load_tree_json(bad)
    bad.write_text('{"nodes": []}')
    with pytest.raises(HierarchyError, match="parents"):
        load_tree_json(bad)
    bad.write_text('{"parents": {"2": 1, "3": 1}, "label_map": {"x": 1}}')
    with pytest.raises(HierarchyError, match="non-leaf"):
        load_tree_json(bad)
    bad.write_text('{"parents": {"2": 1, "3": 1}, "prior": {"hyper_mean": 0, "noise_std": 1, "node_variance": {"1": 1}}}')
    with pytest.raises(HierarchyError, match="missing variances"):
        load_tree_json(bad)
    # each of these was once accepted (truncated or coerced) or rejected without naming the field
    prior = '"prior": {"hyper_mean": 0, "noise_std": 1, "node_variance": {"1": 1, "2": 1, "3": 1}}'
    for text, field in [
        ('{"parents": {"2": 1.9, "3": 1}}', "parents.2 must be an integer"),
        ('{"parents": {"2": 1, "3": 1}, ' + prior.replace('"2": 1,', '"2": true,') + "}", "node 2 variance"),
        ('{"parents": {"2": 1, "3": 1}, "label_map": {"x": 3.7}}', "label_map.x must be an integer"),
        ('{"parents": {"2": 1, "3": 1}, ' + prior.replace('"noise_std": 1', '"noise_std": "x"') + "}", "noise_std"),
        ('{"parents": {"2": 1, "3": 1}, ' + prior.replace('"hyper_mean": 0', '"hyper_mean": true') + "}", "hyper_mean"),
        ('{"parents": {"2": 1, "3": 1}, "prior": [1]}', "'prior'"),
        ('{"parents": {"2": 1, "3": 1}, "label_map": ["x"]}', "'label_map'"),
        ('{"parents": {"2": 1, "3": 1}, ' + prior.replace('{"1": 1,', '{"one": 1,') + "}", "'node_variance'"),
    ]:
        bad.write_text(text)
        with pytest.raises(HierarchyError, match=field):
            load_tree_json(bad)


@given(
    where=st.sampled_from(["parent", "variance", "noise_std", "hyper_mean", "label"]),
    node=st.integers(2, 7),
    value=ODD_VALUES,
    linear=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_tree_file_fuzz_loads_or_names_the_field(tmp_path_factory, where, node, value, linear):
    """One field of a valid tree file replaced by an odd value: loads, or HierarchyError naming it."""
    tree = balanced_tree(2, 2)
    variance = np.eye(2) if linear else 1.0
    prior = PriorSpec(np.zeros(2) if linear else 0.0, {n: variance for n in range(1, 8)}, noise_std=1.0)
    doc = tree_to_dict(tree, prior, {"a": 4, "b": 5})
    if where == "parent":
        doc["parents"][str(node)], field = value, f"parents.{node}"
    elif where == "variance":
        doc["prior"]["node_variance"][str(node)], field = value, f"node {node}"
    elif where == "label":
        doc["label_map"]["a"], field = value, "label_map.a"
    else:
        doc["prior"][where], field = value, where
    path = tmp_path_factory.mktemp("fuzz") / "tree.json"
    path.write_text(json.dumps(doc))  # NaN and inf go out as bare NaN/Infinity, which json reads back
    try:
        load_tree_json(path)
    except HierarchyError as exc:
        assert field in str(exc), str(exc)


@st.composite
def random_parent_maps(draw):
    """Grow a valid tree child-by-child, always appending >= 2 children."""
    n_internal = draw(st.integers(0, 6))
    parents: dict[int, int] = {2: 1, 3: 1}
    nxt = 4
    for _ in range(n_internal):
        limit = nxt - 1
        target = draw(st.integers(1, limit))
        fanout = draw(st.integers(2, 4))
        for _ in range(fanout):
            parents[nxt] = target
            nxt += 1
    return parents


def _tree_maps():
    """The strategy's maps, and the maps of checks.random_tree trees, whose leaves sit at mixed depths."""

    def random_tree_map(seed):
        tree = random_tree(np.random.default_rng(seed), max_levels=5, max_nodes=40)
        return {v: int(tree.parent[v]) for v in range(2, tree.num_nodes + 1)}

    return st.one_of(random_parent_maps(), st.integers(0, 2**32 - 1).map(random_tree_map))


@given(_tree_maps())
@settings(max_examples=80, deadline=None)
def test_structure_invariants(parents):
    tree = build_hierarchy(parents)
    n = tree.num_nodes
    assert n == len(parents) + 1
    # every non-root node appears in exactly one sampling level
    ids = np.arange(n + 1)
    levels = [ids[idx] for idx, _, _, _ in tree.level_index]
    flat = np.concatenate(levels)
    assert sorted(flat.tolist()) == list(range(2, n + 1))
    heights = [tree.height[level].max() for level in levels]
    assert heights == sorted(heights, reverse=True)
    # a node of height h >= 1 has a child of height h - 1, so each level is at least as wide as the one above it
    assert [level.size for level in levels] == sorted(level.size for level in levels)
    start = 1
    for level, (_, level_parents, lo, hi) in zip(levels, tree.level_index):
        assert np.array_equal(level, np.sort(level))
        assert np.array_equal(level_parents, tree.parent[level])
        assert (lo, hi) == (start, start + level.size)
        start = hi
    assert start == n
    assert np.array_equal(ids[tree.leaf_index], tree.action_nodes)
    assert list(tree.sample_nodes) == flat.tolist()
    # the accessors against plain scans of the parent map
    kids = {v: [c for c in range(2, n + 1) if parents[c] == v] for v in range(1, n + 1)}
    paths = {}
    for v in range(1, n + 1):
        path, u = [], v
        while u != 1:
            path.append(u)
            u = parents[u]
        paths[v] = [1] + path[::-1]
    for v in range(1, n + 1):
        assert tree.children(v).tolist() == kids[v]
        assert tree.is_leaf(v) == (not kids[v])
        assert tree.path_to_root(v).tolist() == paths[v]
        assert tree.subtree_leaves(v).tolist() == [a for a in range(1, n + 1) if not kids[a] and v in paths[a]]
        # heights strictly decrease along any root path
        assert (np.diff(tree.height[paths[v]]) < 0).all()
        assert tree.height[v] == (0 if not kids[v] else 1 + max(tree.height[c] for c in kids[v]))
        for w in range(1, n + 1):
            common = [a for a, b in zip(paths[v], paths[w]) if a == b]
            assert tree.lca(v, w) == common[-1]
    assert tree.action_nodes.tolist() == [v for v in range(1, n + 1) if not kids[v]]
    assert tree.branching_factor == max(len(k) for k in kids.values())
    assert tree.tree_height == max(len(p) for p in paths.values()) - 1
    assert n <= 2 * tree.num_actions  # no single-child chains


def test_reference_suite_trees():
    """tests/test_reference.py's fixed trees have the layouts it runs every engine on. The gapped tree's one-node
    levels put ids 3 and 5 first. Each wide mixed tree has leaves at mixed depths, levels of both index kinds,
    and wide parents whose child ids are a slice and an id array. The boundary tree pools SHORT_SUM_MAX and
    SHORT_SUM_MAX + 1 children, and b=2 h=8's flat tree 256 at the root."""
    trees = suite_trees()
    assert [idx for idx, _, _, _ in trees["gapped"].level_index][:2] == [slice(3, 4), slice(5, 6)]
    for name in ("wide-mixed-0", "wide-mixed-1", "wide-mixed-2"):
        tree = trees[name]
        assert len({tree.path_to_root(leaf).size for leaf in tree.action_nodes.tolist()}) > 1
        assert {type(nodes) for nodes, _, _, _ in tree.level_index} == {slice, np.ndarray}
        wide = [tree.children(v) for v in range(1, tree.num_nodes + 1) if tree.children(v).size > SHORT_SUM_MAX]
        assert {type(_as_index(ids)) for ids in wide} == {slice, np.ndarray}
    widths = {trees["boundary"].children(v).size for v in range(1, trees["boundary"].num_nodes + 1)}
    assert widths == {0, SHORT_SUM_MAX, SHORT_SUM_MAX + 1}
    assert trees["flat-b2h8"].children(1).size == 256
    for tree in trees.values():
        sizes = [stop - start for _, _, start, stop in tree.level_index]
        assert sizes == sorted(sizes)
