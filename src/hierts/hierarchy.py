"""Rooted trees and Gaussian prior specifications for structured bandits.

A hierarchy is a rooted tree over nodes 1..num_nodes with the root fixed at
index 1. Leaves are the playable actions. Every node carries a conditional
prior variance (scalar) or covariance (d x d), and the model parameter of a
node is drawn around its parent's parameter with that variance.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "HierarchyError",
    "ConfigError",
    "Hierarchy",
    "PriorSpec",
    "build_hierarchy",
    "balanced_tree",
    "constant_prior",
    "doubling_prior",
    "marginal_prior_variances",
    "flatten_hierarchy",
    "load_tree_json",
    "tree_to_dict",
    "save_tree_json",
]

ROOT = 1

# Positive definiteness is accepted when the smallest eigenvalue clears this.
_SPD_TOL = 1e-10


class HierarchyError(ValueError):
    """A tree or prior specification violates a structural constraint."""


class ConfigError(HierarchyError):
    """A value read from a config or tree file failed validation; the message names the field."""


def _load_json_object(path: str | Path) -> dict:
    """Parse a JSON file that must hold an object; OSError passes through."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _is_int(value) -> bool:
    """Whether value is an integer (a Python or numpy one; bool excluded)."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _check_int(name: str, value) -> int:
    """value as an int if it is an integer (bool excluded), else a ConfigError naming the field."""
    if not _is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


# Python's own number types first: isinstance checks them without the slower ABC lookup.
_REAL = (float, int, numbers.Real)


def _check_real(name: str, value) -> float:
    """value as a float if it is a finite real number (bool excluded), else a ConfigError."""
    try:
        finite = not isinstance(value, bool) and isinstance(value, _REAL) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _bounded(ok, what: str, check=lambda name, value: value):
    """A field check: check, then a ConfigError unless ok(value) holds, saying the value must be what."""

    def bounded(name: str, value):
        value = check(name, value)
        if not ok(value):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return value

    return bounded


def _real_in(lo: float, hi: float):
    return _bounded(lambda v: lo <= v <= hi, f"in [{lo:g}, {hi:g}]", _check_real)


# Variances and noise levels beyond these magnitudes overflow or underflow the posterior arithmetic.
_SCALE_MIN, _SCALE_MAX = 1e-50, 1e50
_SCALE = _real_in(_SCALE_MIN, _SCALE_MAX)


def _id_map(name: str, doc, check=lambda name, value: value) -> tuple:
    """A JSON object keyed by node id, or (id, value) pairs, as sorted (int id, checked value) pairs."""
    doc = dict(doc) if isinstance(doc, tuple) else doc
    if not isinstance(doc, dict) or not all(str(k).isdecimal() for k in doc):
        raise ConfigError(f"'{name}' must be an object keyed by node id, got {doc!r}")
    return tuple(sorted((int(k), check(f"{name}.{k}", v)) for k, v in doc.items()))


def _real_array(name: str, value) -> np.ndarray:
    """A number, or an array or nested lists of numbers, as a float64 array; a ConfigError
    naming name unless every entry is a finite real number (bool excluded)."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf" and np.isfinite(value).all():
        return value.astype(np.float64)
    if isinstance(value, _REAL):
        return np.asarray(_check_real(name, value))
    entries = np.array(value, dtype=object)
    return np.array([_check_real(name, x) for x in entries.flat], dtype=np.float64).reshape(entries.shape)


@dataclass(frozen=True, eq=False)
class Hierarchy:
    """Immutable rooted tree held in flat arrays, with precomputed traversal structure.

    Attributes:
        num_nodes: total node count |V|; node ids are 1..num_nodes.
        parent: int array of shape (num_nodes + 1,), parent[1] = 0.
        parent_ids: parent as a tuple of ints, for walks on Python floats.
        child_start, child_ids: the children in CSR form, ascending per node:
            node v's are child_ids[child_start[v]:child_start[v + 1]], which
            children(v) returns; child_start has num_nodes + 2 entries.
        height: int array; leaves have height 0, root has the tree height.
        tree_height: height of the root.
        branching_factor: largest observed out-degree.
        action_nodes: leaf ids in ascending order; these are the actions.
        level_index: the non-root nodes grouped by height, descending, so
            parents always sit in an earlier level; per level, (node index,
            parent index, start, stop): the level's ids as a slice when they
            are contiguous (an id array otherwise), their parents' ids, and
            the level's span in a root-first, level-by-level run of
            num_nodes values (the root takes position 0).
        leaf_index: action_nodes as a slice when contiguous, else the array.
        sample_nodes, sample_parents: the non-root ids of that run
            (level_index's levels in turn) as a tuple of ints, and their
            parents' ids, for walks on Python floats.
        action_index: position of each leaf in action_nodes, -1 for the
            other ids, as a tuple (it is read once per round, and a tuple
            indexes faster than an array); action_position is its checked
            lookup.

    Root paths, common ancestors and subtree leaves are walked on request
    from parent_ids and the CSR arrays.
    """

    num_nodes: int
    parent: np.ndarray
    parent_ids: tuple[int, ...] = field(repr=False)
    child_start: np.ndarray = field(repr=False)
    child_ids: np.ndarray = field(repr=False)
    height: np.ndarray
    tree_height: int
    branching_factor: int
    action_nodes: np.ndarray
    level_index: tuple[tuple[slice | np.ndarray, np.ndarray, int, int], ...] = field(repr=False)
    leaf_index: slice | np.ndarray = field(repr=False)
    sample_nodes: tuple[int, ...] = field(repr=False)
    sample_parents: tuple[int, ...] = field(repr=False)
    action_index: tuple[int, ...] = field(repr=False)

    @property
    def num_actions(self) -> int:
        return int(self.action_nodes.size)

    def action_position(self, action: int) -> int:
        """Position of a leaf in action_nodes; HierarchyError for any id that is not a leaf."""
        j = self.action_index[action] if 1 <= action <= self.num_nodes else -1
        if j < 0:
            raise HierarchyError(f"action {action} is not a leaf")
        return j

    def children(self, node: int) -> np.ndarray:
        """Child ids of a node, ascending: a read-only view, empty for a leaf."""
        self._check_node(node)
        return self.child_ids[self.child_start[node] : self.child_start[node + 1]]

    def is_leaf(self, node: int) -> bool:
        self._check_node(node)
        return self.action_index[node] >= 0

    def path_to_root(self, node: int) -> np.ndarray:
        """Ids on the root-to-node path, root first, node last."""
        self._check_node(node)
        path, up = [], self.parent_ids
        while node:
            path.append(node)
            node = up[node]
        return np.array(path[::-1], dtype=np.int64)

    def lca(self, a: int, b: int) -> int:
        """Lowest common ancestor of two nodes."""
        above_a = set(self.path_to_root(a).tolist())
        self._check_node(b)
        while b not in above_a:
            b = self.parent_ids[b]
        return int(b)

    def subtree_leaves(self, node: int) -> np.ndarray:
        """Leaf ids below (or equal to) the given node, ascending."""
        self._check_node(node)
        start, out, stack = self.child_start, [], [node]
        while stack:
            cur = stack.pop()
            if start[cur] == start[cur + 1]:
                out.append(cur)
            else:
                stack.extend(self.child_ids[start[cur] : start[cur + 1]].tolist())
        return np.array(sorted(out), dtype=np.int64)

    def _check_node(self, node: int) -> None:
        if not 1 <= node <= self.num_nodes:
            raise HierarchyError(f"unknown node id {node}; valid ids are 1..{self.num_nodes}")


def build_hierarchy(parent_map: dict[int, int]) -> Hierarchy:
    """Build and validate a Hierarchy from a child -> parent map.

    The map must cover nodes 2..N exactly (the root, node 1, has no parent),
    with Python or numpy integers as ids (bools, floats and strings are
    rejected). Internal nodes need at least two children; the tree must
    reach every node from the root. Past these checks the build runs on
    whole arrays, with Python loops over depths and heights only.
    """
    if not parent_map:
        raise HierarchyError("tree must contain at least two action nodes besides the root")
    for child, par in parent_map.items():
        if not (_is_int(child) and _is_int(par)):
            raise HierarchyError(f"parent map entry {child!r}: {par!r}: node and parent ids must be integers")
    items = {int(k): int(v) for k, v in parent_map.items()}
    if ROOT in items:
        raise HierarchyError("the root (index 1) cannot appear as a child in the parent map")
    n = len(items) + 1
    if sorted(items) != list(range(2, n + 1)):
        missing = sorted(set(range(2, n + 1)) - set(items))
        extra = sorted(set(items) - set(range(2, n + 1)))
        raise HierarchyError(
            f"node ids must be exactly 1..{n}; missing parents for {missing}, out-of-range ids {extra}"
        )
    parent = np.zeros(n + 1, dtype=np.int64)
    for child, par in items.items():
        if not 1 <= par <= n:
            raise HierarchyError(f"node {child} references unknown parent {par}")
        parent[child] = par

    counts = np.bincount(parent[2:], minlength=n + 1)  # children per id; slot 0 counts none
    single = np.flatnonzero(counts == 1)
    if single.size:
        raise HierarchyError(f"node {single[0]} has exactly one child; internal nodes need at least two")

    # Pointer doubling: after j rounds up[v] is v's 2**j-th ancestor (0 once past the root) and depth[v]
    # counts the nodes below the root among those steps. Every root path has at most n steps, so a node
    # still short of 0 after n.bit_length() rounds sits on a cycle or below one.
    up, depth = parent.copy(), (parent > 0).astype(np.int64)
    for _ in range(n.bit_length()):
        if not up.any():
            break
        depth += depth[up]
        up = up[up]
    if up.any():
        bad = np.flatnonzero(up).tolist()
        raise HierarchyError(f"nodes {bad} are not reachable from the root (cycle in parent map)")

    by_depth = np.argsort(depth, kind="stable")
    ends = np.cumsum(np.bincount(depth)).tolist()  # by_depth[ends[d - 1]:ends[d]] are the nodes at depth d
    height = np.zeros(n + 1, dtype=np.int64)
    for lo, hi in reversed(list(zip(ends, ends[1:]))):  # deepest first, up to depth 1; slot 0 and the root have 0
        nodes = by_depth[lo:hi]
        np.maximum.at(height, parent[nodes], height[nodes] + 1)

    child_ids = np.argsort(parent[2:], kind="stable") + 2  # grouped by parent, ascending within a group
    child_start = np.concatenate(([0], np.cumsum(counts)))
    leaves = np.flatnonzero(counts[1:] == 0) + 1
    action_index = np.full(n + 1, -1, dtype=np.int64)
    action_index[leaves] = np.arange(leaves.size)
    # the root, then the other ids by height, descending, ascending within a height; every height below
    # the root's holds nodes, so the levels' sizes are the height counts from the top down
    order = np.concatenate(([ROOT], np.argsort(-height[2:], kind="stable") + 2))
    order_parents = parent[order]
    for arr in (parent, height, child_start, child_ids, leaves, order, order_parents):
        arr.setflags(write=False)
    edges = np.cumsum([1, *np.bincount(height[2:])[::-1]]).tolist()
    level_index = tuple((_as_index(order[a:b]), order_parents[a:b], a, b) for a, b in zip(edges, edges[1:]))

    return Hierarchy(
        num_nodes=n,
        parent=parent,
        parent_ids=tuple(parent.tolist()),
        child_start=child_start,
        child_ids=child_ids,
        height=height,
        tree_height=int(height[ROOT]),
        branching_factor=int(counts.max()),
        action_nodes=leaves,
        level_index=level_index,
        leaf_index=_as_index(leaves),
        sample_nodes=tuple(order[1:].tolist()),
        sample_parents=tuple(order_parents[1:].tolist()),
        action_index=tuple(action_index.tolist()),
    )


def _as_index(ids: np.ndarray) -> slice | np.ndarray:
    """A slice for strictly ascending consecutive ids (basic indexing gives views), else the ids."""
    if (np.diff(ids) == 1).all():
        return slice(int(ids[0]), int(ids[-1]) + 1)
    return ids


def balanced_tree(branching: int, tree_height: int) -> Hierarchy:
    """Complete b-ary tree of the given height with breadth-first numbering.

    Node 1 is the root, nodes at depth t occupy one contiguous index block,
    and the last branching**tree_height ids are the leaves.
    """
    if branching < 2:
        raise HierarchyError(f"branching factor must be at least 2, got {branching}")
    if tree_height < 1:
        raise HierarchyError(f"tree height must be at least 1, got {tree_height}")
    n = _balanced_size(branching, tree_height)
    return build_hierarchy({v: (v - 2) // branching + 1 for v in range(2, n + 1)})


# A tree keeps about 190 bytes per node, mostly the tuples of ints that the float walks read: balanced_tree
# builds 2**20 nodes in about 1.1 s at 0.43 GB peak RSS, its parent map included, and keeps 0.2 GB.
MAX_BALANCED_NODES = 2**20


def _balanced_size(branching: int, tree_height: int) -> int:
    """Node count of a complete b-ary tree, summed level by level (at most 20 of them, so branching**tree_height
    is never formed); ConfigError above MAX_BALANCED_NODES."""
    n = level = 1
    for _ in range(tree_height):
        level *= branching
        n += level
        if n > MAX_BALANCED_NODES:
            raise ConfigError(f"a balanced tree with branching factor {branching} and height {tree_height} has "
                              f"more than {MAX_BALANCED_NODES} nodes")
    return n


@dataclass(frozen=True, eq=False)
class PriorSpec:
    """Gaussian prior for a hierarchy.

    node_variance maps node ids to conditional prior variances, either
    finite positive numbers (K-armed model) or symmetric positive definite
    matrices (linear model). hyper_mean is the prior mean of the root
    parameter and noise_std the reward noise level. Every value is checked
    here, whichever source it comes from; HierarchyError names the node or
    field. variances() checks that the prior covers a given tree.
    """

    hyper_mean: float | np.ndarray
    node_variance: dict[int, float | np.ndarray]
    noise_std: float

    def __post_init__(self) -> None:
        if not self.node_variance:
            raise HierarchyError("node_variance must not be empty")
        _SCALE("noise_std", self.noise_std)
        normalized: dict[int, float | np.ndarray] = {}
        first = shape = None
        for node, value in self.node_variance.items():
            arr = _real_array(f"node {node} variance", value)
            if shape is None:
                first, shape = node, arr.shape
            elif arr.shape != shape:
                raise HierarchyError(f"node {node}: variance shape {arr.shape} differs from node {first}'s {shape}")
            if arr.ndim == 0:
                value = _SCALE(f"node {node} variance", float(arr))
            elif arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
                if not np.allclose(arr, arr.T, atol=1e-8):
                    raise HierarchyError(f"node {node}: covariance is not symmetric")
                value = 0.5 * (arr + arr.T)
                if np.linalg.eigvalsh(value).min() <= _SPD_TOL:
                    raise HierarchyError(f"node {node}: covariance is not positive definite")
                value.setflags(write=False)
            else:
                raise HierarchyError(f"node {node}: variance must be a scalar or a square matrix")
            normalized[int(node)] = value
        d = shape[0] if shape else 0
        mean = _real_array("hyper_mean", self.hyper_mean)
        if d == 0:
            if mean.ndim != 0:
                raise HierarchyError("scalar priors require a scalar hyper_mean")
            object.__setattr__(self, "hyper_mean", float(mean))
        else:
            if mean.ndim == 0:
                mean = np.full(d, float(mean))
            if mean.shape != (d,):
                raise HierarchyError(f"hyper_mean must have shape ({d},), got {mean.shape}")
            mean.setflags(write=False)
            object.__setattr__(self, "hyper_mean", mean)
        object.__setattr__(self, "node_variance", normalized)

    @property
    def is_scalar(self) -> bool:
        return isinstance(next(iter(self.node_variance.values())), float)

    @property
    def dim(self) -> int:
        value = next(iter(self.node_variance.values()))
        return 1 if isinstance(value, float) else value.shape[0]

    def variances(self, hierarchy: Hierarchy) -> np.ndarray:
        """The tree's conditional variances indexed by node id.

        Shape (num_nodes + 1,) with slot 0 NaN for a scalar prior, and
        (num_nodes + 1, d, d) with slot 0 the identity for a matrix prior.
        HierarchyError lists the nodes without a variance; ids beyond the
        tree are ignored.
        """
        nodes = range(1, hierarchy.num_nodes + 1)
        missing = [n for n in nodes if n not in self.node_variance]
        if missing:
            raise HierarchyError(f"prior is missing variances for nodes {missing}")
        slot0 = np.nan if self.is_scalar else np.eye(self.dim)
        return np.array([slot0] + [self.node_variance[n] for n in nodes])


def constant_prior(
    hierarchy: Hierarchy, value: float = 1.0, noise_std: float = 1.0, hyper_mean: float = 0.0
) -> PriorSpec:
    """Same conditional variance at every node."""
    variances = {node: float(value) for node in range(1, hierarchy.num_nodes + 1)}
    return PriorSpec(hyper_mean=hyper_mean, node_variance=variances, noise_std=noise_std)


def doubling_prior(
    hierarchy: Hierarchy, noise_std: float = 1.0, hyper_mean: float = 0.0
) -> PriorSpec:
    """Conditional variance 2**height(i), doubling from the leaves upward."""
    variances = {
        node: float(2.0 ** int(hierarchy.height[node])) for node in range(1, hierarchy.num_nodes + 1)
    }
    return PriorSpec(hyper_mean=hyper_mean, node_variance=variances, noise_std=noise_std)


def marginal_prior_variances(hierarchy: Hierarchy, prior: PriorSpec) -> np.ndarray:
    """Marginal prior variance of every node: the sum of variances on its root path.

    One top-down pass, a left fold from the root (as a path sum from zero).
    Shaped as PriorSpec.variances, whose coverage check it runs; slot 0 is
    unused.
    """
    variances = prior.variances(hierarchy)
    out = np.full_like(variances, np.nan)
    out[ROOT] = 0.0 + variances[ROOT]
    for nodes, parents, _, _ in hierarchy.level_index:
        out[nodes] = out[parents] + variances[nodes]
    return out


def flatten_hierarchy(
    hierarchy: Hierarchy, prior: PriorSpec
) -> tuple[Hierarchy, PriorSpec, dict[int, int]]:
    """Collapse a tree to two levels while keeping every leaf's marginal prior.

    The flat tree keeps the root variance and gives each leaf the remainder
    of its original marginal (marginal minus root), so the prior over actions
    is unchanged but all structure between root and leaves is discarded.
    Returns (flat_hierarchy, flat_prior, original_leaf -> flat_leaf map).
    A scalar remainder outside the variance range raises HierarchyError
    naming the leaf: a root variance that dwarfs the variances below it
    cancels the remainder to 0.
    """
    leaves = [int(a) for a in hierarchy.action_nodes]
    flat = build_hierarchy({j + 2: 1 for j in range(len(leaves))})
    to_flat = {leaf: j + 2 for j, leaf in enumerate(leaves)}
    root_var = prior.node_variance[ROOT]
    marginal = marginal_prior_variances(hierarchy, prior)
    variances: dict[int, float | np.ndarray] = {ROOT: root_var}
    for leaf in leaves:
        rest = variances[to_flat[leaf]] = marginal[leaf] - root_var
        if prior.is_scalar and not _SCALE_MIN <= rest <= _SCALE_MAX:
            why = "the root variance cancels" if rest < _SCALE_MIN else "the variances below the root overflow in"
            raise HierarchyError(
                f"{why} leaf {leaf}'s flat variance: FlatTS gives the leaf its marginal prior variance "
                f"{marginal[leaf]:g} minus the root's {root_var:g}, which is {rest:g} in floating point, "
                f"outside [{_SCALE_MIN:g}, {_SCALE_MAX:g}]"
            )
    flat_prior = PriorSpec(
        hyper_mean=prior.hyper_mean, node_variance=variances, noise_std=prior.noise_std
    )
    return flat, flat_prior, to_flat


def tree_to_dict(
    hierarchy: Hierarchy,
    prior: PriorSpec | None = None,
    label_map: dict[str, int] | None = None,
) -> dict:
    """JSON-serializable description of a tree, optionally with prior and labels."""
    doc: dict = {
        "parents": {str(i): int(hierarchy.parent[i]) for i in range(2, hierarchy.num_nodes + 1)}
    }
    if prior is not None:
        doc["prior"] = {
            "hyper_mean": np.asarray(prior.hyper_mean).tolist(),
            "noise_std": prior.noise_std,
            "node_variance": {str(node): np.asarray(v).tolist() for node, v in prior.node_variance.items()},
        }
    if label_map is not None:
        doc["label_map"] = {str(k): int(v) for k, v in label_map.items()}
    return doc


def save_tree_json(
    path: str | Path,
    hierarchy: Hierarchy,
    prior: PriorSpec | None = None,
    label_map: dict[str, int] | None = None,
) -> None:
    Path(path).write_text(json.dumps(tree_to_dict(hierarchy, prior, label_map), indent=2) + "\n")


def load_tree_json(path: str | Path) -> tuple[Hierarchy, PriorSpec | None, dict[str, int] | None]:
    """Load a tree file; returns (hierarchy, prior or None, label_map or None).

    Ids and label_map values must be integers and the prior must pass PriorSpec and cover
    every node, as in a config; errors name the file and the field or node.
    """
    doc = _load_json_object(path)
    try:
        hierarchy = build_hierarchy(dict(_id_map("parents", doc.get("parents"), _check_int)))
        prior = None
        if "prior" in doc:
            spec = doc["prior"]
            if not isinstance(spec, dict) or not {"hyper_mean", "noise_std", "node_variance"} <= spec.keys():
                raise ConfigError(f"'prior' must hold hyper_mean, noise_std and node_variance, got {spec!r}")
            prior = PriorSpec(
                hyper_mean=spec["hyper_mean"],
                node_variance=dict(_id_map("node_variance", spec["node_variance"])),
                noise_std=spec["noise_std"],
            )
            prior.variances(hierarchy)  # HierarchyError unless every node has a variance
        label_map = None
        if "label_map" in doc:
            labels = doc["label_map"]
            if not isinstance(labels, dict):
                raise ConfigError(f"'label_map' must map labels to leaf ids, got {labels!r}")
            label_map = {str(k): _check_int(f"label_map.{k}", v) for k, v in labels.items()}
            for label, node in label_map.items():
                if not 1 <= node <= hierarchy.num_nodes or not hierarchy.is_leaf(node):
                    raise HierarchyError(f"label '{label}' maps to non-leaf node {node}")
    except HierarchyError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return hierarchy, prior, label_map
