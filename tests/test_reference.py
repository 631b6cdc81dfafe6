"""Every posterior engine against tests/reference.py, in bytes.

Each case feeds one update stream (one to three for the scalar model) to a reference and to each engine, and
after every chunk of updates compares every cached float and array (engine_bytes) and every draw, in bytes and
generator position, with the reference's draw from the same normals. The engines, per stream:
- a PosteriorState or LinearPosteriorState, drawing on its own caches;
- a state replaced by its rebuild() after every chunk, then fed the next one;
- scalar model: a state that joins one LockstepDraw of all streams after the first chunk; its column is drawn
  too, and its own draw;
- a TSAgent, scalar or matrix prior, whose act draws are read at the argmax;
- scalar model: a TSAgent that joins TSAgent.lockstep after the first chunk; its column is drawn too.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import LinearReference, ScalarReference, TSReference, engine_bytes, suite_trees

from hierts import (
    LinearPosteriorState,
    PosteriorState,
    TSAgent,
    constant_prior,
    doubling_prior,
    hierts_sample,
)
from hierts import agents
from hierts.checks import random_linear_prior, random_scalar_prior, random_tree
from hierts.posterior import LockstepDraw

# the scalar priors, then the linear model's dimensions
PRIORS = ("constant", "doubling", "random", 1, 2, 3)
TREES = suite_trees()


def _prior(rng, tree, kind):
    noise_std, hyper_mean = float(rng.uniform(0.5, 1.5)), float(rng.uniform(-1.0, 1.0))
    if kind == "constant":
        return constant_prior(tree, float(rng.uniform(0.2, 3.0)), noise_std=noise_std, hyper_mean=hyper_mean)
    if kind == "doubling":
        return doubling_prior(tree, noise_std=noise_std, hyper_mean=hyper_mean)
    if kind == "random":
        return random_scalar_prior(rng, tree)
    return random_linear_prior(rng, tree, kind)


@pytest.fixture(scope="module")
def recorded():
    """The draws that TS agents' act hands to the argmax, which records them here (the module's tests only)."""
    drawn = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(agents, "_argmax_score", lambda values, context: drawn.append(values.copy()) or 0)
        yield drawn


def _draw(engine, rng, recorded):
    """The engine's draw from rng; a TS agent's is the one its act hands to the argmax."""
    if not isinstance(engine, TSAgent):
        return hierts_sample(engine, rng)
    engine.rng = rng
    engine.act(None if engine._scalar else np.ones(engine.dim))
    return recorded.pop()


def _check_engines(tree, prior, rng, recorded):
    scalar, d = prior.is_scalar, prior.dim
    n, k = tree.num_nodes, tree.num_actions
    State, Reference = (PosteriorState, ScalarReference) if scalar else (LinearPosteriorState, LinearReference)
    streams = range(int(rng.integers(1, 4)) if scalar else 1)  # the lockstep draws' columns
    refs = [(Reference(tree, prior), TSReference(tree, prior)) for _ in streams]
    # per stream: [own draws, rebuilt, lockstep column] states and [own draws, lockstep column] TS agents
    states = [[State(tree, prior) for _ in range(3 if scalar else 2)] for _ in streams]
    arms = [[TSAgent(tree, prior, None) for _ in range(2 if scalar else 1)] for _ in streams]
    per_chunk = max(12, k // 8)
    for chunk in range(4):  # before any update, then after each of three chunks
        if chunk:
            for j in streams:
                for _ in range(per_chunk):
                    leaf, reward = int(rng.choice(tree.action_nodes)), float(rng.normal(0.0, 2.0))
                    context = None if scalar else rng.standard_normal(d)
                    for engine in (*refs[j], *states[j], *arms[j]):
                        (engine.update if hasattr(engine, "update") else engine.update_path)(leaf, reward, context)
                states[j][1] = states[j][1].rebuild()
        if chunk == 1 and scalar:
            assert all(stream[2].level_copies is None for stream in states)
            cell = LockstepDraw([stream[2] for stream in states])
            _, arm_cell = TSAgent.lockstep([stream[1] for stream in arms])
        for j in streams:
            for ref, engines, width in zip(refs[j], (states[j], arms[j]), (n * d, k * d)):
                # each engine draws from a generator seeded as the one that gives the reference its normals
                want_rng = np.random.default_rng(10 * chunk + j)
                want, cached = ref.draw(want_rng.standard_normal(width)).tobytes(), engine_bytes(ref)
                for engine in engines:
                    assert engine_bytes(engine) == cached
                    rng_j = np.random.default_rng(10 * chunk + j)
                    assert _draw(engine, rng_j, recorded).tobytes() == want
                    assert rng_j.bit_generator.state == want_rng.bit_generator.state
        if chunk and scalar:
            assert all(stream[2].level_copies[0].base is cell.copies[0] for stream in states)
            z = rng.standard_normal((n, len(streams)))
            theta = cell.draw(z.copy())
            z_arms = rng.standard_normal((k, len(streams)))
            arm_theta = arm_cell(z_arms.copy())
            for j, (ref, arm_ref) in enumerate(refs):
                assert theta[:, j].tobytes() == ref.draw(z[:, j]).tobytes()
                assert arm_theta[:, j].tobytes() == arm_ref.draw(z_arms[:, j]).tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(PRIORS))
def test_engines_match_reference_on_random_trees(recorded, seed, kind):
    """checks.random_tree trees of up to 80 nodes on 6 levels: leaves at mixed depths, levels with id arrays."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, max_levels=6, max_nodes=80)
    _check_engines(tree, _prior(rng, tree, kind), rng, recorded)


@pytest.mark.parametrize("kind", PRIORS)
@pytest.mark.parametrize("name", TREES)
def test_engines_match_reference_on_suite_trees(recorded, name, kind):
    """reference.suite_trees: wide parents pooled from a slice and from a take, the widest left fold and the
    narrowest numpy sum, a draw order that is no run of ids, and the 256-child root of b=2 h=8's flat tree."""
    rng = np.random.default_rng([list(TREES).index(name), PRIORS.index(kind)])
    tree = TREES[name]
    _check_engines(tree, _prior(rng, tree, kind), rng, recorded)
