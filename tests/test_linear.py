"""Linear-model posterior: scalar reduction, Woodbury identities, oracle agreement."""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierts import (
    ConditioningError,
    LinearPosteriorState,
    PosteriorState,
    PriorSpec,
    TSAgent,
    action_marginals,
    balanced_tree,
    condition,
    constant_prior,
    joint_prior,
)
from hierts import linear
from hierts.checks import ORACLE_RTOL, random_linear_prior
from hierts.envs import _floor_covariance, fit_priors_from_data, make_cluster_dataset
from hierts.hierarchy import HierarchyError
from hierts.linear import COND_LIMIT, _conditional
from hierts.oracle import information_form_marginals


def _matrix_prior(tree, value=1.0, noise_std=1.0, dim=1, hyper_mean=0.0):
    cov = {node: value * np.eye(dim) for node in range(1, tree.num_nodes + 1)}
    return PriorSpec(hyper_mean=np.full(dim, hyper_mean), node_variance=cov, noise_std=noise_std)


def test_d1_reduces_to_scalar():
    """With d=1 and unit contexts the linear recursion is the scalar one."""
    tree = balanced_tree(2, 2)
    scalar = PosteriorState(tree, constant_prior(tree, 1.3, noise_std=0.7, hyper_mean=0.2))
    linear = LinearPosteriorState(tree, _matrix_prior(tree, 1.3, noise_std=0.7, dim=1, hyper_mean=0.2))
    rng = np.random.default_rng(3)
    one = np.ones(1)
    for _ in range(50):
        leaf = int(rng.choice(tree.action_nodes))
        y = float(rng.standard_normal())
        scalar.update_path(leaf, y)
        linear.update_path(leaf, y, one)
    for leaf in tree.action_nodes:
        ms, vs = scalar.marginal_action_moments(int(leaf))
        mv, cv = linear.marginal_action_moments(int(leaf))
        assert mv[0] == pytest.approx(ms, rel=1e-12, abs=1e-12)
        assert cv[0, 0] == pytest.approx(vs, rel=1e-12)
    for node in range(2, tree.num_nodes + 1):
        assert linear.msg_prec[node][0, 0] == pytest.approx(scalar.msg_prec[node], rel=1e-12, abs=1e-15)
        assert linear.msg_wmean[node][0] == pytest.approx(scalar.msg_wmean[node], rel=1e-12, abs=1e-15)


def test_shrink_matches_textbook_when_invertible():
    """P - P(P+L)^-1 P equals (Sigma0 + P^-1)^-1 whenever P is invertible."""
    rng = np.random.default_rng(1)
    tree = balanced_tree(2, 1)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        a = rng.standard_normal((d, d + 2))
        prec = a @ a.T / d + 0.1 * np.eye(d)
        b = rng.standard_normal((d, d + 1))
        sigma0 = b @ b.T / d + 0.2 * np.eye(d)
        prior = PriorSpec(hyper_mean=np.zeros(d), node_variance={n: sigma0 for n in (1, 2, 3)}, noise_std=1.0)
        state = LinearPosteriorState(tree, prior)
        wmean = rng.standard_normal(d)
        state.ev_prec[2], state.ev_wmean[2] = prec, wmean
        state._fold(2)
        lam0 = state.lam0[2]
        textbook = np.linalg.inv(sigma0 + np.linalg.inv(prec))
        assert np.allclose(state.msg_prec[2], textbook, rtol=1e-9, atol=1e-11)
        # the weighted mean folds the same shrinkage: Lam0 (P+L)^-1 W
        expect_w = lam0 @ np.linalg.solve(prec + lam0, wmean)
        assert np.allclose(state.msg_wmean[2], expect_w, rtol=1e-9, atol=1e-11)
        # the same solve yields the conditional: covariance (P+L)^-1, intercept (P+L)^-1 W
        cov = np.linalg.inv(prec + lam0)
        assert np.allclose(state.post_cov[2], cov, rtol=1e-9, atol=1e-11)
        assert np.allclose(state.slope[2], cov @ lam0, rtol=1e-9, atol=1e-11)
        assert np.allclose(state.intercept[2], cov @ wmean, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("k", [-8, 4, 8])
def test_message_matches_textbook_across_evidence_scales(k):
    """msg_prec is within 1e-12 of (Sigma0 + P^-1)^-1 for P = 10^k * SPD, far below and far above Lam0.

    P - P S^-1 P cancels when P >> Lam0 (it is off by 1e-8 relative at k = 8) and Lam0 - Lam0 S^-1 Lam0
    when P << Lam0; the fold subtracts from whichever of P and Lam0 has the smaller trace.
    """
    rng = np.random.default_rng(5)
    d = 4
    a = rng.standard_normal((d, d + 2))
    spd = a @ a.T / d + 0.5 * np.eye(d)
    b = rng.standard_normal((d, d + 1))
    sigma0 = b @ b.T / d + 0.2 * np.eye(d)
    tree = balanced_tree(2, 1)
    state = LinearPosteriorState(tree, PriorSpec(np.zeros(d), {n: sigma0 for n in (1, 2, 3)}, noise_std=1.0))
    prec = 10.0**k * spd
    state.ev_prec[2] = prec
    state._fold(2)
    textbook = np.linalg.inv(sigma0 + np.linalg.inv(prec))
    assert np.abs(state.msg_prec[2] - textbook).max() <= 1e-12 * np.abs(textbook).max()


def test_shrink_handles_singular_evidence():
    # rank-1 Gram from a single context: textbook form is undefined, the
    # Woodbury form is not
    tree = balanced_tree(2, 1)
    state = LinearPosteriorState(tree, _matrix_prior(tree, 1.0, dim=3))
    x = np.array([1.0, 2.0, 0.0])
    state.update_path(2, 0.7, x)
    assert np.array_equal(state.ev_prec[2], np.outer(x, x))
    msg_prec = state.msg_prec[2]
    assert np.isfinite(msg_prec).all()
    eig = np.linalg.eigvalsh(msg_prec)
    assert eig.min() >= -1e-12  # PSD preserved
    assert eig.max() < 1.0  # bounded by the edge precision


def test_zero_evidence_sends_zero_messages(b2h2):
    state = LinearPosteriorState(b2h2, _matrix_prior(b2h2, 2.0, dim=2))
    state.update_path(4, 0.3, np.array([1.0, -0.5]))
    fresh = state.rebuild()  # recomputes every message, the data-free ones too
    for node in (3, 6, 7):  # internal node 3 and its unobserved leaves
        assert np.allclose(fresh.msg_prec[node], 0.0) and np.allclose(fresh.msg_wmean[node], 0.0)
    with pytest.raises(ValueError):
        _matrix_prior(b2h2, 2.0, noise_std=0.0, dim=2)


def test_fresh_state_conditionals_are_prior(b2h2):
    sigma0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    prior = PriorSpec(
        hyper_mean=np.zeros(2),
        node_variance={node: sigma0 for node in range(1, b2h2.num_nodes + 1)},
        noise_std=1.0,
    )
    state = LinearPosteriorState(b2h2, prior)
    for node in range(1, b2h2.num_nodes + 1):
        assert np.allclose(state.post_cov[node], sigma0, rtol=1e-12)
        assert np.allclose(state.slope[node], np.eye(2), atol=1e-12)
        assert np.allclose(state.intercept[node], 0.0)


def test_update_path_matches_rebuild(b2h2, linear_prior):
    wide = balanced_tree(64, 2)  # 4,161 nodes; every parent pools 64 child messages
    cases = [(b2h2, linear_prior, 40), (wide, random_linear_prior(np.random.default_rng(3), wide, 2), 300)]
    rng = np.random.default_rng(9)
    for tree, prior, updates in cases:
        state = LinearPosteriorState(tree, prior)
        for _ in range(updates):
            leaf = int(rng.choice(tree.action_nodes))
            x = rng.standard_normal(prior.dim)
            state.update_path(leaf, float(rng.standard_normal()), x)
        fresh = state.rebuild()
        # the walk folds each path node with the same operands as the rebuild: bit-identical
        for name in ("ev_prec", "ev_wmean", "msg_prec", "msg_wmean",
                     "post_cov", "post_factor", "slope", "intercept", "root_mean"):
            assert np.array_equal(getattr(state, name), getattr(fresh, name)), name


def test_update_path_validates_inputs(b2h2, linear_prior):
    state = LinearPosteriorState(b2h2, linear_prior)
    with pytest.raises(HierarchyError):
        state.update_path(2, 1.0, np.zeros(3))
    with pytest.raises(ValueError, match=r"context must have shape \(3,\), got None"):
        state.update_path(4, 1.0)
    with pytest.raises(ValueError):
        state.update_path(4, 1.0, np.zeros(2))
    with pytest.raises(ValueError):
        state.update_path(4, 1.0, np.array([np.inf, 0, 0]))
    with pytest.raises(ValueError):
        state.update_path(4, float("nan"), np.zeros(3))


def test_scalar_prior_rejected(b2h2, b2h2_prior):
    with pytest.raises(HierarchyError):
        LinearPosteriorState(b2h2, b2h2_prior)


def test_marginals_match_dense_oracle(b2h2, linear_prior):
    state = LinearPosteriorState(b2h2, linear_prior)
    joint = joint_prior(b2h2, linear_prior)
    rng = np.random.default_rng(4)
    sigma_sq = linear_prior.noise_std**2
    for _ in range(30):
        leaf = int(rng.choice(b2h2.action_nodes))
        x = rng.standard_normal(3)
        y = float(rng.standard_normal())
        state.update_path(leaf, y, x)
        joint = condition(joint, [(leaf, x, y)], sigma_sq)
    marg = action_marginals(joint)
    for leaf in b2h2.action_nodes:
        mean, cov = state.marginal_action_moments(int(leaf))
        om, oc = marg[int(leaf)]
        assert np.allclose(mean, om, rtol=1e-9, atol=1e-9)
        assert np.allclose(cov, oc, rtol=1e-9, atol=1e-11)


def test_posterior_caches_stay_spd(b2h2, linear_prior):
    state = LinearPosteriorState(b2h2, linear_prior)
    rng = np.random.default_rng(13)
    # repeated identical contexts keep the per-leaf Gram singular for a while
    x = np.array([1.0, -1.0, 0.5])
    for k in range(20):
        leaf = int(b2h2.action_nodes[k % 4])
        state.update_path(leaf, 0.3, x if k % 3 else rng.standard_normal(3))
        for node in range(1, b2h2.num_nodes + 1):
            assert np.linalg.eigvalsh(state.post_cov[node]).min() > 0
            assert np.linalg.eigvalsh(state.msg_prec[node]).min() >= -1e-12
            # the sampling factor is kept in sync with the covariance
            assert np.allclose(
                state.post_factor[node] @ state.post_factor[node].T, state.post_cov[node], atol=1e-12
            )


def test_conditioning_error_is_raised():
    # a node covariance of diag(1, 1e14) makes the data-free S = Lam0 too ill-conditioned;
    # the posterior state names the node and TS the arm
    tree = balanced_tree(2, 1)
    cov = {1: np.eye(2), 2: np.diag([1.0, 1e14]), 3: np.eye(2)}
    prior = PriorSpec(hyper_mean=np.zeros(2), node_variance=cov, noise_std=1.0)
    with pytest.raises(ConditioningError, match="node 2"):
        LinearPosteriorState(tree, prior)
    with pytest.raises(ConditioningError, match="arm 0"):
        TSAgent(tree, prior, np.random.default_rng(0))


def test_conditional_is_at_least_as_strict_as_eigenvalue_check():
    """Every S whose eigenvalue condition number exceeds COND_LIMIT is rejected."""
    rng = np.random.default_rng(21)
    rejected = 0
    for _ in range(300):
        d = int(rng.integers(2, 11))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eig = np.geomspace(1.0, 10.0 ** rng.uniform(11, 13), d) * 10.0 ** rng.uniform(-3, 3)
        s = 0.5 * (q * eig) @ q.T
        s = s + s.T
        lo, hi = np.linalg.eigvalsh(s)[[0, -1]]
        if lo <= 0 or hi / lo > COND_LIMIT:
            rejected += 1
            with pytest.raises(ConditioningError):
                _kernel(s)
    assert rejected > 100


def _kernel(s):
    """_conditional on a fresh [S, out] pair: (covariance, inverse factor)."""
    pair = np.stack([s, np.empty_like(s)])
    li = _conditional(pair, "test")
    return pair[1], li


SINGULAR = "test: precision is singular or not positive definite"
# (S, the exact message) of every way the kernel fails: the factorization fails on a singular or
# indefinite S, while a NaN or inf passes it and trips the cond_1 bound
KERNEL_FAILURES = [
    (np.zeros((2, 2)), SINGULAR),
    (np.ones((3, 3)), SINGULAR),
    (np.diag([1.0, -1.0]), SINGULAR),
    (np.array([[1.0, 2.0], [2.0, 1.0]]), SINGULAR),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "test: condition number bound nan exceeds 1e+12"),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), "test: condition number bound inf exceeds 1e+12"),
    (np.diag([1.0, 1e13]), "test: condition number bound 1.000e+13 exceeds 1e+12"),
]
KERNEL_FAILURE_IDS = ["zero", "rank-one", "indefinite-diag", "indefinite", "nan", "inf", "cond-1e13"]


@pytest.mark.filterwarnings("error")  # no RuntimeWarning may leak from the LAPACK calls
@pytest.mark.parametrize("s, message", KERNEL_FAILURES, ids=KERNEL_FAILURE_IDS)
def test_conditional_rejects_singular_and_indefinite(s, message):
    with pytest.raises(ConditioningError) as err:
        _kernel(s)
    assert str(err.value) == message


@pytest.fixture(params=["gufunc", "fallback"])
def kernel_binding(request, monkeypatch):
    """The kernel as bound at import, or as bound when numpy ships no numpy.linalg._umath_linalg."""
    if request.param == "fallback":
        monkeypatch.setitem(sys.modules, "numpy.linalg._umath_linalg", None)  # the import raises ImportError
        monkeypatch.setattr(linear, "_inverse_factor", linear._bind_inverse_factor())
        calls, cholesky = [], np.linalg.cholesky
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "cholesky", lambda s: calls.append(s) or cholesky(s))
            linear._inverse_factor(np.eye(2))
        assert calls, "the fallback binding does not call numpy.linalg"
    return request.param


@pytest.mark.filterwarnings("error")
def test_conditional_matches_numpy_linalg_bytes(kernel_binding):
    """Both bindings return numpy.linalg's bytes, L^-1 = inv(cholesky(S)) and S^-1 = L^-T L^-1, and the same messages."""
    rng = np.random.default_rng(31)
    for d in range(1, 13):
        a = rng.standard_normal((8, d, d + 2))
        stack = a @ a.swapaxes(1, 2) / (d + 2) + np.geomspace(1e-3, 10.0, 8)[:, None, None] * np.eye(d)
        for s in stack:
            want_li = np.linalg.inv(np.linalg.cholesky(s))
            cov, li = _kernel(s)
            assert li.tobytes() == want_li.tobytes(), d
            assert cov.tobytes() == (want_li.T @ want_li).tobytes(), d
    for s, message in KERNEL_FAILURES:
        with pytest.raises(ConditioningError) as err:
            _kernel(s)
        assert str(err.value) == message


def _exact_rule(s):
    """The kernel without its Frobenius certificate, the exact cond_1 bound on every call: (covariance, inverse
    factor), or the ConditioningError it raises."""
    pair = np.stack([s, np.empty_like(s)])
    try:
        li = linear._inverse_factor(pair[0])
    except (FloatingPointError, np.linalg.LinAlgError):
        return ConditioningError("test: precision is singular or not positive definite")
    np.matmul(li.T, li, out=pair[1])
    bound = math.prod(np.maximum.reduce(np.add.reduce(np.abs(pair), axis=1), axis=1).tolist())
    if not bound <= COND_LIMIT:
        return ConditioningError(f"test: condition number bound {bound:.3e} exceeds {COND_LIMIT:.0e}")
    return pair[1], li


def _certificate(s, cov):
    """d ||S||_F ||S^-1||_F, which bounds cond_1(S) = ||S||_1 ||S^-1||_1 from above."""
    return s.shape[0] * np.linalg.norm(s) * np.linalg.norm(cov)


def _assert_kernel_keeps_exact_rule(s):
    want = _exact_rule(s)
    if isinstance(want, ConditioningError):
        with pytest.raises(ConditioningError) as err:
            _kernel(s)
        assert str(err.value) == str(want)
        return "raised"
    cov, li = _kernel(s)
    assert li.tobytes() == want[1].tobytes()
    assert cov.tobytes() == want[0].tobytes()
    return "certified" if _certificate(s, cov) <= COND_LIMIT else "exact"


@pytest.mark.filterwarnings("error")
def test_certificate_keeps_the_exact_rule(kernel_binding):
    """A random SPD S of d = 1..12 with eigenvalues geomspace(1, cond) up to cond 1e14: the kernel raises exactly
    when the exact cond_1 rule raises, with its message, and otherwise writes its bytes."""
    rng = np.random.default_rng(47)
    seen = {"raised": 0, "certified": 0, "exact": 0}
    for _ in range(1000):
        d = int(rng.integers(1, 13))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        s = (q * np.geomspace(1.0, 10.0 ** rng.uniform(0, 14), d)) @ q.T
        seen[_assert_kernel_keeps_exact_rule(0.5 * (s + s.T))] += 1
    assert min(seen.values()) >= 20, seen


def _spread_norms(lam, d=12):
    """SPD S = v v^T + 1e-2 (I - u u^T - v v^T) + lam u u^T, u and v unit, orthogonal and each with one large and
    d - 2 or more equal entries, so that cond_1(S) exceeds sqrt(d) ||S||_F ||S^-1||_F: at lam = 4e-12 they are
    1.1e12 and 8.7e11, while the certificate d ||S||_F ||S^-1||_F is 3.0e12."""
    th = 0.5 * math.atan2(math.sqrt(d - 1), 1.0)
    u = np.r_[math.cos(th), np.full(d - 1, math.sin(th) / math.sqrt(d - 1))]
    v = np.r_[0.0, math.cos(th), np.full(d - 2, math.sin(th) / math.sqrt(d - 2))]
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    s = np.outer(v, v) + 1e-2 * (np.eye(d) - np.outer(u, u) - np.outer(v, v)) + lam * np.outer(u, u)
    return 0.5 * (s + s.T)


@pytest.mark.filterwarnings("error")
def test_inconclusive_certificate_takes_the_exact_bound():
    """Matrices whose certificate d ||S||_F ||S^-1||_F exceeds COND_LIMIT take the exact bound: diag(1, .., 2e11)
    (certificate 6.0e12) passes on its cond_1 of 2e11, diag(1, .., 2e12) fails on 2e12, and a matrix whose
    cond_1 sits above the limit but below sqrt(d) ||S||_F ||S^-1||_F fails on it."""
    s = np.diag([1.0] * 9 + [2e11])
    assert _assert_kernel_keeps_exact_rule(s) == "exact"
    assert _certificate(s, _kernel(s)[0]) == pytest.approx(6.0e12)
    with pytest.raises(ConditioningError) as err:
        _kernel(np.diag([1.0] * 9 + [2e12]))
    assert str(err.value) == "test: condition number bound 2.000e+12 exceeds 1e+12"
    s = _spread_norms(4e-12)
    assert _assert_kernel_keeps_exact_rule(s) == "raised"
    assert math.sqrt(12) * np.linalg.norm(s) * np.linalg.norm(np.linalg.inv(s)) < COND_LIMIT


@pytest.mark.parametrize("floored", [False, True], ids=["plain", "floored-leaf"])
def test_long_horizon_collinear_matches_information_form_oracle(b2h2, linear_prior, floored):
    """10^4 near-collinear updates stay within ORACLE_RTOL of the information-form posterior."""
    rng = np.random.default_rng(17)
    prior = linear_prior
    if floored:  # a rank-one fitted covariance floored to 1e-6, as the dataset fit does
        u = rng.standard_normal(3)
        cov = dict(prior.node_variance)
        cov[4] = _floor_covariance(np.outer(u, u), 1e-6)[0]
        prior = PriorSpec(hyper_mean=prior.hyper_mean, node_variance=cov, noise_std=prior.noise_std)
    state = LinearPosteriorState(b2h2, prior)
    theta = rng.standard_normal((b2h2.num_nodes + 1, 3))
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    sigma_sq = prior.noise_std**2
    gram, xy = np.zeros((b2h2.num_nodes + 1, 3, 3)), np.zeros((b2h2.num_nodes + 1, 3))
    for _ in range(10_000):
        leaf = int(rng.choice(b2h2.action_nodes))
        x = v + 1e-4 * rng.standard_normal(3)
        y = float(x @ theta[leaf] + prior.noise_std * rng.standard_normal())
        state.update_path(leaf, y, x)  # raises ConditioningError if the check trips
        gram[leaf] += np.outer(x, x) / sigma_sq
        xy[leaf] += x * y / sigma_sq
    _assert_matches_information_form(state, gram, xy)


def _assert_matches_information_form(state, gram, xy):
    for leaf, (ref_mean, ref_cov) in information_form_marginals(state.hierarchy, state.prior, gram, xy).items():
        mean, cov = state.marginal_action_moments(leaf)
        assert np.abs(mean - ref_mean).max() / max(np.abs(ref_mean).max(), 1.0) < ORACLE_RTOL
        assert np.abs(cov - ref_cov).max() / max(np.abs(ref_cov).max(), 1.0) < ORACLE_RTOL


def test_fitted_d10_long_horizon_matches_information_form_oracle():
    """10^4 updates on the 5 x 5 cluster tree at d = 10 with its fitted prior, so that every leaf's
    evidence dwarfs its edge precision, stay within ORACLE_RTOL of the information-form posterior."""
    rng = np.random.default_rng(7)
    dataset, tree, _ = make_cluster_dataset(rng, num_groups=5, classes_per_group=5, dim=10)
    prior, theta, _ = fit_priors_from_data(dataset, tree, noise_std=0.5)
    state = LinearPosteriorState(tree, prior)
    contexts = dataset.features[~dataset.is_train]
    sigma_sq = prior.noise_std**2
    gram, xy = np.zeros((tree.num_nodes + 1, 10, 10)), np.zeros((tree.num_nodes + 1, 10))
    for _ in range(10_000):
        leaf = int(rng.choice(tree.action_nodes))
        x = contexts[rng.integers(contexts.shape[0])]
        y = float(x @ theta[leaf] + prior.noise_std * rng.standard_normal())
        state.update_path(leaf, y, x)
        gram[leaf] += np.outer(x, x) / sigma_sq
        xy[leaf] += x * y / sigma_sq
    leaves = tree.action_nodes
    assert (gram[leaves].trace(axis1=1, axis2=2) > 20 * state.lam0[leaves].trace(axis1=1, axis2=2)).all()
    _assert_matches_information_form(state, gram, xy)


@given(
    seed=st.integers(0, 2**16),
    n_obs=st.integers(0, 12),
    dim=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_marginal_covariance_psd_and_shrinking(seed, n_obs, dim):
    """Marginal covariances stay PSD and never grow along any direction."""
    rng = np.random.default_rng(seed)
    tree = balanced_tree(2, 1)
    prior = _matrix_prior(tree, 1.0, noise_std=1.0, dim=dim)
    state = LinearPosteriorState(tree, prior)
    prev = {int(a): state.marginal_action_moments(int(a))[1] for a in tree.action_nodes}
    for _ in range(n_obs):
        leaf = int(rng.choice(tree.action_nodes))
        x = rng.standard_normal(dim)
        state.update_path(leaf, float(rng.standard_normal()), x)
        for a in tree.action_nodes:
            cov = state.marginal_action_moments(int(a))[1]
            assert np.linalg.eigvalsh(cov).min() > -1e-12
            gap = np.linalg.eigvalsh(prev[int(a)] - cov).min()
            assert gap >= -1e-9
            prev[int(a)] = cov
