import numpy as np
import pytest
from hypothesis import strategies as st

from hierts import balanced_tree, build_hierarchy, constant_prior, PriorSpec

# Values that no config or tree-file field should take silently: each must be read or named in an error.
ODD_VALUES = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.none(),
    st.lists(st.one_of(st.integers(-2, 9), st.floats(-2, 2), st.booleans(), st.none()), max_size=3),
)

# (index, line) pairs filled in by the acceptance tests; shown after the run.
ACCEPTANCE_LINES: list[tuple[int, str]] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def two_leaf():
    """Root with two leaf children, unit variances everywhere."""
    tree = build_hierarchy({2: 1, 3: 1})
    prior = constant_prior(tree, 1.0, noise_std=1.0)
    return tree, prior


@pytest.fixture
def b2h2():
    return balanced_tree(2, 2)


@pytest.fixture
def b2h2_prior(b2h2):
    return constant_prior(b2h2, 1.0, noise_std=1.0)


@pytest.fixture
def linear_prior(b2h2):
    rng = np.random.default_rng(5)
    cov = {}
    for node in range(1, b2h2.num_nodes + 1):
        a = rng.standard_normal((3, 3))
        cov[node] = a @ a.T / 3.0 + np.eye(3)
    return PriorSpec(hyper_mean=np.zeros(3), node_variance=cov, noise_std=0.8)


@pytest.fixture
def fault_root_mean(monkeypatch):
    """inject(cls, offset) makes cls._fold_root leave root_mean off by offset: a fault in what hierts_sample reads."""

    def inject(cls, offset=1e-3):
        fold_root = cls._fold_root

        def faulty(self):
            fold_root(self)
            self.root_mean = self.root_mean + offset

        monkeypatch.setattr(cls, "_fold_root", faulty)

    return inject
