"""End-to-end checks of the command line interface.

Each command runs in-process through cli.main so exit codes and artifacts
can be asserted directly; one test exercises the installed console script.
"""
import contextlib
import inspect
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import ODD_VALUES
from hypothesis import example, given, settings, strategies as st

from hierts import FeatureDataset, PosteriorState, checks, cli, config, harness
from hierts.envs import make_cluster_dataset, write_dataset_csv
from hierts.config import RUN_FIELDS
from hierts.hierarchy import PriorSpec, balanced_tree, save_tree_json
from hierts.linear import ConditioningError


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write_config(path, **overrides):
    """A small simulate config with overrides applied; an override of None drops the key."""
    doc = {
        "tree": {"b": 2, "h": 1},
        "prior": {"scheme": "constant", "value": 1.0},
        "noise_std": 1.0,
        "horizon": 15,
        "instances": 3,
        "seed": 3,
    }
    doc.update(overrides)
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    return path


def test_simulate_writes_artifacts(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == cli.EXIT_OK
    for name in ("regret.csv", "regret.svg", "summary.json", "replay.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["final_regret"]) == {"HierTS", "FlatTS", "TS"}
    for stats in summary["final_regret"].values():
        assert stats["mean"] >= 0.0 and stats["se"] >= 0.0
    # k-armed runs also report the analytic bound alongside the estimate
    assert summary["bound"]["value"] > 0.0
    assert summary["bound"]["G"] > 0.0
    replay = json.loads((out / "replay.json").read_text())
    assert replay == summary["config"]  # the run's config document, which --config reads back
    assert replay["seed"] == 3


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1), "--jobs", "1"]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "regret.csv").read_bytes() == (out2 / "regret.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


@pytest.mark.parametrize("config", ["mixed_depth_tree", "doubling_b2_h3"])
def test_float_draw_rule_never_changes_an_output(tmp_path, monkeypatch, config):
    """The loop a cell takes picks how its draws are computed, never their values: regret.csv is byte-identical
    with every block in lockstep (LOCKSTEP_MIN_INSTANCES 1: numpy's level loop) and every block per agent (above
    the largest block: each state's own draw on Python floats)."""
    if config == "mixed_depth_tree":
        cfg = CONFIGS / "mixed_depth_tree.json"
    else:
        cfg = _write_config(tmp_path / "cfg.json", tree={"b": 2, "h": 3}, prior={"scheme": "doubling"},
                            horizon=200, instances=10)
    csv = []
    for threshold in (1, harness.LOCKSTEP_MAX_INSTANCES + 1):
        monkeypatch.setattr(harness, "LOCKSTEP_MIN_INSTANCES", threshold)
        out = tmp_path / f"run-{threshold}"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == cli.EXIT_OK
        csv.append((out / "regret.csv").read_bytes())
    assert csv[0] == csv[1]


def test_simulate_file_prior_records_only_what_the_run_used(tmp_path):
    """Under the file scheme the tree file holds noise_std, hyper_mean and the variances; neither the
    summary's config block nor replay.json records them (test_replay_reruns_byte_identically reruns it)."""
    tree = balanced_tree(2, 1)
    save_tree_json(tmp_path / "tree.json", tree, PriorSpec(0.25, {1: 1.0, 2: 2.0, 3: 0.5}, noise_std=0.5))
    doc = {"tree": {"file": str(tmp_path / "tree.json")}, "prior": {"scheme": "file"}, "horizon": 15, "instances": 3}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(out), "--jobs", "1"]) == 0
    replay = json.loads((out / "replay.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    for doc in (replay, summary["config"]):
        assert not {"noise_std", "hyper_mean", "prior_value"} & set(doc)


def test_simulate_seed_override(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1), "--jobs", "1"]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "99", "--jobs", "1"]) == 0
    assert json.loads((out2 / "replay.json").read_text())["seed"] == 99
    assert (out1 / "regret.csv").read_bytes() != (out2 / "regret.csv").read_bytes()


def test_simulate_linear_model(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", model="linear", dim=2, horizon=10)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "bound" not in summary  # the analytic bound covers the k-armed model only


def test_ratio_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "heights": [1, 2],
        "tree": {"b": 2},
        "prior": {"scheme": "constant", "value": 1.0},
        "horizon": 10,
        "instances": 3,
        "seed": 0,
    }))
    out = tmp_path / "run"
    assert cli.main(["ratio", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == cli.EXIT_OK
    for name in ("ratios.csv", "ratios.svg", "summary.json", "replay.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["heights"] == [1, 2]
    assert set(summary["ratio"]) == {"HierTS", "FlatTS"}
    assert all(len(v) == 2 for v in summary["ratio"].values())


@pytest.mark.parametrize("horizon, delta, bound", [(0, None, False), (1, None, False), (2, None, True),
                                                   (0, 0.1, False), (1, 0.1, True)])
def test_simulate_bounds_only_where_a_delta_applies(tmp_path, horizon, delta, bound):
    """Without a delta, the default 1/horizon lies in (0, 1) only from horizon 2 on; below it simulate runs
    without a bound, as it does at horizon 0 whatever the delta."""
    cfg = _write_config(tmp_path / "cfg.json", horizon=horizon, delta=delta)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert ("bound" in summary) == bound
    if bound:
        assert summary["bound"]["delta"] == (1.0 / horizon if delta is None else delta)


def test_bound_at_horizon_1_with_a_delta(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", horizon=1, delta=0.1)
    out = tmp_path / "run"
    assert cli.main(["bound", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 1 and summary["delta"] == 0.1 and summary["bound"] > 0.0


def test_ratio_with_a_zero_regret_cell_exits_input(tmp_path, capsys):
    """Every agent plays the best of two arms in all 5 rounds at seed 0, so no ratio is defined: exit 2 with a
    message naming the height, the agent and the instance count, and nothing written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tree": {"b": 2}, "heights": [1], "horizon": 5, "instances": 1}))
    out = tmp_path / "run"
    assert cli.main(["ratio", "--config", str(cfg), "--out", str(out), "--seed", "0"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "ratio at height 1: TS has zero final regret over 1 instance(s), so TS / HierTS is undefined" in err
    assert not out.exists()


def test_ratio_requires_heights(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    code = cli.main(["ratio", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_INPUT
    assert "heights" in capsys.readouterr().err


def test_bound_command(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", prior={"scheme": "doubling"}, tree={"b": 2, "h": 2})
    out = tmp_path / "run"
    assert cli.main(["bound", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert (out / "bound.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["bound"] > 0.0
    assert summary["c"] == pytest.approx(1.0 + 4.0)  # sigma0_max^2 = 4 at the root, sigma^2 = 1
    assert len(summary["marginal_prior_variance"]) == 4
    # doubling prior: exact leaf marginal is 2^(h+1) - 1, one less than the shorthand
    assert summary["doubling_marginal_exact"] == pytest.approx(7.0)
    assert summary["doubling_marginal_nominal"] == pytest.approx(8.0)


def test_bound_rejects_linear_model(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", model="linear", dim=2)
    code = cli.main(["bound", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_INPUT
    assert "k-armed" in capsys.readouterr().err


def test_verify_oracle_passes(tmp_path, capsys):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"scalar_cases": 3, "linear_cases": 2, "lemma_runs": 2, "horizon": 10}))
    assert cli.main(["verify-oracle", "--config", str(cfg), "--seed", "1"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "suite result: PASS" in out


def test_verify_oracle_fails_on_a_root_mean_fault(tmp_path, capsys, fault_root_mean):
    fault_root_mean(PosteriorState)
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"scalar_cases": 3, "linear_cases": 2, "lemma_runs": 0, "horizon": 10}))
    assert cli.main(["verify-oracle", "--config", str(cfg)]) == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "suite result: FAIL" in out
    assert "base_seed=0" in out  # replay hint names the seed and case indices


def test_verify_oracle_vacuous(tmp_path, capsys):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"scalar_cases": 0, "linear_cases": 0, "lemma_runs": 0}))
    assert cli.main(["verify-oracle", "--config", str(cfg)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "nothing was checked" in out
    assert "PASS (vacuous)" in out


def test_bare_verify_oracle_runs_the_default_suite_sizes(monkeypatch, capsys):
    """`hierts verify-oracle` without a config or a seed runs what a bare run_default_suites() runs."""
    signature = inspect.signature(checks.run_default_suites)
    calls = []

    def record(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs))
        return checks.SuiteReport(base_seed=0, results=())

    monkeypatch.setattr(checks, "run_default_suites", record)
    assert cli.main(["verify-oracle"]) == cli.EXIT_OK
    (got,), want = calls, signature.bind()
    got.apply_defaults()
    want.apply_defaults()
    assert got.arguments == want.arguments


def test_verify_oracle_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"scalar_cases": 1, "bogus": 2}))
    assert cli.main(["verify-oracle", "--config", str(cfg)]) == cli.EXIT_INPUT
    assert "bogus" in capsys.readouterr().err


# c = 1 + 1e50 / noise_std**2: c**3 overflows at noise_std 1e-50, G(n) sums to inf at 1e-25, and at
# 1.3e-18 G(n) is 1.2e305 but the bound, sqrt(2 n G(n) log(1/delta)) + ..., overflows
HUGE_C = '{"tree": {"b": 2, "h": 3}, "prior": {"scheme": "constant", "value": 1e50}, "noise_std": %s}'


@pytest.mark.parametrize(
    "command, text, field",
    [
        ("simulate", "{not json", "line 1"),
        ("ratio", '{"heights": [1], "tree": "x"}', "'tree'"),
        ("simulate", '{"tree": {"b": 2, "h": 1}, "prior": {"scheme": "constant", "value": null}}', "prior.value"),
        ("simulate", '{"tree": {"b": 2, "h": 1}, "agents": 5}', "agents"),
        ("simulate", '{"tree": {"b": 2, "h": 1}, "horizon": 2.5}', "horizon"),
        ("verify-oracle", '{"seed": [1]}', "seed"),
        ("verify-oracle", '{"scalar_cases": null}', "scalar_cases"),
        ("simulate", '{"tree": {"b": 2, "h": 1}, "horizon": true}', "horizon"),
        ("ratio", '{"heights": [true], "tree": {"b": 2}}', "heights"),
        ("verify-oracle", '{"scalar_cases": true}', "scalar_cases"),
        ("ratio", '{"heights": [1], "tree": {"b": 2}, "delta": "x"}', "delta"),
        ("simulate", '{"tree": {"b": 2, "h": 1}, "noise_std": "x"}', "noise_std"),
        ("simulate", '{"tree": {"b": 2, "h": 1}, "hyper_mean": "x"}', "hyper_mean"),
        ("ratio", '{"heights": [1], "tree": {"parents": {"2": 1, "3": 1}}}', "requires a balanced-tree config"),
        ("simulate", '{"tree": {"parents": {"2": 1.9, "3": 1}}}', "parents.2"),
        ("simulate", '{"tree": {"b": 2, "h": 1}, "noise_std": 1' + "0" * 400 + "}", "noise_std"),
        ("verify-oracle", '{"sentinel": "false"}', "sentinel"),
        ("verify-oracle", '{"sentinel": 1}', "sentinel"),
        ("verify-oracle", '{"sentinel": null}', "sentinel"),
        ("verify-oracle", '{"sentinel": true}', "sentinel"),
        ("verify-oracle", '{"sentinel": false}', "sentinel"),
        ("ratio", '{"heights": [1, 2], "tree": {"b": 2, "h": 7}}', "tree.h"),
        ("ratio", '{"heights": [1, 2], "tree": {"b": 2}, "delta": 0.3}', "delta"),
        ("simulate", '{"tree": {"b": 2, "h": 1}, "dim": 7}', "dim"),
        ("simulate", '{"tree": {"b": 2, "h": 1}, "prior": {"scheme": "doubling", "value": 3.0}}', "prior.value"),
        ("simulate", '{"tree": {"b": 2, "h": 1}, "prior": {"scheme": "doubling", "node_variance": {"1": 2.0}}}',
         "prior.node_variance"),
        ("simulate", '{"tree": {"b": 2, "h": 1}, "branching": 3}', "branching"),
        ("bound", '{"tree": {"b": 2, "h": 1}, "model": "linear", "dim": 2, "delta": 0.1}', "delta"),
        ("verify-oracle", '{"seed": -2}', "seed"),
        ("verify-oracle --seed -1", "{}", "seed"),
        ("simulate", HUGE_C % "1e-50", "prior.value"),
        ("bound", HUGE_C % "1e-50", "prior.value"),
        ("bound", HUGE_C % "1e-25", "noise_std"),
        ("bound", HUGE_C % "1.3e-18", "the regret bound is not finite"),
        ("simulate", '{"tree": {"b": 2, "h": 1}, "prior": {"scheme": "explicit", "node_variance": '
                     '{"1": 1e17, "2": 1.0, "3": 1.0}}}', "the root variance cancels leaf 2's flat variance"),
        ("ratio", '{"heights": [1], "tree": {"b": 2}, "horizon": 0}', "horizon must be at least 1"),
        ("bound", '{"tree": {"b": 2, "h": 1}, "horizon": 1}', "no default delta at horizon 1"),
        ("bound", '{"tree": {"b": 2, "h": 1}, "horizon": 0}', "no default delta at horizon 0"),
    ],
    ids=["syntax", "ratio-tree", "prior-value", "agents", "horizon", "verify-seed", "verify-cases",
         "horizon-bool", "heights-bool", "verify-cases-bool", "delta-str", "noise-str", "hyper-mean-str",
         "ratio-parents", "parents-float", "noise-huge-int", "sentinel-str", "sentinel-int", "sentinel-null",
         "sentinel-true", "sentinel-false", "ratio-tree-h", "ratio-delta", "dim-k-armed", "value-doubling",
         "node-variance-doubling", "branching-twice", "delta-linear", "verify-seed-negative",
         "verify-seed-flag-negative", "simulate-g-overflow", "bound-g-overflow", "bound-g-infinite",
         "bound-infinite", "flat-variance-cancels", "ratio-horizon-0", "bound-horizon-1", "bound-horizon-0"],
)
def test_malformed_config_exits_input(tmp_path, capsys, command, text, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    argv = [*command.split(), "--config", str(cfg)]
    if command.split()[0] != "verify-oracle":
        argv += ["--out", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "error:" in err
    assert field in err
    assert not (tmp_path / "run").exists()  # an input error leaves no empty run directory


@pytest.mark.parametrize("key, value", [("noise_std", 0.3), ("hyper_mean", 5.0), ("prior", {"scheme": "file", "value": 9.0})])
def test_file_scheme_rejects_the_configs_own_prior_fields(tmp_path, capsys, key, value):
    """The tree file's prior supplies noise_std, hyper_mean and the variances; the config may not set them."""
    save_tree_json(tmp_path / "tree.json", balanced_tree(2, 1), PriorSpec(0.0, {1: 1.0, 2: 1.0, 3: 1.0}, noise_std=1.0))
    doc = {"tree": {"file": str(tmp_path / "tree.json")}, "prior": {"scheme": "file"}, "horizon": 5, "instances": 2}
    (tmp_path / "cfg.json").write_text(json.dumps({**doc, key: value}))
    code = cli.main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run"), "--jobs", "1"])
    assert code == cli.EXIT_INPUT
    assert f"{'prior.value' if key == 'prior' else key} does not apply" in capsys.readouterr().err


# The values each `when` condition of the config table reads, so a case can set a field where it does not apply.
CHOICES = {"prior_scheme": ("constant", "doubling", "explicit", "file"), "model": ("k-armed", "linear")}
FUZZ_CASES = [
    (command, name, spelling)
    for command, table in (("simulate", RUN_FIELDS), ("bound", RUN_FIELDS), ("ratio", config._RATIO_FIELDS))
    for name, row in table.items()
    for spelling in (name, row.metadata["nested"]) if spelling
] + [("verify-oracle", name, name) for name in config._VERIFY_FIELDS]


def _fuzz_document(command, name, spelling, value, misplace, tree_file):
    """A valid small document for command with field name set to value under spelling; with misplace,
    the field's condition (if it has one) picks a value under which the field does not apply."""
    if command == "verify-oracle":
        return {"scalar_cases": 0, "linear_cases": 0, "lemma_runs": 0, spelling: value}
    doc = {"branching": 2, "height": 1, "prior_scheme": "constant", "horizon": 3, "instances": 2}
    when = RUN_FIELDS[name].metadata["when"] if name in RUN_FIELDS else None
    if when:
        field, allowed = when
        doc[field] = next(c for c in CHOICES[field] if (c in allowed) != misplace)
    if doc["prior_scheme"] == "explicit":
        doc["node_variance"] = {"1": 1.0, "2": 1.0, "3": 1.0}
    if doc["prior_scheme"] == "file":
        del doc["branching"], doc["height"]
        doc["tree_file"] = tree_file
    if command == "ratio":
        doc.pop("height", None)
        doc["heights"] = [1]
    doc.pop(name, None)
    section, _, key = spelling.rpartition(".")
    if section:
        doc.setdefault(section, {})[key] = value
    else:
        doc[key] = value
    return doc


@given(case=st.sampled_from(FUZZ_CASES), value=ODD_VALUES, misplace=st.booleans())
@example(case=("simulate", "delta", "delta"), value=2.225073858507203e-309, misplace=False)  # 1 / delta overflows
@settings(max_examples=300, deadline=None)
def test_config_fuzz_runs_or_names_the_field(tmp_path_factory, case, value, misplace):
    """Every field of every config document, under each spelling, set to an odd value or set where it does
    not apply: the command runs, or exits 2 naming the field; never a traceback. A null stands for unset
    where the default is None, so it may stand where the field does not apply."""
    command, name, spelling = case
    when = RUN_FIELDS[name].metadata["when"] if name in RUN_FIELDS else None
    misplace = misplace and when is not None and not (value is None and RUN_FIELDS[name].default is None)
    if command == "bound" and when == ("model", ("linear",)) and not misplace:
        return  # bound covers the k-armed model only, so a linear-only field never applies there
    tmp = tmp_path_factory.mktemp("fuzz")
    save_tree_json(tmp / "tree.json", balanced_tree(2, 1), PriorSpec(0.0, {1: 1.0, 2: 1.0, 3: 1.0}, noise_std=1.0))
    (tmp / "cfg.json").write_text(json.dumps(_fuzz_document(command, name, spelling, value, misplace, str(tmp / "tree.json"))))
    argv = [command, "--config", str(tmp / "cfg.json")]
    if command != "verify-oracle":
        argv += ["--out", str(tmp / "run")] + ([] if command == "bound" else ["--jobs", "1"])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == cli.EXIT_IO:  # a string tree file names a path that does not exist
        assert name == "tree_file" and isinstance(value, str), err.getvalue()
        return
    assert code in ((cli.EXIT_INPUT,) if misplace else (cli.EXIT_OK, cli.EXIT_INPUT)), err.getvalue()
    if code == cli.EXIT_INPUT and not misplace and command == "ratio" and "has zero final regret" in err.getvalue():
        # A valid value can leave a ratio undefined: at a hyper_mean of 6e15 the float spacing is 1, leaf means
        # fall on whole numbers and often tie, and 3 rounds passed without regret. That is ratio's own error,
        # which names the height and agent, not a field.
        return
    if code == cli.EXIT_INPUT:
        assert spelling in err.getvalue() or name in err.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "command, doc, flags",
    [
        ("simulate", {"tree": {"b": 2, "h": 2}, "prior": {"scheme": "constant", "value": 2.0}}, []),
        ("simulate", {"tree": {"b": 2, "h": 1}, "prior": {"scheme": "doubling"}, "model": "linear", "dim": 2}, []),
        ("simulate", {"tree": {"file": "tree.json"}, "prior": {"scheme": "file"}}, []),
        ("simulate", {"tree": {"parents": {"2": 1, "3": 1}}, "prior": {"scheme": "doubling"}}, ["--seed", "99"]),
        ("ratio", {"heights": [1, 2], "tree": {"b": 2}, "prior": {"scheme": "constant", "value": 1.0}}, []),
        ("bound", {"tree": {"b": 2, "h": 2}, "prior": {"scheme": "doubling"}, "delta": 0.05}, []),
    ],
    ids=["simulate-scalar", "simulate-linear", "simulate-file-prior", "simulate-seed-flag", "ratio", "bound"],
)
def test_replay_reruns_byte_identically(tmp_path, command, doc, flags):
    """replay.json is the run's config document: passing it back to --config writes the same files."""
    save_tree_json(tmp_path / "tree.json", balanced_tree(2, 1), PriorSpec(0.25, {1: 1.0, 2: 2.0, 3: 0.5}, noise_std=0.5))
    if "file" in doc["tree"]:
        doc["tree"]["file"] = str(tmp_path / "tree.json")
    (tmp_path / "cfg.json").write_text(json.dumps({"horizon": 12, "instances": 3, "seed": 3, **doc}))
    jobs = [] if command == "bound" else ["--jobs", "1"]
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli.main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(first), *flags, *jobs]) == 0
    assert cli.main([command, "--config", str(first / "replay.json"), "--out", str(again), *jobs]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir()) and "replay.json" in names
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


@pytest.mark.parametrize("command, doc, named", [
    ("simulate", {"tree": {"b": 2, "h": 40}}, "branching factor 2 and height 40"),
    ("simulate", {"tree": {"b": 2, "h": 10**9}}, "branching factor 2 and height 1000000000"),
    ("bound", {"tree": {"b": 1024, "h": 2}}, "branching factor 1024 and height 2"),
    ("ratio", {"heights": [1, 2, 40], "tree": {"b": 2}}, "branching factor 2 and height 40"),
])
def test_oversized_balanced_tree_exits_input_before_building(tmp_path, capsys, monkeypatch, command, doc, named):
    """A balanced tree above MAX_BALANCED_NODES is an input error found before any tree is built or any
    height of a ratio runs."""
    def never(*args, **kwargs):
        raise AssertionError("built a tree or ran a height before the size check")

    monkeypatch.setattr(config, "balanced_tree", never)
    monkeypatch.setattr(harness, "run_bayes_regret", never)
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    argv = [command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert f"error: a balanced tree with {named} has more than 1048576 nodes" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_missing_config_exits_io(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_IO
    assert "i/o error:" in capsys.readouterr().err


def test_bad_jobs_exits_input(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run"), "--jobs", "0"])
    assert code == cli.EXIT_INPUT
    assert "--jobs" in capsys.readouterr().err


def test_unknown_command_raises_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def _tiny_dataset(tmp_path, seed=0):
    rng = np.random.default_rng(seed)
    dataset, hierarchy, label_map = make_cluster_dataset(
        rng, num_groups=2, classes_per_group=2, dim=3, train_per_class=6, test_per_class=2,
    )
    csv_path = tmp_path / "data.csv"
    tree_path = tmp_path / "tree.json"
    write_dataset_csv(csv_path, dataset, label_map)
    save_tree_json(tree_path, hierarchy, label_map=label_map)
    return csv_path, tree_path, hierarchy


def test_classify_bandit(tmp_path):
    csv_path, tree_path, hierarchy = _tiny_dataset(tmp_path)
    out = tmp_path / "run"
    code = cli.main([
        "classify-bandit",
        "--dataset", str(csv_path),
        "--hierarchy", str(tree_path),
        "--out", str(out),
        "--horizon", "40",
        "--runs", "2",
        "--jobs", "1",
    ])
    assert code == cli.EXIT_OK
    for name in ("regret.csv", "regret.svg", "summary.json", "replay.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["final_regret"]) == {"HierTS", "FlatTS", "TS"}
    assert summary["noise_std"] == 0.5
    assert isinstance(summary["floored_nodes"], list)
    lines = (out / "regret.csv").read_text().splitlines()
    assert lines[0] == "round,agent,mean_regret,se,instances"
    assert len(lines) == 1 + 40 * 3


def test_classify_bandit_one_dimensional(tmp_path):
    rng = np.random.default_rng(3)
    dataset, hierarchy, label_map = make_cluster_dataset(
        rng, num_groups=2, classes_per_group=2, dim=1, train_per_class=6, test_per_class=2,
    )
    csv_path, tree_path = tmp_path / "d1.csv", tmp_path / "d1.json"
    write_dataset_csv(csv_path, dataset, label_map)
    save_tree_json(tree_path, hierarchy, label_map=label_map)
    code = cli.main([
        "classify-bandit", "--dataset", str(csv_path), "--hierarchy", str(tree_path),
        "--out", str(tmp_path / "run"), "--horizon", "25", "--runs", "2", "--jobs", "1",
    ])
    assert code == cli.EXIT_OK
    assert (tmp_path / "run" / "regret.csv").exists()


def test_classify_bandit_needs_label_map(tmp_path, capsys):
    csv_path, tree_path, hierarchy = _tiny_dataset(tmp_path)
    bare = tmp_path / "bare.json"
    save_tree_json(bare, hierarchy)  # no label_map section
    code = cli.main([
        "classify-bandit", "--dataset", str(csv_path), "--hierarchy", str(bare),
        "--out", str(tmp_path / "run"),
    ])
    assert code == cli.EXIT_INPUT
    assert "label_map" in capsys.readouterr().err


def test_classify_bandit_validates_flags(tmp_path, capsys):
    csv_path, tree_path, _ = _tiny_dataset(tmp_path)
    for flag, value in (("--runs", "0"), ("--seed", "-1"), ("--horizon", "0"), ("--noise-std", "nan")):
        code = cli.main([
            "classify-bandit", "--dataset", str(csv_path), "--hierarchy", str(tree_path),
            "--out", str(tmp_path / "run"), flag, value,
        ])
        assert code == cli.EXIT_INPUT
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("case, error", [
    ("single class", "node 3 has 0 training rows"),
    ("class without test rows", "leaf 4 has no test rows"),
    ("no test split", "leaf 4 has no test rows"),
    ("constant features", None),
    ("2 train rows per class", None),
])
def test_classify_bandit_degenerate_datasets(tmp_path, capsys, case, error):
    """A degenerate 2x2-class d=3 dataset runs with finite values in every output, or exits 2 naming the
    node or leaf it cannot fit."""
    dataset, hierarchy, label_map = make_cluster_dataset(
        np.random.default_rng(0), num_groups=2, classes_per_group=2, dim=3,
        train_per_class=2 if case == "2 train rows per class" else 6, test_per_class=2,
    )
    features, leaf_ids, is_train = dataset.features, dataset.leaf_ids, dataset.is_train.copy()
    keep = np.ones(leaf_ids.size, bool)
    if case == "single class":
        keep = leaf_ids == 4
    elif case == "class without test rows":
        keep = (leaf_ids != 4) | is_train
    elif case == "no test split":
        is_train[:] = True
    elif case == "constant features":
        features = np.ones_like(features)
    ids = tuple(np.array(dataset.ids)[keep])
    write_dataset_csv(tmp_path / "data.csv", FeatureDataset(ids, features[keep], leaf_ids[keep], is_train[keep]),
                      label_map)
    save_tree_json(tmp_path / "tree.json", hierarchy, label_map=label_map)
    out = tmp_path / "run"
    code = cli.main(["classify-bandit", "--dataset", str(tmp_path / "data.csv"), "--hierarchy",
                     str(tmp_path / "tree.json"), "--out", str(out), "--horizon", "30", "--runs", "2", "--jobs", "1"])
    if error:
        assert code == cli.EXIT_INPUT
        assert f"error: {error}" in capsys.readouterr().err
        return
    assert code == cli.EXIT_OK
    regret = np.loadtxt(out / "regret.csv", delimiter=",", skiprows=1, usecols=(2, 3))
    summary = json.loads((out / "summary.json").read_text())
    finals = [v for stats in summary["final_regret"].values() for v in stats.values()]
    assert np.isfinite(regret).all() and np.isfinite(finals).all()
    if case == "constant features":
        assert summary["floored_nodes"] == list(range(1, 8))
        assert not regret.any()  # every class has the same mean, so no action has regret
    else:
        assert {4, 5, 6, 7} <= set(summary["floored_nodes"])


def test_classify_bandit_ill_conditioned_fit_raises(tmp_path):
    # cli.main lets ConditioningError propagate, and its message names the node.
    # A constant feature beside one at scale 1e4: the fitted covariance is
    # floored at 1e-6 against about 1e8, so the root posterior is ill-conditioned
    rng = np.random.default_rng(0)
    dataset, hierarchy, label_map = make_cluster_dataset(
        rng, num_groups=2, classes_per_group=2, dim=2, train_per_class=6, test_per_class=2,
    )
    dataset.features[:, 0] = 1.0
    dataset.features[:, 1] *= 1e4
    csv_path, tree_path = tmp_path / "bad.csv", tmp_path / "bad.json"
    write_dataset_csv(csv_path, dataset, label_map)
    save_tree_json(tree_path, hierarchy, label_map=label_map)
    with pytest.raises(ConditioningError, match=r"^posterior at node \d+: condition number"):
        cli.main([
            "classify-bandit", "--dataset", str(csv_path), "--hierarchy", str(tree_path),
            "--out", str(tmp_path / "run"), "--horizon", "5", "--runs", "2", "--jobs", "1",
        ])


def test_simulate_ill_conditioned_prior_raises(tmp_path):
    tree = balanced_tree(2, 1)
    cov = {1: np.eye(2), 2: np.diag([1e14, 1.0]), 3: np.eye(2)}
    save_tree_json(tmp_path / "tree.json", tree, PriorSpec(np.zeros(2), cov, noise_std=1.0))
    cfg = _write_config(tmp_path / "cfg.json", tree={"file": str(tmp_path / "tree.json")},
                        prior={"scheme": "file"}, model="linear", dim=2, noise_std=None)
    with pytest.raises(ConditioningError, match="^posterior at node 2: condition number"):
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run"), "--jobs", "1"])


def test_simulate_tree_file_prior_names_bad_node(tmp_path, capsys):
    tree = balanced_tree(2, 1)
    save_tree_json(tmp_path / "tree.json", tree, PriorSpec(0.0, {1: 1.0, 2: 1.0, 3: 1.0}, noise_std=1.0))
    doc = json.loads((tmp_path / "tree.json").read_text())
    doc["prior"]["node_variance"]["3"] = True  # was read as 1.0
    (tmp_path / "tree.json").write_text(json.dumps(doc))
    cfg = _write_config(tmp_path / "cfg.json", tree={"file": str(tmp_path / "tree.json")}, prior={"scheme": "file"},
                        noise_std=None)
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run"), "--jobs", "1"])
    assert code == cli.EXIT_INPUT
    assert "node 3 variance must be a finite number, got True" in capsys.readouterr().err


def test_classify_bandit_label_map_names_field(tmp_path, capsys):
    csv_path, tree_path, _ = _tiny_dataset(tmp_path)
    doc = json.loads(tree_path.read_text())
    label = next(iter(doc["label_map"]))
    doc["label_map"][label] = doc["label_map"][label] + 0.7  # was truncated to the leaf id
    tree_path.write_text(json.dumps(doc))
    code = cli.main([
        "classify-bandit", "--dataset", str(csv_path), "--hierarchy", str(tree_path),
        "--out", str(tmp_path / "run"), "--horizon", "5", "--runs", "1", "--jobs", "1",
    ])
    assert code == cli.EXIT_INPUT
    assert f"label_map.{label} must be an integer" in capsys.readouterr().err


def test_console_script_entry_point(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", horizon=5, instances=2)
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "hierts.cli", "simulate", "--config", str(cfg),
         "--out", str(out), "--jobs", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "regret.csv").exists()
