"""End-to-end checks of the command line interface.

Each command runs in-process through cli.main so exit codes and artifacts
can be asserted directly; one test exercises the installed console script.
"""
import json
import subprocess
import sys

import numpy as np
import pytest

from hierts import PosteriorState, cli
from hierts.envs import make_cluster_dataset, write_dataset_csv
from hierts.hierarchy import PriorSpec, balanced_tree, save_tree_json
from hierts.linear import ConditioningError


def _write_config(path, **overrides):
    doc = {
        "tree": {"b": 2, "h": 1},
        "prior": {"scheme": "constant", "value": 1.0},
        "noise_std": 1.0,
        "horizon": 15,
        "instances": 3,
        "seed": 3,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
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
    assert replay["command"] == "simulate"
    assert replay["seed"] == 3


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1), "--jobs", "1"]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "regret.csv").read_bytes() == (out2 / "regret.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_file_prior_records_only_what_the_run_used(tmp_path):
    """Under the file scheme the tree file holds noise_std and hyper_mean; neither config block
    records the config's unused values, and the replay config reruns to identical outputs."""
    tree = balanced_tree(2, 1)
    save_tree_json(tmp_path / "tree.json", tree, PriorSpec(0.25, {1: 1.0, 2: 2.0, 3: 0.5}, noise_std=0.5))
    cfg = _write_config(tmp_path / "cfg.json", tree={"file": str(tmp_path / "tree.json")}, prior={"scheme": "file"})
    out, again = tmp_path / "run", tmp_path / "again"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == cli.EXIT_OK
    replay = json.loads((out / "replay.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    for doc in (replay["config"], summary["config"]):
        assert "noise_std" not in doc and "hyper_mean" not in doc
    replay_cfg = tmp_path / "replay_cfg.json"
    replay_cfg.write_text(json.dumps(replay["config"]))
    assert cli.main(["simulate", "--config", str(replay_cfg), "--out", str(again), "--jobs", "1"]) == cli.EXIT_OK
    for name in ("regret.csv", "summary.json", "replay.json"):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


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


def test_verify_oracle_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"scalar_cases": 1, "bogus": 2}))
    assert cli.main(["verify-oracle", "--config", str(cfg)]) == cli.EXIT_INPUT
    assert "bogus" in capsys.readouterr().err


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
    ],
    ids=["syntax", "ratio-tree", "prior-value", "agents", "horizon", "verify-seed", "verify-cases",
         "horizon-bool", "heights-bool", "verify-cases-bool", "delta-str", "noise-str", "hyper-mean-str",
         "ratio-parents", "parents-float", "noise-huge-int", "sentinel-str", "sentinel-int", "sentinel-null",
         "sentinel-true", "sentinel-false"],
)
def test_malformed_config_exits_input(tmp_path, capsys, command, text, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg)]
    if command != "verify-oracle":
        argv += ["--out", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "error:" in err
    assert field in err


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
    code = cli.main([
        "classify-bandit", "--dataset", str(csv_path), "--hierarchy", str(tree_path),
        "--out", str(tmp_path / "run"), "--runs", "0",
    ])
    assert code == cli.EXIT_INPUT
    assert "--runs" in capsys.readouterr().err


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
                        prior={"scheme": "file"}, model="linear", dim=2)
    with pytest.raises(ConditioningError, match="^posterior at node 2: condition number"):
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run"), "--jobs", "1"])


def test_simulate_tree_file_prior_names_bad_node(tmp_path, capsys):
    tree = balanced_tree(2, 1)
    save_tree_json(tmp_path / "tree.json", tree, PriorSpec(0.0, {1: 1.0, 2: 1.0, 3: 1.0}, noise_std=1.0))
    doc = json.loads((tmp_path / "tree.json").read_text())
    doc["prior"]["node_variance"]["3"] = True  # was read as 1.0
    (tmp_path / "tree.json").write_text(json.dumps(doc))
    cfg = _write_config(tmp_path / "cfg.json", tree={"file": str(tmp_path / "tree.json")}, prior={"scheme": "file"})
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
