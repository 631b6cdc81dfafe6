"""Smoke tests for the scripts under scripts/: each runs on small inputs and prints or writes what it says."""
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from hierts import cli

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = REPO / "scripts"


def _run(script, *args, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, str(SCRIPTS / script), *map(str, args)], capture_output=True, text=True,
                          timeout=120, cwd=cwd, env=env)


def _module(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""Module docstring,
over two lines."""
import os  # a comment after code


# a comment line
def f(x):
    """Function docstring."""
    return x + 1


class C:
    """Class
    docstring."""

    y = """a string value,
    not a docstring"""
'''


def test_src_lines_counts_code_without_blanks_comments_or_docstrings():
    """count() gives all 17 lines and 6 code lines: the import, def, return, class and the two lines of a string
    value; the CLI prints the sums of count() over the package source, and count() of one .py file it is given."""
    src_lines = _module("src_lines")
    assert src_lines.count(SNIPPET) == (17, 6)
    proc = _run("src_lines.py", cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    got = re.fullmatch(r"src: (\d+) lines, (\d+) code lines", proc.stdout.strip())
    assert got, proc.stdout
    sums = [sum(col) for col in zip(*(src_lines.count(p.read_text()) for p in (REPO / "src").rglob("*.py")))]
    assert [int(got[1]), int(got[2])] == sums
    module = Path("src/hierts/posterior.py")
    proc = _run("src_lines.py", module, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    lines, code = src_lines.count((REPO / module).read_text())
    assert proc.stdout.strip() == f"{module}: {lines} lines, {code} code lines"


def test_cluster_dataset_script_feeds_classify_bandit(tmp_path):
    """make_cluster_dataset.py writes a data.csv and tree.json that classify-bandit runs on to exit 0."""
    proc = _run("make_cluster_dataset.py", "--out", tmp_path / "data", "--groups", 2, "--classes-per-group", 2,
                "--dim", 3)
    assert proc.returncode == 0, proc.stderr
    data = tmp_path / "data"
    assert cli.main(["classify-bandit", "--dataset", str(data / "data.csv"), "--hierarchy", str(data / "tree.json"),
                     "--horizon", "20", "--runs", "1", "--jobs", "1", "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    assert (tmp_path / "run" / "regret.csv").is_file()



def test_linear_layers_script_times_each_layer():
    """linear_layers.py at a tiny size prints one positive time per layer: update_path, draw and the TS update."""
    proc = _run("linear_layers.py", "--updates", 5, "--repeats", 1)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.strip().splitlines()
    assert header == "layer,us_per_call"
    times = dict(line.split(",") for line in lines)
    assert list(times) == ["update_path", "draw", "ts_update"]
    assert all(float(value) > 0 for value in times.values())


def test_import_times_script_lists_the_modules_a_statement_loads():
    """import_times.py prints a row per hierts module the statement loads, with the stdlib modules they pull in
    under them, and a total of the self times: `import hierts.cli` loads config and envs but not the linear model,
    and the total is the sum of the rows."""
    proc = _run("import_times.py", "--repeat", 1, "import hierts.cli")
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.strip().splitlines()
    assert header == "module,under,self_us,cumulative_us"
    rows = {name: (under, float(self_us)) for name, under, self_us, _ in (line.split(",") for line in lines)}
    assert {"hierts", "hierts.config", "hierts.envs", "hierts.cli", "csv"} <= set(rows)
    assert "hierts.linear" not in rows and rows["csv"][0] == "hierts.envs"
    total = rows.pop("total")[1]
    assert all(self_us >= 0 for _, self_us in rows.values()) and total == sum(s for _, s in rows.values())
