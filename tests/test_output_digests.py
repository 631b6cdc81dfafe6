"""Outputs stay byte-identical: a fast subset of scripts/output_digests.py's runs against checked-in digests.

tests/data/output_digests.txt holds the sha256 of every file the subset writes: scalar `simulate` runs at
--jobs 1 and 2, `bound`, one small `ratio` and raw scalar draws per tree (`hierts_sample` on floats, sized,
and the one column of a `LockstepDraw` fed the same normals), with summary.json and replay.json hashed
whole. Linear outputs are left out, since their bits depend on the BLAS build. A change that is meant to
move outputs regenerates the file and names the moved files in CHANGES.md:

    PYTHONPATH=src python tests/test_output_digests.py
"""
import importlib.util
import json
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DIGESTS = REPO / "tests" / "data" / "output_digests.txt"
SIMULATE = ("explicit_tree", "mixed_depth_tree", "doubling_b2_h7")
BOUND = ("doubling_b5_h2", "explicit_tree")
RATIO = {"heights": [1, 2], "tree": {"b": 2}, "prior": {"scheme": "doubling"}, "horizon": 60, "instances": 8,
         "seed": 5}


def _load_script():
    spec = importlib.util.spec_from_file_location("output_digests", REPO / "scripts" / "output_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def fast_manifest(root: Path) -> list[str]:
    """Run the subset under root and return its manifest lines."""
    script = _load_script()
    runs = root / "runs"
    (root / "ratio.json").write_text(json.dumps(RATIO))
    for jobs in ("1", "2"):
        for name in SIMULATE:
            script.run(["simulate", "--config", str(script.CONFIGS / f"{name}.json"),
                        "--out", str(runs / f"simulate-{name}-j{jobs}"), "--jobs", jobs])
        script.run(["ratio", "--config", str(root / "ratio.json"), "--out", str(runs / f"ratio-j{jobs}"),
                    "--jobs", jobs])
    for name in BOUND:
        script.run(["bound", "--config", str(script.CONFIGS / f"{name}.json"), "--out", str(runs / f"bound-{name}")])
    script.write_draws(root / "draws")
    for path in (root / "draws").rglob("linear*.bin"):
        path.unlink()
    return script.manifest(root)


def test_outputs_match_checked_in_digests(tmp_path):
    assert fast_manifest(tmp_path) == DIGESTS.read_text().splitlines()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = fast_manifest(Path(tmp))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text("\n".join(lines) + "\n")
    print(f"wrote {DIGESTS} ({len(lines)} files)")
