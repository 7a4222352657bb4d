"""tools/golden.py on a few of its commands: a tree against itself is
identical, and a copy that prints thresholds to 5 decimals is reported."""

import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = sys.modules.setdefault("golden", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(golden)

THRESHOLD = "threshold --family slgi --maximize-tau"
SMOKE = [case for case in golden.CASES if case.name in (THRESHOLD, "scan ci csv", "figure 3 json")]


def test_tree_against_itself_is_identical(capsys):
    assert len(SMOKE) == 3
    assert golden.main([str(ROOT), str(ROOT)], SMOKE) == 0
    out = capsys.readouterr().out
    assert "DIFF" not in out
    assert out.startswith("golden: 3 runs, 3 identical, 0 differ (old tree: 3 exit 0)")


def test_changed_threshold_digits_are_reported(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "lgscan" / "cli.py"
    text = cli.read_text()
    assert text.count("{eta:.6f}") == 1
    cli.write_text(text.replace("{eta:.6f}", "{eta:.5f}"))
    assert golden.main([str(ROOT), str(tmp_path)], SMOKE) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"DIFF [{THRESHOLD}] stdout differs at line 1: "
                          "b'slgi threshold eta = 0.816498' -> b'slgi threshold eta = 0.81650'"]
    assert lines[-1].startswith("golden: 3 runs, 2 identical, 1 differ")


def test_tree_without_sources_exits_2(tmp_path, capsys):
    assert golden.main([str(ROOT), str(tmp_path)], SMOKE) == 2
    assert capsys.readouterr().err == f"error: {str(tmp_path)!r} has no src/lgscan/cli.py\n"
