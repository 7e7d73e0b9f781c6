"""The docs gate, as a tier-1 test: links resolve, tutorial doctests pass,
and the calls ``docs/API.md`` shows match the library's signatures.

CI also runs ``tools/check_docs.py`` as a standalone job; wrapping it
here means a plain ``pytest`` run catches a broken doc link or a stale
tutorial example before CI does.
"""

import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_docs.py"


def test_docs_links_and_tutorial_doctests():
    completed = subprocess.run(
        [sys.executable, str(CHECKER)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr


def test_checker_flags_broken_links(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("[missing](docs/NOPE.md)\n")
    (tmp_path / "docs" / "TUTORIAL.md").write_text("# stub\n")
    completed = subprocess.run(
        [sys.executable, str(CHECKER), "--root", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 1
    assert "broken link" in completed.stdout


def test_checker_flags_stale_parameters(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("# stub\n")
    (tmp_path / "docs" / "TUTORIAL.md").write_text("# stub\n")
    (tmp_path / "docs" / "API.md").write_text(
        "| `CRH(convergence=…, initializer=…)` | the baseline |\n"
        "| `compact_by_groups(matrix, row_to_group, n_groups, aggregation)` | ok |\n"
    )
    (tmp_path / "src").symlink_to(REPO_ROOT / "src")
    completed = subprocess.run(
        [sys.executable, str(CHECKER), "--root", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 1
    assert "`CRH` has no parameter 'initializer'" in completed.stdout
    assert "compact_by_groups" not in completed.stdout
