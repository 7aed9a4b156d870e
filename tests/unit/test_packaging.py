"""Package metadata: ``pyproject.toml`` is the single source of it.

``setup.py`` is a bare shim for legacy editable installs; these tests pin
that the metadata it defers to exists and agrees with the importable
package.
"""

import subprocess
import sys
import tomllib
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]


def load_project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)


def test_project_table_matches_the_package():
    project = load_project()["project"]
    assert project["name"] == "repro"
    assert project["version"] == repro.__version__
    assert project["requires-python"] == ">=3.11"
    assert project["optional-dependencies"]["numpy"] == ["numpy"]


def test_src_layout_and_no_pytest_section():
    """Packages are found under ``src``; test collection is left to the
    command line so ``benchmarks/`` stays in the default run."""
    config = load_project()
    assert config["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    assert "pytest" not in config["tool"]
    assert (ROOT / "src" / "repro" / "__init__.py").is_file()


def test_setup_shim_reads_the_metadata():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert completed.stdout.split() == ["repro", repro.__version__]
