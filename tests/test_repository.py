"""The source tree itself: what git tracks agrees with .gitignore."""

import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    # a tracked file that .gitignore excludes is generated output committed
    # by mistake, or an ignore rule that no longer means anything
    try:
        top = _git("rev-parse", "--show-toplevel")
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git work tree")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""
