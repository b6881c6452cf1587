"""The suite's own pytest settings report a failing property and go on."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_failing_property_does_not_abort_the_session(tmp_path):
    # Under ``filterwarnings = ["error"]`` a warning raised while the
    # hypothesis plugin reports a failure would end the session with an
    # INTERNALERROR before ``test_passes`` runs.  The pair runs in a fresh
    # interpreter, so warnings a module emits once on import fire there.
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
