"""A failing property test reports its counterexample under this repository's
pytest configuration.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error. When a
``@given`` test fails, hypothesis may import libcst to suggest a patch, and
that import raises a third-party deprecation
(``mypy_extensions.TypedDict``); as an error it ended the run in an
``INTERNALERROR`` instead of the ``Falsifying example``. The configuration
ignores that one warning. This runs pytest in a child process, with the
repository's configuration, on a throwaway test that fails.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TEST = """\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_given_test_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_TEST)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
