import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_negative(x):
    assert x < 0
"""


def test_failing_hypothesis_property_is_reported(tmp_path):
    """Under the repository's pytest config, which turns warnings into
    errors, a failing ``@given`` test is reported with its falsifying
    example and exit code 1, not as an INTERNALERROR (exit 3) from a
    warning raised while hypothesis reports the failure."""
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_prop.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
