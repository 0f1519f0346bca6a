"""The suite's own pytest settings: a failing property test is reported
as a failure, and the run goes on to the tests after it."""

import os
import subprocess
import sys
import textwrap

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # Reporting a @given failure imports hypothesis's patching helpers,
    # whose dependencies warn on import; under filterwarnings = error
    # that warning must not turn into an INTERNALERROR (exit code 3).
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""\
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", PYPROJECT, "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert proc.returncode == 1
