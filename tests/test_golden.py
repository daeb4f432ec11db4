"""Golden outputs: the reference suite report and the staircase demo, byte for byte.

A change that means to alter either output regenerates the files in its own
diff with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import importlib.util
import io
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def suite_report(path):
    """The JSON report of scripts/classification_suite.py --output, written to path."""
    with contextlib.redirect_stdout(io.StringIO()):
        _script("classification_suite").main(["--output", str(path)])
    return pathlib.Path(path).read_bytes()


def staircase_demo_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _script("staircase_demo").main([])
    return out.getvalue().encode()


def test_classification_suite_report_is_golden(tmp_path):
    got = suite_report(tmp_path / "suite.json")
    assert got == (GOLDEN / "classification_suite.json").read_bytes()


def test_staircase_demo_stdout_is_golden():
    assert staircase_demo_stdout() == (GOLDEN / "staircase_demo.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    suite_report(GOLDEN / "classification_suite.json")
    (GOLDEN / "staircase_demo.txt").write_bytes(staircase_demo_stdout())
