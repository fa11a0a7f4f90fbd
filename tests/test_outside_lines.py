"""``tools/outside_lines.py`` traces two pytest runs in fresh interpreters
and reports the ``src/hirnet`` lines only the second reaches. One small
trace, one test of ``tests/test_optim.py`` against the whole file, checks
that a line only the file's other tests run is reported and marked."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import outside_lines  # noqa: E402


def test_a_line_only_the_wider_run_reaches_is_reported():
    by_file, runs = outside_lines.only_in_suite(["tests/test_optim.py::test_determinism"],
                                                ["tests/test_optim.py"])
    assert runs["outside"][1] == runs["suite"][1] == 0
    assert 0 < runs["outside"][0] < runs["suite"][0]
    assert list(by_file) == [os.path.join("src", "hirnet", "optim.py")]
    [texts] = [[text for _, text in lines] for lines in by_file.values()]
    assert any(text.startswith("raise NonFiniteGradient(") for text in texts)
    assert all(outside_lines.ERROR_PATH.match(text) for text in texts)
