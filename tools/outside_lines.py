#!/usr/bin/env python3
"""The lines of ``src/hirnet`` that only the unit tests run.

    python3 tools/outside_lines.py

Runs pytest twice, each time in a fresh interpreter pinned to the
highest-numbered CPU it may use, with a ``sys.settrace`` line tracer that
records every line of ``src/hirnet`` it executes (``coverage`` is not a
dependency). The first run takes the outside callers: the acceptance
tests, the golden digest test and perfbench's self-tests. The second takes
the whole Tier-1 suite.

It prints how many lines each run reaches, then every line that only the
suite reaches, by file, each marked ``!`` if it raises, catches or warns
(a ``raise``, ``except`` or ``warnings.warn`` line), with the count of such
lines apart: what is left of a line that no outside caller reaches is
mostly a check of a bad input. It also prints each run's pytest exit code
if it is not 0.

Pinning is part of the measure: on one CPU a run's grid trains in its own
process, so the worker pool of ``harness.run_experiment`` and
``BatchPlan.__setstate__`` (which a worker calls to unpickle its plans) stay
out of the outside set; only unit tests that force a worker count, or
pickle a plan, reach them. The tracer sees the pytest process alone, not
the worker processes or fresh interpreters that a test starts.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "hirnet") + os.sep
OUTSIDE = ("tests/test_acceptance.py", "tests/test_output_digest.py", "perfbench/test_perfbench.py")
SUITE = (".",)
ERROR_PATH = re.compile(r"\s*(raise|except)\b|.*\bwarnings\.warn\(")


def trace(tests, into: str) -> int:
    """Run pytest on ``tests`` in this process, pinned to one CPU, and write
    the executed ``src/hirnet`` lines to ``into`` as JSON; returns pytest's exit code."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    lines: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SRC) else None

    import pytest

    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *tests])
    finally:
        sys.settrace(None)
    with open(into, "w") as fh:
        json.dump(sorted(lines), fh)
    return int(code)


def reached(tests) -> tuple[set[tuple[str, int]], int]:
    """The ``src/hirnet`` lines that pytest on ``tests`` executes, from a fresh
    interpreter, and its exit code."""
    with tempfile.TemporaryDirectory() as scratch:
        into = os.path.join(scratch, "lines.json")
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--trace-into", into,
                               "--", *tests], cwd=ROOT, env=env, capture_output=True, text=True)
        if not os.path.exists(into):
            raise SystemExit(f"pytest {' '.join(tests)} wrote no trace:\n"
                             f"{proc.stdout}{proc.stderr}")
        with open(into) as fh:
            return {(path, line) for path, line in json.load(fh)}, proc.returncode


def only_in_suite(outside, suite) -> tuple[dict[str, list[tuple[int, str]]], dict]:
    """The lines the ``suite`` run reaches and the ``outside`` run does not, as
    ``{path relative to the root: [(line number, text), ...]}``, and each run's
    ``(line count, pytest exit code)`` by the names "outside" and "suite"."""
    (inside, inside_code), (wide, wide_code) = reached(outside), reached(suite)
    by_file: dict[str, list[tuple[int, str]]] = {}
    for path, line in sorted(wide - inside):
        with open(path) as fh:
            text = fh.read().splitlines()[line - 1]
        by_file.setdefault(os.path.relpath(path, ROOT), []).append((line, text.strip()))
    return by_file, {"outside": (len(inside), inside_code), "suite": (len(wide), wide_code)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-into", help=argparse.SUPPRESS)
    parser.add_argument("tests", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.trace_into:
        return trace(args.tests, args.trace_into)
    by_file, runs = only_in_suite(OUTSIDE, SUITE)
    for name, (count, code) in runs.items():
        print(f"{name} run reaches {count} lines" + (f" (pytest exit {code})" if code else ""))
    total = sum(map(len, by_file.values()))
    errors = sum(bool(ERROR_PATH.match(text)) for lines in by_file.values() for _, text in lines)
    print(f"{total} lines only the suite reaches, {errors} of them raise, except or warn")
    for path, lines in by_file.items():
        print(f"\n{path} ({len(lines)})")
        for line, text in lines:
            print(f"{'!' if ERROR_PATH.match(text) else ' '} {line:4d}  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
