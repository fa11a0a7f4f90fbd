"""Every output bit of a fixed set of ``hirnet`` commands, against the
committed digest.

``tests/output_digest_seed7.txt`` is the output of
``tools/output_digest.py --seed 7``: a header line with the Python, numpy
and BLAS versions, then the SHA-256 of each file the commands write. The
test runs the same commands, from the tool's own list, through
``hirnet.cli.main`` in this process, and compares the digests line by line.
A change that moves an output bit on purpose regenerates the file in the
same commit.
"""

import os
import sys

import pytest

from hirnet.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import output_digest  # noqa: E402

GOLDEN = os.path.join(ROOT, "tests", "output_digest_seed7.txt")
REGENERATE = "python3 tools/output_digest.py --seed 7 > tests/output_digest_seed7.txt"
AGAINST = "python3 tools/output_digest.py --seed 7 --against PARENT_CHECKOUT/src"


def in_process(*args: str, exit_code: int = 0) -> None:
    code = main(list(args))
    assert code == exit_code, f"hirnet {' '.join(args)} exited {code}, not {exit_code}"


def by_path(lines: list[str]) -> dict[str, str]:
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_outputs_match_the_committed_digest(tmp_path):
    with open(GOLDEN) as fh:
        committed_header, *committed = fh.read().splitlines()
    header = output_digest.header()
    assert header == committed_header, (
        "the committed digest comes from another toolchain, whose arithmetic may differ:\n"
        f"  committed: {committed_header}\n  here:      {header}\n"
        f"regenerate it here with: {REGENERATE}")
    output_digest.write_commands(in_process, str(tmp_path), 7)
    got = by_path(output_digest.digests(output_digest.outputs(str(tmp_path))))
    expected = by_path(committed)
    differing = sorted(path for path in got.keys() | expected.keys()
                       if got.get(path) != expected.get(path))
    assert not differing, (
        f"{len(differing)} of {len(expected)} output files differ from the committed digest:\n  "
        + "\n  ".join(differing)
        + f"\nsee each file's worst deviation with: {AGAINST}\n"
        f"if the change of bits is intended, regenerate the digest with: {REGENERATE}")
