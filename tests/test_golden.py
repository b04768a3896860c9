"""The golden manifest: every output sact computes matches ``tests/golden.txt``.

``tools/golden.py`` regenerates the manifest.  A change that alters an output
on purpose regenerates the file with ``python3 tools/golden.py >
tests/golden.txt`` and names the changed lines.
"""

import importlib.util
from pathlib import Path

import pytest

import sact.exact

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.txt"


def load_tool():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_golden_manifest():
    check_manifest()


def test_the_smallest_blocks_give_the_same_manifest(monkeypatch):
    # Every valuation of more than 16 prefix entries then spans several
    # blocks, every one of more than 128 acting entries several leaves, and
    # every table of more than 4 items several blocks of bits.  ``fits``
    # refuses every size, so every greedy step values its candidates one by
    # one, and exhaustive search walks every subset; the default sizes value
    # them at once.
    monkeypatch.setattr(sact.exact, "BLOCK", 16)
    monkeypatch.setattr(sact.exact, "LEAF", 128)
    monkeypatch.setattr(sact.exact, "fits", lambda entries: False)
    check_manifest()


def check_manifest():
    golden = load_tool()
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    if expected[0] != golden.header():
        pytest.fail(
            f"tests/golden.txt was written under {expected[0].split(': ', 1)[-1]}, "
            f"and this run has {golden.header().split(': ', 1)[-1]}; check the changed lines "
            "under the new versions and regenerate the manifest"
        )
    actual = golden.manifest()
    for number, (want, got) in enumerate(zip(expected, actual), start=1):
        if want != got:
            pytest.fail(
                f"tests/golden.txt line {number} differs:\n  expected {want}\n  got      {got}"
            )
    assert len(actual) == len(expected), (
        f"the manifest has {len(actual)} lines, tests/golden.txt {len(expected)}"
    )
