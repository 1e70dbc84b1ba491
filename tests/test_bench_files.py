"""Every committed benchmark record parses and carries the fields readers rely on."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
KEYS = {"what", "machine", "parent", "method", "benchmark", "same_answers", "tier1"}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_parses_with_required_keys(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    assert KEYS <= set(record), sorted(KEYS - set(record))
