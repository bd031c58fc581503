"""The golden CLI corpus: every case of ``cli_corpus.py`` prints the bytes
whose digest ``cli_corpus.json`` records (exit code, stdout, stderr and the
file it writes)."""

from __future__ import annotations

import json

import pytest

import cli_corpus

RECORDED = json.loads(cli_corpus.DIGESTS.read_text())
CASES = cli_corpus.cases()

pytestmark = pytest.mark.skipif(
    RECORDED["python"] != cli_corpus.python_version(),
    reason=f"digests recorded on Python {RECORDED['python']}")


def test_the_recorded_cases_are_the_generated_ones():
    assert list(CASES) == list(RECORDED["cases"])


@pytest.mark.parametrize("name", list(CASES))
def test_case_prints_the_recorded_bytes(name, tmp_path):
    result = cli_corpus.run_case(CASES[name], tmp_path)
    assert cli_corpus.digest(result) == RECORDED["cases"][name], result
