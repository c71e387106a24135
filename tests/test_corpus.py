"""Every command of the checked-in corpus (``tools/corpus.py``) reproduces its output.

Exit codes, stderr, keys, integers and strings must be equal, and floats within
``corpus.TOLERANCE`` relative.  A change that moves an output regenerates the
corpus with ``python tools/corpus.py``; ``--diff`` lists the values whose bits moved.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import corpus  # noqa: E402

RECORDS = corpus.load()


def test_the_corpus_holds_every_command():
    assert {name: record["argv"] for name, record in RECORDS.items()} == corpus.COMMANDS


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_command_reproduces_its_corpus_output(name):
    record = RECORDS[name]
    moved = [(path, old, new) for path, old, new, within in corpus.differences(record, corpus.run(record["argv"])) if not within]
    assert moved == []


def test_the_comparison_tolerates_a_last_ulp_float_and_nothing_else():
    old = {"exit": 0, "stderr": "", "stdout": '{"a": 1.0, "n": 3, "s": "x"}\n'}
    assert list(corpus.differences(old, {**old, "stdout": '{"a": 1.0000000000000002, "n": 3, "s": "x"}\n'})) == [
        ("stdout.a", 1.0, 1.0000000000000002, True)
    ]
    for stdout in ('{"a": 1.00001, "n": 3, "s": "x"}', '{"a": 1.0, "n": 4, "s": "x"}', '{"a": 1.0, "n": 3, "s": "y"}',
                   '{"n": 3, "a": 1.0, "s": "x"}'):
        assert [within for *_, within in corpus.differences(old, {**old, "stdout": stdout})] == [False]
    assert [within for *_, within in corpus.differences(old, {**old, "exit": 2})] == [False]
    csv = {"exit": 0, "stderr": "", "stdout": "x1,f\n0.5,1\n# omitted=0\n"}
    for moved in ("0.99999999999999989", "1.0000000000000002"):
        stdout = f"x1,f\n0.5,{moved}\n# omitted=0\n"
        assert [within for *_, within in corpus.differences(csv, {**csv, "stdout": stdout})] == [True]
    # a sign of zero is a moved bit, listed but within the tolerance; nan matches nan
    zero = {**csv, "stdout": "x1,f\n0,1\n# omitted=0\n"}
    assert list(corpus.differences(zero, {**zero, "stdout": "x1,f\n-0,1\n# omitted=0\n"})) == [("stdout[1][0]", 0, -0.0, True)]
    nan = {**old, "stdout": '{"a": NaN, "n": 3, "s": "x"}'}
    assert list(corpus.differences(nan, nan)) == []
