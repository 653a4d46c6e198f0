"""The committed report corpus: every CLI op's exit code, stdout and stderr
match tests/golden, floats within 1e-12 relative and all else exactly.
After a deliberate change of a report, `tests/golden/regenerate.py`
rewrites the corpus."""

from __future__ import annotations

import copy

import pytest

from golden.regenerate import GOLDEN, OPS, label, load, moved_fields, path_of, run, write_inputs


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("chambers"))


@pytest.mark.parametrize("op", OPS, ids=label)
def test_report_matches_the_corpus(op, inputs):
    record = run(op, inputs)
    fields = [f"{path}: {a!r} -> {b!r}" for path, a, b in moved_fields(load(op), record)]
    assert not fields, "\n".join(fields)


def test_one_corpus_file_per_op():
    paths = [path_of(op) for op in OPS]
    assert len(set(paths)) == len(OPS) == 55
    assert sorted(GOLDEN.glob("*.json")) == sorted(paths)


def test_moved_fields_compare_floats_within_the_tolerance():
    committed = load(("analyze-coxeter", "a3", ("--thickness", "4")))
    result = committed["stdout"]["result"]
    assert isinstance(result["smallest_eigenvalue"], float)

    def moves(edit):
        new = copy.deepcopy(committed)
        edit(new["stdout"]["result"])
        return [path for path, _, _ in moved_fields(committed, new)]

    assert moves(lambda r: None) == []
    value = result["smallest_eigenvalue"]
    assert moves(lambda r: r.update(smallest_eigenvalue=value + 5e-13)) == []
    assert moves(lambda r: r.update(smallest_eigenvalue=value + 5e-12)) == [
        "stdout.result.smallest_eigenvalue"
    ]
    assert moves(lambda r: r.update(rank=r["rank"] + 1)) == ["stdout.result.rank"]
    assert moves(lambda r: r.update(rank=float(r["rank"]))) == []  # 3 and 3.0 are one value
    assert moves(lambda r: r.update(classification="affine")) == ["stdout.result.classification"]
    reordered = copy.deepcopy(committed)
    reordered["stdout"]["result"] = dict(reversed(list(result.items())))
    assert [path for path, _, _ in moved_fields(committed, reordered)] == ["stdout.result keys"]


def test_moved_fields_read_numbers_in_text_lines():
    committed = {"exit_code": 0, "stdout": ["  x: 0.5", "  n: 3"], "stderr": []}

    def moves(lines):
        return [path for path, _, _ in moved_fields(committed, {**committed, "stdout": lines})]

    assert moves(["  x: 0.5000000000001", "  n: 3"]) == []
    assert moves(["  x: 0.50000000001", "  n: 3"]) == ["stdout[0]"]
    assert moves(["  x: 0.5", "  n: 4"]) == ["stdout[1]"]
    assert moves(["  y: 0.5", "  n: 3"]) == ["stdout[0]"]
    assert moves(["  x: 0.5"]) == ["stdout length"]
