"""The README's library quickstart runs as written and prints the values its
comments document."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs_and_prints_what_it_documents(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    calls = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    for call, out in zip(calls, printed):
        if "#" not in call:
            continue
        # the comment's first word is the value; a trailing "..." makes it a prefix
        expected = call.split("#", 1)[1].split()[0].strip('"')
        if expected.endswith("..."):
            assert out.startswith(expected[:-3]), call
        else:
            assert out == expected, call
