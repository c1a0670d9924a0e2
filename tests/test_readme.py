"""README's "Library use" example runs as written and prints what its comments say."""

import contextlib
import io
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def library_use_block():
    """The first ``python`` code block under README's "Library use" heading."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text[text.index("## Library use") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_prints_its_commented_values():
    block = library_use_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    # The cost, to the two decimals of its comment, then period 0's cold-start
    # lambda and dual value.
    assert "# ~[4.93, 5.01]" in block and "# 0 [1. 1.] 0.4082" in block
    assert [round(float(v), 2) for v in lines[0].strip("[]").split()] == [4.93, 5.01]
    assert lines[1] == "0 [1. 1.] 0.4082"
