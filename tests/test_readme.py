"""The python examples of README.md run, in order, in one namespace.

A renamed or removed API name fails the run. Every top-level line of the form
``expression   # value`` must evaluate to something whose repr starts with
the stated value (up to a ``:`` or a trailing ``...``), and the lines printed
by the examples must be the quoted strings of their ``print`` comments, in
the order stated.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
COMMENTED = re.compile(r"^(\S.*?)\s+#\s+(.*)$")


def is_expression(code: str) -> bool:
    try:
        ast.parse(code, mode="eval")
    except SyntaxError:
        return False
    return True


def stated_prints(block: str) -> list[str]:
    return [
        text
        for line in block.splitlines()
        if line.lstrip().startswith("print(") and "#" in line
        for text in re.findall(r'"([^"]*)"', line.split("#", 1)[1])
    ]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


def test_python_examples_run_and_state_their_values():
    namespace: dict = {}
    printed: list[str] = []
    stated: list[str] = []
    checked = 0
    for block in BLOCKS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed += out.getvalue().splitlines()
        stated += stated_prints(block)
        for line in block.splitlines():
            match = COMMENTED.match(line)
            if not match or not is_expression(match[1]):
                continue
            value = match[2].split(":", 1)[0].removesuffix("...")
            assert repr(eval(match[1], namespace)).startswith(value), line
            checked += 1
    assert checked >= 10
    assert stated and printed == stated
