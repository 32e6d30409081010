"""The README's Python examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
    assert capsys.readouterr().out
