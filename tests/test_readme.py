"""The README's library sketch runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under 'Library sketch'"
    exec(compile(block.group(1), "README.md (Library sketch)", "exec"), {})
