"""The README's library example runs against the current package."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The first python block under the README's "Library use" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and all(math.isfinite(float(v)) for v in printed)
