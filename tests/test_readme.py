"""The README's library quickstart runs as shown."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs():
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md (Library quickstart)", "exec"), {})
