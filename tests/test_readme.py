"""The README's library quickstart runs as shown, and its config table is the schema."""

import re
from pathlib import Path

from cqdec.config import _CONFIG_KEYS, NUMBER_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(title):
    return README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_quickstart_runs():
    section = readme_section("Library quickstart")
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md (Library quickstart)", "exec"), {})


def test_config_table_names_every_key_and_smallest_value():
    # each row: key cell (one or more `key`s), default, smallest value or '-', meaning
    documented = {}
    for line in readme_section("Experiment config schema").splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| `"):
            for key in re.findall(r"`([^`]+)`", cells[0]):
                documented[key] = cells[2]
    assert set(documented) == _CONFIG_KEYS
    assert documented == {
        key: str(NUMBER_KEYS[key][2]) if key in NUMBER_KEYS else "-" for key in _CONFIG_KEYS
    }
