"""The README's ``--set section.key=value`` examples must still load.

Each example whose value is concrete goes through
``config.load_experiment_config``; placeholders such as ``N`` or ``value``
are skipped. An example that names a removed or misspelt key, or a value a
section rejects, then fails here instead of misleading a reader.
"""

import re
from pathlib import Path

import pytest

from uwbcorr.config import load_experiment_config

README = Path(__file__).resolve().parent.parent / "README.md"
SET_EXAMPLE = re.compile(r"--set[ =]([\w.]+=[^\s`]+)")
PLACEHOLDERS = {"N", "value", "VALUE"}


def set_examples() -> list[str]:
    items = SET_EXAMPLE.findall(README.read_text())
    return [item for item in items if item.split("=", 1)[1] not in PLACEHOLDERS]


def test_the_readme_has_concrete_examples():
    assert len(set_examples()) >= 2


@pytest.mark.parametrize("item", set_examples())
def test_readme_set_example_loads(item):
    load_experiment_config(None, [item])
