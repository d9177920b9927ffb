"""The README's ``--set section.key=value`` examples must still load, the
config keys it names must still exist, and the API names it writes must
still exist.

Each example whose value is concrete goes through
``config.load_experiment_config``. Every example, placeholders such as
``N`` or ``value`` included, and every backticked `` `section.key` `` of
the six config sections, such as `` `train.seed` ``, must name a key the
config file takes. An example or a name with a removed or misspelt key, or
a value a section rejects, then fails here instead of misleading a reader.

An API name is code the README writes as a call (`` `name(` ``) or as
`` `module.name` `` for a ``uwbcorr`` module or public class; file names such
as ``metrics.json`` are not API names.
"""

import importlib
import inspect
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import pytest

import uwbcorr
from uwbcorr.config import _SECTION_KEYS, ExperimentConfig, load_experiment_config

README = Path(__file__).resolve().parent.parent / "README.md"
SET_EXAMPLE = re.compile(r"--set[ =]([\w.]+=[^\s`]+)")
PLACEHOLDERS = {"N", "value", "VALUE"}
PLACEHOLDER_KEYS = {"section.key"}
SECTION_KEY = re.compile(rf"`({'|'.join(_SECTION_KEYS)})\.(\w+)(?:=[^\s`]*)?`")
CALL = re.compile(r"`([A-Za-z_][\w.]*)\(")
DOTTED = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_][\w.]*)`")
FILE_SUFFIXES = {"csv", "json", "jsonl", "md", "npz", "py", "toml", "txt"}
MODULES = {
    info.name: importlib.import_module(f"uwbcorr.{info.name}")
    for info in pkgutil.iter_modules(uwbcorr.__path__)
}
MODULES["uwbcorr"] = uwbcorr
CLASSES = [
    obj
    for module in MODULES.values()
    for obj in vars(module).values()
    if inspect.isclass(obj) and obj.__module__.startswith("uwbcorr")
]


def set_examples(concrete: bool = True) -> list[str]:
    items = SET_EXAMPLE.findall(README.read_text())
    return [item for item in items if not concrete or item.split("=", 1)[1] not in PLACEHOLDERS]


def test_the_readme_has_concrete_examples():
    assert len(set_examples()) >= 2


@pytest.mark.parametrize("item", set_examples())
def test_readme_set_example_loads(item):
    load_experiment_config(None, [item])


def config_keys() -> list[str]:
    """The ``section.key`` (or top-level key) of every ``--set`` example, and
    every backticked ``section.key`` that is not a file such as
    ``environment.json`` or an API name such as ``model.ModelConfig``."""
    text = README.read_text()
    named = {
        f"{section}.{key}"
        for section, key in SECTION_KEY.findall(text)
        if key not in FILE_SUFFIXES and not hasattr(MODULES.get(section), key)
    }
    overridden = {item.split("=", 1)[0] for item in set_examples(concrete=False)}
    return sorted((named | overridden) - PLACEHOLDER_KEYS)


def test_the_readme_names_config_keys():
    keys = config_keys()
    assert {"train.seed", "train.max_epochs", "environment.tag_height"} <= set(keys)


@pytest.mark.parametrize("dotted", config_keys())
def test_readme_config_key_exists(dotted):
    section, _, key = dotted.rpartition(".")
    if section:
        assert key in _SECTION_KEYS.get(section, ()), dotted
    else:
        assert key in {f.name for f in fields(ExperimentConfig)} - set(_SECTION_KEYS), dotted


def api_names() -> list[str]:
    text = README.read_text()
    dotted = {
        f"{head}.{rest}"
        for head, rest in DOTTED.findall(text)
        if (head in MODULES or inspect.isclass(getattr(uwbcorr, head, None)))
        and rest.rsplit(".", 1)[-1] not in FILE_SUFFIXES
    }
    return sorted(set(CALL.findall(text)) | dotted)


def has_path(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_the_readme_names_api():
    names = api_names()
    assert "make_model_config" in names and "tdoa.solve_baselines" in names


@pytest.mark.parametrize("name", api_names())
def test_readme_api_name_resolves(name):
    """A dotted name resolves from its module or class; a bare call, or a
    method called on a value such as ``cfg.with_environment(``, resolves
    when some uwbcorr module or class has that name."""
    head, _, rest = name.partition(".")
    if rest and head in MODULES:
        assert has_path(MODULES[head], rest), name
    elif rest and inspect.isclass(getattr(uwbcorr, head, None)):
        assert has_path(getattr(uwbcorr, head), rest), name
    else:
        last = name.rsplit(".", 1)[-1]
        assert any(hasattr(owner, last) for owner in [*MODULES.values(), *CLASSES]), name
