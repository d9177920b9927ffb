"""The README's ``--set section.key=value`` examples must still load, the
config keys it names must still exist, the API names it writes must still
exist, and the constants it quotes must still hold their values.

Each example whose value is concrete goes through
``config.load_experiment_config``. Every example, placeholders such as
``N`` or ``value`` included, and every backticked `` `section.key` `` of
the five config sections, such as `` `train.seed` ``, must name a key the
config file takes. An example or a name with a removed or misspelt key, or
a value a section rejects, then fails here instead of misleading a reader.
Conversely, the README's config table must list every key a config file
takes, with its default, and its count of those keys must hold, so no
setting lands undocumented.

An API name is code the README writes as a call (`` `name(` ``) or as
`` `module.name` `` for a ``uwbcorr`` module or public class; file names such
as ``metrics.json`` and config keys such as ``model.d_model`` are not API
names.

A quoted constant is `` `NAME` = value ``, such as `` `GRAD_TOL` = 1e-9 ``,
with a ``%`` read as /100 and ``ns`` as 1e-9 s. Every ``uwbcorr`` module
that holds ``NAME`` must hold that value, so a retuned constant cannot leave
a stale figure behind.
"""

import importlib
import inspect
import json
import math
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
CONFIG_ROW = re.compile(r"^\| `([\w.]+)` \| `([^`]*)` \|", re.MULTILINE)
CALL = re.compile(r"`([A-Za-z_][\w.]*)\(")
DOTTED = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_][\w.]*)`")
CONSTANT = re.compile(r"`([A-Z][A-Z0-9_]*)`\s+=\s+(\d+(?:\.\d+)?(?:e[-+]?\d+)?)(%| ns\b)?")
UNIT_SCALES = {"": 1.0, "%": 1e-2, " ns": 1e-9}
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


def config_defaults() -> dict:
    """Every key a config file takes, top-level ones included, with its
    default as JSON gives it back."""
    default = ExperimentConfig()
    keys = [f.name for f in fields(ExperimentConfig) if f.name not in _SECTION_KEYS]
    keys += [f"{section}.{key}" for section, names in _SECTION_KEYS.items() for key in names]
    values = {}
    for dotted in keys:
        value = default
        for part in dotted.split("."):
            value = getattr(value, part)
        values[dotted] = value
    return json.loads(json.dumps(values))


def test_the_readme_counts_the_config_keys():
    (count,) = re.findall(r"A config file takes these (\d+) keys", README.read_text())
    assert int(count) == len(config_defaults())


def test_the_readme_table_lists_every_config_key_with_its_default():
    rows = CONFIG_ROW.findall(README.read_text())
    assert len(rows) == len(dict(rows)), "a key has two rows"
    assert {key: json.loads(value) for key, value in rows} == config_defaults()


def api_names() -> list[str]:
    text = README.read_text()
    dotted = {
        f"{head}.{rest}"
        for head, rest in DOTTED.findall(text)
        if (head in MODULES or inspect.isclass(getattr(uwbcorr, head, None)))
        and rest.rsplit(".", 1)[-1] not in FILE_SUFFIXES
        and rest not in _SECTION_KEYS.get(head, ())  # a config key such as `model.d_model`
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


def readme_constants() -> list[tuple[str, float]]:
    """``(NAME, value)`` of every `` `NAME` = value `` the README quotes."""
    found = CONSTANT.findall(README.read_text())
    return [(name, float(number) * UNIT_SCALES[unit]) for name, number, unit in found]


def test_the_readme_quotes_constants():
    names = {name for name, _ in readme_constants()}
    assert {"GRAD_TOL", "SECOND_ORDER_RTOL", "DELTA_T_MAX_S", "LR_PEAK", "BOUND_MARGIN"} <= names


@pytest.mark.parametrize("name, value", readme_constants(), ids=[name for name, _ in readme_constants()])
def test_readme_constant_matches_the_code(name, value):
    owners = [module for module in MODULES.values() if name in vars(module)]
    assert owners, f"{name} is not a constant of any uwbcorr module"
    for module in owners:
        assert math.isclose(getattr(module, name), value, rel_tol=1e-12), f"{module.__name__}.{name}"
