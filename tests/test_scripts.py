"""The scripts drive the CLI with argv lists; each list must still parse.

Every script runs with its ``cli`` call replaced by a recorder, so no
simulation or training happens; then every recorded argv goes through
``cli.build_parser()``. A flag the CLI drops then fails here, not in a
long run.
"""

import importlib.util
from pathlib import Path

import pytest

from uwbcorr.cli import build_parser
from uwbcorr.config import load_experiment_config

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(script: str):
    spec = importlib.util.spec_from_file_location(script, SCRIPTS / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def recorded_argvs(script: str, script_args: list[str]) -> list[list[str]]:
    module = load_script(script)
    calls = []
    module.cli = lambda argv: calls.append(list(argv)) or 0
    assert module.run(script_args) == 0
    return calls


@pytest.mark.parametrize(
    "script, script_args, commands",
    [
        ("run_end_to_end", [], ["simulate", "baseline", "train"]),
        ("run_end_to_end", ["--full"], ["simulate", "baseline", "train"]),
        ("run_sweep", [], ["sweep", "complexity"]),
        ("run_sweep", ["--limit", "3", "--epochs", "2"], ["sweep", "complexity"]),
    ],
)
def test_every_recorded_argv_parses(script, script_args, commands):
    calls = recorded_argvs(script, script_args)
    parsed = [build_parser().parse_args(argv) for argv in calls]
    assert [args.command for args in parsed] == commands
    for args in parsed:
        load_experiment_config(args.config, args.set or [])


@pytest.mark.parametrize("script_args, epochs", [([], 15), (["--full"], 90)])
def test_end_to_end_sets_the_training_epochs(script_args, epochs):
    (train,) = [argv for argv in recorded_argvs("run_end_to_end", script_args) if argv[0] == "train"]
    args = build_parser().parse_args(train)
    assert load_experiment_config(None, args.set).train.max_epochs == epochs


def test_sweep_sets_the_sweep_epochs():
    sweep = recorded_argvs("run_sweep", ["--epochs", "2"])[0]
    args = build_parser().parse_args(sweep)
    assert load_experiment_config(None, args.set).sweep.max_epochs == 2


@pytest.mark.parametrize(
    "flag, value, shown",
    [
        ("--limit", "0", "--limit must be an integer >= 1, got 0"),
        ("--epochs", "0", "max_epochs must be an integer >= 1, got 0"),
    ],
)
def test_sweep_passes_a_zero_on_and_the_cli_rejects_it(tmp_path, capsys, flag, value, shown):
    """A 0 is not dropped: the real CLI refuses it, exits 2 with one line
    and writes no sweep table."""
    out = tmp_path / "out"
    assert load_script("run_sweep").run(["--output-dir", str(out), flag, value]) == 2
    assert capsys.readouterr().err == f"error: ConfigError: {shown}\n"
    assert not out.exists()
