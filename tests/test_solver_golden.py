"""Baseline solver outputs pinned to the reference multi-start solver.

``data/solver_golden.json`` holds ``baseline_position`` results for the
cases built by :func:`golden_cases`: 64 seeded samples from
``default_environment()``, 48 with half the anchors dropped at random and
16 with 85% dropped (so pair counts vary and a few samples are
unsolvable), under both pair policies, with ``fix_z=1.0`` and
``fix_z=None``, and with and without an ``init`` point. It was written by
running this module as a script (``PYTHONPATH=src python
tests/test_solver_golden.py``) at commit 5e820d1, where every start of the
multi-start ran one after another in a Python loop; JSON stores the floats
exactly. Do not regenerate it from a newer solver: it is the reference a
rewrite of the solver must reproduce.

``reference_anchor`` results must match bit for bit. ``all_pairs`` results
(n(n-1)/2 pairs for n anchors) may differ by 1e-12 m, from summation order
in the normal equations, but must keep the iteration count and the
converged flag. ``solve_baselines`` is held to the same fixture.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from uwbcorr import SolverOptions, baseline_position, default_environment, generate_dataset, tdoa
from uwbcorr.errors import InsufficientDataError
from uwbcorr.simulate import random_trajectory

FIXTURE = Path(__file__).parent / "data" / "solver_golden.json"
N_SAMPLES = 64
COMBOS = [
    (policy, fix_z, use_init)
    for policy in ("reference_anchor", "all_pairs")
    for fix_z in (1.0, None)
    for use_init in (False, True)
]


def golden_cases():
    """The environment, samples and init points the fixture was made from."""
    env = default_environment()
    points = random_trajectory(env, N_SAMPLES, z=1.0, seed=31, step=2.0)
    samples = generate_dataset(env, points[:48], 0.5, 32) + generate_dataset(
        env, points[48:], 0.85, 34
    )
    rng = np.random.default_rng(33)
    inits = [s.true_position + rng.normal(0.0, 1.5, size=3) for s in samples]
    return env, samples, inits


def record(estimate):
    return {
        "position": [float(v) for v in estimate.position],
        "residual_norm": estimate.residual_norm,
        "iterations": estimate.iterations,
        "converged": estimate.converged,
    }


def solve_case(env, sample, policy, fix_z, init):
    """One fixture record: the estimate's fields, or the error type."""
    options = SolverOptions.for_environment(env, pair_policy=policy, fix_z=fix_z)
    try:
        return record(baseline_position(sample, env.anchors, options=options, init=init))
    except InsufficientDataError as exc:
        return {"error": type(exc).__name__}


def assert_matches(got, want, policy, where):
    if "error" in want or policy == "reference_anchor":
        assert got == want, where
        return
    assert (got["iterations"], got["converged"]) == (want["iterations"], want["converged"]), where
    assert np.max(np.abs(np.subtract(got["position"], want["position"]))) <= 1e-12, where
    assert got["residual_norm"] == pytest.approx(want["residual_norm"], abs=1e-12), where


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def cases():
    return golden_cases()


def test_fixture_covers_every_combination(golden):
    assert [tuple(c["combo"]) for c in golden["cases"]] == COMBOS
    for case in golden["cases"]:
        assert len(case["results"]) == N_SAMPLES
        assert 0 < sum("error" in r for r in case["results"]) < N_SAMPLES // 4


@pytest.mark.parametrize("combo", COMBOS, ids=lambda c: f"{c[0]}-z{c[1]}-init{c[2]}")
def test_baseline_position_matches_golden(golden, cases, combo):
    env, samples, inits = cases
    policy, fix_z, use_init = combo
    expected = next(c["results"] for c in golden["cases"] if tuple(c["combo"]) == combo)
    for k, (sample, want) in enumerate(zip(samples, expected)):
        got = solve_case(env, sample, policy, fix_z, inits[k] if use_init else None)
        assert_matches(got, want, policy, f"sample {k}")


@pytest.mark.parametrize("combo", [c for c in COMBOS if not c[2]], ids=lambda c: f"{c[0]}-z{c[1]}")
def test_solve_baselines_matches_golden(golden, cases, combo):
    env, samples, _ = cases
    policy, fix_z, _ = combo
    expected = next(c["results"] for c in golden["cases"] if tuple(c["combo"]) == combo)
    options = SolverOptions.for_environment(env, pair_policy=policy, fix_z=fix_z)
    got = tdoa.solve_baselines(samples, env.anchors, options)
    for k, (estimate, want) in enumerate(zip(got, expected)):
        if "error" in want:
            assert estimate is None, f"sample {k}"
        else:
            assert_matches(record(estimate), want, policy, f"sample {k}")


if __name__ == "__main__":
    env, samples, inits = golden_cases()
    payload = {
        "cases": [
            {
                "combo": list(combo),
                "results": [
                    solve_case(env, s, combo[0], combo[1], inits[k] if combo[2] else None)
                    for k, s in enumerate(samples)
                ],
            }
            for combo in COMBOS
        ]
    }
    FIXTURE.write_text(json.dumps(payload, indent=None, separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE}")
