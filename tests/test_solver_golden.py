"""Baseline solver outputs pinned to the reference multi-start solver.

``data/solver_golden.json`` holds ``baseline_position`` results for the
cases built by :func:`golden_cases`: 64 seeded samples from
``default_environment()``, 48 with half the anchors dropped at random and
16 with 85% dropped (so pair counts vary and a few samples are
unsolvable), with ``fix_z=1.0`` and ``fix_z=None``. It was first
written at commit 5e820d1, where every start of the multi-start ran one
after another in a Python loop, and held through the lockstep and padded
rewrites. It was re-recorded (``PYTHONPATH=src python
tests/test_solver_golden.py --rewrite``) in the commit after 8b07e4f, which
holds coordinates on the box wall out of the step and added the gradient
and cost stops (``tdoa.GRAD_TOL``, ``tdoa.COST_RTOL``), so iterations, stop
reasons and positions changed by design. It was re-recorded again when a
row's steps gained the second-order term after Gauss-Newton progress slows
(``tdoa.SECOND_ORDER_RTOL``) and a solve that ends on one of its anchors got
the ``tip`` stop reason. It was re-recorded once more when a set whose
pairs share one reference anchor, with at least 3 pairs on the plane or 4 in
3-D, started from the closed-form linear least-squares point and the
centroid instead of five multi-start points (``tdoa._starts``). Iterations
changed, no position moved by more than 1e-6 m, one 3-D residual rose by
2e-9 m (sample 14), and every case that keeps the old starts kept its
record bit for bit. JSON stores the floats exactly. Re-record it only
for a change meant to move the solver's results, and say why; a rewrite that
keeps the results must reproduce it. The script refuses to overwrite the
file unless it is given ``--rewrite``. It then prints the converged share,
the count of each stop reason, the mean and largest iteration counts of the
file it replaced and of the new one, every sample whose residual norm rose
by more than 1e-9 m and every sample whose position moved by more than
1e-6 m.

Each case's ``combo`` reads (pair policy, ``fix_z``, init point given), the
settings it was recorded under. The file once held all eight combinations
of both pair policies and solves with and without an ``init`` point; when
the solver kept only reference-anchor pairs and multi-start solving, the
other six cases were cut out of it, and the two kept ones were left as
recorded. Results must match bit for bit, through ``baseline_position``
and through ``solve_baselines``.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from uwbcorr import SolverOptions, baseline_position, default_environment, generate_dataset, tdoa
from uwbcorr.errors import InsufficientDataError
from uwbcorr.simulate import random_trajectory

FIXTURE = Path(__file__).parent / "data" / "solver_golden.json"
N_SAMPLES = 64
COMBOS = [("reference_anchor", fix_z, False) for fix_z in (1.0, None)]


def golden_cases():
    """The environment and samples the fixture was made from."""
    env = default_environment()
    points = random_trajectory(env, N_SAMPLES, z=1.0, seed=31, step=2.0)
    samples = generate_dataset(env, points[:48], 0.5, 32) + generate_dataset(
        env, points[48:], 0.85, 34
    )
    return env, samples


def record(estimate):
    return {
        "position": [float(v) for v in estimate.position],
        "residual_norm": estimate.residual_norm,
        "iterations": estimate.iterations,
        "converged": estimate.converged,
        "stop_reason": estimate.stop_reason,
        "on_bound": estimate.on_bound,
    }


def solve_case(env, sample, fix_z):
    """One fixture record: the estimate's fields, or the error type."""
    options = SolverOptions.for_environment(env, fix_z=fix_z)
    try:
        return record(baseline_position(sample, env.anchors, options=options))
    except InsufficientDataError as exc:
        return {"error": type(exc).__name__}


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
    env, samples = cases
    expected = next(c["results"] for c in golden["cases"] if tuple(c["combo"]) == combo)
    for k, (sample, want) in enumerate(zip(samples, expected)):
        assert solve_case(env, sample, combo[1]) == want, f"sample {k}"


@pytest.mark.parametrize("combo", COMBOS, ids=lambda c: f"{c[0]}-z{c[1]}")
def test_solve_baselines_matches_golden(golden, cases, combo):
    env, samples = cases
    expected = next(c["results"] for c in golden["cases"] if tuple(c["combo"]) == combo)
    options = SolverOptions.for_environment(env, fix_z=combo[1])
    got = tdoa.solve_baselines(samples, env.anchors, options)
    for k, (estimate, want) in enumerate(zip(got, expected)):
        if "error" in want:
            assert estimate is None, f"sample {k}"
        else:
            assert record(estimate) == want, f"sample {k}"


def test_no_planar_solve_stops_at_the_cap(golden):
    planar = next(c["results"] for c in golden["cases"] if c["combo"][1] == 1.0)
    solved = [r for r in planar if "error" not in r]
    assert len(solved) > N_SAMPLES // 2 and not any(r["stop_reason"] == "cap" for r in solved)


def test_running_the_module_keeps_the_fixture():
    before = FIXTURE.read_bytes()
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "pass --rewrite to overwrite it" in proc.stderr
    assert FIXTURE.read_bytes() == before


def iteration_summary(results):
    """Mean and largest iteration count of a case's solved samples."""
    iterations = [r["iterations"] for r in results if "error" not in r]
    return f"mean {sum(iterations) / len(iterations):.2f}, max {max(iterations)}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=f"Record {FIXTURE.name} from the current solver code.")
    parser.add_argument("--rewrite", action="store_true", help="overwrite an existing fixture")
    if not parser.parse_args().rewrite and FIXTURE.exists():
        parser.error(f"{FIXTURE} is the reference; pass --rewrite to overwrite it")
    previous = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {"cases": []}
    env, samples = golden_cases()
    payload = {
        "cases": [
            {"combo": list(combo), "results": [solve_case(env, s, combo[1]) for s in samples]}
            for combo in COMBOS
        ]
    }
    FIXTURE.write_text(json.dumps(payload, indent=None, separators=(",", ":")) + "\n")
    solved = [r for case in payload["cases"] for r in case["results"] if "error" not in r]
    reasons = ", ".join(f"{k} {sum(r['stop_reason'] == k for r in solved)}" for k in tdoa.STOP_REASONS)
    print(
        f"wrote {FIXTURE}: {sum(r['converged'] for r in solved)}/{len(solved)} solves converged; "
        f"stop reasons {reasons}"
    )
    for before in previous["cases"]:
        after = next(c for c in payload["cases"] if c["combo"] == before["combo"])
        print(f"{before['combo']}: iterations {iteration_summary(before['results'])} -> "
              f"{iteration_summary(after['results'])}")
        for k, (old, new) in enumerate(zip(before["results"], after["results"])):
            if "error" in old:
                continue
            if new["residual_norm"] > old["residual_norm"] + 1e-9:
                print(f"  sample {k}: residual norm {old['residual_norm']:.9f} -> {new['residual_norm']:.9f} m")
            moved = math.dist(old["position"], new["position"])
            if moved > 1e-6:
                print(f"  sample {k}: position moved {moved:.3g} m")
