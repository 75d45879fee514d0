"""Exact pins of audit outputs the golden artifacts never reach.

The shipped configs only ever give S' in {0, 1, sqrt(2)/2}; these pins
cover S' of random two-qubit states at random angles and non-uniform
setting probabilities under all eight sign patterns (as ``float.hex``),
the Kolmogorov audit of random spaces in exhaustive and sampled mode,
and the additivity and extravalence reports of frame functions at
dims 2-4. Audit reports are compared as ``json.dumps(asdict(report),
sort_keys=True)`` strings, so every float must match to the last bit.

Regenerate ``kolmogorov_pins.json`` (only when an output change is
intended and explained) with ``PYTHONPATH=src python tests/test_kolmogorov_pins.py``.
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from bellctx.chsh import all_combinations
from bellctx.gleason import (
    FrameFunction,
    check_orthogonal_additivity,
    dim2_counterexample,
    extravalence_check,
    random_density,
    random_rank_one,
)
from bellctx.kolmogorov import (
    ClassicalProbabilitySpace,
    SettingsSpec,
    build_mixed_context_space_from_tables,
    szabo_chsh,
    verify_kolmogorov,
)
from bellctx.models import QuantumModel

PINS = Path(__file__).parent / "kolmogorov_pins.json"
N_SZABO_CASES = 50


def szabo_case(seed: int) -> list[str]:
    """float.hex of S' under all eight patterns for one random setup."""
    rng = np.random.default_rng(seed)
    rho = random_density(4, rng)
    angles = rng.uniform(-np.pi, np.pi, 4)
    p_alice, p_bob = rng.uniform(0.05, 0.95, 2)
    spec = SettingsSpec(tuple(angles[:2]), (p_alice, 1.0 - p_alice),
                        tuple(angles[2:]), (p_bob, 1.0 - p_bob))
    model = QuantumModel(rho, spec.alice_angles, spec.bob_angles)
    space = build_mixed_context_space_from_tables(model.behaviour(), spec)
    return [float.hex(szabo_chsh(space, c)) for c in all_combinations()]


def _dump(report) -> str:
    return json.dumps(asdict(report), sort_keys=True)


def _random_space(n_atoms: int, seed: int, perturb: float = 0.0) -> ClassicalProbabilitySpace:
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n_atoms))
    if perturb:
        return ClassicalProbabilitySpace.unchecked(
            tuple(range(n_atoms)), probs + perturb * rng.standard_normal(n_atoms))
    return ClassicalProbabilitySpace(tuple(range(n_atoms)), probs)


# name -> (space arguments, exhaustive_limit): exhaustive_limit 0 forces
# the sampled mode.
AUDIT_CASES = {
    "dirichlet5-exhaustive": ((5, 1), 16),
    "dirichlet5-sampled": ((5, 1), 0),
    "dirichlet12-exhaustive": ((12, 2), 16),
    "dirichlet12-sampled": ((12, 2), 0),
    "dirichlet24-sampled": ((24, 3), 16),
    "perturbed8-exhaustive": ((8, 4, 1e-6), 16),
    "perturbed8-sampled": ((8, 4, 1e-6), 0),
}


def audit_case(name: str) -> str:
    space_args, exhaustive_limit = AUDIT_CASES[name]
    return _dump(verify_kolmogorov(_random_space(*space_args), exhaustive_limit))


FRAME_FUNCTIONS = ("trace_form", "squared_trace_form", "counterexample")


def additivity_case(dim: int, kind: str) -> str:
    rng = np.random.default_rng(100 + dim)
    rho = random_density(dim, rng)
    m = {"trace_form": lambda: FrameFunction.trace_form(rho),
         "squared_trace_form": lambda: FrameFunction.squared_trace_form(rho),
         "counterexample": dim2_counterexample}[kind]()
    return _dump(check_orthogonal_additivity(m, 40, dim, 200 + dim))


def extravalence_case(dim: int) -> str:
    rng = np.random.default_rng(300 + dim)
    m = FrameFunction.trace_form(random_density(dim, rng))
    return _dump(extravalence_check(m, random_rank_one(dim, rng), 30, 400 + dim))


def additivity_keys() -> list[tuple[int, str]]:
    return [(dim, kind) for dim in (2, 3, 4) for kind in FRAME_FUNCTIONS
            if kind != "counterexample" or dim == 2]


def compute_pins() -> dict:
    return {
        "szabo_chsh": {str(seed): szabo_case(seed) for seed in range(N_SZABO_CASES)},
        "verify_kolmogorov": {name: audit_case(name) for name in AUDIT_CASES},
        "check_orthogonal_additivity": {
            f"{dim}-{kind}": additivity_case(dim, kind) for dim, kind in additivity_keys()},
        "extravalence_check": {str(dim): extravalence_case(dim) for dim in (3, 4)},
    }


PINNED = json.loads(PINS.read_text()) if PINS.exists() else {}


@pytest.mark.parametrize("seed", range(N_SZABO_CASES))
def test_szabo_chsh_is_unchanged(seed):
    assert szabo_case(seed) == PINNED["szabo_chsh"][str(seed)]


@pytest.mark.parametrize("name", sorted(AUDIT_CASES))
def test_kolmogorov_audit_is_unchanged(name):
    assert audit_case(name) == PINNED["verify_kolmogorov"][name]


@pytest.mark.parametrize("dim,kind", additivity_keys())
def test_additivity_report_is_unchanged(dim, kind):
    assert additivity_case(dim, kind) == PINNED["check_orthogonal_additivity"][f"{dim}-{kind}"]


@pytest.mark.parametrize("dim", (3, 4))
def test_extravalence_report_is_unchanged(dim):
    assert extravalence_case(dim) == PINNED["extravalence_check"][str(dim)]


if __name__ == "__main__":
    PINS.write_text(json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
