"""Acceptance suite: the eight gate criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live). Tolerances are pinned here and nowhere else: analytic
landmarks at 1e-10, exact algebraic identities at 1e-12, Monte Carlo
gates at five standard errors, and the deterministic-strategy bound in
exact integer arithmetic.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from bellctx.chsh import all_combinations
from bellctx.cli import main
from bellctx.gleason import (
    FrameFunction,
    check_orthogonal_additivity,
    dim2_counterexample,
    fit_trace_form,
    _context_stack,
    random_density,
    random_rank_ones,
    random_rank_profile,
)
from bellctx.harness import estimate_report, exact_estimates, run_experiment
from bellctx.kolmogorov import (
    ClassicalProbabilitySpace,
    SettingsSpec,
    build_mixed_context_space_from_tables,
    optimal_settings,
    szabo_chsh,
    verify_kolmogorov,
)
from bellctx.models import (
    PrBoxModel,
    QuantumModel,
    SignallingModel,
    enumerate_deterministic_strategies,
    superdeterministic_s4_example,
)
from bellctx.quantum import born_probabilities, context_distribution, photon_pair_state, \
    polarization_observable, projector_ranks

from haar import haar_unitary

RT2 = math.sqrt(2.0)
CONFIGS = Path(__file__).parent.parent / "src" / "bellctx" / "configs"


def check(number: int, description: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description} ({detail})")
    assert ok, f"criterion {number}: {description}: {detail}"


def quantum_pair_model() -> QuantumModel:
    spec = optimal_settings()
    return QuantumModel(photon_pair_state(), spec.alice_angles, spec.bob_angles)


def mixed_space(rho, spec: SettingsSpec):
    p = QuantumModel(rho, spec.alice_angles, spec.bob_angles).behaviour()
    return build_mixed_context_space_from_tables(p, spec)


def test_criterion_1_quantum_chsh_landmark():
    spec = optimal_settings()
    s_analytic = exact_estimates(quantum_pair_model(), spec).s
    analytic_ok = abs(s_analytic - 2 * RT2) <= 1e-10

    started = time.perf_counter()
    result = run_experiment(quantum_pair_model(), 1_000_000, spec, master_seed=1001)
    report = estimate_report(result.counts)
    s_mc, se = report.s, report.s_se
    elapsed = time.perf_counter() - started

    mc_ok = abs(s_mc - 2 * RT2) <= 5 * se
    time_ok = elapsed < 10.0
    check(1, "quantum CHSH landmark 2*sqrt(2)",
          analytic_ok and mc_ok and time_ok,
          f"analytic {s_analytic:.12f}, MC {s_mc:.4f} +/- {se:.4f}, {elapsed:.2f}s")


def test_criterion_2_global_normalization_reduction():
    spec = optimal_settings()
    space = mixed_space(photon_pair_state(), spec)
    s_prime = szabo_chsh(space)
    landmark_ok = abs(s_prime - RT2 / 2) <= 1e-10

    rng = np.random.default_rng(1002)
    worst_gap = 0.0
    for _ in range(100):
        rho = random_density(4, rng)
        angles = rng.uniform(-np.pi, np.pi, size=4)
        random_spec = SettingsSpec.uniform(angles[:2], angles[2:])
        model = QuantumModel(rho, random_spec.alice_angles, random_spec.bob_angles)
        s = exact_estimates(model, random_spec).s
        s_p = szabo_chsh(mixed_space(rho, random_spec))
        worst_gap = max(worst_gap, abs(s_p - s / 4))
    identity_ok = worst_gap <= 1e-12
    check(2, "global normalization lands at sqrt(2)/2 and S'=S/4",
          landmark_ok and identity_ok,
          f"S'={s_prime:.12f}, worst |S'-S/4|={worst_gap:.2e} over 100 draws")


def test_criterion_3_deterministic_bound_exact():
    values = [
        strategy.chsh(combination)
        for strategy in enumerate_deterministic_strategies()
        for combination in all_combinations()
    ]
    bound = max(abs(v) for v in values)
    exact_ok = bound == 2 and all(isinstance(v, int) for v in values)
    check(3, "exhaustive strategy bound max |S| = 2 (integer arithmetic)",
          exact_ok, f"max={bound} over {len(values)} strategy/pattern pairs")


def test_criterion_4_mixed_space_structure():
    rho = photon_pair_state()
    spec = optimal_settings()
    space = mixed_space(rho, spec)
    atoms_ok = len(space) == 16

    worst = 0.0
    w = space.probs.reshape(2, 2, 2, 2)  # [x, a, y, b], outcome index 0 is +1
    for (ix, ia, iy, ib), prob in np.ndenumerate(w):
        # Independent of the behaviour array: the trace rule on Pa (x) Pb.
        pa = polarization_observable(spec.alice_angles[ix])[ia]
        pb = polarization_observable(spec.bob_angles[iy])[ib]
        p_ab = born_probabilities(rho, np.kron(pa, pb)[None])[0]
        worst = max(worst, abs(prob - p_ab / 4))
    factor_ok = worst <= 1e-12
    check(4, "mixed space has 16 atoms with prob = P(ab|xy)/4",
          atoms_ok and factor_ok, f"atoms={len(space)}, worst cell gap={worst:.2e}")


def test_criterion_5_probability_axioms_hold():
    rng = np.random.default_rng(1005)
    worst = 0.0
    all_ok = True
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        rho = random_density(dim, rng)
        profile = random_rank_profile(dim, rng)
        context = _context_stack(haar_unitary(dim, rng)[None], profile)[0]
        space = ClassicalProbabilitySpace(tuple(f"P{k}" for k in range(len(context))),
                                          context_distribution(rho, context))
        report = verify_kolmogorov(space)
        all_ok = all_ok and report.all_ok
        worst = max(worst, report.worst_violation)
    check(5, "1000 random single-context spaces have finite, non-negative atoms "
          "that sum to 1 (additive by construction)",
          all_ok and worst <= 1e-12, f"worst violation {worst:.2e}")


def test_criterion_6_frame_function_suite():
    rng = np.random.default_rng(1006)

    rho3 = random_density(3, rng)
    additivity = check_orthogonal_additivity(
        FrameFunction.trace_form(rho3), 1000, 3, seed=1006)
    additivity_ok = additivity.passed and additivity.worst_violation <= 1e-10

    stack = random_rank_ones(30, 3, rng)
    fit = fit_trace_form(stack, born_probabilities(rho3, stack), 3)
    recovery = float(np.max(np.abs(fit.rho_estimate.matrix - rho3.matrix)))
    fit_ok = recovery <= 1e-8

    counterexample = dim2_counterexample()
    ps = random_rank_ones(10_000, 2, rng)
    qs = np.eye(2) - ps
    sums = (counterexample.values(ps, projector_ranks(ps))
            + counterexample.values(qs, projector_ranks(qs)))
    pair_worst = float(np.max(np.abs(sums - 1.0)))
    ce_additivity = check_orthogonal_additivity(counterexample, 1000, 2, seed=1066)
    ce_stack = random_rank_ones(200, 2, rng)
    ce_values = counterexample.values(ce_stack, projector_ranks(ce_stack))
    ce_fit = fit_trace_form(ce_stack, ce_values, 2)
    # "Exact" additivity: identically true in real arithmetic, so only
    # final-rounding noise (<= 1e-15) is tolerated, 13 orders below the
    # fit-residual contrast.
    ce_ok = (pair_worst <= 1e-15 and ce_additivity.passed
             and ce_fit.residual > 0.01)

    check(6, "frame functions: additivity, state recovery, dim-2 loophole",
          additivity_ok and fit_ok and ce_ok,
          f"worst add {additivity.worst_violation:.2e}, recovery {recovery:.2e}, "
          f"pair sums off by {pair_worst:.2e}, dim-2 residual {ce_fit.residual:.3f}")


def test_criterion_7_model_taxonomy():
    spec = optimal_settings()
    n = 1_000_000

    pr = run_experiment(PrBoxModel(), n, spec, master_seed=1007)
    pr_report = estimate_report(pr.counts)
    s_pr, se_pr = pr_report.s, pr_report.s_se
    pr_ok = abs(s_pr - 4.0) <= 5 * max(se_pr, 1e-12)

    sd = run_experiment(superdeterministic_s4_example(), n, spec, master_seed=1008)
    sd_report = estimate_report(sd.counts)
    s_sd, se_sd = sd_report.s, sd_report.s_se
    sd_ok = abs(s_sd - 4.0) <= 5 * max(se_sd, 1e-12)

    quantum = run_experiment(quantum_pair_model(), n, spec, master_seed=1009)
    quantum_flags = [a for a in estimate_report(quantum.counts).audits if a["flagged"]]

    control = run_experiment(SignallingModel(), n, spec, master_seed=1010)
    control_flags = [a for a in estimate_report(control.counts).audits if a["flagged"]]

    check(7, "taxonomy: S=4 boxes, clean quantum audit, flagged control",
          pr_ok and sd_ok and not quantum_flags and bool(control_flags),
          f"PR {s_pr:.4f}, superdet {s_sd:.4f}, quantum flags {len(quantum_flags)}, "
          f"control flags {len(control_flags)}")


def test_criterion_8_reproducibility_across_workers(tmp_path):
    base = (CONFIGS / "chsh_quantum.cfg").read_text().replace(
        "trials = 1000000", "trials = 100000")
    artifacts = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        out.mkdir()
        config = out / "exp.cfg"
        config.write_text(base.replace("workers = 1", f"workers = {workers}"))
        assert main(["simulate", str(config), "--out-dir", str(out), "--quiet"]) == 0
        payload = json.loads((out / "chsh_quantum_report.json").read_text())
        artifacts[workers] = (
            (out / "chsh_quantum_events.jsonl").read_bytes(),
            (out / "chsh_quantum_counts.csv").read_bytes(),
            json.dumps(payload["report"], sort_keys=True),
        )
    logs_ok = artifacts[1][0] == artifacts[8][0]
    counts_ok = artifacts[1][1] == artifacts[8][1]
    reports_ok = artifacts[1][2] == artifacts[8][2]
    check(8, "byte-identical logs and reports across 1 and 8 workers",
          logs_ok and counts_ok and reports_ok,
          f"log bytes {len(artifacts[1][0])}, reports match={reports_ok}")
