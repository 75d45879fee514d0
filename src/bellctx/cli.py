"""Command-line interface.

Commands: ``simulate`` (run a configured experiment and write event log,
counts CSV, and a JSON report), ``kc-verify`` (build and audit the
per-context and mixed-context probability spaces of a config),
``gleason-check`` (frame-function additivity and trace-form fitting at a
chosen dimension), ``lhv-bound`` (the exhaustive deterministic bound, or
a membership verdict for supplied tables), and ``plot`` (correlation
curve and S sweep as a self-contained SVG).

Exit codes: 0 success, 2 config/usage error, 3 model validation error,
4 I/O error. Every command is deterministic given (config, seed):
timing and version info live in a separate ``meta`` field that is
excluded from the reproducibility hash.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .chsh import DEFAULT_COMBINATION, chsh_value, correlations, is_two_by_two
from .config import (
    ConfigError,
    ExperimentConfig,
    ModelBuildError,
    REPORT_SCHEMA_VERSION,
    load_experiment,
    reproducibility_hash,
)
from .gleason import (
    FrameFunction,
    check_orthogonal_additivity,
    dim2_counterexample,
    extravalence_check,
    fit_trace_form,
    random_density,
    random_rank_one,
)
from .harness import atomic_write, by_context, estimate_report, exact_estimates, run_experiment
from .kolmogorov import (
    ClassicalProbabilitySpace,
    build_mixed_context_space_from_tables,
    szabo_chsh,
    verify_kolmogorov,
)
from .models import (
    OutcomeModel,
    QuantumModel,
    SignallingTablesError,
    lhv_max_chsh,
    local_polytope_membership,
    maximizing_strategies,
    tables_from_json,
)
from .plotsvg import Panel, render_panels
from .quantum import DensityOperator, born_probability, operator_from_json
from .rng import chunk_generator

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_IO = 4

OUT_DIR_ENV = "BELLCTX_OUT_DIR"

RT2 = math.sqrt(2.0)


def _out_dir(args) -> Path:
    chosen = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _meta(wall_clock: float, n_workers: int | None = None) -> dict:
    meta = {
        "wall_clock_seconds": wall_clock,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "versions": {
            "bellctx": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    if n_workers is not None:
        meta["workers"] = n_workers
    return meta


def _report_json(report: dict, meta: dict) -> str:
    return json.dumps({"report": report, "meta": meta}, sort_keys=True, indent=2) + "\n"


def _audit_ok(report: dict) -> bool:
    return report["positivity_ok"] and report["normalization_ok"] and report["additivity_ok"]


def _kc_summary(cfg: ExperimentConfig) -> dict | None:
    """Audit the mixed-context space implied by the config's model (2x2 only)."""
    if not is_two_by_two(cfg.model.behaviour()):
        return None
    space = build_mixed_context_space_from_tables(cfg.model.behaviour(), cfg.settings)
    audit = verify_kolmogorov(space, exhaustive_limit=cfg.kc_exhaustive_limit)
    return {
        "n_atoms": len(space),
        "report": asdict(audit),
        "s_prime": szabo_chsh(space, cfg.combination),
    }


def cmd_simulate(args) -> int:
    cfg = load_experiment(args.config, args.seed)
    out_dir = _out_dir(args)
    started = time.perf_counter()
    result = run_experiment(cfg.model, cfg.n_trials, cfg.settings, cfg.master_seed,
                            cfg.chunk_size, cfg.n_workers)
    estimates = estimate_report(result.counts, cfg.combination)
    exact = (exact_estimates(cfg.model, cfg.settings, cfg.combination)
             if is_two_by_two(cfg.model.behaviour()) else None)
    kc = _kc_summary(cfg)
    wall_clock = time.perf_counter() - started

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "reproducibility_hash": reproducibility_hash(cfg.raw, cfg.master_seed),
        "config": cfg.raw,
        "model_hash": result.model_hash,
        "counts": {
            "n_total": estimates.n_total,
            "n_per_context": by_context(estimates.n),
        },
        "estimates": estimates.to_json_dict(),
        "exact": None if exact is None else {
            "correlations": by_context(exact.correlations),
            "s": exact.s,
            "s_global": exact.s_global,
        },
        "kc": kc,
    }

    event_path = out_dir / cfg.out_event_log
    result.write_event_log(event_path)
    atomic_write(out_dir / cfg.out_counts, (result.counts.to_csv(),))
    atomic_write(out_dir / cfg.out_report,
                 (_report_json(report, _meta(wall_clock, cfg.n_workers)),))

    if args.format == "json":
        _say(args, json.dumps(report, sort_keys=True))
    elif args.format == "csv":
        _say(args, result.counts.to_csv().rstrip("\n"))
    else:
        _say(args, f"{cfg.n_trials} trials of model '{cfg.model.kind}' "
                   f"(seed {cfg.master_seed}, {cfg.n_workers} worker(s))")
        if estimates.s is not None:
            _say(args, f"S        = {estimates.s:+.4f} +/- {estimates.s_se:.4f}"
                       + (f"   (exact {exact.s:+.4f})" if exact else ""))
            _say(args, f"S_global = {estimates.s_global:+.4f} +/- {estimates.s_global_se:.4f}"
                       + (f"   (exact {exact.s_global:+.4f})" if exact else ""))
        flagged = [a for a in estimates.audits if a["flagged"]]
        _say(args, f"no-signalling audit: {len(flagged)} flag(s)")
        _say(args, f"wrote {event_path}, {out_dir / cfg.out_counts}, "
                   f"{out_dir / cfg.out_report}")
    return EXIT_OK


def cmd_kc_verify(args) -> int:
    started = time.perf_counter()
    cfg = load_experiment(args.config, args.seed)
    out_dir = _out_dir(args)
    kc = _kc_summary(cfg)
    if kc is None:
        raise ConfigError("kc-verify needs a model with two settings per side")
    p = cfg.model.behaviour()

    contexts = {}
    for ix, iy in np.ndindex(p.shape[:2]):
        # One context's own space: its four joint outcomes, one atom each.
        space = ClassicalProbabilitySpace(("P0", "P1", "P2", "P3"), p[ix, iy].ravel())
        audit = verify_kolmogorov(space, exhaustive_limit=cfg.kc_exhaustive_limit)
        contexts[f"{ix},{iy}"] = {
            "n_atoms": len(space),
            "report": asdict(audit),
        }

    exact = exact_estimates(cfg.model, cfg.settings, cfg.combination)
    s_prime = kc["s_prime"]

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "reproducibility_hash": reproducibility_hash(cfg.raw, cfg.master_seed),
        "config": cfg.raw,
        "contexts": contexts,
        "mixed_space": {"n_atoms": kc["n_atoms"], "report": kc["report"]},
        "s": exact.s,
        "s_global": s_prime,
        "s_global_times_4": 4 * s_prime,
        "normalization_note": (
            "s_global divides by the total count over all settings; both the raw "
            "value and 4x are reported since either can be compared to the "
            "conditional-normalization bound"),
    }
    path = out_dir / "kc_report.json"
    atomic_write(path, (_report_json(report, _meta(time.perf_counter() - started)),))

    if args.format == "json":
        _say(args, json.dumps(report, sort_keys=True))
    else:
        for key, entry in contexts.items():
            _say(args, f"context ({key}): {entry['n_atoms']} atoms, "
                       f"{'OK' if _audit_ok(entry['report']) else 'FAILED'}")
        mixed = kc["report"]
        _say(args, f"mixed space: {kc['n_atoms']} atoms, "
                   f"{'OK' if _audit_ok(mixed) else 'FAILED'} "
                   f"({mixed['additivity_mode']}, "
                   f"{mixed['n_additivity_checks']} additivity checks)")
        _say(args, f"analytic S        = {exact.s:+.10f}")
        _say(args, f"analytic S_global = {s_prime:+.10f}   (x4 = {4 * s_prime:+.10f})")
        _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_gleason_check(args) -> int:
    started = time.perf_counter()
    if args.dim < 2:
        raise ConfigError(f"dimension must be at least 2, got {args.dim}")
    if args.n_contexts < 1:
        raise ConfigError(f"n-contexts must be at least 1, got {args.n_contexts}")
    out_dir = _out_dir(args)
    seed = 0 if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    if args.state:
        try:
            rho = DensityOperator(operator_from_json(
                json.loads(Path(args.state).read_text())))
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise ModelBuildError(f"state file {args.state}: {exc}") from exc
        if rho.dim != args.dim:
            raise ModelBuildError(f"state has dim {rho.dim}, expected {args.dim}")
    else:
        rho = random_density(args.dim, rng)

    m = FrameFunction.trace_form(rho)
    additivity = check_orthogonal_additivity(m, args.n_contexts, args.dim, seed + 1)
    samples = [(p, born_probability(rho, p))
               for p in (random_rank_one(args.dim, rng) for _ in range(3 * args.dim ** 2))]
    fit = fit_trace_form(samples, args.dim)
    recovery_error = float(np.max(np.abs(fit.rho_estimate.matrix - rho.matrix)))

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "dim": args.dim,
        "seed": seed,
        "additivity": asdict(additivity),
        "trace_form_fit": {
            "residual": fit.residual,
            "recovery_max_error": recovery_error,
            "n_samples": fit.n_samples,
        },
    }
    if args.dim >= 3:
        ev = extravalence_check(m, random_rank_one(args.dim, rng),
                                min(args.n_contexts, 100), seed + 2)
        report["extravalence"] = {
            "passed": ev.passed, "spread": ev.spread,
            "target_deviation": ev.target_deviation, "n_contexts": ev.n_contexts,
        }
    if args.dim == 2:
        ce = dim2_counterexample()
        ce_additivity = check_orthogonal_additivity(ce, args.n_contexts, 2, seed + 3)
        ce_samples = [(p, ce(p)) for p in (random_rank_one(2, rng) for _ in range(100))]
        ce_fit = fit_trace_form(ce_samples, 2)
        report["counterexample"] = {
            "additivity": asdict(ce_additivity),
            "fit_residual": ce_fit.residual,
            "note": (
                "trace-form representation is guaranteed only for dimension >= 3; "
                "in dimension 2 this cubic Bloch rule is additive on every "
                "context yet admits no representing state"),
        }

    path = out_dir / f"gleason_dim{args.dim}.json"
    atomic_write(path, (_report_json(report, _meta(time.perf_counter() - started)),))

    if args.format == "json":
        _say(args, json.dumps(report, sort_keys=True))
    else:
        _say(args, f"dim {args.dim}: additivity over {args.n_contexts} random contexts: "
                   f"{'OK' if additivity.passed else 'FAILED'} "
                   f"(worst violation {additivity.worst_violation:.2e})")
        _say(args, f"trace-form fit: residual {fit.residual:.2e}, "
                   f"state recovered to {recovery_error:.2e}")
        if args.dim == 2:
            ce_entry = report["counterexample"]
            _say(args, "dim-2 counterexample: additivity "
                       f"{'OK' if ce_entry['additivity']['passed'] else 'FAILED'} "
                       f"but fit residual {ce_entry['fit_residual']:.3f} "
                       "(no representing state)")
            _say(args, ce_entry["note"])
        _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_lhv_bound(args) -> int:
    if args.tables:
        try:
            # An unreadable file is an OSError and exits as an I/O error.
            p = tables_from_json(Path(args.tables).read_text())
        except ValueError as exc:
            raise ConfigError(f"tables file {args.tables}: {exc}") from exc
        if not is_two_by_two(p):
            raise ConfigError(f"tables file {args.tables}: CHSH needs two settings per side, "
                              f"got {p.shape[0]}x{p.shape[1]}")
        try:
            verdict = local_polytope_membership(p)
        except SignallingTablesError as exc:
            _say(args, json.dumps({"ill_posed": "signalling", "reason": str(exc)}, sort_keys=True)
                 if args.format == "json" else f"ill-posed: signalling -- {exc}")
            return EXIT_OK
        if args.format == "json":
            _say(args, json.dumps({
                "is_local": verdict.is_local,
                "max_abs_s": verdict.max_abs_s,
                "witness_s": verdict.witness_s,
                "witness_pattern": None if verdict.witness_combination is None
                else verdict.witness_combination.to_string(),
            }, sort_keys=True))
        else:
            _say(args, verdict.describe())
        return EXIT_OK

    bound = lhv_max_chsh()
    winners = maximizing_strategies()

    def strategy_text(s):
        fmt = lambda vs: "(" + ",".join("+" if v == 1 else "-" for v in vs) + ")"
        return f"a{fmt(s.a_of_x)} b{fmt(s.b_of_y)}  S={s.chsh()}"

    if args.format == "json":
        _say(args, json.dumps({
            "max_abs_s": bound,
            "maximizing_strategies": [s.to_json_dict() for s in winners],
        }, sort_keys=True))
    else:
        _say(args, f"exhaustive max |S| over 16 deterministic strategies and "
                   f"8 sign patterns: {bound}")
        _say(args, f"strategies reaching S = +{bound} at pattern "
                   f"{DEFAULT_COMBINATION.to_string()}:")
        for s in winners:
            _say(args, "  " + strategy_text(s))
    return EXIT_OK


def _at_angles(cfg: ExperimentConfig, alice_angles, bob_angles) -> OutcomeModel:
    """The config's model at other analyzer angles (models without angle
    semantics are the same at every angle)."""
    if isinstance(cfg.model, QuantumModel):
        return QuantumModel(cfg.model.rho, alice_angles, bob_angles)
    return cfg.model


def cmd_plot(args) -> int:
    cfg = load_experiment(args.config, args.seed)
    if not is_two_by_two(cfg.model.behaviour()):
        raise ConfigError("plot needs a model with two settings per side")
    if args.sweep_points < 2 or not (args.sweep_stop > args.sweep_start):
        raise ConfigError(
            f"empty sweep range: [{args.sweep_start}, {args.sweep_stop}] "
            f"with {args.sweep_points} points")
    if args.mc_trials < 100:
        raise ConfigError("mc-trials must be at least 100")
    out_dir = _out_dir(args)

    base = cfg.settings.alice_angles[0]

    def first_cell(gap: float) -> np.ndarray:
        """p[0, 0] with Bob's analyzer ``gap`` away from Alice's first one."""
        return _at_angles(cfg, (base,), (base + gap,)).behaviour()[0, 0]

    gaps = np.linspace(0.0, np.pi, 97)
    e_curve = [float(correlations(first_cell(g))) for g in gaps]
    mc_gaps = np.linspace(0.0, np.pi, 13)
    mc_e, mc_se = [], []
    for index, gap in enumerate(mc_gaps):
        rng = chunk_generator(cfg.master_seed, index)
        draws = rng.multinomial(args.mc_trials, first_cell(gap).ravel())
        e_hat = (draws[0] + draws[3] - draws[1] - draws[2]) / args.mc_trials
        mc_e.append(float(e_hat))
        mc_se.append(float(np.sqrt(max(0.0, 1 - e_hat ** 2) / args.mc_trials)))

    correlation_panel = Panel(
        title=f"Correlation vs analyzer gap ({cfg.model.kind} model, "
              f"{args.mc_trials} trials/point)",
        xlabel="analyzer gap (rad)", ylabel="E",
        xlim=(0.0, float(np.pi)), ylim=(-1.15, 1.15))
    correlation_panel.add_hline(0.0, color="#bbbbbb", dash=None)
    correlation_panel.add_curve(gaps, e_curve)
    correlation_panel.add_points(mc_gaps, mc_e, mc_se)

    offsets = np.linspace(args.sweep_start, args.sweep_stop, args.sweep_points)
    s_curve = []
    for offset in offsets:
        shifted = _at_angles(cfg, cfg.settings.alice_angles,
                             tuple(b + offset for b in cfg.settings.bob_angles))
        s_curve.append(chsh_value(correlations(shifted.behaviour()), cfg.combination))
    top = max(3.0, max(abs(min(s_curve)), abs(max(s_curve))) + 0.2)
    sweep_panel = Panel(
        title="S vs analyzer offset",
        xlabel="offset applied to both receiver angles (rad)", ylabel="S",
        xlim=(float(offsets[0]), float(offsets[-1])), ylim=(-top, top))
    for bound, label, dash in ((2.0, "+2", "6,4"), (-2.0, "-2", "6,4"),
                               (2 * RT2, "+2*sqrt(2)", "2,3"),
                               (-2 * RT2, "-2*sqrt(2)", "2,3")):
        sweep_panel.add_hline(bound, color="#999999", dash=dash, label=label)
    sweep_panel.add_curve(offsets, s_curve, color="#2ca02c")

    svg = render_panels([correlation_panel, sweep_panel])
    path = out_dir / args.output
    atomic_write(path, (svg,))
    _say(args, f"wrote {path} (peak |S| over sweep: {max(abs(s) for s in s_curve):.4f})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellctx",
        description="Context-by-context probability spaces, CHSH Monte Carlo, "
                    "and frame-function checks.")
    parser.add_argument("--version", action="version", version=f"bellctx {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--out-dir", default=None,
                        help=f"output directory (default: ${OUT_DIR_ENV} or cwd)")
    common.add_argument("--format", choices=("json", "csv", "text"), default="text",
                        help="stdout format")
    common.add_argument("--quiet", action="store_true", help="suppress stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="run a configured experiment, write log/counts/report")
    p.add_argument("config", help="path to .cfg or .json experiment config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("kc-verify", parents=[common],
                       help="audit per-context and mixed-context probability spaces")
    p.add_argument("config")
    p.set_defaults(func=cmd_kc_verify)

    p = sub.add_parser("gleason-check", parents=[common],
                       help="frame-function additivity and trace-form fit checks")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--n-contexts", type=int, default=1000)
    p.add_argument("--state", default=None, help="operator JSON file for the state")
    p.set_defaults(func=cmd_gleason_check)

    p = sub.add_parser("lhv-bound", parents=[common],
                       help="deterministic-strategy bound, or membership of tables")
    p.add_argument("tables", nargs="?", default=None,
                   help="optional JSON file of four conditional tables")
    p.set_defaults(func=cmd_lhv_bound)

    p = sub.add_parser("plot", parents=[common],
                       help="correlation curve and S sweep as SVG")
    p.add_argument("config")
    p.add_argument("output", help="output SVG filename")
    p.add_argument("--sweep-start", type=float, default=-math.pi / 4)
    p.add_argument("--sweep-stop", type=float, default=math.pi / 4)
    p.add_argument("--sweep-points", type=int, default=61)
    p.add_argument("--mc-trials", type=int, default=20_000)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelBuildError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
