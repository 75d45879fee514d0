"""Command-line interface.

Commands: ``simulate`` (run a configured experiment and write event log,
counts CSV, and a JSON report), ``kc-verify`` (build and audit the
per-context and mixed-context probability spaces of a config),
``gleason-check`` (frame-function additivity and trace-form fitting at a
chosen dimension), ``lhv-bound`` (the bound over all deterministic
strategies, or a membership verdict for supplied tables), and ``plot``
(correlation curve and S sweep as a self-contained SVG).

Exit codes: 0 success, 2 config/usage error, 3 model validation error,
4 I/O error. Every command is deterministic given (config, seed):
timing and version info live in a separate ``meta`` field that is
excluded from the reproducibility hash.

Each ``cmd_*`` does its work and returns an :class:`Output`; ``main``
then creates the output directory, writes the artifacts and the report,
and prints the summary in the chosen ``--format``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
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


@dataclass
class Output:
    """What a command returns; ``main`` writes and prints it."""

    lines: list[str]                   # the text summary
    report: dict | None = None         # printed by --format json
    report_path: Path | None = None    # {"report", "meta"}, written after the artifacts
    artifacts: list = field(default_factory=list)  # (path, bytes or writer(path)), in order
    csv: str | None = None             # printed by --format csv
    workers: int | None = None         # meta["workers"]


def _out_dir(args) -> Path:
    return Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or ".")


def _kc_summary(cfg: ExperimentConfig) -> tuple[dict | None, bool]:
    """Audit the mixed-context space implied by the config's model (2x2
    only): its report block, or None, and whether it passes every axiom."""
    if not is_two_by_two(cfg.model.behaviour()):
        return None, False
    space = build_mixed_context_space_from_tables(cfg.model.behaviour(), cfg.settings)
    audit = verify_kolmogorov(space)
    return {
        "n_atoms": len(space),
        "report": asdict(audit),
        "s_prime": szabo_chsh(space, cfg.combination),
    }, audit.all_ok


def cmd_simulate(args) -> Output:
    cfg = load_experiment(args.config, args.seed)
    out_dir = _out_dir(args)
    result = run_experiment(cfg.model, cfg.n_trials, cfg.settings, cfg.master_seed,
                            cfg.chunk_size, cfg.n_workers)
    estimates = estimate_report(result.counts, cfg.combination)
    exact = (exact_estimates(cfg.model, cfg.settings, cfg.combination)
             if is_two_by_two(cfg.model.behaviour()) else None)
    kc, _ = _kc_summary(cfg)

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

    event_path, counts_path, report_path = (
        out_dir / name for name in (cfg.out_event_log, cfg.out_counts, cfg.out_report))
    csv = result.counts.to_csv()
    lines = [f"{cfg.n_trials} trials of model '{cfg.model.kind}' "
             f"(seed {cfg.master_seed}, {cfg.n_workers} worker(s))"]
    if estimates.s is not None:
        lines += [f"S        = {estimates.s:+.4f} +/- {estimates.s_se:.4f}"
                  + (f"   (exact {exact.s:+.4f})" if exact else ""),
                  f"S_global = {estimates.s_global:+.4f} +/- {estimates.s_global_se:.4f}"
                  + (f"   (exact {exact.s_global:+.4f})" if exact else "")]
    flagged = [a for a in estimates.audits if a["flagged"]]
    lines += [f"no-signalling audit: {len(flagged)} flag(s)",
              f"wrote {event_path}, {counts_path}, {report_path}"]
    return Output(lines, report, report_path,
                  [(event_path, result.write_event_log), (counts_path, csv.encode())],
                  csv=csv, workers=cfg.n_workers)


def cmd_kc_verify(args) -> Output:
    cfg = load_experiment(args.config, args.seed)
    out_dir = _out_dir(args)
    kc, mixed_ok = _kc_summary(cfg)
    if kc is None:
        raise ConfigError("kc-verify needs a model with two settings per side")
    p = cfg.model.behaviour()

    contexts, lines = {}, []
    for ix, iy in np.ndindex(p.shape[:2]):
        # One context's own space: its four joint outcomes, one atom each.
        space = ClassicalProbabilitySpace(("P0", "P1", "P2", "P3"), p[ix, iy].ravel())
        audit = verify_kolmogorov(space)
        contexts[f"{ix},{iy}"] = {
            "n_atoms": len(space),
            "report": asdict(audit),
        }
        lines.append(f"context ({ix},{iy}): {len(space)} atoms, "
                     f"{'OK' if audit.all_ok else 'FAILED'}")

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
    lines += [f"mixed space: {kc['n_atoms']} atoms, {'OK' if mixed_ok else 'FAILED'}",
              f"analytic S        = {exact.s:+.10f}",
              f"analytic S_global = {s_prime:+.10f}   (x4 = {4 * s_prime:+.10f})",
              f"wrote {path}"]
    return Output(lines, report, path)


def cmd_gleason_check(args) -> Output:
    if args.dim < 2:
        raise ConfigError(f"dimension must be at least 2, got {args.dim}")
    if args.n_contexts < 1:
        raise ConfigError(f"n-contexts must be at least 1, got {args.n_contexts}")
    seed = 0 if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    if args.state:
        try:
            # An unreadable file is an OSError and exits as an I/O error.
            rho = DensityOperator(operator_from_json(
                json.loads(Path(args.state).read_text())))
        except ValueError as exc:
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

    path = _out_dir(args) / f"gleason_dim{args.dim}.json"
    lines = [f"dim {args.dim}: additivity over {args.n_contexts} random contexts: "
             f"{'OK' if additivity.passed else 'FAILED'} "
             f"(worst violation {additivity.worst_violation:.2e})",
             f"trace-form fit: residual {fit.residual:.2e}, "
             f"state recovered to {recovery_error:.2e}"]
    if args.dim == 2:
        ce_entry = report["counterexample"]
        lines += ["dim-2 counterexample: additivity "
                  f"{'OK' if ce_entry['additivity']['passed'] else 'FAILED'} "
                  f"but fit residual {ce_entry['fit_residual']:.3f} "
                  "(no representing state)",
                  ce_entry["note"]]
    lines.append(f"wrote {path}")
    return Output(lines, report, path)


def cmd_lhv_bound(args) -> Output:
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
            return Output([f"ill-posed: signalling -- {exc}"],
                          {"ill_posed": "signalling", "reason": str(exc)})
        return Output([verdict.describe()], {
            "is_local": verdict.is_local,
            "max_abs_s": verdict.max_abs_s,
            "witness_s": verdict.witness_s,
            "witness_pattern": None if verdict.witness_combination is None
            else verdict.witness_combination.to_string(),
        })

    bound = lhv_max_chsh()
    winners = maximizing_strategies()

    def signs(vs) -> str:
        return "(" + ",".join("+" if v == 1 else "-" for v in vs) + ")"

    lines = [f"exhaustive max |S| over 16 deterministic strategies and "
             f"8 sign patterns: {bound}",
             f"strategies reaching S = +{bound} at pattern "
             f"{DEFAULT_COMBINATION.to_string()}:"]
    lines += [f"  a{signs(s.a_of_x)} b{signs(s.b_of_y)}  S={s.chsh()}" for s in winners]
    return Output(lines, {"max_abs_s": bound,
                          "maximizing_strategies": [s.to_json_dict() for s in winners]})


def _at_angles(cfg: ExperimentConfig, alice_angles, bob_angles) -> OutcomeModel:
    """The config's model at other analyzer angles (models without angle
    semantics are the same at every angle)."""
    if isinstance(cfg.model, QuantumModel):
        return QuantumModel(cfg.model.rho, alice_angles, bob_angles)
    return cfg.model


def cmd_plot(args) -> Output:
    cfg = load_experiment(args.config, args.seed)
    if not is_two_by_two(cfg.model.behaviour()):
        raise ConfigError("plot needs a model with two settings per side")
    if args.sweep_points < 2 or not (args.sweep_stop > args.sweep_start):
        raise ConfigError(
            f"empty sweep range: [{args.sweep_start}, {args.sweep_stop}] "
            f"with {args.sweep_points} points")
    if args.mc_trials < 100:
        raise ConfigError("mc-trials must be at least 100")

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
    path = _out_dir(args) / args.output
    return Output([f"wrote {path} (peak |S| over sweep: {max(abs(s) for s in s_curve):.4f})"],
                  artifacts=[(path, svg.encode())])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellctx",
        description="Context-by-context probability spaces, CHSH Monte Carlo, "
                    "and frame-function checks.")
    parser.add_argument("--version", action="version", version=f"bellctx {__version__}")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, formats=("json", "text"), writes=True):
        """A subcommand with only the output flags it reads."""
        p = sub.add_parser(name, help=summary)
        if writes:
            p.add_argument("--seed", type=int, default=None,
                           help="random seed (overrides a config's seed)")
            p.add_argument("--out-dir", default=None,
                           help=f"output directory (default: ${OUT_DIR_ENV} or cwd)")
        if formats:
            p.add_argument("--format", choices=formats, help="stdout format")
        p.add_argument("--quiet", action="store_true", help="suppress stdout")
        p.set_defaults(func=func, format="text")
        return p

    p = command("simulate", cmd_simulate, "run a configured experiment, write log/counts/report",
                formats=("json", "csv", "text"))
    p.add_argument("config", help="path to .cfg or .json experiment config")

    p = command("kc-verify", cmd_kc_verify,
                "audit per-context and mixed-context probability spaces")
    p.add_argument("config")

    p = command("gleason-check", cmd_gleason_check,
                "frame-function additivity and trace-form fit checks")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--n-contexts", type=int, default=1000)
    p.add_argument("--state", default=None, help="operator JSON file for the state")

    p = command("lhv-bound", cmd_lhv_bound,
                "deterministic-strategy bound, or membership of tables", writes=False)
    p.add_argument("tables", nargs="?", default=None,
                   help="optional JSON file of four conditional tables")

    p = command("plot", cmd_plot, "correlation curve and S sweep as SVG", formats=())
    p.add_argument("config")
    p.add_argument("output", help="output SVG filename")
    p.add_argument("--sweep-start", type=float, default=-math.pi / 4)
    p.add_argument("--sweep-stop", type=float, default=math.pi / 4)
    p.add_argument("--sweep-points", type=int, default=61)
    p.add_argument("--mc-trials", type=int, default=20_000)

    return parser


def _run(args) -> None:
    """Run one command, write what it returned (the report file last) and
    print its summary."""
    started = time.perf_counter()
    out = args.func(args)
    if out.artifacts or out.report_path:
        _out_dir(args).mkdir(parents=True, exist_ok=True)
    for path, data in out.artifacts:
        if callable(data):
            data(path)
        else:
            atomic_write(path, (data,))
    if out.report_path:
        meta = {
            "wall_clock_seconds": time.perf_counter() - started,
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "versions": {
                "bellctx": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
        }
        if out.workers is not None:
            meta["workers"] = out.workers
        atomic_write(out.report_path, ((json.dumps({"report": out.report, "meta": meta},
                                                   sort_keys=True, indent=2) + "\n").encode(),))
    if args.quiet:
        return
    if args.format == "json":
        print(json.dumps(out.report, sort_keys=True))
    elif args.format == "csv":
        print(out.csv.rstrip("\n"))
    else:
        print("\n".join(out.lines))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run(args)
        return EXIT_OK
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
