"""Experiment configuration: a flat, typed key-value format.

A config is a set of dotted keys with scalar or list values. Two
on-disk representations are accepted and are fully equivalent:

- ``.cfg``: one ``key = value`` pair per line, ``#`` comments, lists
  comma-separated;
- ``.json``: one flat object with the same dotted keys and JSON-typed
  values.

Keys (* = required):

    model.kind*          quantum | mixed_lhv | deterministic | pr_box |
                         superdeterministic_s4 | signalling
    model.state          quantum: photon_pair | maximally_mixed | product_hh
    model.state_file     quantum: path to an operator JSON file
    model.mixture        mixed_lhv: uniform16
    model.a, model.b     deterministic: per-setting outcomes, e.g. +1,-1
    model.negative_cell  pr_box: anticorrelated cell, e.g. 0,1
    model.b_of_x         signalling: Bob outcome per Alice setting
    alice.angles*        analyzer angles in radians, comma-separated
    alice.probs          setting probabilities (default uniform)
    bob.angles*, bob.probs
    trials*, seed*       integers
    chunk_size           default 65536
    workers              default 1
    combination          CHSH sign pattern, default +-++
    kc.exhaustive_limit  default 16
    out.event_log        default events.jsonl
    out.counts           default counts.csv
    out.report           default report.json

Parsing and schema problems raise ConfigError; a config that parses but
describes an invalid model raises ModelBuildError (distinct exit codes
at the CLI).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .chsh import ChshCombination
from .kolmogorov import SettingsSpec
from .models import (
    DeterministicStrategy,
    MixedLhvModel,
    OutcomeModel,
    PrBoxModel,
    QuantumModel,
    SignallingModel,
    superdeterministic_s4_example,
)
from .quantum import DensityOperator, maximally_mixed, operator_from_json, photon_pair_state, \
    pure_state

REPORT_SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Config file cannot be parsed or violates the schema."""


class ModelBuildError(Exception):
    """Config parsed fine but the described model is invalid."""


_REQUIRED_KEYS = ("model.kind", "alice.angles", "bob.angles", "trials", "seed")

_KNOWN_KEYS = set(_REQUIRED_KEYS) | {
    "model.state", "model.state_file", "model.mixture", "model.a", "model.b",
    "model.negative_cell", "model.b_of_x",
    "alice.probs", "bob.probs",
    "chunk_size", "workers", "combination", "kc.exhaustive_limit",
    "out.event_log", "out.counts", "out.report",
}

_NAMED_STATES = {
    "photon_pair": photon_pair_state,
    "maximally_mixed": lambda: maximally_mixed(4),
    "product_hh": lambda: pure_state([1, 0, 0, 0]),
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the key = value format to raw strings."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _as_float_list(value, key: str) -> list[float]:
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        parts = [value]
    try:
        return [float(p) for p in parts]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected a list of numbers, got {value!r}") from exc


def _as_int_list(value, key: str) -> list[int]:
    floats = _as_float_list(value, key)
    ints = [int(f) for f in floats]
    if any(i != f for i, f in zip(ints, floats)):
        raise ConfigError(f"{key}: expected integers, got {value!r}")
    return ints


def _as_int(value, key: str) -> int:
    try:
        out = int(str(value).strip())
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from exc
    return out


def normalize_raw(raw: dict) -> dict:
    """Schema-check raw values and convert them to canonical JSON types."""
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    missing = [key for key in _REQUIRED_KEYS if key not in raw]
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    canon: dict = {}
    for key, value in raw.items():
        if key in ("alice.angles", "alice.probs", "bob.angles", "bob.probs"):
            canon[key] = _as_float_list(value, key)
        elif key in ("trials", "seed", "chunk_size", "workers", "kc.exhaustive_limit"):
            canon[key] = _as_int(value, key)
        elif key in ("model.a", "model.b", "model.negative_cell", "model.b_of_x"):
            canon[key] = _as_int_list(value, key)
        else:
            canon[key] = str(value)
    for key in ("alice.angles", "alice.probs", "bob.angles", "bob.probs"):
        if not all(math.isfinite(v) for v in canon.get(key, ())):
            raise ConfigError(f"{key}: values must be finite")
    if canon["trials"] < 1:
        raise ConfigError("trials must be at least 1")
    if canon.get("chunk_size", 65536) < 1:
        raise ConfigError("chunk_size must be at least 1")
    if canon.get("workers", 1) < 1:
        raise ConfigError("workers must be at least 1")
    if "combination" in canon:
        try:
            ChshCombination.from_string(canon["combination"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return canon


def load_raw_config(path) -> dict:
    """Read a .cfg or .json config file into canonical flat form."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top-level JSON value must be an object")
        return normalize_raw(data)
    return normalize_raw(parse_config_text(text))


def _build_model(canon: dict, settings: SettingsSpec,
                 combination: ChshCombination) -> OutcomeModel:
    kind = canon["model.kind"]
    try:
        if kind == "quantum":
            if "model.state_file" in canon:
                state_data = json.loads(Path(canon["model.state_file"]).read_text())
                rho = DensityOperator(operator_from_json(state_data))
            else:
                name = canon.get("model.state", "photon_pair")
                if name not in _NAMED_STATES:
                    raise ModelBuildError(
                        f"unknown named state {name!r}; known: {sorted(_NAMED_STATES)}")
                rho = _NAMED_STATES[name]()
            return QuantumModel(rho, settings.alice_angles, settings.bob_angles)
        if kind == "mixed_lhv":
            mixture = canon.get("model.mixture", "uniform16")
            if mixture != "uniform16":
                raise ModelBuildError(f"unknown mixture {mixture!r}; known: ['uniform16']")
            return MixedLhvModel.uniform_over_all()
        if kind == "deterministic":
            if "model.a" not in canon or "model.b" not in canon:
                raise ModelBuildError("deterministic model needs model.a and model.b")
            return DeterministicStrategy(tuple(canon["model.a"]), tuple(canon["model.b"]))
        if kind == "pr_box":
            cell = canon.get("model.negative_cell", [0, 1])
            return PrBoxModel((cell[0], cell[1]))
        if kind == "superdeterministic_s4":
            return superdeterministic_s4_example(combination)
        if kind == "signalling":
            b_of_x = canon.get("model.b_of_x", [1, -1])
            return SignallingModel(tuple(b_of_x))
    except ModelBuildError:
        raise
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        raise ModelBuildError(f"model.kind={kind}: {exc}") from exc
    raise ModelBuildError(f"unknown model.kind {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description."""

    raw: dict
    model: OutcomeModel
    settings: SettingsSpec
    n_trials: int
    master_seed: int
    chunk_size: int
    n_workers: int
    combination: ChshCombination
    kc_exhaustive_limit: int
    out_event_log: str
    out_counts: str
    out_report: str


def build_experiment(canon: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Turn a canonical raw config into validated runtime objects."""
    try:
        alice_angles = canon["alice.angles"]
        bob_angles = canon["bob.angles"]
        alice_probs = canon.get("alice.probs", [1.0 / len(alice_angles)] * len(alice_angles))
        bob_probs = canon.get("bob.probs", [1.0 / len(bob_angles)] * len(bob_angles))
        settings = SettingsSpec(tuple(alice_angles), tuple(alice_probs),
                                tuple(bob_angles), tuple(bob_probs))
    except ValueError as exc:
        raise ConfigError(f"settings: {exc}") from exc
    combination = ChshCombination.from_string(canon.get("combination", "+-++"))
    model = _build_model(canon, settings, combination)
    if model.n_alice != settings.n_alice or model.n_bob != settings.n_bob:
        raise ModelBuildError(
            f"model declares {model.n_alice}x{model.n_bob} settings, config has "
            f"{settings.n_alice}x{settings.n_bob}")
    seed = canon["seed"] if seed_override is None else int(seed_override)
    # The worker count is execution topology, not experiment identity:
    # reports must be byte-identical across worker configurations, so it
    # is excluded from the config echo and the reproducibility hash.
    raw = {key: value for key, value in canon.items() if key != "workers"}
    raw["seed"] = seed
    return ExperimentConfig(
        raw=raw,
        model=model,
        settings=settings,
        n_trials=canon["trials"],
        master_seed=seed,
        chunk_size=canon.get("chunk_size", 65536),
        n_workers=canon.get("workers", 1),
        combination=combination,
        kc_exhaustive_limit=canon.get("kc.exhaustive_limit", 16),
        out_event_log=canon.get("out.event_log", "events.jsonl"),
        out_counts=canon.get("out.counts", "counts.csv"),
        out_report=canon.get("out.report", "report.json"),
    )


def load_experiment(path, seed_override: int | None = None) -> ExperimentConfig:
    return build_experiment(load_raw_config(path), seed_override)


def reproducibility_hash(raw: dict, seed: int) -> str:
    """Hash of (schema version, config, seed); stable across runs."""
    payload = json.dumps(
        {"schema": REPORT_SCHEMA_VERSION, "config": raw, "seed": seed},
        sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
