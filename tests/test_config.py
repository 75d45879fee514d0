"""Config parsing: the flat key-value format and its JSON twin."""

import json
from pathlib import Path

import pytest

from bellctx.config import (
    ConfigError,
    ModelBuildError,
    build_experiment,
    load_experiment,
    load_raw_config,
    normalize_raw,
    parse_config_text,
    reproducibility_hash,
)

CONFIGS = Path(__file__).parent.parent / "src" / "bellctx" / "configs"

MINIMAL = """
model.kind = mixed_lhv
alice.angles = 0.0, 0.785398
bob.angles = 0.392699, 1.178097
trials = 1000
seed = 7
"""


def test_parse_key_value_lines():
    raw = parse_config_text("a.b = 1  # comment\n\n# full comment line\nc = x,y\n")
    assert raw == {"a.b": "1", "c": "x,y"}


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")


def test_minimal_config_builds():
    cfg = build_experiment(normalize_raw(parse_config_text(MINIMAL)))
    assert cfg.model.kind == "mixed_lhv"
    assert cfg.n_trials == 1000
    assert cfg.master_seed == 7
    assert cfg.chunk_size == 65536
    assert cfg.combination.to_string() == "+-++"


@pytest.mark.parametrize("key", ["bogus", "kc.exhaustive_limit"])
def test_unknown_key_rejected(key):
    with pytest.raises(ConfigError, match="unknown config keys"):
        normalize_raw({"model.kind": "quantum", key: 1})


def test_missing_required_key_rejected():
    with pytest.raises(ConfigError, match="missing required"):
        normalize_raw({"model.kind": "quantum"})


def test_bad_model_kind_is_model_error():
    raw = normalize_raw(parse_config_text(MINIMAL.replace("mixed_lhv", "oracle")))
    with pytest.raises(ModelBuildError, match="unknown model.kind"):
        build_experiment(raw)


def test_bad_state_name_is_model_error():
    text = MINIMAL.replace("mixed_lhv", "quantum") + "model.state = bogus\n"
    with pytest.raises(ModelBuildError, match="named state"):
        build_experiment(normalize_raw(parse_config_text(text)))


def test_seed_override_changes_hash():
    raw = normalize_raw(parse_config_text(MINIMAL))
    base = build_experiment(raw)
    overridden = build_experiment(raw, seed_override=99)
    assert overridden.master_seed == 99
    assert (reproducibility_hash(base.raw, base.master_seed)
            != reproducibility_hash(overridden.raw, overridden.master_seed))


def test_workers_is_execution_detail_not_identity():
    raw1 = normalize_raw(parse_config_text(MINIMAL + "workers = 1\n"))
    raw8 = normalize_raw(parse_config_text(MINIMAL + "workers = 8\n"))
    cfg1, cfg8 = build_experiment(raw1), build_experiment(raw8)
    assert cfg1.raw == cfg8.raw
    assert cfg8.n_workers == 8


def test_json_config_equivalent_to_cfg(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(MINIMAL)
    json_path = tmp_path / "exp.json"
    json_path.write_text(json.dumps({
        "model.kind": "mixed_lhv",
        "alice.angles": [0.0, 0.785398],
        "bob.angles": [0.392699, 1.178097],
        "trials": 1000,
        "seed": 7,
    }))
    from_cfg = load_experiment(cfg_path)
    from_json = load_experiment(json_path)
    assert from_cfg.raw == from_json.raw
    assert reproducibility_hash(from_cfg.raw, 7) == reproducibility_hash(from_json.raw, 7)


def test_bundled_configs_load():
    for path in sorted(CONFIGS.glob("*.cfg")):
        cfg = load_experiment(path)
        assert cfg.n_trials >= 1
        assert cfg.settings.n_alice == 2


def test_angles_must_be_finite():
    with pytest.raises(ConfigError, match="finite"):
        normalize_raw(parse_config_text(MINIMAL.replace("0.0,", "nan,")))


@pytest.mark.parametrize("probs", ["nan, 0.5", "0.5, inf"])
def test_probs_must_be_finite(probs):
    with pytest.raises(ConfigError, match="bob.probs: values must be finite"):
        normalize_raw(parse_config_text(MINIMAL + f"bob.probs = {probs}\n"))


@pytest.mark.parametrize("n_alice, n_bob, refused", [
    (200, 100, True), (16385, 1, True), (128, 128, False), (1, 16384, False)])
def test_a_grid_of_more_than_65536_cells_is_refused(n_alice, n_bob, refused):
    """4 * n_alice * n_bob cells at most, the bound the event-log reader keeps;
    it is checked before the model is built."""
    text = (MINIMAL.replace("0.0, 0.785398", ", ".join(["0.1"] * n_alice))
            .replace("0.392699, 1.178097", ", ".join(["0.2"] * n_bob))
            .replace("mixed_lhv", "deterministic")
            + f"model.a = {', '.join(['1'] * n_alice)}\nmodel.b = {', '.join(['-1'] * n_bob)}\n")
    raw = normalize_raw(parse_config_text(text))
    if refused:
        with pytest.raises(ConfigError) as error:
            build_experiment(raw)
        assert str(error.value) == (f"settings: grid {n_alice}x{n_bob} has "
                                    f"{4 * n_alice * n_bob} cells, more than 65536")
    else:
        assert build_experiment(raw).settings.n_alice == n_alice


def test_missing_file_raises_oserror():
    with pytest.raises(OSError):
        load_raw_config("/nonexistent/path.cfg")


def test_non_utf8_file_is_config_error(tmp_path):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"model.kind = quantum\n\xff\xfe\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_raw_config(path)
