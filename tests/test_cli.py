"""Config dialect, record formats, and command-line behavior.

The CLI contract: exit 0 when every check passes, 2 on an inconclusive
verdict, 1 on config/usage errors or failed checks; artifacts are bit-stable
CSV/fit files plus a JSON manifest with content digests.
"""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from zrlab.cli import main
from zrlab.config import (
    ConfigError,
    apply_overrides,
    default_spec,
    emit_config,
    parse_config,
    validate_spec,
)
from zrlab.evolution import StepperConfig
from zrlab.experiments import fit_loglog, inflation_grid
from zrlab.grid import SpectralGrid
from zrlab.records import (
    RunManifest,
    RunRecord,
    canonical_column_order,
    format_float,
    read_fit_file,
    read_record_csv,
    write_fit_file,
    write_record_csv,
)


# -- parsing -------------------------------------------------------------------

def test_parse_minimal_conserve_config():
    spec = parse_config(
        """
        [experiment]
        kind = conserve
        amplitude = 0.7   # trailing comment

        [stepper]
        dt = 0.002
        t_end = 0.4
        """,
        "conserve",
    )
    assert spec.kind == "conserve"
    assert spec.table["amplitude"] == 0.7
    assert spec.dt == 0.002 and spec.t_end == 0.4
    # untouched entries keep their per-kind defaults
    assert spec.grid_n == 512 and spec.preset == "unit_physical"
    assert spec.table["q1_tol"] == 1e-10


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=r"line 1: unknown section"):
        parse_config("[bogus]\n", "conserve")
    with pytest.raises(ConfigError, match=r"line 3: duplicate key 'dt'"):
        parse_config("[stepper]\ndt = 1\ndt = 2\n", "conserve")
    with pytest.raises(ConfigError, match=r"line 2: expected 'key = value'"):
        parse_config("[stepper]\nnonsense\n", "conserve")
    with pytest.raises(ConfigError, match=r"line 1: key outside any \[section\]"):
        parse_config("dt = 1\n", "conserve")
    with pytest.raises(ConfigError, match=r"line 1: malformed section header"):
        parse_config("[stepper\n", "conserve")
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'dealiaz'"):
        parse_config("[stepper]\ndealiaz = true\n", "conserve")


def test_parse_bad_value_types():
    with pytest.raises(ConfigError, match=r"\[grid\] n: expected an integer"):
        parse_config("[grid]\nn = twelve\n", "conserve")
    with pytest.raises(ConfigError, match=r"\[stepper\] dt: expected a number"):
        parse_config("[stepper]\ndt = fast\n", "conserve")
    with pytest.raises(ConfigError, match="expected a boolean"):
        parse_config("[stepper]\ndealias = maybe\n", "conserve")
    with pytest.raises(ConfigError, match="expected a finite number"):
        parse_config("[stepper]\ndt = inf\n", "conserve")


def test_parse_kind_handling():
    with pytest.raises(ConfigError, match="does not match the requested kind"):
        parse_config("[experiment]\nkind = growth\n", "conserve")
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        parse_config("[experiment]\nkind = zzz\n")
    with pytest.raises(ConfigError, match="experiment.kind missing"):
        parse_config("")
    # the file alone may carry the kind (no subcommand context)
    assert parse_config("[experiment]\nkind = c2probe\n").kind == "c2probe"


def test_emit_parse_roundtrip_all_kinds():
    for kind in ("simulate", "conserve", "inflate", "c2probe", "decohere", "growth"):
        spec = default_spec(kind)
        assert parse_config(emit_config(spec), kind) == spec


def test_emit_parse_roundtrip_physical_params():
    spec = parse_config(
        """
        [experiment]
        kind = conserve
        [params]
        preset = physical
        theta = 1.3
        gamma = 0.9
        omega = 0.8
        beta = 2.2
        nu = 0.7
        [stepper]
        dt = 0.002
        t_end = 0.4
        """,
        "conserve",
    )
    assert parse_config(emit_config(spec), "conserve") == spec


# -- overrides ------------------------------------------------------------------

def test_apply_overrides():
    spec = default_spec("conserve")
    out = apply_overrides(spec, ["stepper.dt=0.002", "experiment.q1_tol=1e-9",
                                 "grid.n=256"])
    assert out.dt == 0.002 and out.table["q1_tol"] == 1e-9 and out.grid_n == 256
    # untouched fields survive
    assert out.t_end == spec.t_end and out.table["amplitude"] == spec.table["amplitude"]


def test_apply_overrides_malformed():
    spec = default_spec("conserve")
    with pytest.raises(ConfigError, match="expected section.key=value"):
        apply_overrides(spec, ["dt=0.01"])
    with pytest.raises(ConfigError, match="unknown section 'foo'"):
        apply_overrides(spec, ["foo.bar=1"])
    with pytest.raises(ConfigError, match="unknown key 'dtt'"):
        apply_overrides(spec, ["stepper.dtt=0.01"])
    # only the kinds that draw random data take a seed
    for kind in ("inflate", "c2probe", "decohere", "growth"):
        with pytest.raises(ConfigError, match=r"unknown key 'seed' in \[experiment\]"):
            apply_overrides(default_spec(kind), ["experiment.seed=1"])
    for kind in ("simulate", "conserve"):
        assert apply_overrides(default_spec(kind), ["experiment.seed=1"]).table["seed"] == 1


# -- validation -----------------------------------------------------------------

def test_validate_named_constraints():
    with pytest.raises(ConfigError, match="inflation hypothesis l >= 2k - 1/2"):
        parse_config("[experiment]\nkind = inflate\nk = 0.5\nl = 0.4\n")
    with pytest.raises(ConfigError, match=r"requires l <= -1/2"):
        parse_config("[experiment]\nkind = c2probe\nl = 0\n")
    with pytest.raises(ConfigError, match=r"m must satisfy m >= 1/mu"):
        parse_config("[experiment]\nkind = decohere\nmu = 0.1\nm = 2\n")
    with pytest.raises(ConfigError, match="power of two"):
        parse_config("[grid]\nn = 100\n[experiment]\nkind = conserve\n")
    with pytest.raises(ConfigError, match="not an integer multiple of dt"):
        parse_config("[stepper]\ndt = 0.003\nt_end = 1.0\n[experiment]\nkind = conserve\n")
    with pytest.raises(ConfigError, match=r"grid must resolve \|xi\|"):
        parse_config("[grid]\nn = 128\nlength = 25.0\n"
                     "[experiment]\nkind = inflate\nn_list = 32,64\n")
    with pytest.raises(ConfigError, match="strictly ascending"):
        parse_config("[experiment]\nkind = inflate\nn_list = 64,32\n")


def test_validate_params_gate():
    # explicit constants demand the physical preset...
    with pytest.raises(ConfigError, match="require params.preset = physical"):
        parse_config("[params]\ntheta = 2.0\n[experiment]\nkind = conserve\n")
    # ...and the constants themselves are checked
    with pytest.raises(ConfigError, match=r"\[params\]: beta must be positive"):
        parse_config("[params]\npreset = physical\nbeta = -1\n"
                     "[experiment]\nkind = conserve\n")
    with pytest.raises(ConfigError, match="global-existence"):
        parse_config("[params]\npreset = physical\nomega = -1\n"
                     "[experiment]\nkind = conserve\n")
    # decohere builds coefficients internally; a [params] section is an error
    with pytest.raises(ConfigError, match="not consulted"):
        parse_config("[params]\npreset = normalized\n[experiment]\nkind = decohere\n")


def test_inflate_band_checked_at_parse_time():
    """Parse and run share one band predicate: a grid whose dealiased band
    (66.03) holds 2N + 2 but not 2N + 2 + 2/N for N = 32 fails at parse time,
    and passes both checks once N = 32 leaves the sweep."""
    grid = SpectralGrid(2.0 * math.pi * 1365 / 66.03, 4096)
    overrides = ["grid.n=4096", f"grid.length={grid.length!r}"]
    with pytest.raises(ConfigError, match=r"resolve \|xi\| <= 66.06 .* N = 32"):
        apply_overrides(default_spec("inflate"), overrides + ["experiment.n_list=16,32"])
    with pytest.raises(ConfigError, match=r"resolve \|xi\| <= 66.06 .* N = 32"):
        inflation_grid(32, 4, grid)
    apply_overrides(default_spec("inflate"), overrides + ["experiment.n_list=8,16"])
    assert inflation_grid(16, 4, grid) is grid


@pytest.mark.parametrize("dt, t_end", [
    (1e-3, 1.0), (1e-3, 50.0), (5e-3, 5.0), (0.1, 0.3), (1.0 / 3.0, 1.0), (7e-4, 0.7),
    (0.5, 0.0), (0.003, 1.0), (0.1, 0.35), (100.0, 5e-8), (2.0, 1.0),
])
def test_whole_steps_config_agrees_with_stepper(dt, t_end):
    """A (dt, t_end) pair the config accepts constructs a StepperConfig, and
    one it rejects as a fractional step count is rejected there too."""
    try:
        apply_overrides(default_spec("simulate"), [f"stepper.dt={dt!r}", f"stepper.t_end={t_end!r}"])
    except ConfigError as exc:
        assert "not an integer multiple of dt" in str(exc)
        with pytest.raises(ValueError, match="not an integer multiple of dt"):
            StepperConfig(dt=dt, t_end=t_end)
    else:
        StepperConfig(dt=dt, t_end=t_end)


def test_validate_spec_direct():
    spec = replace(default_spec("growth"), table=dict(default_spec("growth").table,
                                                      s_list=(0.5,)))
    with pytest.raises(ConfigError, match=r"s_list must lie within \[1, 8\]"):
        validate_spec(spec)


# -- records: CSV ------------------------------------------------------------------

def test_canonical_column_order():
    names = ["devA_L2", "Hpsi2", "HsB_2", "t", "Q3", "HsB_0.5", "Q1", "alpha"]
    assert canonical_column_order(names) == [
        "t", "Q1", "Q3", "HsB_0.5", "HsB_2", "Hpsi2", "alpha", "devA_L2"]


def test_format_float_roundtrips():
    for x in (0.1, 1.0 / 3.0, 1e-300, 6.02214076e23, -math.pi, 0.0):
        assert float(format_float(x)) == x


def test_record_csv_bit_roundtrip(tmp_path):
    rec = RunRecord()
    rec.append({"t": 0.0, "Q1": 1.0 / 3.0, "HsB_1": math.pi, "zeta": 1e-300})
    rec.append({"t": 0.1, "Q1": 2.0 / 7.0, "HsB_1": math.e, "zeta": -0.1})
    path = tmp_path / "series.csv"
    digest = write_record_csv(rec, path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert path.read_text().splitlines()[0] == "t,Q1,HsB_1,zeta"
    back = read_record_csv(path)
    assert back.columns.keys() == rec.columns.keys()
    for name in rec.columns:
        assert back.column(name) == rec.column(name)  # exact, not approx


def test_record_append_validates_keys():
    rec = RunRecord()
    rec.append({"t": 0.0, "Q1": 1.0})
    with pytest.raises(ValueError, match="row keys do not match"):
        rec.append({"t": 0.1, "Q2": 1.0})


def test_record_csv_header_only(tmp_path):
    rec = RunRecord(columns={"t": [], "Q1": []})
    path = tmp_path / "empty.csv"
    write_record_csv(rec, path)
    assert path.read_text() == "t,Q1\n"
    assert len(read_record_csv(path)) == 0


# -- records: fit files ---------------------------------------------------------------

def test_fit_file_footer_recomputable(tmp_path):
    fit = fit_loglog([1, 2, 4, 8, 16], [2.0, 3.9, 8.3, 15.8, 33.0])
    path = tmp_path / "scaling.fit"
    write_fit_file(path, list(fit.log_x), list(fit.log_y),
                   fit.slope, fit.intercept, fit.r_squared)
    data = read_fit_file(path)
    assert data["header"] == ["logN", "lognorm", "fit"]
    pts = np.asarray(data["points"])
    slope, intercept = np.polyfit(pts[:, 0], pts[:, 1], 1)
    assert abs(slope - data["slope"]) < 1e-12
    assert abs(intercept - data["intercept"]) < 1e-12
    fit_column = pts[:, 0] * data["slope"] + data["intercept"]
    np.testing.assert_allclose(pts[:, 2], fit_column, atol=1e-15)
    assert data["slope"] == fit.slope and data["r_squared"] == fit.r_squared


# -- records: manifest -----------------------------------------------------------------

def test_manifest_digest_matches_echo():
    manifest = RunManifest(kind="conserve", config_echo="[stepper]\ndt = 0.001\n",
                           resolved={}, verdict={"status": "pass"},
                           wall_time_s=1.0, artifacts={}, version="0.1.0")
    d = manifest.to_dict()
    assert d["config_digest"] == hashlib.sha256(d["config_echo"].encode()).hexdigest()


# -- CLI end to end ---------------------------------------------------------------------

def test_cli_help_and_usage_errors(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["simulate", "--help"]) == 0
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_cli_missing_config_file(capsys):
    assert main(["conserve", "--config", "/nonexistent/zrlab.cfg"]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_cli_config_error_exits_one(capsys):
    assert main(["c2probe", "--set", "experiment.l=0"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "l <= -1/2" in err


def test_cli_simulate_pass_and_artifacts(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "[grid]\nn = 64\nlength = 16.0\n"
        "[stepper]\ndt = 0.005\nt_end = 0.05\nrecord_every = 5\n"
        "[experiment]\nkind = simulate\namplitude = 0.6\n"
        f"[output]\ndir = {tmp_path / 'out'}\nprefix = demo\n")
    code = main(["simulate", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS" in out and "verdict: pass" in out

    csv_path = tmp_path / "out" / "demo_series.csv"
    manifest_path = tmp_path / "out" / "demo_manifest.json"
    assert csv_path.exists() and manifest_path.exists()
    assert csv_path.read_text().splitlines()[0] == "t,Q1,Q2,Q3,Q4,HsB_1,Hpsi1,Hpsi2"
    assert len(read_record_csv(csv_path)) == 3  # t = 0, 0.025, 0.05

    manifest = json.loads(manifest_path.read_text())
    assert manifest["kind"] == "simulate"
    assert manifest["verdict"]["status"] == "pass"
    # the digest in the manifest is the digest of the bytes on disk
    digest = manifest["artifacts"]["series"]["sha256"]
    assert digest == hashlib.sha256(csv_path.read_bytes()).hexdigest()
    # the config echo reparses to the exact spec that ran
    echoed = parse_config(manifest["config_echo"], "simulate")
    assert echoed == parse_config(cfg.read_text(), "simulate")
    assert manifest["config_digest"] == hashlib.sha256(
        manifest["config_echo"].encode()).hexdigest()


def test_cli_conserve_pass_via_overrides(tmp_path, capsys):
    code = main(["conserve",
                 "--set", "stepper.t_end=0.2",
                 "--set", "stepper.dt=0.002",
                 "--set", "stepper.record_every=20",
                 "--set", "experiment.richardson=false",
                 "--set", f"output.dir={tmp_path}"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert any("q1_drift" in l for l in lines)
    assert any("q4_drift" in l for l in lines)
    assert all(l.startswith("[PASS") for l in lines)


def test_cli_inconclusive_exits_two(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(
        "[experiment]\nkind = inflate\nn_list = 8, 16\nt_probe = 0.02\n"
        f"[output]\ndir = {tmp_path / 'out'}\nprefix = few\n")
    code = main(["inflate", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 2
    assert "verdict: inconclusive" in out
    manifest = json.loads((tmp_path / "out" / "few_manifest.json").read_text())
    assert manifest["verdict"]["status"] == "inconclusive"
