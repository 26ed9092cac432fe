"""Config dialect, record formats, and command-line behavior.

The CLI contract: exit 0 when every check passes, 2 on an inconclusive
verdict, 1 on config/usage errors or failed checks; artifacts are bit-stable
CSV/fit files plus a JSON manifest with content digests.
"""

import hashlib
import json
import logging
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from zrlab.cli import main
from zrlab.config import (
    _INITIAL_KEYS,
    _SCHEMAS,
    DECLARATIONS,
    ConfigError,
    apply_overrides,
    decohere_pairs,
    default_spec,
    emit_config,
    parse_config,
    read_entries,
    validate_spec,
)
from zrlab import experiments
from zrlab.evolution import BlowUpError, StepperConfig
from zrlab.experiments import fit_loglog
from zrlab.grid import GRID_SIZE_RULE, SpectralGrid
from zrlab.records import (
    RunRecord,
    format_float,
    write_fit_file,
    write_manifest,
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
    assert spec.grid_n == 512 and spec.preset == "physical"
    assert spec.table["width"] == 4.0


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
    out = apply_overrides(spec, ["stepper.dt=0.002", "experiment.width=3.0",
                                 "grid.n=256"])
    assert out.dt == 0.002 and out.table["width"] == 3.0 and out.grid_n == 256
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
    # the Hpsi columns' Sobolev index is fixed at -1/2, not an entry
    for kind in ("simulate", "conserve", "growth"):
        with pytest.raises(ConfigError, match=r"unknown key 'psi_index' in \[experiment\]"):
            apply_overrides(default_spec(kind), ["experiment.psi_index=-0.5"])
    # a check's bound is fixed in the program, so no entry can loosen it
    for kind, key in (("conserve", "q1_tol"), ("conserve", "q4_tol"), ("growth", "c_one")):
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in \[experiment\]"):
            apply_overrides(default_spec(kind), [f"experiment.{key}=1e9"])
    for kind in ("simulate", "conserve"):
        spec = apply_overrides(default_spec(kind), ["experiment.initial=random",
                                                    "experiment.seed=1"])
        assert spec.table["seed"] == 1


# -- validation -----------------------------------------------------------------

def test_validate_named_constraints():
    with pytest.raises(ConfigError, match="inflation hypothesis l >= 2k - 1/2"):
        parse_config("[experiment]\nkind = inflate\nk = 0.5\nl = 0.4\n")
    with pytest.raises(ConfigError, match=r"requires l <= -1/2"):
        parse_config("[experiment]\nkind = c2probe\nl = 0\n")
    with pytest.raises(ConfigError, match=r"m must satisfy m >= 1/mu"):
        parse_config("[experiment]\nkind = decohere\nmu = 0.1\nm = 2\n")
    # fewer than two distinct mu would make dev_bound_stability read 1, or drop it
    for mu_list in ("0.05", "0.1,0.1", ""):
        with pytest.raises(ConfigError, match="mu_list must hold at least two distinct entries"):
            parse_config(f"[experiment]\nkind = decohere\nmu_list = {mu_list}\n")
    with pytest.raises(ConfigError, match="no prime factor but 2, 3 and 5"):
        parse_config("[grid]\nn = 98\n[experiment]\nkind = conserve\n")
    with pytest.raises(ConfigError, match="not an integer multiple of dt"):
        parse_config("[stepper]\ndt = 0.003\nt_end = 1.0\n[experiment]\nkind = conserve\n")
    with pytest.raises(ConfigError, match="strictly ascending"):
        parse_config("[experiment]\nkind = inflate\nn_list = 64,32\n")


def test_sharpness_boundaries_are_inclusive():
    """Inflate parses on its line l = 2k - 1/2 and is refused one ulp below
    it, for k drawn in (0, 1); c2probe parses at l = -1/2 and is refused one
    ulp above."""
    for k in np.random.default_rng(25).uniform(0.0, 1.0, 50).tolist():
        l = 2.0 * k - 0.5
        spec = apply_overrides(default_spec("inflate"), [f"experiment.k={k!r}",
                                                         f"experiment.l={l!r}"])
        assert (spec.table["k"], spec.table["l"]) == (k, l)
        below = math.nextafter(l, -math.inf)
        with pytest.raises(ConfigError, match="inflation hypothesis l >= 2k - 1/2"):
            apply_overrides(default_spec("inflate"), [f"experiment.k={k!r}",
                                                      f"experiment.l={below!r}"])
    assert apply_overrides(default_spec("c2probe"), ["experiment.l=-0.5"]).table["l"] == -0.5
    with pytest.raises(ConfigError, match="requires l <= -1/2"):
        apply_overrides(default_spec("c2probe"),
                        [f"experiment.l={math.nextafter(-0.5, math.inf)!r}"])


@pytest.mark.parametrize("n, valid", [(4, False), (14, False), (49, False), (75, False),
                                      (98, False), (8, True), (480, True), (512, True),
                                      (1_600_000, True)])
def test_grid_size_rule_has_one_owner(n, valid):
    """The grid.n entry and SpectralGrid accept the same sizes and refuse the
    others with the same rule text, so a config that parses also runs."""
    text = f"[grid]\nn = {n}\n[experiment]\nkind = conserve\n"
    if valid:
        assert parse_config(text).grid_n == SpectralGrid(64.0, n).n == n
        return
    rule = re.escape(GRID_SIZE_RULE)
    with pytest.raises(ConfigError, match=rf"grid\.n {rule}, got {n}"):
        parse_config(text)
    with pytest.raises(ValueError, match=rf"grid size {rule}, got {n}"):
        SpectralGrid(64.0, n)


def test_validate_params_gate():
    # explicit constants demand the physical preset (simulate's default is
    # normalized; conserve's is physical and takes them alone)...
    with pytest.raises(ConfigError, match="require params.preset = physical"):
        parse_config("[params]\ntheta = 2.0\n[experiment]\nkind = simulate\n")
    assert parse_config("[params]\ntheta = 2.0\n[experiment]\nkind = conserve\n").theta == 2.0
    # ...and the constants themselves are checked
    with pytest.raises(ConfigError, match=r"\[params\]: beta must be positive"):
        parse_config("[params]\npreset = physical\nbeta = -1\n"
                     "[experiment]\nkind = conserve\n")
    for entry in ("omega = -1", "nu = 1.5"):  # omega > 0, then beta - nu^2 > 0 fails
        with pytest.raises(ConfigError, match="global-existence"):
            parse_config(f"[params]\npreset = physical\n{entry}\n"
                         "[experiment]\nkind = conserve\n")
    # decohere builds coefficients internally; a [params] section is an error
    with pytest.raises(ConfigError, match="not consulted"):
        parse_config("[params]\npreset = normalized\n[experiment]\nkind = decohere\n")


@pytest.mark.parametrize("kind, entries", [
    ("c2probe", ("grid.n=64", "grid.length=1", "params.preset=physical", "params.theta=3",
                 "stepper.dt=0.3", "stepper.t_end=5", "stepper.record_every=7")),
    ("inflate", ("grid.n=4096", "grid.length=100", "stepper.t_end=5",
                 "stepper.record_every=7")),
    ("decohere", ("params.preset=normalized", "stepper.t_end=5")),
])
def test_unread_entries_rejected(kind, entries, tmp_path):
    """An entry the kind never reads is refused by name, whether it comes from
    --set or a programmatic spec, and emit_config leaves it out."""
    for entry in entries:
        key = entry.split("=")[0]
        with pytest.raises(ConfigError, match=rf"{key} is not consulted by kind={kind}"):
            apply_overrides(default_spec(kind), [entry])
    with pytest.raises(ConfigError, match="stepper.t_end is not consulted"):
        validate_spec(replace(default_spec(kind), t_end=5.0))
    assert main([kind, "--set", entries[-1], "--set", f"output.dir={tmp_path}"]) == 1
    emitted = emit_config(default_spec(kind))
    for entry in entries:
        assert f"\n{entry.split('=')[0].split('.')[1]} = " not in emitted


@pytest.mark.parametrize("kind, initial", [("simulate", name) for name in _INITIAL_KEYS]
                         + [("conserve", "gaussian"), ("conserve", "random"),
                            ("growth", None)])
def test_initial_keys_match_initial_state(kind, initial):
    """The initial-data keys a spec reads (`read_entries`) are the keys the
    run's `_initial_state` looks up for it (growth has no `initial` key and
    starts from the Gaussian): with a nonzero psi_amplitude all the keys
    config declares for the preset, with psi_amplitude = 0 all but
    psi_width, which only shapes a nonzero psi."""
    class Recorder(dict):
        def __getitem__(self, key):
            seen.add(key)
            return super().__getitem__(key)

    declared = set(_INITIAL_KEYS[initial or "gaussian"])
    for psi_amplitude, psi_keys in ((0.0, declared - {"psi_width"}), (0.5, declared)):
        seen = set()
        spec = default_spec(kind)
        table = dict(spec.table, psi_amplitude=psi_amplitude)
        if initial is not None:
            table.update(initial=initial, kappa=2.0 * math.pi / 64.0)
        spec = replace(spec, table=Recorder(table))
        experiments._initial_state(spec, SpectralGrid(spec.grid_length, spec.grid_n),
                                   spec.coefficients())
        read = {entry.removeprefix("experiment.") for entry in read_entries(spec)}
        assert seen == psi_keys == read & set().union(*_INITIAL_KEYS.values())


@pytest.mark.parametrize("kind, initial, entry", [
    ("simulate", "gaussian", "seed=3"), ("simulate", "gaussian", f"kappa={math.pi / 16.0!r}"),
    ("simulate", "gaussian", "c2=1.0"), ("simulate", "random", "c1=1.0"),
    ("simulate", "plateau", "width=3.0"), ("simulate", "plane_wave", "psi_amplitude=1.0"),
    ("simulate", "plane_wave", "psi_width=3.0"), ("simulate", "plane_wave", "seed=3"),
    ("conserve", "gaussian", "seed=3"), ("simulate", "gaussian", "psi_width=3.0"),
    ("simulate", "plateau", "psi_width=3.0"), ("simulate", "random", "psi_width=3.0"),
    ("conserve", "gaussian", "psi_width=3.0"), ("conserve", "random", "psi_width=3.0"),
])
def test_unread_initial_keys_rejected(kind, initial, entry):
    """An initial-data key the chosen preset does not read is refused by name
    and left out of the echo; a preset that reads it takes it.  psi_width is
    read only with a nonzero psi_amplitude (the default is 0), so the
    preset takes it with psi_amplitude = 0.5."""
    key = entry.split("=")[0]

    def chosen(name):  # the plane wave needs a kappa on the default grid, set once
        needs_kappa = name == "plane_wave" and key != "kappa"
        kappa = [f"experiment.kappa={2.0 * math.pi / 64.0!r}"] if needs_kappa else []
        return [f"experiment.initial={name}", *kappa]

    with pytest.raises(ConfigError, match=f"experiment.{key} is not consulted by kind={kind} "
                                          f"with initial = {initial}"):
        apply_overrides(default_spec(kind), [*chosen(initial), f"experiment.{entry}"])
    assert f"\n{key} = " not in emit_config(apply_overrides(default_spec(kind), chosen(initial)))
    reader = next(name for name, keys in _INITIAL_KEYS.items() if key in keys)
    psi = ["experiment.psi_amplitude=0.5"] if key == "psi_width" else []
    spec = apply_overrides(default_spec(kind), [*chosen(reader), *psi, f"experiment.{entry}"])
    assert f"\n{entry.replace('=', ' = ')}\n" in emit_config(spec)


@pytest.mark.parametrize("entry", ["grid.n=4096", "grid.length=100.0"])
def test_inflate_lone_grid_entry_rejected(entry, tmp_path, capsys):
    """inflate sizes its grid per member and reads no [grid] entry, so a grid
    entry, alone or with the other, is refused by name with nothing written."""
    key = entry.split("=")[0]
    with pytest.raises(ConfigError, match=f"{key} is not consulted by kind=inflate"):
        apply_overrides(parse_config("", "inflate"), [entry, "experiment.n_list=8,16,32"])
    both = ["--set", "grid.n=4096", "--set", "grid.length=100"]
    assert main(["inflate", *both, "--set", f"output.dir={tmp_path}"]) == 1
    assert "grid.n is not consulted by kind=inflate" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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


@pytest.mark.parametrize("kind", [k for k, d in DECLARATIONS.items() if d.preset is not None])
@pytest.mark.parametrize("preset", ["normalized", "unit_physical", "physical", "none"])
def test_preset_config_agrees_with_runner(kind, preset, tmp_path):
    """Parse and run share one preset rule: a preset that parses builds the
    run's coefficients, and any other fails at parse time, not mid-run."""
    overrides = [f"params.preset={preset}"]
    if preset not in ("normalized", "physical"):
        with pytest.raises(ConfigError, match=r"params\.preset must be one of"):
            apply_overrides(default_spec(kind), overrides)
        assert main([kind, "--set", overrides[0], "--set", f"output.dir={tmp_path}"]) == 1
        assert not any(tmp_path.iterdir())
    else:
        apply_overrides(default_spec(kind), overrides).coefficients()


def test_validate_spec_direct():
    spec = replace(default_spec("growth"), table=dict(default_spec("growth").table,
                                                      s_list=(0.5,)))
    with pytest.raises(ConfigError, match=r"s_list must lie within \[1, 8\]"):
        validate_spec(spec)


# One violating setting per declared rule: "<kind>.<key>" for an entry's rule,
# "<kind>.rules[i]" for a kind rule, "<section>.<key>" for the other sections'
# entries; each with the text its ConfigError must carry (None: the entry's
# own rule message).
RULE_CASES = {
    "grid.n": (["grid.n=98"], r"grid\.n must be even, >= 8 and have no prime factor"),
    "grid.length": (["grid.length=0"], r"grid\.length must be positive"),
    "output.dir": (["output.dir="], r"output\.dir must be nonempty"),
    "output.prefix": (["output.prefix="], r"output\.prefix must be nonempty"),
    "params.preset": (["params.preset=unit_physical"], r"params\.preset must be one of"),
    "simulate.seed": (["experiment.initial=random", "experiment.seed=-1"], None),
    "simulate.initial": (["experiment.initial=bogus"], None),
    "simulate.width": (["experiment.width=0"], None),
    "simulate.psi_width": (["experiment.psi_amplitude=0.5", "experiment.psi_width=-1"], None),
    "simulate.s_list": (["experiment.s_list="], None),
    "simulate.rules[0]": (["experiment.initial=plane_wave"],
                          "kappa = 1.0 is not a grid wavenumber"),
    "conserve.seed": (["experiment.initial=random", "experiment.seed=-1"], None),
    "conserve.initial": (["experiment.initial=plateau"], None),
    "conserve.width": (["experiment.width=-2"], None),
    "conserve.psi_width": (["experiment.psi_amplitude=0.5", "experiment.psi_width=0"], None),
    "conserve.rules[0]": (["params.preset=physical", "params.omega=-1"], "global-existence"),
    "inflate.k": (["experiment.k=1.0", "experiment.l=2.0"], None),
    "inflate.n_list": (["experiment.n_list=64,32"], None),
    "inflate.t_probe": (["experiment.t_probe=0"], None),
    "inflate.variant": (["experiment.variant=h"], None),
    "inflate.modes_per_hat": (["experiment.modes_per_hat=0"], None),
    "inflate.nodes": (["experiment.nodes=8"], None),
    "inflate.rules[0]": (["experiment.k=0.5", "experiment.l=0.4"],
                         "inflation hypothesis l >= 2k - 1/2"),
    "inflate.rules[1]": (["stepper.dt=1e-320"], "overflows the step count"),
    "c2probe.l": (["experiment.l=0"], None),
    "c2probe.n_list": (["experiment.n_list=16"], None),
    "c2probe.t_probe": (["experiment.t_probe=-0.01"], None),
    "c2probe.nodes": (["experiment.nodes=15"], None),
    "decohere.mu": (["experiment.mu=1.0"], None),
    "decohere.c": (["experiment.c=0"], None),
    "decohere.k_reg": (["experiment.k_reg=-1"], None),
    "decohere.mu_list": (["experiment.mu_list=0.1,1.5"], None),
    "decohere.rules[0]": (["experiment.mu=0.1", "experiment.m=2"], "m must satisfy m >= 1/mu"),
    "decohere.rules[1]": (["grid.n=256"], r"under-resolved small-dispersion run: grid \(n = 256"),
    "decohere.rules[2]": (["stepper.dt=1e-320"], "overflows the step count"),
    "growth.amplitude": (["experiment.amplitude=0"], None),
    "growth.width": (["experiment.width=0"], None),
    "growth.psi_width": (["experiment.psi_width=-2"], None),
    "growth.s_list": (["experiment.s_list=0.5"], None),
    "growth.rules[0]": (["params.preset=physical", "params.nu=1.5"], "global-existence"),
}


@pytest.mark.parametrize("case", sorted(RULE_CASES))
def test_every_declared_rule_can_fail(case):
    """Every declared rule rejects a value that violates it, with an error
    that states that rule (an entry's rule, by its own message) or the
    condition (a kind rule); the table covers every rule in DECLARATIONS and
    the other sections."""
    declared = {f"{section}.{key}" for section, keys in _SCHEMAS.items()
                for key, declaration in keys.items() if declaration.rule is not None}
    for kind, decl in DECLARATIONS.items():
        declared |= {f"{kind}.{key}" for key, declaration in decl.keys.items()
                     if declaration.rule is not None}
        declared |= {f"{kind}.rules[{i}]" for i in range(len(decl.rules))}
    assert declared == set(RULE_CASES)

    overrides, match = RULE_CASES[case]
    kind, _, name = case.partition(".")
    if kind not in DECLARATIONS:
        kind = "simulate"
    elif match is None:
        match = re.escape(f"experiment.{name} {DECLARATIONS[kind].keys[name].rule[1]}, got ")
    with pytest.raises(ConfigError, match=match):
        apply_overrides(default_spec(kind), overrides)


@pytest.mark.parametrize("overrides", [
    ["experiment.initial=plane_wave"],
    ["experiment.initial=plane_wave", f"experiment.kappa={2.0 * math.pi * 40 / 64.0!r}",
     "grid.n=64"],
])
def test_plane_wave_off_grid_fails_at_parse_time(overrides, tmp_path, capsys):
    """Parse and run share one plane-wave predicate: kappa = 1.0 is mode
    10.19 of the default grid, and mode 40 lies outside a 64-point grid's
    band; both stop at parse time with nothing written, while kappa = 2 pi / 64
    runs."""
    args = ["simulate", "--set", f"output.dir={tmp_path}"]
    for entry in overrides:
        args += ["--set", entry]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "kappa" in err
    assert not any(tmp_path.iterdir())
    kappa = f"experiment.kappa={2.0 * math.pi / 64.0!r}"
    assert main(args[:3] + ["--set", "experiment.initial=plane_wave", "--set", kappa]) == 0
    assert (tmp_path / "simulate_manifest.json").exists()


@pytest.mark.parametrize("entry", ["grid.n=256", "grid.length=1000"])
def test_decohere_chirp_guard_at_parse_time(entry, tmp_path):
    """Parse and run share decohere's resolution guard: a grid whose
    dealiased band cannot hold the chirp fails at parse time, not after the
    runs are set up."""
    with pytest.raises(ConfigError, match="under-resolved small-dispersion run"):
        apply_overrides(default_spec("decohere"), [entry])
    assert main(["decohere", "--set", entry, "--set", f"output.dir={tmp_path}"]) == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("entry", ["experiment.m=1e200", "experiment.mu_list=1e-161,0.1"])
def test_decohere_scale_overflow_is_a_config_error(entry):
    """A scale M whose square, or a sweep mu_j whose ceil(1/mu_j)^2, leaves
    the float range stops decohere's geometry with a ConfigError, not an
    OverflowError."""
    with pytest.raises(ConfigError, match="decohere scales overflow"):
        apply_overrides(default_spec("decohere"), [entry])


@pytest.mark.parametrize("kind", ["simulate", "inflate", "decohere"])
def test_tiny_dt_is_a_config_error(kind, tmp_path, capsys):
    """A dt whose step count t_end / dt overflows stops at parse time as a
    config error with nothing written, not as an OverflowError traceback:
    simulate's StepperConfig and the step counts inflate and decohere derive
    from t_probe and the internal horizons share one guard."""
    assert main([kind, "--set", "stepper.dt=1e-320", "--set", f"output.dir={tmp_path}"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "overflows the step count" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("kind, entries, message", [
    ("conserve", ("params.preset=physical", "params.theta=1e-320"),
     "[params]: coefficient speed_plus must be finite"),
    ("growth", ("params.preset=physical", "params.gamma=1e200"),
     "[params]: coefficient cubic must be finite"),
    ("conserve", ("params.preset=physical", "params.nu=1e200"),
     "[params]: physical parameters and nu^2 must be finite"),
    ("inflate", ("stepper.dt=-0.001",), "[stepper]: dt must be positive, got -0.001"),
    ("inflate", ("stepper.dt=0",), "[stepper]: dt must be positive, got 0.0"),
    ("decohere", ("stepper.dt=-0.005",), "[stepper]: dt must be positive, got -0.005"),
    ("decohere", ("stepper.dt=0",), "[stepper]: dt must be positive, got 0.0"),
    ("decohere", ("stepper.record_every=0",), "[stepper]: record_every must be >= 1"),
])
def test_refused_with_the_runs_builders(kind, entries, message, tmp_path, capsys):
    """Validation builds what the run builds, with the run's builders, and a
    refusal exits 1 with the builder's text and no output directory: the
    coefficient record (`ExperimentSpec.coefficients`), whose entries must be
    finite where PhysicalParams accepts the constants (1 / theta, gamma q)
    and whose nu^2 must be finite (Python's float ** raises on overflow),
    and the `StepperConfig.spanning` step configs of inflate and decohere,
    which read dt (decohere record_every too) but not t_end."""
    out = tmp_path / "out"
    args = [kind, *(arg for entry in entries for arg in ("--set", entry))]
    assert main([*args, "--set", f"output.dir={out}"]) == 1
    assert capsys.readouterr().err == f"zrlab: config error: {message}\n"
    assert not out.exists()


def test_verbosity_applies_to_every_main_call(tmp_path, caplog):
    """-v/-vv set the level of zrlab's loggers on every `main` call, also
    when the root logger already has a handler (a second call in one process,
    or under pytest), where `logging.basicConfig` does nothing: the stepper's
    DEBUG lines appear for the -vv call only."""
    args = ["simulate", "--set", "stepper.t_end=0.01", "--set", f"output.dir={tmp_path}"]
    try:
        for flags, debug in (([], False), (["-vv"], True), ([], False)):
            caplog.clear()
            assert main([*flags, *args]) == 0
            assert debug == any(r.name == "zrlab.evolution" and r.levelno == logging.DEBUG
                                for r in caplog.records)
    finally:
        logging.getLogger("zrlab").setLevel(logging.NOTSET)


def test_growth_underflowed_norm_is_inconclusive_with_manifest(tmp_path):
    """An amplitude whose H^s norms underflow to zero parses and runs: the
    exponent check has no positive samples to fit, so it reads inconclusive
    (exit 2) and the run leaves its manifest."""
    args = ["growth", "--set", "experiment.amplitude=1e-200", "--set", "stepper.t_end=1",
            "--set", f"output.dir={tmp_path}"]
    assert main(args) == 2
    verdict = json.loads((tmp_path / "growth_manifest.json").read_text())["verdict"]
    checks = {c["name"]: c["status"] for c in verdict["checks"]}
    assert verdict["status"] == "inconclusive" and checks["growth_exponent_s3"] == "inconclusive"


@pytest.mark.parametrize("entry", ["experiment.amplitude=0", "stepper.t_end=0"])
def test_conserve_without_drift_is_inconclusive_with_manifest(entry, tmp_path):
    """A run whose Q4 cannot drift gives no Richardson ratio: q4_order2 reads
    inconclusive (exit 2), and the manifest holds a null ratio, not Infinity."""
    assert main(["conserve", "--set", entry, "--set", f"output.dir={tmp_path}"]) == 2
    text = (tmp_path / "conserve_manifest.json").read_text()
    verdict = json.loads(text)["verdict"]
    checks = {c["name"]: (c["status"], c["observed"]) for c in verdict["checks"]}
    assert checks["q4_order2"] == ("inconclusive", "Q4 drift 0 at dt/2")
    assert verdict["info"]["richardson_ratio"] is None and "Infinity" not in text


@pytest.mark.parametrize("t_probe", ["1e-300", "1e300"])
def test_c2probe_zero_or_overflowed_norms_are_inconclusive_with_manifest(t_probe, tmp_path):
    """Kernel norms that underflow to zero or overflow to inf support no
    verdict: every check reads inconclusive (exit 2) and says why, none passes
    on zero norms, a zero norm leaves no relative difference, no quadrature
    warning reaches stderr (from either sweep thread), and the run leaves its
    manifest instead of a failed fit."""
    args = ["c2probe", "--set", f"experiment.t_probe={t_probe}", "--set", f"output.dir={tmp_path}"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 2
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
    verdict = json.loads((tmp_path / "c2probe_manifest.json").read_text())["verdict"]
    checks = {c["name"]: (c["status"], c["observed"]) for c in verdict["checks"]}
    assert checks == {"dual_route": ("inconclusive", "5 of 5 norms zero or not finite"),
                      "c2_slope": ("inconclusive", "0 of 5 samples positive and finite"),
                      "unbounded_growth": ("inconclusive", "5 of 5 norms zero or not finite")}
    assert verdict["info"]["dual_route_max_rel_diff"] is None
    if t_probe == "1e-300":
        assert [m["dual_rel_diff"] for m in verdict["info"]["members"]] == [None] * 5


def _strict_json(text):
    """json.loads that refuses the NaN, Infinity and -Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("kind, overrides, nonfinite", [
    ("c2probe", ["experiment.t_probe=1e300"], 15),
    ("c2probe", ["experiment.t_probe=1e-300"], 0),
    ("inflate", ["experiment.t_probe=1e-300", "experiment.n_list=8,16"], 2),
])
def test_edge_run_manifests_are_strict_json(kind, overrides, nonfinite, tmp_path, monkeypatch):
    """The manifests of runs whose norms underflow or overflow parse under a
    strict JSON reader: each non-finite float is written as null, and the
    top-level `nonfinite` object maps its JSON pointer to 'inf', '-inf' or
    'nan' (absent when there is none).  Negative control: the same manifest
    dumped as the writer did before (json.dumps passing NaN and Infinity
    through) fails the strict parse whenever it holds a non-finite value."""
    import zrlab.cli as cli

    handed = []
    monkeypatch.setattr(cli, "write_manifest",
                        lambda manifest, path: (handed.append(manifest), write_manifest(manifest, path)))
    args = [kind, *(a for o in overrides for a in ("--set", o)), "--set", f"output.dir={tmp_path}"]
    assert main(args) == 2
    manifest = _strict_json((tmp_path / f"{kind}_manifest.json").read_text())
    marks = manifest.get("nonfinite", {})
    assert len(marks) == nonfinite and set(marks.values()) <= {"inf", "-inf", "nan"}
    for pointer in marks:
        node = manifest
        for part in pointer.split("/")[1:]:
            node = node[int(part) if isinstance(node, list) else part]
        assert node is None
    parent_text = json.dumps(handed[0], indent=2, sort_keys=True, default=lambda v: v.item())
    if nonfinite:
        with pytest.raises(ValueError, match="non-standard JSON token"):
            _strict_json(parent_text)


@pytest.mark.parametrize("t_end, rows", [("0.05", 2), ("0.1", 3)])
def test_growth_short_record_is_inconclusive_with_manifest(t_end, rows, tmp_path):
    """A record too short to fit reads inconclusive (exit 2) and leaves its
    manifest: 2 or 3 rows are fewer than the 4 samples an exponent verdict
    needs, and 2 rows leave no record time in (0, t_end/2] to fit C^ on."""
    args = ["growth", "--set", f"stepper.t_end={t_end}", "--set", "stepper.record_every=50",
            "--set", f"output.dir={tmp_path}"]
    assert main(args) == 2
    assert len((tmp_path / "growth_series.csv").read_text().splitlines()) == 1 + rows
    verdict = json.loads((tmp_path / "growth_manifest.json").read_text())["verdict"]
    checks = {c["name"]: c["status"] for c in verdict["checks"]}
    assert checks["h1_apriori"] == "pass" and checks["growth_exponent_s3"] == "inconclusive"
    assert checks["psi_envelope"] == ("inconclusive" if rows == 2 else "pass")


@pytest.mark.parametrize("kind, s_list", [("simulate", "2,2.0000001"), ("conserve", "1,1.0000001"),
                                          ("growth", "3,3.0000001"), ("growth", "1.0000001")])
def test_s_list_values_sharing_a_column_fail_at_parse_time(kind, s_list, tmp_path, capsys):
    """Distinct s values must get distinct HsB_<s:g> columns, growth's
    always-audited 1 included: a shared column would hold one norm under
    another's label.  Equal values name one column and parse."""
    assert main([kind, "--set", f"experiment.s_list={s_list}",
                 "--set", f"output.dir={tmp_path}"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "share a HsB_<s:g> column" in err
    assert not any(tmp_path.iterdir())
    assert apply_overrides(default_spec(kind), ["experiment.s_list=3,3"]).table["s_list"] == (3, 3)


def test_growth_zero_amplitude_fails_at_parse_time(tmp_path):
    """growth's exponent fit needs ||B||_{H^s} > 0: zero amplitude fails at
    parse time instead of after 50 000 steps."""
    with pytest.raises(ConfigError, match="experiment.amplitude must be nonzero"):
        apply_overrides(default_spec("growth"), ["experiment.amplitude=0"])
    assert main(["growth", "--set", "experiment.amplitude=0",
                 "--set", f"output.dir={tmp_path}"]) == 1
    assert not any(tmp_path.iterdir())


# -- records: CSV ------------------------------------------------------------------

def test_format_float_roundtrips():
    for x in (0.1, 1.0 / 3.0, 1e-300, 6.02214076e23, -math.pi, 0.0):
        assert float(format_float(x)) == x


def test_record_csv_bit_roundtrip(tmp_path):
    """Every finite float (signed zeros and subnormals included) under any
    comma-free column names reads back bit for bit, and the returned digest
    is that of the file; the header keeps the row's column order."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # a column name is one line of printable text without commas
    printable = st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=",")
    names = st.one_of(st.sampled_from(["t", "Q1", "Q4", "HsB_1", "HsB_0.5", "HsB_x", "Hpsi2",
                                       "devA_L2"]),
                      st.text(printable, min_size=1),
                      st.text(printable).map(lambda c: "HsB_" + c))
    specials = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.example([" a", "b "], [])  # spaces at both ends of the header
    @hypothesis.given(st.lists(names, min_size=1, max_size=6, unique=True),
                      st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=24))
    def roundtrip(columns, values):
        rec = RunRecord()
        rec.append({name: specials[i % len(specials)] for i, name in enumerate(columns)})
        for start in range(0, len(values) - len(columns) + 1, len(columns)):
            rec.append(dict(zip(columns, values[start:])))
        path = tmp_path / "series.csv"
        digest = write_record_csv(rec, path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert path.read_text().splitlines()[0] == ",".join(columns)
        # parsed as the writer joined it: no csv module, whose quoting a leading " trips
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert header == columns
        for j, name in enumerate(columns):  # bit for bit: == would let -0.0 stand for 0.0
            assert [float(row[j]).hex() for row in rows] == [v.hex() for v in rec.column(name)]

    roundtrip()


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
    assert path.read_text().splitlines()[1:] == []  # no data rows


# -- records: fit files ---------------------------------------------------------------

def test_fit_file_footer_recomputable(tmp_path):
    fit = fit_loglog([1, 2, 4, 8, 16], [2.0, 3.9, 8.3, 15.8, 33.0])
    path = tmp_path / "scaling.fit"
    digest = write_fit_file(path, fit)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    lines = path.read_text().splitlines()
    assert lines[0] == "logN,lognorm,fit"
    pts = np.loadtxt(path, delimiter=",", skiprows=1)  # the footer's "#" lines are comments
    data = {key.strip(): float(value) for key, _, value in
            (line[1:].partition("=") for line in lines if line.startswith("#"))}
    assert set(data) == {"slope", "intercept", "r_squared"}
    slope, intercept = np.polyfit(pts[:, 0], pts[:, 1], 1)
    assert abs(slope - data["slope"]) < 1e-12
    assert abs(intercept - data["intercept"]) < 1e-12
    fit_column = pts[:, 0] * data["slope"] + data["intercept"]
    np.testing.assert_allclose(pts[:, 2], fit_column, atol=1e-15)
    assert data["slope"] == fit.slope and data["r_squared"] == fit.r_squared


# -- records: manifest -----------------------------------------------------------------

def test_manifest_digest_matches_echo(tmp_path):
    """The manifest carries the digest of its echo, and numpy scalars and
    tuples in it are written as the plain Python values they hold."""
    def manifest(info):
        return {"kind": "conserve", "config_echo": "[stepper]\ndt = 0.001\n",
                "resolved": {}, "verdict": {"status": "pass", "info": info},
                "wall_time_s": 1.0, "artifacts": {}, "version": "0.1.0"}

    plain = manifest({"x": 0.1, "n": 3, "ok": True, "pair": [1.5, 2]})
    path, numpy_path = tmp_path / "manifest.json", tmp_path / "numpy_manifest.json"
    write_manifest(plain, path)
    write_manifest(manifest({"x": np.float64(0.1), "n": np.int64(3), "ok": np.bool_(True),
                             "pair": (np.float64(1.5), 2)}), numpy_path)
    assert numpy_path.read_bytes() == path.read_bytes()
    d = json.loads(path.read_text())
    assert d == {**plain, "config_digest": d["config_digest"]}
    assert d["config_digest"] == hashlib.sha256(d["config_echo"].encode()).hexdigest()


def test_manifest_holds_one_spec_record(tmp_path):
    """The manifest records the spec once, as its digested `config_echo`,
    which reparses to the spec the run used; the echo of a physical-preset
    kind states the constants theta..nu it reads."""
    for kind, overrides in (("c2probe", []), ("simulate", ["stepper.t_end=0.01"])):
        overrides = [f"output.dir={tmp_path / kind}", *overrides]
        assert main([kind, *(arg for entry in overrides for arg in ("--set", entry))]) == 0
        manifest = json.loads((tmp_path / kind / f"{kind}_manifest.json").read_text())
        assert set(manifest) == {"artifacts", "config_digest", "config_echo", "kind", "verdict",
                                 "version", "wall_time_s"}
        assert parse_config(manifest["config_echo"], kind) == apply_overrides(
            default_spec(kind), overrides)
    echo = emit_config(default_spec("conserve")).splitlines()
    assert {"preset = physical", "theta = 1.0", "gamma = 1.0", "omega = 1.0", "beta = 1.0",
            "nu = 0.0"} <= set(echo)


# -- CLI end to end ---------------------------------------------------------------------

def test_cli_help_and_usage_errors(tmp_path, capsys):
    """`zrlab --help` lists every kind with its help line, options (-v
    among them) may follow the command, and a missing or unknown command
    is a usage error."""
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for kind, decl in DECLARATIONS.items():
        assert f"  {kind:<10}{decl.help}\n" in out
    assert main(["simulate", "--help"]) == 0
    capsys.readouterr()
    assert main(["c2probe", "-v", "--set", f"output.dir={tmp_path}"]) == 0
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_cli_missing_config_file(capsys):
    assert main(["conserve", "--config", "/nonexistent/zrlab.cfg"]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_cli_undecodable_config_file(tmp_path, capsys):
    """A config file that is not UTF-8 is reported in one line, exit 1."""
    path = tmp_path / "latin1.cfg"
    path.write_bytes("[experiment]\n# caf\xe9\nkind = c2probe\n".encode("latin-1"))
    assert main(["c2probe", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("zrlab: error: cannot read config: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["dir under a file", "write fails"])
def test_cli_unwritable_output(case, tmp_path, capsys, monkeypatch):
    """An output directory that cannot be made is reported before the run,
    and a write that fails after it, each in one line with exit 1."""
    import zrlab.cli as cli

    (tmp_path / "file").write_text("")
    runs = []
    run_experiment = cli.run_experiment
    monkeypatch.setattr(cli, "run_experiment", lambda spec: runs.append(spec) or run_experiment(spec))
    if case == "write fails":
        def refuse(*args):
            raise PermissionError("refused")
        monkeypatch.setattr(cli, "write_fit_file", refuse)
    out_dir = tmp_path / "file" / "out" if case == "dir under a file" else tmp_path / "out"
    assert main(["c2probe", "--set", f"output.dir={out_dir}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("zrlab: error: cannot write output: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert len(runs) == (case == "write fails")


def test_cli_config_error_exits_one(capsys):
    assert main(["c2probe", "--set", "experiment.l=0"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "l <= -1/2" in err


def test_cli_run_time_config_error_is_one_line(tmp_path, capsys, monkeypatch):
    """A config error the run itself raises (the sweep pool reads
    ZRLAB_THREADS) is reported like a parse-time one: one line, exit 1,
    nothing written."""
    monkeypatch.setenv("ZRLAB_THREADS", "abc")
    assert main(["c2probe", "--set", f"output.dir={tmp_path}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "zrlab: config error: ZRLAB_THREADS must be an integer, got 'abc'\n"
    assert captured.out == "" and not any(tmp_path.iterdir())


def test_cli_growth_always_audits_h1(tmp_path, capsys):
    """s_list = 3 and an empty s_list still record HsB_1 and report
    h1_apriori: the a priori H^1 bound is checked whatever the Sobolev list."""
    for s_list, exponents, columns in (("3", ["growth_exponent_s3"], "HsB_1,HsB_3"),
                                       ("", [], "HsB_1")):
        out = tmp_path / f"s_list{s_list}"
        assert main(["growth", "--set", f"experiment.s_list={s_list}", "--set", "grid.n=256",
                     "--set", "stepper.t_end=0.5", "--set", "stepper.dt=0.002",
                     "--set", "stepper.record_every=25", "--set", f"output.dir={out}"]) == 0
        checks = [line.split("]")[1].split(":")[0].strip()
                  for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
        assert checks == ["h1_apriori", *exponents, "psi_envelope"]
        header = (out / "growth_series.csv").read_text().splitlines()[0]
        assert header == f"t,Q1,Q2,Q3,Q4,{columns},Hpsi1,Hpsi2"


@pytest.mark.parametrize("items, error", [
    (["grid.n=512", "experiment.q=1"], "--set 'experiment.q=1': unknown key 'q' in [experiment]"),
    (["experiment.width=3", "experiment.width=5"],
     "--set 'experiment.width=5': duplicate key 'width' in [experiment]"),
], ids=["unknown key", "repeated key"])
def test_cli_set_error_names_the_item(items, error, tmp_path, capsys):
    """A failing --set entry is named in the one-line error, and a repeated
    --set key is refused at its second item, as a repeated config line is."""
    args = [arg for item in items for arg in ("--set", item)]
    assert main(["conserve", *args, "--set", f"output.dir={tmp_path}"]) == 1
    assert capsys.readouterr().err == f"zrlab: config error: {error}\n"
    assert not any(tmp_path.iterdir())


def test_cli_set_applies_on_top_of_the_file(tmp_path, capsys):
    """The file and the --set items are validated once, merged: a file entry
    only the --set items make read, or a file value they replace, is not
    judged alone."""
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("[experiment]\nseed = 3\n")
    short = ["--set", "stepper.t_end=0.01", "--set", f"output.dir={tmp_path}"]
    assert main(["simulate", "--config", str(cfg), "--set", "experiment.initial=random",
                 *short]) == 0
    manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
    assert "seed = 3" in manifest["config_echo"].splitlines()
    cfg.write_text("[grid]\nn = 98\n")
    assert main(["simulate", "--config", str(cfg), "--set", "grid.n=512", *short]) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), *short]) == 1
    assert capsys.readouterr().err == f"zrlab: config error: grid.n {GRID_SIZE_RULE}, got 98\n"


def test_cli_validates_once(tmp_path, monkeypatch):
    """One CLI run validates its spec once, on the merged spec that runs."""
    import zrlab.config as config

    calls = []
    validate = config.validate_spec
    monkeypatch.setattr(config, "validate_spec", lambda spec: calls.append(spec) or validate(spec))
    cfg = tmp_path / "c2probe.cfg"
    cfg.write_text("[experiment]\nnodes = 32\n")
    assert main(["c2probe", "--config", str(cfg), "--set", f"output.dir={tmp_path}"]) == 0
    assert len(calls) == 1 and calls[0].table["nodes"] == 32


def test_repeated_keys_within_a_source(tmp_path, capsys):
    """A key repeated within the file is refused at its line, one repeated
    within the --set items at its item; a file key set once more by --set
    takes the --set value."""
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("[experiment]\nwidth = 3\nwidth = 4\n")
    assert main(["conserve", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "zrlab: config error: line 3: duplicate key 'width' in [experiment]\n")
    text = "[experiment]\nwidth = 3\n"
    with pytest.raises(ConfigError, match=r"^--set 'experiment.width=6': duplicate key"):
        parse_config(text, "conserve", ["experiment.width=5", "experiment.width=6"])
    assert parse_config(text, "conserve", ["experiment.width=5"]).table["width"] == 5.0
    assert parse_config(text, "conserve").table["width"] == 3.0


def test_cli_config_file_with_byte_order_mark(tmp_path):
    """A UTF-8 config file saved with a byte-order mark runs."""
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf[experiment]\nkind = c2probe\n")
    assert main(["c2probe", "--config", str(cfg), "--set", f"output.dir={tmp_path}"]) == 0


def test_cli_run_failure_is_one_line(tmp_path, capsys, monkeypatch):
    """A run that raises ValueError or RuntimeError exits 1 with one stderr
    line, no traceback, and writes no manifest."""
    import zrlab.cli as cli

    def fail(spec):
        raise ValueError("x")

    monkeypatch.setattr(cli, "run_experiment", fail)
    assert main(["c2probe", "--set", f"output.dir={tmp_path}"]) == 1
    assert capsys.readouterr().err == "zrlab: run failed: x\n"
    assert not any(tmp_path.glob("*_manifest.json"))


def test_cli_manifest_digests_every_artifact(tmp_path):
    """c2probe writes a .fit file; the manifest carries its sha256 as it does
    for the CSV series."""
    assert main(["c2probe", "--set", f"output.dir={tmp_path}"]) == 0
    manifest = json.loads(next(tmp_path.glob("*_manifest.json")).read_text())
    formats = {a["format"] for a in manifest["artifacts"].values()}
    assert "fit" in formats
    for artifact in manifest["artifacts"].values():
        data = open(artifact["path"], "rb").read()
        assert artifact["sha256"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kind, overrides", [
    ("decohere", []),
    ("inflate", ["experiment.n_list=8,16"]),
    ("simulate", []),
    ("conserve", []),
    ("growth", []),
])
def test_cli_sweep_blow_up_leaves_manifest(kind, overrides, tmp_path, monkeypatch):
    """A blow-up in any kind that steps (inside a sweep member, in a batch of
    decohere's runs, or in a preset run) fails the run with a manifest on
    disk whose last check is the failed completion check.  Decohere's batch
    holding the longest run blows up: with one worker the lone batch, with
    two only that batch, while the other steps to its end."""
    pairs = decohere_pairs(default_spec("decohere").table)[0]
    longest = max(t for pair in pairs.values() for t in pair["t_internal"].values())
    stepped = []

    def blow_up(*args, **kwargs):
        raise BlowUpError(0.5)

    def blow_up_longest_batch(states, coeffs, configs, observers=()):
        if longest in (config.t_end for config in configs):
            raise BlowUpError(0.5)
        stepped.append(len(configs))
        return real_evolve_members(states, coeffs, configs, observers)

    real_evolve_members = experiments.evolve_members
    monkeypatch.setattr(experiments, "evolve", blow_up)
    monkeypatch.setattr(experiments, "evolve_members", blow_up_longest_batch)
    for threads in ("1", "2"):
        monkeypatch.setenv("ZRLAB_THREADS", threads)
        out = tmp_path / threads
        args = [kind, "--set", f"output.dir={out}"]
        for entry in overrides:
            args += ["--set", entry]
        assert main(args) == 1
        verdict = json.loads((out / f"{kind}_manifest.json").read_text())["verdict"]
        assert verdict["status"] == "fail"
        assert {"name": "completion", "status": "fail", "observed": "blow-up at t = 0.5",
                "expected": "finite fields"} == verdict["checks"][-1]
    assert stepped == ([3] if kind == "decohere" else [])


def test_cli_simulate_sobolev_columns_ascend(tmp_path):
    """s_list = 3,1 writes HsB_1 before HsB_3: the invariant row lists its
    Sobolev norms by ascending s, and the CSV keeps the row's order."""
    assert main(["simulate", "--set", "experiment.s_list=3,1", "--set", "stepper.t_end=0.01",
                 "--set", f"output.dir={tmp_path}"]) == 0
    header = (tmp_path / "simulate_series.csv").read_text().splitlines()[0]
    assert header == "t,Q1,Q2,Q3,Q4,HsB_1,HsB_3,Hpsi1,Hpsi2"


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
    assert len(csv_path.read_text().splitlines()) == 1 + 3  # header; t = 0, 0.025, 0.05

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
