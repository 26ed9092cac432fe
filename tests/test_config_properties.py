"""Property test of the per-kind config declaration: validation of any drawn
spec raises nothing but ConfigError, every spec it accepts survives an
emit/parse round trip unchanged, and every accepted spec builds the
coefficient record and its kind's setup, everything its run builds before
the first step or quadrature (inflate: its step config), so a config that
parses also runs.

Each kind's specs are drawn from the entries it reads, within the ranges its
declaration admits (an entry it does not read keeps its default), so most
draws parse; in half the draws one read entry is then broken: an integer
set to a small invalid value, a float scaled to the edges of the float range
or flipped in sign, a list emptied, reversed or scaled, a string replaced."""

import math
from collections import Counter
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from zrlab.config import (DECLARATIONS, ConfigError, c2probe_setup,  # noqa: E402
                          decohere_setup, default_spec, emit_config, parse_config,
                          preset_setup, read_entries, validate_spec)
from zrlab.evolution import StepperConfig  # noqa: E402
from zrlab.grid import is_grid_size  # noqa: E402
from zrlab.model import INITIAL_KEYS  # noqa: E402

DRAWS = 40  # per kind
# each kind's setup; inflate's runs build their data per member, and its
# rule builds the step config
SETUPS = {"simulate": preset_setup, "conserve": preset_setup, "growth": preset_setup,
          "c2probe": c2probe_setup, "decohere": decohere_setup,
          "inflate": lambda spec: StepperConfig.spanning(spec.table["t_probe"], spec.dt)}
# factors that take a float to the edges of the float range, or flip its sign
EXTREME = (1e-320, 1e-300, 1e200, 1e300, -1.0, 0.0)
# the [params] constants under params.preset = physical, global existence kept
CONSTANTS = {"theta": st.floats(0.5, 2.0), "gamma": st.floats(-2.0, 2.0),
             "omega": st.floats(0.1, 2.0), "beta": st.floats(0.5, 2.0),
             "nu": st.floats(-0.5, 0.5)}


def _ascending(low, high, max_size):
    return st.lists(st.integers(low, high), min_size=2, max_size=max_size,
                    unique=True).map(lambda v: tuple(sorted(v)))


def _s_list(values, min_size):
    return st.lists(st.sampled_from(values), min_size=min_size, max_size=3,
                    unique=True).map(tuple)


WIDTH = st.floats(0.5, 8.0)
# every kind's [experiment] keys, drawn within the ranges its declaration admits
KEYS = {
    "simulate": {"seed": st.integers(0, 2**31), "initial": st.sampled_from(tuple(INITIAL_KEYS)),
                 "amplitude": st.floats(-2.0, 2.0), "width": WIDTH,
                 "c1": st.floats(-1.0, 1.0), "c2": st.floats(-1.0, 1.0),
                 "psi_amplitude": st.floats(-1.0, 1.0), "psi_width": WIDTH,
                 "s_list": _s_list((-1.0, 0.0, 0.5, 1.0, 2.0, 3.0), 1)},
    "conserve": {"seed": st.integers(0, 2**31), "initial": st.sampled_from(("gaussian", "random")),
                 "amplitude": st.floats(-1.0, 1.0), "width": WIDTH,
                 "psi_amplitude": st.floats(-1.0, 1.0), "psi_width": WIDTH,
                 "s_list": _s_list((0.0, 1.0, 2.0), 0)},
    "inflate": {"k": st.floats(0.05, 0.95), "n_list": _ascending(2, 64, 4),
                "t_probe": st.floats(1e-3, 0.2), "variant": st.sampled_from(("f", "g")),
                "modes_per_hat": st.integers(1, 8), "nodes": st.integers(16, 128)},
    "c2probe": {"k": st.floats(-2.0, 2.0), "l": st.floats(-3.0, -0.5),
                "n_list": _ascending(2, 512, 5), "nodes": st.integers(16, 128),
                "t_probe": st.floats(0.0, 1.0, exclude_min=True)},
    "decohere": {"mu": st.floats(0.01, 0.5), "c": st.floats(0.05, 0.95),
                 "k_reg": st.floats(0.0, 3.0),
                 "mu_list": st.lists(st.floats(0.01, 0.5), min_size=2, max_size=3,
                                     unique=True).map(tuple)},
    "growth": {"amplitude": st.floats(0.1, 2.0), "width": WIDTH,
               "psi_amplitude": st.floats(-1.0, 1.0), "psi_width": WIDTH,
               "s_list": _s_list((1.0, 1.5, 2.0, 3.0, 8.0), 0)},
}


def _broken(value):
    """A value of the same type as `value` that may break its entry's rule."""
    if isinstance(value, str):
        return st.sampled_from(("bogus", "unit_physical", "none"))
    if isinstance(value, int):  # small values only: an int may size a grid or a rule
        return st.sampled_from((-1, 0, 1, 7, 15))
    if isinstance(value, float):
        return st.sampled_from(EXTREME).map(lambda f: value * f)
    last = _broken(value[-1]) if value else st.nothing()  # a list: one entry broken
    return st.one_of(st.just(()), st.just(value[::-1]), last.map(lambda v: (*value[:-1], v)))


@st.composite
def specs(draw, kind):
    decl, spec = DECLARATIONS[kind], default_spec(kind)
    fields = {}
    n0, length0 = decl.grid
    if n0 is not None:
        fields["grid_n"] = draw(st.sampled_from([n for n in range(n0, 2 * n0 + 1, 2)
                                                 if is_grid_size(n)]))
        fields["grid_length"] = draw(st.floats(0.75 * length0, length0))
    dt0, t_end0, every0 = decl.stepper
    if dt0 is not None:
        fields["dt"] = dt = dt0 * draw(st.floats(0.5, 2.0))
        if t_end0 is not None:  # a whole number of steps
            fields["t_end"] = dt * draw(st.integers(1, 100))
    if every0 is not None:
        fields["record_every"] = draw(st.integers(1, 100))
    if decl.preset is not None and draw(st.booleans()):
        fields.update(preset="physical", **{name: draw(c) for name, c in CONSTANTS.items()})
    table = {**spec.table, **{name: draw(s) for name, s in KEYS[kind].items()}}
    if kind == "inflate":  # the inflation hypothesis l >= 2k - 1/2
        table["l"] = 2.0 * table["k"] - 0.5 + draw(st.floats(0.0, 1.0))
    elif kind == "decohere":  # m >= 1/mu
        table["m"] = max(1.0, 1.0 / table["mu"]) * draw(st.floats(1.0, 2.0))
    elif table.get("initial") == "plane_wave":  # kappa on the lattice, inside the band
        j = draw(st.integers(-(fields["grid_n"] // 3), fields["grid_n"] // 3))
        table["kappa"] = 2.0 * math.pi * j / fields["grid_length"]
    spec = replace(spec, table=table, **fields)
    # an entry the spec does not read keeps its default
    read, defaults = read_entries(spec), default_spec(kind).table
    spec = replace(spec, table={name: value if f"experiment.{name}" in read else defaults[name]
                                for name, value in table.items()})
    if draw(st.booleans()):
        section, _, name = draw(st.sampled_from(sorted(read_entries(spec)))).partition(".")
        if section == "experiment":
            spec = replace(spec, table={**spec.table,
                                        name: draw(_broken(spec.table[name]))})
        else:
            field = {"grid": {"n": "grid_n", "length": "grid_length"},
                     "output": {"dir": "out_dir"}}.get(section, {}).get(name, name)
            spec = replace(spec, **{field: draw(_broken(getattr(spec, field)))})
    return spec


def _edited(kind: str, **changes):
    """The default spec of `kind` with `changes` to its fields and [experiment] table."""
    spec = default_spec(kind)
    table = {name: changes.pop(name) for name in list(changes) if name in spec.table}
    return replace(spec, table={**spec.table, **table}, **changes)


# specs at the float range's edges that parse and whose run used to die
# before its first step or quadrature: a plane wave whose Omega overflows,
# conserve's dt/2 run at dt = 0, c2probe hat amplitudes that overflow or
# underflow
EXAMPLES = {
    "simulate": [_edited("simulate", initial="plane_wave", kappa=math.pi / 32.0,
                         amplitude=1e200)],
    "conserve": [_edited("conserve", dt=5e-324, t_end=2.5e-322, record_every=1)],
    "c2probe": [_edited("c2probe", l=-1e200), _edited("c2probe", k=-1000.0),
                _edited("c2probe", k=400.0)],
}


def test_emit_parse_roundtrip_generated():
    """DRAWS specs per kind, the explicit examples besides.  Over six runs
    each kind accepted 24-40 specs: a broken entry is refused unless it
    breaks no rule (a sign flip of an amplitude, a reversed s_list).  Each
    kind must accept at least half its draws, so the property covers every
    kind's setup."""
    accepted = Counter()

    def roundtrip(spec):
        try:
            validate_spec(spec)
        except ConfigError:
            return
        assert parse_config(emit_config(spec), spec.kind) == spec
        spec.coefficients()
        SETUPS[spec.kind](spec)
        accepted[spec.kind] += 1

    for kind in DECLARATIONS:
        test = given(specs(kind))(roundtrip)
        for spec in EXAMPLES.get(kind, ()):
            test = example(spec)(test)
        settings(max_examples=DRAWS, deadline=None)(test)()
    assert all(accepted[kind] >= DRAWS // 2 for kind in DECLARATIONS), dict(accepted)
