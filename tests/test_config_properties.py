"""Property test of the per-kind config declaration: validation of any drawn
spec raises nothing but ConfigError, every spec it accepts survives an
emit/parse round trip unchanged, and every accepted spec builds the
coefficient record and its kind's setup, everything its run builds before
the first step or quadrature (inflate: its step config), so a config that
parses also runs.  [params], [stepper] and float [experiment] values of
extreme magnitude included."""

import math
from dataclasses import astuple, replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from zrlab.config import (DECLARATIONS, ConfigError, c2probe_setup,  # noqa: E402
                          decohere_setup, default_spec, emit_config, parse_config,
                          preset_setup, read_entries, validate_spec)
from zrlab.evolution import StepperConfig  # noqa: E402
from zrlab.model import PhysicalParams  # noqa: E402

# string keys take one of a fixed set of values, valid for some kind or none
CHOICES = {"initial": ("gaussian", "plane_wave", "plateau", "random", "bogus"),
           "variant": ("f", "g", "h")}
PRESETS = ("normalized", "physical", "unit_physical", "none", "bogus")
# the constants theta..nu; nu scales from 0.5, not from its default 0
CONSTANTS = dict(zip(("theta", "gamma", "omega", "beta", "nu"),
                     astuple(PhysicalParams(nu=0.5))))
# factors that take a [params], [stepper] or float [experiment] value to the
# edges of the float range
EXTREME = (1e-320, 1e-300, 1e200, 1e300)
# each kind's setup; inflate's runs build their data per member, and its
# rule builds the step config
SETUPS = {"simulate": preset_setup, "conserve": preset_setup, "growth": preset_setup,
          "c2probe": c2probe_setup, "decohere": decohere_setup,
          "inflate": lambda spec: StepperConfig.spanning(spec.table["t_probe"], spec.dt)}


def _value(name: str, default, factors, extreme):
    """Values for one experiment key: the default, or the default scaled by a
    drawn factor (elementwise for lists; `extreme` ones for floats, `factors`
    for the integers, which size grids, rules and sweeps), or a listed choice."""
    if isinstance(default, str):
        return st.sampled_from(CHOICES[name])

    def scale(v, f):
        return round(v * f) if isinstance(v, int) else v * f

    first = default[0] if isinstance(default, tuple) else default
    drawn = st.one_of(st.just(1), factors if isinstance(first, int) else extreme)
    if isinstance(default, tuple):
        return drawn.map(lambda f: tuple(scale(v, f) for v in default))
    return drawn.map(lambda f: scale(default, f))


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(tuple(DECLARATIONS)))
    spec = default_spec(kind)
    # half the specs scale by factors in [-2, 2], zero and sign flips
    # included, and half by factors in [1, 2], which most kinds accept
    factors = (st.one_of(st.sampled_from([0.0, -1.0]), st.floats(-2.0, 2.0))
               if draw(st.booleans()) else st.floats(1.0, 2.0))
    extreme = st.one_of(factors, st.sampled_from(EXTREME))
    table = {name: draw(_value(name, default, factors, extreme))
             for name, default in spec.table.items()}
    # [params] entries in some specs: a drawn preset, constants scaled by
    # those factors or extreme ones; [stepper] entries the kind reads scaled
    # too, dt and t_end by one factor (so that t_end / dt stays whole)
    if draw(st.booleans()):
        spec = replace(spec, preset=draw(st.sampled_from(PRESETS)))
    if draw(st.booleans()):
        spec = replace(spec, **{name: draw(extreme) * base for name, base in CONSTANTS.items()})
    if draw(st.booleans()) and spec.dt is not None:
        f = draw(extreme)
        spec = replace(spec, dt=spec.dt * f, t_end=None if spec.t_end is None else spec.t_end * f)
    spec = replace(spec, table=table)
    # half the specs keep the initial-data keys their preset does not read at
    # the defaults, as a config that sets only what the run reads does
    if draw(st.booleans()):
        read, defaults = read_entries(spec), default_spec(kind).table
        spec = replace(spec, table={name: value if f"experiment.{name}" in read else defaults[name]
                                    for name, value in table.items()})
    return spec


def _edited(kind: str, **changes):
    """The default spec of `kind` with `changes` to its fields and [experiment] table."""
    spec = default_spec(kind)
    table = {name: changes.pop(name) for name in list(changes) if name in spec.table}
    return replace(spec, table={**spec.table, **table}, **changes)


# specs at the float range's edges that parse and whose run used to die
# before its first step or quadrature: a plane wave whose Omega overflows,
# conserve's dt/2 run at dt = 0, c2probe hat amplitudes that overflow or
# underflow (the draws reach l = -1e200, not the k these need)
@example(_edited("simulate", initial="plane_wave", kappa=math.pi / 32.0, amplitude=1e200))
@example(_edited("conserve", dt=5e-324, t_end=2.5e-322, record_every=1))
@example(_edited("c2probe", l=-1e200))
@example(_edited("c2probe", k=-1000.0))
@example(_edited("c2probe", k=400.0))
@given(specs())
def test_emit_parse_roundtrip_generated(spec):
    try:
        validate_spec(spec)
    except ConfigError:
        return  # e.g. inflate's l >= 2k - 1/2 when k is scaled more than l
    assert parse_config(emit_config(spec), spec.kind) == spec
    spec.coefficients()
    SETUPS[spec.kind](spec)
