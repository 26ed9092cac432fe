"""Property test of the per-kind config declaration: validation of any drawn
spec raises nothing but ConfigError, every spec it accepts survives an
emit/parse round trip unchanged, and every accepted spec builds the
coefficient record and, for a kind that reads t_end, the stepper config its
run builds (a config that parses also runs), [params] and [stepper] values
of extreme magnitude included."""

from dataclasses import astuple, replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from zrlab.config import (DECLARATIONS, ConfigError, default_spec,  # noqa: E402
                          emit_config, parse_config, read_entries, validate_spec)
from zrlab.evolution import StepperConfig  # noqa: E402
from zrlab.model import PhysicalParams  # noqa: E402

# string keys take one of a fixed set of values, valid for some kind or none
CHOICES = {"initial": ("gaussian", "plane_wave", "plateau", "random", "bogus"),
           "variant": ("f", "g", "h")}
PRESETS = ("normalized", "physical", "unit_physical", "none", "bogus")
# the constants theta..nu; nu scales from 0.5, not from its default 0
CONSTANTS = dict(zip(("theta", "gamma", "omega", "beta", "nu"),
                     astuple(PhysicalParams(nu=0.5))))
# factors that take a [params] or [stepper] value to the edges of the float range
EXTREME = (1e-320, 1e-300, 1e200, 1e300)


def _value(name: str, default, factors):
    """Values for one experiment key: the default scaled by a drawn factor
    (elementwise for lists), or a listed choice."""
    if isinstance(default, str):
        return st.sampled_from(CHOICES[name])

    def scale(v, f):
        return round(v * f) if isinstance(v, int) else v * f

    if isinstance(default, tuple):
        return factors.map(lambda f: tuple(scale(v, f) for v in default))
    return factors.map(lambda f: scale(default, f))


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(tuple(DECLARATIONS)))
    spec = default_spec(kind)
    # half the specs scale by factors in [-2, 2], zero and sign flips
    # included, and half by factors in [1, 2], which most kinds accept
    factors = (st.one_of(st.sampled_from([0.0, -1.0]), st.floats(-2.0, 2.0))
               if draw(st.booleans()) else st.floats(1.0, 2.0))
    table = {name: draw(_value(name, default, factors)) for name, default in spec.table.items()}
    # [params] entries in some specs: a drawn preset, constants scaled by
    # those factors or extreme ones; [stepper] entries the kind reads scaled
    # too, dt and t_end by one factor (so that t_end / dt stays whole)
    extreme = st.one_of(factors, st.sampled_from(EXTREME))
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


@given(specs())
def test_emit_parse_roundtrip_generated(spec):
    try:
        validate_spec(spec)
    except ConfigError:
        return  # e.g. inflate's l >= 2k - 1/2 when k is scaled more than l
    assert parse_config(emit_config(spec), spec.kind) == spec
    spec.coefficients()
    if DECLARATIONS[spec.kind].stepper[1] is not None:
        StepperConfig(spec.dt, spec.t_end, spec.record_every)
