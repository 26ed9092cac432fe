"""Property test of the per-kind config declaration: validation of any drawn
spec raises nothing but ConfigError, every spec it accepts survives an
emit/parse round trip unchanged, and a kind that reads [params] builds its
coefficients from every accepted spec (a config that parses also runs)."""

from dataclasses import astuple, replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from zrlab.config import (DECLARATIONS, ConfigError, default_spec,  # noqa: E402
                          emit_config, parse_config, read_entries, validate_spec)
from zrlab.experiments import _coeffs_for  # noqa: E402
from zrlab.model import PhysicalParams  # noqa: E402

# string keys take one of a fixed set of values, valid for some kind or none
CHOICES = {"initial": ("gaussian", "plane_wave", "plateau", "random", "bogus"),
           "variant": ("f", "g", "h")}
PRESETS = ("normalized", "physical", "unit_physical", "none", "bogus")
# the constants theta..nu; nu scales from 0.5, not from its default 0
CONSTANTS = dict(zip(("theta", "gamma", "omega", "beta", "nu"),
                     astuple(PhysicalParams(nu=0.5))))


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
    # [params] entries in some specs: a drawn preset, scaled constants
    if draw(st.booleans()):
        spec = replace(spec, preset=draw(st.sampled_from(PRESETS)))
    if draw(st.booleans()):
        spec = replace(spec, **{name: draw(factors) * base for name, base in CONSTANTS.items()})
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
    if DECLARATIONS[spec.kind].preset is not None:
        _coeffs_for(spec)
