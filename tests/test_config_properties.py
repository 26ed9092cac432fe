"""Property test of the per-kind config declaration: every valid spec
survives an emit/parse round trip unchanged."""

from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from zrlab.config import (KINDS, ConfigError, default_spec, emit_config,  # noqa: E402
                          parse_config, validate_spec)

# string keys take one of a fixed set of values
CHOICES = {"initial": ("gaussian", "random"), "variant": ("f", "g")}


def _value(name: str, default):
    """Values for one experiment key: the default scaled by a factor in
    [1, 2] (elementwise for lists), any boolean, or a listed choice."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, str):
        return st.sampled_from(CHOICES[name])

    def scale(v, f):
        return round(v * f) if isinstance(v, int) else v * f

    if isinstance(default, tuple):
        return st.floats(1.0, 2.0).map(lambda f: tuple(scale(v, f) for v in default))
    return st.floats(1.0, 2.0).map(lambda f: scale(default, f))


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(KINDS))
    spec = default_spec(kind)
    table = {name: draw(_value(name, default)) for name, default in spec.table.items()}
    return replace(spec, table=table)


@given(specs())
def test_emit_parse_roundtrip_generated(spec):
    try:
        validate_spec(spec)
    except ConfigError:
        assume(False)  # e.g. inflate's l >= 2k - 1/2 when k is scaled more than l
    assert parse_config(emit_config(spec), spec.kind) == spec
