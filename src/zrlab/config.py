"""Experiment configuration: a small sectioned key=value dialect.

Layout::

    [grid]
    n = 512
    length = 64.0        # comments run to end of line

    [experiment]
    kind = conserve
    amplitude = 0.5

Sections are [grid], [params], [stepper], [experiment], [output].  Unknown
sections and unknown keys are hard errors with line numbers, and an entry
the kind never reads must keep its default — experiment validity hinges on
exact hypothesis ranges, so silent typos and no-op settings are not an
option.  Each entry's rule is declared next to it (`Key`), and each
kind's rules that span several entries next to its keys
(`KindDeclaration.rules`); `validate_spec` runs them all.  `read_entries`
alone says which entries a spec reads.  `parse_config` applies the file and
then the --set items to the kind's defaults and validates once; `emit_config`
writes a spec's read entries so that parse_config(emit_config(spec)) == spec.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .closed_forms import expected_c2_slope, expected_inflation_slope, modulated_sinc
from .evolution import StepperConfig
from .grid import GRID_SIZE_RULE, SpectralGrid, dealiased_band, is_grid_size
from .model import (GeneralCoefficients, PhysicalParams, check_plane_wave,
                    coefficients_from_params, hs_columns, normalized_coefficients)

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "parse_config",
    "apply_overrides",
    "emit_config",
    "default_spec",
    "Key",
    "read_entries",
    "decohere_pairs",
    "check_decohere_band",
    "DECLARATIONS",
]

_SECTIONS = ("grid", "params", "stepper", "experiment", "output")


class ConfigError(ValueError):
    """Malformed or invalid configuration; the message leads with its source location."""

    def __init__(self, message: str, where: str | None = None):
        super().__init__(f"{where}: {message}" if where else message)


# -- value converters ----------------------------------------------------------

def _float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}")
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {text!r}")
    return v


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}")


def _list_of(item: Callable) -> Callable:
    """Converter for a comma-separated list of `item` values (empty -> ())."""
    def convert(text: str) -> tuple:
        return tuple(item(p.strip()) for p in text.split(",") if p.strip())
    return convert


def _render(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# -- declarations: every entry with its rule, every kind with its rules ------------

@dataclass(frozen=True)
class Key:
    """One entry of the dialect: its converter, its default and its rule.

    The rule is a (test, message) pair on the converted value; a failed test
    raises "<section>.<key> <message>, got <value>".  An unset (None) value
    is not tested.  Only [experiment] keys carry their default here; the
    other sections take theirs from the kind's declaration.
    """

    convert: Callable
    default: object = None
    rule: Optional[tuple[Callable[[object], bool], str]] = None


_POSITIVE = (lambda v: v > 0, "must be positive")
_NONEMPTY = (lambda v: len(v) > 0, "must be nonempty")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_UNIT_INTERVAL = (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")


def _one_of(*choices: str) -> tuple[Callable[[object], bool], str]:
    return (lambda v: v in choices, f"must be one of {', '.join(choices)}")


# the entries of every section but [experiment] (declared per kind)
_SCHEMAS: dict[str, dict[str, Key]] = {
    "grid": {"n": Key(_int, rule=(is_grid_size, GRID_SIZE_RULE)),
             "length": Key(_float, rule=_POSITIVE)},
    "params": {"preset": Key(str, rule=_one_of("normalized", "physical")),
               **{name: Key(_float) for name in ("theta", "gamma", "omega", "beta", "nu")}},
    "stepper": {"dt": Key(_float), "t_end": Key(_float), "record_every": Key(_int)},
    "output": {"dir": Key(str, rule=_NONEMPTY), "prefix": Key(str, rule=_NONEMPTY)},
}
# the ExperimentSpec field behind each of those entries
_SPEC_FIELD = {("grid", "n"): "grid_n", ("grid", "length"): "grid_length",
               ("params", "preset"): "preset", ("output", "dir"): "out_dir",
               ("output", "prefix"): "prefix",
               **{("params", k): k for k in _SCHEMAS["params"] if k != "preset"},
               **{("stepper", k): k for k in _SCHEMAS["stepper"]}}

# [experiment] keys that several kinds share; a kind may change the default
_N_LIST = Key(_list_of(_int), (), (
    lambda v: len(v) >= 2 and v[0] >= 2 and all(a < b for a, b in zip(v, v[1:])),
    "must be strictly ascending, with at least two entries, each >= 2"))
_T_PROBE = Key(_float, 0.1, _POSITIVE)
_NODES = Key(_int, 64, (lambda v: v >= 16, "must be >= 16"))
_WIDTH = Key(_float, 2.0, _POSITIVE)  # the Gaussian widths `width` and `psi_width`

# the [experiment] keys each initial-data preset reads (`_initial_state`),
# psi_width only with a nonzero psi_amplitude; growth, which has no
# `initial` key, starts from the Gaussian
_INITIAL_KEYS = {
    "gaussian": ("amplitude", "width", "psi_amplitude", "psi_width"),
    "plane_wave": ("amplitude", "kappa", "c1", "c2"),
    "plateau": ("amplitude", "psi_amplitude", "psi_width"),
    "random": ("seed", "amplitude", "width", "psi_amplitude", "psi_width"),
}


@dataclass(frozen=True)
class KindDeclaration:
    """Everything one experiment kind adds to the dialect.

    `keys` declares each [experiment] key.  `preset`, `grid` and `stepper`
    are the defaults of params.preset, [grid] (n, length) and [stepper] (dt,
    t_end, record_every); None marks an entry the kind never reads.  `rules`
    check what spans several entries: each takes the spec and raises
    ConfigError when it fails.
    """

    help: str
    preset: Optional[str]
    grid: tuple[Optional[int], Optional[float]]
    stepper: tuple[Optional[float], Optional[float], Optional[int]]
    keys: dict[str, Key]
    rules: tuple[Callable[[ExperimentSpec], object], ...] = ()


# -- rules ----------------------------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _as_config_error(section: str, build: Callable, *args) -> None:
    """Call build(*args); a ValueError it raises becomes a ConfigError for [section]."""
    try:
        build(*args)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}")


# The predicates below are shared by config validation and the runs, so a
# config that parses also runs.

def _decohere_pair(mu: float, m_big: float) -> dict:
    """The (L1, L2) geometry for one mu: scales, horizon and internal times."""
    big_t = abs(math.log(mu)) / m_big**2
    l1 = m_big
    l2 = math.sqrt(math.pi / (2.0 * big_t) + m_big**2)
    return {"mu": mu, "m": m_big, "T": big_t, "L1": l1, "L2": l2,
            "theta_sq": mu / m_big, "t_internal": {"L1": l1**2 * big_t, "L2": l2**2 * big_t}}


def decohere_pairs(table: dict) -> tuple[dict, list]:
    """Every distinct (mu, M) pair of a decohere run, each run once: the main
    pair and the mu-sweep's pairs, M_j = max(M, ceil(1/mu_j)).  Returns the
    pairs' geometry by key, in key order, and the sweep's keys by mu."""
    m_big = table["m"]
    try:
        sweep_keys = [(mu_j, max(m_big, float(math.ceil(1.0 / mu_j))))
                      for mu_j in sorted(set(table["mu_list"]))]
        keys = sorted({(table["mu"], m_big), *sweep_keys})
        return {key: _decohere_pair(*key) for key in keys}, sweep_keys
    except ArithmeticError:  # M^2 or 1/mu_j beyond the float range
        raise ConfigError(f"decohere scales overflow (m = {m_big}, mu_list = {table['mu_list']})")


def check_decohere_band(grid_n: int, grid_length: float, pairs: dict) -> None:
    """Raise ConfigError unless the dealiased band of the grid (n, length)
    holds decohere's data band plus the chirp of every run of `pairs`: the
    phase gradient grows at most like t * max|psi'| over an internal horizon t."""
    band = dealiased_band(grid_n, grid_length)
    grid = SpectralGrid(grid_length, grid_n)
    slope = float(np.max(np.abs(grid.derivative(modulated_sinc(grid.x)))))
    horizon = max(t for pair in pairs.values() for t in pair["t_internal"].values())
    need = 8.0 + horizon * slope
    _require(band >= need, f"under-resolved small-dispersion run: grid (n = {grid_n}, length = "
                           f"{grid_length}) has dealiased band {band:.1f} < {need:.1f} needed "
                           f"for internal horizon {horizon:.3f}")


def _global_existence(spec: ExperimentSpec) -> None:
    p = spec.physical_params()
    _require(p.global_existence,
             f"{spec.kind} requires the global-existence conditions omega > 0 and "
             f"beta - nu^2 > 0 (got omega={p.omega}, beta-nu^2={p.beta - p.nu**2})")


DECLARATIONS: dict[str, KindDeclaration] = {
    "simulate": KindDeclaration(
        help="evolve preset data and record invariants and norms",
        preset="normalized", grid=(512, 64.0), stepper=(1e-3, 1.0, 10),
        keys={
            "seed": Key(_int, 0, _NONNEGATIVE),
            "initial": Key(str, "gaussian", _one_of(*_INITIAL_KEYS)),
            "amplitude": Key(_float, 1.0),
            "width": _WIDTH,
            "kappa": Key(_float, 1.0),
            "c1": Key(_float, 0.0),
            "c2": Key(_float, 0.0),
            "psi_amplitude": Key(_float, 0.0),
            "psi_width": _WIDTH,
            "s_list": Key(_list_of(_float), (1.0,), _NONEMPTY),
        },
        rules=(lambda s: s.table["initial"] != "plane_wave" or _as_config_error(
            "experiment", check_plane_wave, s.table["kappa"], s.grid_n, s.grid_length),)),
    "conserve": KindDeclaration(
        help="audit Q1-Q4 drift (mass to round-off, energy to o(dt^2))",
        preset="physical", grid=(512, 64.0), stepper=(1e-3, 5.0, 50),
        keys={
            "seed": Key(_int, 0, _NONNEGATIVE),
            "initial": Key(str, "gaussian", _one_of("gaussian", "random")),
            "amplitude": Key(_float, 0.5),
            "width": replace(_WIDTH, default=4.0),
            "psi_amplitude": Key(_float, 0.0),
            "psi_width": replace(_WIDTH, default=4.0),
            "s_list": Key(_list_of(_float), (1.0,)),
        },
        rules=(_global_existence,)),
    "inflate": KindDeclaration(
        help="frequency-sweep norm inflation of the transport field",
        # t_end comes from t_probe; each member sizes its own grid
        preset="normalized", grid=(None, None), stepper=(2.5e-3, None, None),
        keys={
            "k": Key(_float, 0.25, (lambda k: 0.0 < k < 1.0,
                                    "must satisfy the inflation hypothesis 0 < k < 1")),
            "l": Key(_float, 0.25),
            "n_list": replace(_N_LIST, default=(32, 64, 128, 256)),
            "t_probe": _T_PROBE,
            "variant": Key(str, "f", _one_of("f", "g")),
            "modes_per_hat": Key(_int, 4, (lambda v: v >= 1, "must be >= 1")),
            "nodes": _NODES,
        },
        rules=(lambda s: _require(
                   expected_inflation_slope(s.table["k"], s.table["l"]) >= 0,
                   f"inflation hypothesis l >= 2k - 1/2 violated (k={s.table['k']} -> "
                   f"need l >= {2.0 * s.table['k'] - 0.5}, got l={s.table['l']})"),
               lambda s: _as_config_error("stepper", StepperConfig.spanning,
                                          s.table["t_probe"], s.dt))),
    "c2probe": KindDeclaration(
        help="bilinear-kernel growth probe (smoothness failure), quadrature only",
        # pure quadrature: grid, params and stepper unused
        preset=None, grid=(None, None), stepper=(None, None, None),
        keys={
            "k": Key(_float, 0.0),
            "l": Key(_float, -1.0, (lambda l: expected_c2_slope(l) >= 0, "must be <= -1/2: the "
                                    "second-derivative probe requires l <= -1/2")),
            "n_list": replace(_N_LIST, default=(16, 32, 64, 128, 256)),
            "t_probe": replace(_T_PROBE, default=0.01),
            "nodes": _NODES,
        }),
    "decohere": KindDeclaration(
        help="small-dispersion pair drifting O(1) apart from identical data",
        # coefficients are built from (mu, m, c); dt is the internal-time step
        preset=None, grid=(2048, 100.0), stepper=(5e-3, None, 20),
        keys={
            "mu": Key(_float, 0.05, _UNIT_INTERVAL),
            "m": Key(_float, 20.0),
            "c": Key(_float, 0.5, _UNIT_INTERVAL),
            "k_reg": Key(_float, 1.0, _NONNEGATIVE),
            "mu_list": Key(_list_of(_float), (0.1, 0.05, 0.025),
                           (lambda v: len(set(v)) >= 2 and all(0.0 < mu < 1.0 for mu in v),
                            "must hold at least two distinct entries, each in (0, 1)")),
        },
        rules=(lambda s: _require(s.table["m"] >= max(1.0, 1.0 / s.table["mu"]),
                                  f"experiment.m must satisfy m >= 1/mu = "
                                  f"{1.0 / s.table['mu']:.6g}, got {s.table['m']}"),
               lambda s: check_decohere_band(s.grid_n, s.grid_length,
                                             decohere_pairs(s.table)[0]),
               lambda s: [_as_config_error("stepper", StepperConfig.spanning, t_end, s.dt,
                                           s.record_every)
                          for pair in decohere_pairs(s.table)[0].values()
                          for t_end in pair["t_internal"].values()])),
    "growth": KindDeclaration(
        help="long-horizon Sobolev growth against a priori envelopes",
        preset="physical", grid=(512, 64.0), stepper=(1e-3, 50.0, 50),
        keys={
            # the exponent fit needs ||B||_{H^s} > 0
            "amplitude": Key(_float, 1.0, (lambda v: v != 0, "must be nonzero")),
            "width": _WIDTH,
            "psi_amplitude": Key(_float, 0.5),
            "psi_width": _WIDTH,
            "s_list": Key(_list_of(_float), (1.0, 3.0),
                          (lambda v: all(1.0 <= s <= 8.0 for s in v), "must lie within [1, 8]")),
        },
        rules=(_global_existence,)),
}

@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved experiment description (defaults expanded)."""

    kind: str
    grid_n: Optional[int]
    grid_length: Optional[float]
    preset: Optional[str]
    theta: float
    gamma: float
    omega: float
    beta: float
    nu: float
    dt: Optional[float]
    t_end: Optional[float]
    record_every: Optional[int]
    out_dir: str
    prefix: str
    table: dict = field(default_factory=dict)

    def physical_params(self) -> PhysicalParams:
        # validation holds theta..nu at the unit defaults under any preset but physical
        return PhysicalParams(self.theta, self.gamma, self.omega, self.beta, self.nu)

    def coefficients(self) -> GeneralCoefficients:
        """The run's coefficient record: the one place a preset becomes one."""
        if self.preset == "normalized":
            return normalized_coefficients()
        return coefficients_from_params(self.physical_params())


def default_spec(kind: str) -> ExperimentSpec:
    """The fully resolved spec for `kind` with every default applied."""
    if kind not in DECLARATIONS:
        raise ConfigError(f"unknown experiment kind {kind!r} "
                          f"(expected one of {', '.join(DECLARATIONS)})")
    decl = DECLARATIONS[kind]
    return ExperimentSpec(kind, *decl.grid, decl.preset, *astuple(PhysicalParams()),
                          *decl.stepper, out_dir="runs", prefix=kind,
                          table={name: key.default for name, key in decl.keys.items()})


def _entries(spec: ExperimentSpec) -> list[tuple[str, str, Key, object]]:
    """(section, key, declaration, value) of each entry; [experiment] last, sorted."""
    keys = DECLARATIONS[spec.kind].keys
    return ([(section, key, _SCHEMAS[section][key], getattr(spec, name))
             for (section, key), name in _SPEC_FIELD.items()]
            + [("experiment", key, keys[key], spec.table[key]) for key in sorted(keys)])


def read_entries(spec: ExperimentSpec) -> set[str]:
    """The "section.key" entries a run of `spec` reads; every other entry must
    keep its default.  These are [output], the [grid], [params] and [stepper]
    entries the kind declares a default for, theta..nu only under
    params.preset = physical, and the kind's [experiment] keys but the
    initial-data keys the chosen `initial` preset does not read (psi_width
    too when psi_amplitude = 0)."""
    chosen = _INITIAL_KEYS.get(spec.table.get("initial", "gaussian"), ())
    if not spec.table.get("psi_amplitude"):  # psi_width only shapes a nonzero psi
        chosen = tuple(key for key in chosen if key != "psi_width")
    unread = set().union(*_INITIAL_KEYS.values()).difference(chosen)  # other presets' keys
    return {f"{section}.{key}" for section, key, _, default in _entries(default_spec(spec.kind))
            if (spec.preset == "physical" if section == "params" and key != "preset"
                else key not in unread if section == "experiment" else default is not None)}


# -- config lines and --set items -> entries ----------------------------------------

def _section(name: str, where: str) -> str:
    if name not in _SECTIONS:
        raise ConfigError(f"unknown section '{name}' (expected one of {', '.join(_SECTIONS)})",
                          where)
    return name


def _file_entries(text: str) -> Iterator[tuple[str, str, str, str]]:
    """The file's entries as (section, key, raw value, location), in order."""
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        where = f"line {lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header", where)
            current = _section(line[1:-1].strip(), where)
        elif line:
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {line!r}", where)
            if current is None:
                raise ConfigError("key outside any [section]", where)
            key, value = (part.strip() for part in line.split("=", 1))
            yield current, key, value, where


def _set_entries(items: Iterable[str]) -> Iterator[tuple[str, str, str, str]]:
    """The `section.key=value` items (from --set) as entries like the file's."""
    for item in items:
        where = f"--set {item!r}"
        path, eq, value = item.partition("=")
        section, dot, key = path.partition(".")
        if not (eq and dot):
            raise ConfigError("expected section.key=value", where)
        yield _section(section.strip(), where), key.strip(), value.strip(), where


def _convert(section: str, key: str, raw: str, where: str, schema: dict[str, Key]):
    if key not in schema:
        raise ConfigError(f"unknown key '{key}' in [{section}]", where)
    try:
        return schema[key].convert(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}", where)


def _build_spec(base: ExperimentSpec, *sources: Iterable) -> ExperimentSpec:
    """`base` with each source's entries converted and applied in turn, so a
    later source overrides an earlier one; a key repeated within one source
    is refused."""
    updates, table = {}, dict(base.table)
    for entries in sources:
        seen = set()
        for section, key, raw, where in entries:
            if (section, key) in seen:
                raise ConfigError(f"duplicate key '{key}' in [{section}]", where)
            seen.add((section, key))
            if section != "experiment":
                value = _convert(section, key, raw, where, _SCHEMAS[section])
                updates[_SPEC_FIELD[section, key]] = value
            elif key == "kind":
                if raw != base.kind:
                    raise ConfigError(f"experiment.kind = {raw!r} does not match "
                                      f"the requested kind {base.kind!r}", where)
            else:
                table[key] = _convert(section, key, raw, where, DECLARATIONS[base.kind].keys)
    return replace(base, table=table, **updates)


def parse_config(text: str, kind: Optional[str] = None,
                 overrides: Iterable[str] = ()) -> ExperimentSpec:
    """Parse sectioned key=value text, with the `section.key=value`
    `overrides` (from --set) on top, into a validated ExperimentSpec.

    `kind` (from the CLI command) and experiment.kind in the file must
    agree; at least one must be present.
    """
    entries = list(_file_entries(text))
    for section, key, raw, where in entries:
        if (section, key) == ("experiment", "kind"):
            if raw not in DECLARATIONS:
                raise ConfigError(f"unknown experiment kind {raw!r}", where)
            kind = raw if kind is None else kind
    if kind is None:
        raise ConfigError("experiment.kind missing (no command context and no config entry)")
    return validate_spec(_build_spec(default_spec(kind), entries, _set_entries(overrides)))


def apply_overrides(spec: ExperimentSpec, overrides: Iterable[str]) -> ExperimentSpec:
    """Apply `section.key=value` strings (from --set) on top of a spec."""
    return validate_spec(_build_spec(spec, _set_entries(overrides)))


def emit_config(spec: ExperimentSpec) -> str:
    """Serialize a spec so that parse_config(emit_config(spec)) == spec.  Only
    the entries it reads (`read_entries`) are written."""
    sections: dict[str, list[str]] = {"experiment": [f"kind = {spec.kind}"]}
    read = read_entries(spec)
    for section, key, _, value in _entries(spec):
        if f"{section}.{key}" in read:
            sections.setdefault(section, []).append(f"{key} = {_render(value)}")
    return "\n".join(line for section in _SECTIONS if section in sections
                     for line in (f"[{section}]", *sections[section], ""))


# -- validation -----------------------------------------------------------------

def _shared_rules(spec: ExperimentSpec) -> None:
    """The rules every kind shares: [params] and, where the kind reads t_end,
    [stepper] are checked by building what the run builds (inflate's and
    decohere's own rules build theirs), and distinct s values need distinct columns."""
    _as_config_error("params", spec.coefficients)
    if DECLARATIONS[spec.kind].stepper[1] is not None:
        _as_config_error("stepper", StepperConfig, spec.dt, spec.t_end, spec.record_every)
    s_list = set(spec.table.get("s_list", ())) | ({1.0} if spec.kind == "growth" else set())
    _require(len(hs_columns(s_list)) == len(s_list), f"experiment.s_list values "
             f"{sorted(s_list)} share a HsB_<s:g> column (growth adds its audited 1)")


def validate_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """Check every declared entry and rule and return `spec`; raise
    ConfigError naming the violated one."""
    _require(spec.kind in DECLARATIONS, f"unknown kind {spec.kind!r}")
    decl = DECLARATIONS[spec.kind]
    read, defaults = read_entries(spec), _entries(default_spec(spec.kind))
    # why an entry goes unread where the kind reads its neighbours
    t = spec.table
    initial = f" with initial = {t.get('initial', 'gaussian')}"
    why = {"params": "; params.theta/gamma/omega/beta/nu require params.preset = physical"
           if decl.preset else "", "experiment": initial,
           "experiment.psi_width": f"{initial} and psi_amplitude = {t.get('psi_amplitude')}"}
    for (section, name, key, value), (*_, default) in zip(_entries(spec), defaults):
        entry = f"{section}.{name}"
        _require(entry in read or value == default, f"{entry} is not consulted by "
                 f"kind={spec.kind}{why.get(entry, why.get(section, ''))}")
        if key.rule is not None and value is not None:
            _require(key.rule[0](value), f"{entry} {key.rule[1]}, got {value!r}")
    for rule in (_shared_rules, *decl.rules):
        rule(spec)
    return spec
