"""Experiment configuration: a small sectioned key=value dialect.

Layout::

    [grid]
    n = 512
    length = 64.0        # comments run to end of line

    [experiment]
    kind = conserve
    amplitude = 0.5

Sections are [grid], [params], [stepper], [experiment], [output].  Unknown
sections and unknown keys are hard errors with line numbers — experiment
validity hinges on exact hypothesis ranges, so silent typos are not an
option.  `parse_config` resolves per-kind defaults and validates every
constraint; `emit_config` writes a spec back out such that
parse_config(emit_config(spec)) == spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .evolution import whole_steps
from .model import PhysicalParams

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "parse_config",
    "apply_overrides",
    "emit_config",
    "default_spec",
    "inflation_band",
    "check_inflation_band",
    "DECLARATIONS",
    "KINDS",
]

_SECTIONS = ("grid", "params", "stepper", "experiment", "output")


class ConfigError(ValueError):
    """Malformed or invalid configuration; carries a source location."""

    def __init__(self, message: str, where: str | None = None):
        self.where = where
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


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _str(text: str) -> str:
    return text.strip()


def _list_of(item: Callable) -> Callable:
    """Converter for a comma-separated list of `item` values (empty -> ())."""
    def convert(text: str) -> tuple:
        return tuple(item(p.strip()) for p in text.split(",") if p.strip())
    return convert


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# -- schemas --------------------------------------------------------------------

_GRID_SCHEMA: dict[str, Callable] = {"n": _int, "length": _float}
_PARAMS_SCHEMA: dict[str, Callable] = {
    "preset": _str, "theta": _float, "gamma": _float,
    "omega": _float, "beta": _float, "nu": _float,
}
_STEPPER_SCHEMA: dict[str, Callable] = {
    "dt": _float, "t_end": _float, "record_every": _int, "dealias": _bool,
}
_OUTPUT_SCHEMA: dict[str, Callable] = {"dir": _str, "prefix": _str}


@dataclass(frozen=True)
class KindDeclaration:
    """Everything one experiment kind adds to the dialect.

    `keys` maps each [experiment] key to (converter, default).  `grid` is the
    default (n, length); (None, None) means auto-sized (inflate) or unused
    (c2probe).  `stepper` is the default (dt, t_end, record_every).
    """

    help: str
    preset: str
    grid: tuple[Optional[int], Optional[float]]
    stepper: tuple[float, float, int]
    keys: dict[str, tuple[Callable, object]]


DECLARATIONS: dict[str, KindDeclaration] = {
    "simulate": KindDeclaration(
        help="evolve preset data and record invariants and norms",
        preset="normalized", grid=(512, 64.0), stepper=(1e-3, 1.0, 10),
        keys={
            "seed": (_int, 0),
            "initial": (_str, "gaussian"),
            "amplitude": (_float, 1.0),
            "width": (_float, 2.0),
            "kappa": (_float, 1.0),
            "c1": (_float, 0.0),
            "c2": (_float, 0.0),
            "psi_amplitude": (_float, 0.0),
            "psi_width": (_float, 2.0),
            "s_list": (_list_of(_float), (1.0,)),
            "psi_index": (_float, -0.5),
        }),
    "conserve": KindDeclaration(
        help="audit Q1-Q4 drift (mass to round-off, energy to o(dt^2))",
        preset="unit_physical", grid=(512, 64.0), stepper=(1e-3, 5.0, 50),
        keys={
            "seed": (_int, 0),
            "initial": (_str, "gaussian"),
            "amplitude": (_float, 0.5),
            "width": (_float, 4.0),
            "psi_amplitude": (_float, 0.0),
            "psi_width": (_float, 4.0),
            "s_list": (_list_of(_float), (1.0,)),
            "psi_index": (_float, -0.5),
            "q1_tol": (_float, 1e-10),
            "q4_tol": (_float, 1e-6),
            "richardson": (_bool, True),
        }),
    "inflate": KindDeclaration(
        help="frequency-sweep norm inflation of the transport field",
        # t_end comes from t_probe
        preset="normalized", grid=(None, None), stepper=(2.5e-3, 0.0, 1),
        keys={
            "k": (_float, 0.25),
            "l": (_float, 0.25),
            "n_list": (_list_of(_int), (32, 64, 128, 256)),
            "t_probe": (_float, 0.1),
            "variant": (_str, "f"),
            "modes_per_hat": (_int, 4),
            "nodes": (_int, 64),
        }),
    "c2probe": KindDeclaration(
        help="bilinear-kernel growth probe (smoothness failure), quadrature only",
        # pure quadrature: grid and stepper unused
        preset="normalized", grid=(None, None), stepper=(1e-3, 0.0, 1),
        keys={
            "k": (_float, 0.0),
            "l": (_float, -1.0),
            "n_list": (_list_of(_int), (16, 32, 64, 128, 256)),
            "t_probe": (_float, 0.01),
            "nodes": (_int, 64),
        }),
    "decohere": KindDeclaration(
        help="small-dispersion pair drifting O(1) apart from identical data",
        # coefficients are built from (mu, m, c); dt is the internal-time step
        preset="none", grid=(2048, 100.0), stepper=(5e-3, 0.0, 20),
        keys={
            "mu": (_float, 0.05),
            "m": (_float, 20.0),
            "c": (_float, 0.5),
            "k_reg": (_float, 1.0),
            "mu_list": (_list_of(_float), (0.1, 0.05, 0.025)),
        }),
    "growth": KindDeclaration(
        help="long-horizon Sobolev growth against a priori envelopes",
        preset="unit_physical", grid=(512, 64.0), stepper=(1e-3, 50.0, 50),
        keys={
            "amplitude": (_float, 1.0),
            "width": (_float, 2.0),
            "psi_amplitude": (_float, 0.5),
            "psi_width": (_float, 2.0),
            "s_list": (_list_of(_float), (1.0, 3.0)),
            "psi_index": (_float, -0.5),
            "c_one": (_float, 10.0),
        }),
}

KINDS = tuple(DECLARATIONS)

_PRESETS = ("normalized", "unit_physical", "physical", "none")


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved experiment description (defaults expanded)."""

    kind: str
    grid_n: Optional[int]
    grid_length: Optional[float]
    preset: str
    theta: float
    gamma: float
    omega: float
    beta: float
    nu: float
    dt: float
    t_end: float
    record_every: int
    dealias: bool
    out_dir: str
    prefix: str
    table: dict = field(default_factory=dict)

    def physical_params(self) -> PhysicalParams:
        if self.preset == "physical":
            return PhysicalParams(self.theta, self.gamma, self.omega, self.beta, self.nu)
        return PhysicalParams()


def default_spec(kind: str) -> ExperimentSpec:
    """The fully resolved spec for `kind` with every default applied."""
    if kind not in DECLARATIONS:
        raise ConfigError(f"unknown experiment kind {kind!r} (expected one of {', '.join(KINDS)})")
    decl = DECLARATIONS[kind]
    n, length = decl.grid
    dt, t_end, record_every = decl.stepper
    return ExperimentSpec(
        kind=kind, grid_n=n, grid_length=length, preset=decl.preset,
        theta=1.0, gamma=1.0, omega=1.0, beta=1.0, nu=0.0,
        dt=dt, t_end=t_end, record_every=record_every, dealias=True,
        out_dir="runs", prefix=kind,
        table={name: default for name, (_, default) in decl.keys.items()},
    )


# -- raw text -> sections ---------------------------------------------------------

def _split_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header", where)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{name}] (expected one of {', '.join(_SECTIONS)})", where)
            current = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", where)
        if current is None:
            raise ConfigError("key outside any [section]", where)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", where)
        if key in sections[current]:
            raise ConfigError(f"duplicate key '{key}' in [{current}]", where)
        sections[current][key] = (value, lineno)
    return sections


def _convert(section: str, key: str, raw: str, where: str, schema: dict[str, Callable]):
    if key not in schema:
        raise ConfigError(f"unknown key '{key}' in [{section}]", where)
    try:
        return schema[key](raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}", where)


def _build_spec(kind: str, sections: dict[str, dict[str, tuple[str, int]]],
                provenance: str = "line") -> ExperimentSpec:
    base = default_spec(kind)
    updates: dict[str, object] = {}
    table = dict(base.table)
    experiment_schema = {name: conv for name, (conv, _) in DECLARATIONS[kind].keys.items()}
    explicit_params = False

    for section, entries in sections.items():
        for key, (raw, lineno) in entries.items():
            where = f"{provenance} {lineno}" if provenance == "line" else provenance
            if section == "grid":
                value = _convert(section, key, raw, where, _GRID_SCHEMA)
                updates["grid_n" if key == "n" else "grid_length"] = value
            elif section == "params":
                value = _convert(section, key, raw, where, _PARAMS_SCHEMA)
                explicit_params = True
                updates["preset" if key == "preset" else key] = value
            elif section == "stepper":
                value = _convert(section, key, raw, where, _STEPPER_SCHEMA)
                updates[key] = value
            elif section == "output":
                value = _convert(section, key, raw, where, _OUTPUT_SCHEMA)
                updates["out_dir" if key == "dir" else "prefix"] = value
            elif section == "experiment":
                if key == "kind":
                    if raw.strip() != kind:
                        raise ConfigError(
                            f"experiment.kind = {raw.strip()!r} does not match "
                            f"the requested kind {kind!r}", where)
                    continue
                table[key] = _convert(section, key, raw, where, experiment_schema)

    if explicit_params and base.preset == "none":
        raise ConfigError(f"[params] section is not consulted by kind={kind} "
                          "(coefficients are built from experiment.mu/m/c)")

    from dataclasses import replace
    return replace(base, table=table, **updates)


def parse_config(text: str, kind: Optional[str] = None) -> ExperimentSpec:
    """Parse sectioned key=value text into a validated ExperimentSpec.

    `kind` (from the CLI subcommand) and experiment.kind in the file must
    agree; at least one must be present.
    """
    sections = _split_sections(text)
    file_kind = None
    if "experiment" in sections and "kind" in sections["experiment"]:
        raw, lineno = sections["experiment"]["kind"]
        file_kind = raw.strip()
        if file_kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {file_kind!r}", f"line {lineno}")
    if kind is None:
        kind = file_kind
    if kind is None:
        raise ConfigError("experiment.kind missing (no subcommand context and no config entry)")
    spec = _build_spec(kind, sections)
    validate_spec(spec)
    return spec


def apply_overrides(spec: ExperimentSpec, overrides: list[str]) -> ExperimentSpec:
    """Apply `section.key=value` strings (from --set) on top of a spec."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    for item in overrides:
        where = f"--set {item!r}"
        if "=" not in item:
            raise ConfigError("expected section.key=value", where)
        path, value = item.split("=", 1)
        if "." not in path:
            raise ConfigError("expected section.key=value", where)
        section, key = (part.strip() for part in path.split(".", 1))
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section '{section}'", where)
        sections.setdefault(section, {})[key] = (value.strip(), 0)

    # re-run the schema machinery with the already-resolved spec as base
    merged = _sections_from_spec(spec)
    for section, entries in sections.items():
        merged.setdefault(section, {})
        for key, (value, _) in entries.items():
            merged[section][key] = (value, 0)
    out = _build_spec(spec.kind, merged, provenance="--set")
    validate_spec(out)
    return out


def _sections_from_spec(spec: ExperimentSpec) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}

    def put(section: str, key: str, value) -> None:
        sections.setdefault(section, {})[key] = (_render(value), 0)

    if spec.grid_n is not None:
        put("grid", "n", spec.grid_n)
    if spec.grid_length is not None:
        put("grid", "length", spec.grid_length)
    if spec.preset != "none":
        put("params", "preset", spec.preset)
        if spec.preset == "physical":
            for key in ("theta", "gamma", "omega", "beta", "nu"):
                put("params", key, getattr(spec, key))
    put("stepper", "dt", spec.dt)
    put("stepper", "t_end", spec.t_end)
    put("stepper", "record_every", spec.record_every)
    put("stepper", "dealias", spec.dealias)
    for key in sorted(spec.table):
        put("experiment", key, spec.table[key])
    put("output", "dir", spec.out_dir)
    put("output", "prefix", spec.prefix)
    return sections


def emit_config(spec: ExperimentSpec) -> str:
    """Serialize a spec so that parse_config(emit_config(spec)) == spec."""
    sections = _sections_from_spec(spec)
    lines: list[str] = []
    for section in _SECTIONS:
        entries = sections.get(section, {})
        payload = [(k, v) for k, (v, _) in entries.items()]
        if section == "experiment":
            payload = [("kind", spec.kind)] + payload
        if not payload:
            continue
        lines.append(f"[{section}]")
        for key, value in payload:
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


# -- validation -----------------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def inflation_band(n_freq: int) -> float:
    """Half-width 2N + 2 + 2/N of the doubled data support of inflation member N."""
    return 2.0 * n_freq + 2.0 + 2.0 / n_freq


def check_inflation_band(grid_n: int, grid_length: float, n_freq: int) -> None:
    """Raise ConfigError unless the dealiased band of the grid (n, length)
    covers `inflation_band(n_freq)`; config validation and the inflate run
    share this one predicate."""
    band = (2.0 * math.pi / grid_length) * (grid_n // 3)
    need = inflation_band(n_freq)
    _require(band >= need, f"grid must resolve |xi| <= {need:.2f} after dealiasing "
                           f"for N = {n_freq} (resolved band is {band:.2f})")


def validate_spec(spec: ExperimentSpec) -> None:
    """Check every per-kind constraint; raise ConfigError naming the violated one."""
    _require(spec.kind in KINDS, f"unknown kind {spec.kind!r}")
    t = spec.table

    if spec.grid_n is not None:
        _require(spec.grid_n >= 8 and (spec.grid_n & (spec.grid_n - 1)) == 0,
                 f"grid.n must be a power of two >= 8, got {spec.grid_n}")
    if spec.grid_length is not None:
        _require(spec.grid_length > 0, f"grid.length must be positive, got {spec.grid_length}")
    _require(spec.dt > 0, f"stepper.dt must be positive, got {spec.dt}")
    _require(spec.t_end >= 0, f"stepper.t_end must be nonnegative, got {spec.t_end}")
    _require(spec.record_every >= 1,
             f"stepper.record_every must be >= 1, got {spec.record_every}")
    _require(spec.preset in _PRESETS, f"params.preset must be one of {_PRESETS}")
    if spec.preset == "physical":
        try:
            PhysicalParams(spec.theta, spec.gamma, spec.omega, spec.beta, spec.nu)
        except ValueError as exc:
            raise ConfigError(f"[params]: {exc}")
    else:
        defaults = (1.0, 1.0, 1.0, 1.0, 0.0)
        values = (spec.theta, spec.gamma, spec.omega, spec.beta, spec.nu)
        _require(values == defaults,
                 "params.theta/gamma/omega/beta/nu require params.preset = physical")

    if spec.kind in ("simulate", "conserve", "growth"):
        _require(spec.grid_n is not None and spec.grid_length is not None,
                 "grid.n and grid.length are required for this kind")
        _require(whole_steps(spec.dt, spec.t_end) is not None,
                 f"stepper.t_end = {spec.t_end} is not an integer multiple of dt = {spec.dt}")
        _require(t["width"] > 0, "experiment.width must be positive")
        _require(t["psi_width"] > 0, "experiment.psi_width must be positive")
        if spec.kind != "simulate" and spec.preset == "physical":
            p = spec.physical_params()
            _require(p.omega > 0 and p.beta - p.nu**2 > 0,
                     f"{spec.kind} requires the global-existence conditions "
                     f"omega > 0 and beta - nu^2 > 0 (got omega={p.omega}, "
                     f"beta-nu^2={p.beta - p.nu**2})")

    if spec.kind in ("inflate", "c2probe"):
        _require(len(t["n_list"]) >= 2, "experiment.n_list needs at least two entries")
        _require(all(n >= 2 for n in t["n_list"]), "experiment.n_list entries must be >= 2")
        _require(all(a < b for a, b in zip(t["n_list"], t["n_list"][1:])),
                 "experiment.n_list must be strictly ascending")
        _require(t["t_probe"] > 0, "experiment.t_probe must be positive")
        _require(t["nodes"] >= 16, "experiment.nodes must be >= 16")

    if spec.kind == "simulate":
        _require(t["initial"] in ("gaussian", "plane_wave", "plateau", "random"),
                 f"experiment.initial: unknown preset {t['initial']!r}")
        _require(len(t["s_list"]) > 0, "experiment.s_list must be nonempty")

    elif spec.kind == "conserve":
        _require(t["initial"] in ("gaussian", "random"),
                 f"experiment.initial: unknown preset {t['initial']!r}")
        _require(t["q1_tol"] > 0 and t["q4_tol"] > 0, "tolerances must be positive")

    elif spec.kind == "inflate":
        k, l = t["k"], t["l"]
        _require(0.0 < k < 1.0, f"inflation hypothesis 0 < k < 1 violated (k={k})")
        _require(l >= 2.0 * k - 0.5,
                 f"inflation hypothesis l >= 2k - 1/2 violated "
                 f"(k={k} -> need l >= {2.0 * k - 0.5}, got l={l})")
        _require(t["variant"] in ("f", "g"),
                 f"experiment.variant must be 'f' or 'g', got {t['variant']!r}")
        _require(t["modes_per_hat"] >= 1, "experiment.modes_per_hat must be >= 1")
        if spec.grid_n is not None and spec.grid_length is not None:
            check_inflation_band(spec.grid_n, spec.grid_length, max(t["n_list"]))

    elif spec.kind == "c2probe":
        _require(t["l"] <= -0.5,
                 f"second-derivative probe requires l <= -1/2, got l={t['l']}")

    elif spec.kind == "decohere":
        mu, m, c = t["mu"], t["m"], t["c"]
        _require(0.0 < mu < 1.0, f"experiment.mu must lie in (0, 1), got {mu}")
        _require(0.0 < c < 1.0, f"experiment.c must lie in (0, 1), got {c}")
        _require(m >= max(1.0, 1.0 / mu),
                 f"experiment.m must satisfy m >= 1/mu = {1.0 / mu:.6g}, got {m}")
        _require(t["k_reg"] >= 0, "experiment.k_reg must be nonnegative")
        _require(all(0.0 < v < 1.0 for v in t["mu_list"]),
                 "experiment.mu_list entries must lie in (0, 1)")
        _require(spec.grid_n is not None and spec.grid_length is not None,
                 "grid.n and grid.length are required for decohere")

    elif spec.kind == "growth":
        _require(len(t["s_list"]) > 0, "experiment.s_list must be nonempty")
        _require(all(1.0 <= s <= 8.0 for s in t["s_list"]),
                 f"experiment.s_list must lie within [1, 8], got {t['s_list']}")
        _require(t["c_one"] > 0, "experiment.c_one must be positive")

    _require(bool(spec.out_dir), "output.dir must be nonempty")
    _require(bool(spec.prefix), "output.prefix must be nonempty")
