"""Command-line front end: config in, verdicts and bit-exact artifacts out.

Exit codes: 0 when every check passes, 2 when the verdict is inconclusive
(e.g. a scaling fit below the r^2 bar), 1 on usage and config errors, an
unreadable config file or unwritable output, and failed checks.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

from .config import (DECLARATIONS, ConfigError, ExperimentSpec, apply_overrides,
                     emit_config, parse_config)
from .experiments import ExperimentResult, pool_cap, run_experiment
from .records import write_fit_file, write_manifest, write_record_csv

__all__ = ["main", "build_parser", "parse_config", "apply_overrides"]

_EXIT = {"pass": 0, "fail": 1, "inconclusive": 2}


class _Parser(argparse.ArgumentParser):
    """argparse, but every usage problem exits 1 (not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    commands = "\n".join(f"  {kind:<10}{decl.help}" for kind, decl in DECLARATIONS.items())
    parser = _Parser(prog="zrlab", description="spectral laboratory for a coupled "
                     "Schrodinger-transport system", epilog=f"commands:\n{commands}",
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("kind", choices=DECLARATIONS, metavar="command",
                        help="the experiment kind to run (see below)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity (-v info, -vv debug)")
    parser.add_argument("--config", type=Path, metavar="FILE",
                        help="sectioned key=value config file (defaults used if omitted)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="section.key=value", help="override a config entry")
    return parser


def _fail(message: str) -> int:
    print(f"zrlab: {message}", file=sys.stderr)
    return 1


def _emit(spec: ExperimentSpec, result: ExperimentResult, wall: float) -> list[str]:
    out_dir = Path(spec.out_dir)
    artifacts: dict[str, dict] = {}

    for name in sorted(result.records):
        path = out_dir / f"{spec.prefix}_{name}.csv"
        digest = write_record_csv(result.records[name], path)
        artifacts[name] = {"path": str(path), "sha256": digest, "format": "csv"}

    for name in sorted(result.fits):
        path = out_dir / f"{spec.prefix}_{name}.fit"
        digest = write_fit_file(path, result.fits[name])
        artifacts[name] = {"path": str(path), "sha256": digest, "format": "fit"}

    from . import __version__
    manifest = {
        "kind": spec.kind,
        "config_echo": emit_config(spec),
        "verdict": {
            "status": result.status,
            "checks": [{"name": c.name, "status": c.status,
                        "observed": c.observed, "expected": c.expected}
                       for c in result.checks],
            "info": result.info,
        },
        "wall_time_s": wall,
        "artifacts": artifacts,
        "version": __version__,
    }
    manifest_path = out_dir / f"{spec.prefix}_manifest.json"
    write_manifest(manifest, manifest_path)
    return [a["path"] for a in artifacts.values()] + [str(manifest_path)]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("zrlab").setLevel(logging.WARNING - 10 * min(args.verbose, 2))

    try:
        text = "" if args.config is None else args.config.read_text(encoding="utf-8-sig")
        spec = parse_config(text, args.kind, args.overrides)
        pool_cap()  # a malformed ZRLAB_THREADS is refused before anything is written
    except (OSError, UnicodeError) as exc:
        return _fail(f"error: cannot read config: {exc}")
    except ConfigError as exc:
        return _fail(f"config error: {exc}")
    try:
        Path(spec.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(f"error: cannot write output: {exc}")

    start = time.perf_counter()
    try:
        result = run_experiment(spec)
    except (ValueError, RuntimeError) as exc:
        return _fail(f"run failed: {exc}")
    wall = time.perf_counter() - start

    try:
        written = _emit(spec, result, wall)
    except OSError as exc:
        return _fail(f"error: cannot write output: {exc}")
    for check in result.checks:
        print(check.line())
    for path in written:
        print(f"wrote {path}")
    print(f"verdict: {result.status} ({wall:.2f} s)")
    return _EXIT[result.status]


if __name__ == "__main__":
    raise SystemExit(main())
