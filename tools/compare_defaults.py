"""Compare the default runs of two zrlab source trees.

    python3 tools/compare_defaults.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the `zrlab` package (a checkout's
`src/`).  Every kind runs at its defaults from each tree, in a fresh process
and its own working directory, as `zrlab KIND --config FILE --set
output.dir=runs`, where FILE sets `[output] prefix = KIND`, the default: so
the config file, the `--set` items and their merge all run.  The script
compares, kind by kind:

- the exit code;
- every written CSV and `.fit` file, byte for byte (and the set of files);
- the printed lines, with the wall time cut from the `verdict:` line;
- the manifest, with `wall_time_s` removed.

Each kind also runs, from each tree, one config it refuses: `--set
stepper.dt=-0.001`, or `--set stepper.dt=0` for c2probe, which reads no dt.
The exit code and the error lines must agree, and neither tree may create
the output directory: a change to validation then shows every refusal text
it alters.

It prints one line per kind and each tree's `zrlab/*.py` line count, and
exits 1 naming every drift, 0 when none.
Inflate's default sweep takes about 10 s per tree.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

KINDS = ("simulate", "conserve", "inflate", "c2probe", "decohere", "growth")
# one --set item each kind refuses
REFUSALS = {kind: "stepper.dt=0" if kind == "c2probe" else "stepper.dt=-0.001" for kind in KINDS}


def run_kind(src: Path, kind: str, cwd: Path, *extra: str) -> dict:
    """Run `zrlab <kind>` at defaults, plus the `extra` arguments, from `src`
    in `cwd`; return its exit code, printed and error lines, whether it
    created the output directory, its artifact bytes and manifest."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    (cwd / "defaults.cfg").write_text(f"[output]\nprefix = {kind}\n")
    proc = subprocess.run([sys.executable, "-m", "zrlab.cli", kind, "--config", "defaults.cfg",
                           "--set", "output.dir=runs", *extra],
                          cwd=cwd, env=env, capture_output=True, text=True)
    lines = [re.sub(r"^verdict: (\w+) \(.*\)$", r"verdict: \1", line)
             for line in proc.stdout.splitlines()]
    runs = cwd / "runs"
    files = {p.name: p.read_bytes() for p in sorted(runs.glob("*"))
             if p.suffix in (".csv", ".fit")} if runs.is_dir() else {}
    manifest = None
    manifest_path = runs / f"{kind}_manifest.json"
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
        manifest.pop("wall_time_s", None)
    return {"code": proc.returncode, "lines": lines, "errors": proc.stderr.splitlines(),
            "wrote_dir": runs.is_dir(), "files": files, "manifest": manifest}


def compare_refusal(kind: str, old: dict, new: dict) -> list[str]:
    """Every difference between two runs of one kind's refused config."""
    drift = []
    if old["code"] != new["code"]:
        drift.append(f"{kind} refusal: exit code {old['code']} -> {new['code']}")
    if old["errors"] != new["errors"]:
        drift.append(f"{kind} refusal: error lines {old['errors']!r} -> {new['errors']!r}")
    return drift + [f"{kind} refusal: the {tree} tree created the output directory"
                    for tree, run in (("first", old), ("second", new)) if run["wrote_dir"]]


def compare(kind: str, old: dict, new: dict) -> list[str]:
    """Every difference between two runs of one kind, as one line each."""
    drift = []
    if old["code"] != new["code"]:
        drift.append(f"{kind}: exit code {old['code']} -> {new['code']}")
    for name in sorted(set(old["files"]) | set(new["files"])):
        if name not in new["files"] or name not in old["files"]:
            drift.append(f"{kind}: {name} written by one tree only")
        elif old["files"][name] != new["files"][name]:
            drift.append(f"{kind}: {name} differs")
    for a, b in zip_longest(old["lines"], new["lines"]):
        if a != b:
            drift.append(f"{kind}: printed line {a!r} -> {b!r}")
    if old["manifest"] != new["manifest"]:
        a, b = old["manifest"] or {}, new["manifest"] or {}
        changed = sorted(k for k in {**a, **b} if a.get(k) != b.get(k))
        drift.append(f"{kind}: manifest differs in {', '.join(changed) or 'presence'}")
    return drift


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    trees = [Path(a) for a in argv]
    for tree in trees:
        if not (tree / "zrlab" / "__init__.py").is_file():
            print(f"compare_defaults: no zrlab package under {tree}", file=sys.stderr)
            return 1
    drift = []
    with tempfile.TemporaryDirectory(prefix="compare_defaults_") as tmp:
        def fresh(name: str) -> Path:
            (Path(tmp) / name).mkdir()
            return Path(tmp) / name

        for kind in KINDS:
            runs = [run_kind(tree, kind, fresh(f"{kind}_{i}")) for i, tree in enumerate(trees)]
            refusals = [run_kind(tree, kind, fresh(f"{kind}_refused_{i}"), "--set", REFUSALS[kind])
                        for i, tree in enumerate(trees)]
            found = compare(kind, *runs) + compare_refusal(kind, *refusals)
            n_files = len(runs[1]["files"])
            checks = sum(line.startswith("[") for line in runs[1]["lines"])
            print(f"{kind}: exit {runs[1]['code']}, {n_files} CSV/.fit files, {checks} check lines, "
                  f"{REFUSALS[kind]} exit {refusals[1]['code']}: "
                  + ("identical" if not found else f"{len(found)} drift(s)"))
            drift += found
    for line in drift:
        print(f"DRIFT {line}")
    counts = [sum(len(p.read_text().splitlines()) for p in (tree / "zrlab").glob("*.py"))
              for tree in trees]
    print(f"zrlab/*.py lines: {counts[0]} -> {counts[1]} ({counts[1] - counts[0]:+d})")
    print("no drift" if not drift else f"{len(drift)} drift(s)")
    return 1 if drift else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
