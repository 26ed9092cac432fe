"""Paired fresh-process timing of one kind from two zrlab source trees.

    python3 tools/paired_timing.py PARENT_SRC CHANGE_SRC KIND N

Each tree is a directory holding the `zrlab` package (a checkout's `src/`).
The script runs `zrlab KIND` at its defaults N times from each tree, in
strictly alternating fresh processes: pair i runs the parent first for even
i and the change first for odd i, so drift in the host's load falls on both
sides alike.  Each tree gets its own bytecode cache (PYTHONPYCACHEPREFIX,
with PYTHONDONTWRITEBYTECODE unset), filled by one untimed run, so no
sample pays for compiling zrlab.  Each run writes to an output directory
of its own, as `bench/run.py` samples do: replacing a just-written file can
cost a filesystem 40-60 ms, which would otherwise land on every sample but
the first.  Each process times `zrlab.cli.main` itself, as `bench/run.py`
times `verdict_s`: wall time (perf_counter) and CPU time (process_time,
every thread).

It prints each side's median and quartiles of wall and CPU time, the median
of the per-pair wall ratio change / parent, and how many pairs the change
won (ties count for neither), then one JSON line with every sample.  Unpaired
medians of one tree can move by 2x on a shared host while paired ratios
hold, so read the ratio.  Exits 1 on a usage error or a run that prints no
timing (a crash); a run's own exit code is reported, not judged.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# runs `zrlab.cli.main(argv)` and prints its wall and CPU time as the last line
TIMED_MAIN = """\
import json, sys, time
from zrlab.cli import main
wall, cpu = time.perf_counter(), time.process_time()
code = main(sys.argv[1:])
print(json.dumps({"code": code, "wall_s": time.perf_counter() - wall,
                  "cpu_s": time.process_time() - cpu}))
"""


def timed_run(src: Path, kind: str, work: Path) -> dict:
    """One fresh process running `zrlab <kind>` from `src`, writing to a new
    directory under `work`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(src.resolve()), PYTHONPYCACHEPREFIX=str(work / "pycache"))
    out = tempfile.mkdtemp(prefix="runs_", dir=work)
    proc = subprocess.run([sys.executable, "-c", TIMED_MAIN, kind, "--set", f"output.dir={out}"],
                          cwd=work, env=env, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{kind} from {src} printed no timing:\n{proc.stderr}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str]) -> int:
    if len(argv) != 4 or not argv[3].isdigit() or int(argv[3]) < 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    trees, kind, pairs = (Path(argv[0]), Path(argv[1])), argv[2], int(argv[3])
    for tree in trees:
        if not (tree / "zrlab" / "__init__.py").is_file():
            print(f"paired_timing: no zrlab package under {tree}", file=sys.stderr)
            return 1
    samples: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        sides = (("parent", trees[0], Path(a)), ("change", trees[1], Path(b)))
        try:
            for _, tree, work in sides:  # warm-up: fills the tree's bytecode cache
                timed_run(tree, kind, work)
            for i in range(pairs):
                for name, tree, work in sides if i % 2 == 0 else sides[::-1]:
                    samples[name].append(timed_run(tree, kind, work))
        except RuntimeError as exc:
            print(f"paired_timing: {exc}", file=sys.stderr)
            return 1
    for name, runs in samples.items():
        codes = sorted({r["code"] for r in runs})
        for key in ("wall_s", "cpu_s"):
            q1, median, q3 = quartiles([r[key] for r in runs])
            print(f"{name} {key}: median {median * 1e3:.1f} ms "
                  f"(quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms), exit codes {codes}")
    ratios = [c["wall_s"] / p["wall_s"] for p, c in zip(samples["parent"], samples["change"])]
    wins = sum(r < 1.0 for r in ratios)
    print(f"paired wall ratio change/parent: median {statistics.median(ratios):.3f}, "
          f"change won {wins} of {pairs} pairs")
    print(json.dumps({"kind": kind, "pairs": pairs, "samples": samples, "ratios": ratios}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
