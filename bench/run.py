"""zrlab benchmark: time to a trusted verdict for real `zrlab <kind>` runs.

    python3 bench/run.py --workload growth --seed 1 --seconds 30 --trace 0

It benchmarks the checkout that holds this file (`src/zrlab`, run from
source) and writes only under `.bench_work/` there.  The load is a closed
loop with one client: each sample is a fresh interpreter that imports zrlab,
resolves the kind's default spec and calls `zrlab.cli.main([kind, "--set",
"output.dir=..."])`, one after another, until `--seconds` have passed (at
least one sample).  `ZRLAB_THREADS` is unset in the samples, so sweeps use
the default pool.  Inputs are the deterministic per-kind defaults; the seed
is recorded but changes no input.

Every sample passes a correctness gate: exit code 0, verdict and every check
`pass`, artifact digests matching the written bytes, and the headline values
equal to the seed's at their printed precision (round-off quantities such as
q1_drift are checked by status only).  A sample that misses it counts as
failed.

`--trace 0` reports the end-to-end metrics (medians over the run's samples);
`--trace 1` runs untraced and traced samples in pairs, a ZRLAB_THREADS=1
baseline where the run uses a pool, and the single-threaded kernel pass,
and reports the per-layer metrics.  The last stdout line is the result JSON;
the line before it is a report with the environment block, sample counts,
maxima and every failure.  `bench/README.md` lists what each metric means
and which end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

KERNEL_SIZES = (512, 2**15, 2**19, 2**21)
SETUP_PROBES = 10       # set-up-only processes per untraced run, besides the samples'
DEADLINE_S = 165.0      # start no sample that is expected to end after this
KERNEL_RESERVE_S = 45.0  # kept free for the kernel pass in a traced run
SAMPLE_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Ref:
    """A headline value: where the manifest holds it, its printed format and
    the seed's printed value.  `where` is a key path into the manifest's
    verdict, or ("fit", artifact, footer key) for a .fit file."""

    label: str
    where: tuple
    fmt: str
    want: str


@dataclass(frozen=True)
class Workload:
    kind: str
    refs: tuple[Ref, ...]
    overrides: tuple[str, ...] = ()


# Why each workload is here (see README.md for the layer each one stresses):
#   growth   - n = 512 for 50 000 steps; per-call overhead in evolution,
#              1 001 observer calls and a 1 001-row CSV.
#   decohere - 8 evolve runs at n = 2048, external-potential path, a threaded
#              mu-sweep of small GIL-bound members.
#   c2probe  - pure closed_forms quadrature; skips the stepper entirely.
#   inflate  - the Tier-1 sweep up to n = 2^21 (about 90 s a sample); not in
#              BENCHMARK.json, which cannot fit it, but runnable by hand.
WORKLOADS = {
    "growth": Workload("growth", (
        Ref("sup H1", ("info", "h1_sup"), ".4f", "2.6108"),
        Ref("s=3 envelope exponent", ("fit", "growth_s3", "slope"), ".4f", "0.0528"),
    )),
    "decohere": Workload("decohere", (
        Ref("final separation", ("info", "pair", "separation_final"), ".4f", "1.6013"),
        Ref("analytic target", ("info", "pair", "analytic_target"), ".4f", "1.6108"),
        Ref("dev-constant stability", ("info", "dev_constant_stability"), ".3f", "1.227"),
    )),
    "c2probe": Workload("c2probe", (
        Ref("c2 slope", ("fit", "c2", "slope"), ".4f", "0.5000"),
    )),
    "inflate": Workload("inflate", (
        *(Ref(f"oracle ratio N{n}", ("info", "members", i, "ratio"), ".4f", "1.0154")
          for i, n in enumerate((32, 64, 128, 256))),
        Ref("inflation slope", ("fit", "inflation", "slope"), ".4f", "0.2497"),
    )),
}

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "pass_rate": "ratio"}

LAYER_UNITS = {
    "grid.transforms": "count", "grid.transform_s": "s", "grid.bytes_computed": "B",
    "evolution.steps": "count", "evolution.linear_s": "s", "evolution.nonlinear_s": "s",
    "evolution.evolve_self_s": "s",
    "model.observer_calls": "count", "model.observer_s": "s",
    "closed_forms.quadrature_calls": "count", "closed_forms.quadrature_s": "s",
    "closed_forms.synth_s": "s",
    "experiments.workers": "count", "experiments.members": "count",
    "experiments.longest_member_s": "s", "experiments.sweep_eff": "ratio",
    "experiments.self_s": "s", "experiments.serial_speedup": "ratio",
    "records.files": "count", "records.bytes": "B", "records.write_s": "s",
    "config.parse_s": "s", "cli.import_s": "s",
    "trace.overhead_frac": "ratio",
}

KERNEL_UNITS = {
    "grid.fft_ms": "ms", "grid.forward_ms": "ms",
    "evolution.linear_ms": "ms", "evolution.nonlinear_ms": "ms",
    "evolution.ms_per_step": "ms", "evolution.ns_per_point_step": "ns",
    "evolution.fft_equiv_per_step": "ratio", "evolution.bytes_per_step": "B",
    "model.observer_ms": "ms",
}


def per_layer_units(sizes=KERNEL_SIZES) -> dict[str, str]:
    units = dict(LAYER_UNITS)
    for n in sizes:
        units.update({f"{name}.n{n}": unit for name, unit in KERNEL_UNITS.items()})
    return units


# -- correctness gate --------------------------------------------------------------

def _fit_footer(path: str, key: str) -> float:
    for line in Path(path).read_text().splitlines():
        name, sep, value = line.lstrip("#").partition("=")
        if line.startswith("#") and sep and name.strip() == key:
            return float(value)
    raise KeyError(f"{key} not in the footer of {path}")


def _lookup(manifest: dict, where: tuple):
    if where[0] == "fit":
        _, artifact, key = where
        return _fit_footer(manifest["artifacts"][artifact]["path"], key)
    value = manifest["verdict"]
    for key in where:
        value = value[key]
    return value


def gate(workload: Workload, out_dir: Path, exit_code) -> list[str]:
    """Reasons the sample's run is not the seed's passing verdict ([] if none)."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        manifest = json.loads((out_dir / f"{workload.kind}_manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"no readable manifest ({exc})"]
    verdict = manifest["verdict"]
    if verdict["status"] != "pass":
        problems.append(f"verdict {verdict['status']}")
    problems += [f"check {c['name']}: {c['status']}"
                 for c in verdict["checks"] if c["status"] != "pass"]
    for name, artifact in manifest["artifacts"].items():
        if "sha256" in artifact:
            digest = hashlib.sha256(Path(artifact["path"]).read_bytes()).hexdigest()
            if digest != artifact["sha256"]:
                problems.append(f"artifact {name}: bytes do not match the manifest digest")
    for ref in workload.refs:
        try:
            got = format(_lookup(manifest, ref.where), ref.fmt)
        except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            problems.append(f"{ref.label}: not found ({exc!r})")
            continue
        if got != ref.want:
            problems.append(f"{ref.label}: {got} (seed prints {ref.want})")
    return problems


# -- processes ------------------------------------------------------------------

def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts sample processes for one workload, one at a time."""

    def __init__(self, workload: Workload, work: Path, deadline_s: float):
        self.workload = workload
        self.work = work
        # zrlab is imported from cached bytecode, as an installed package is
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("ZRLAB_THREADS", "PYTHONDONTWRITEBYTECODE")}
        self.env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        self.deadline = _monotonic() + deadline_s
        self.longest = 0.0

    def _spawn(self, script: str, request: dict, env: dict) -> tuple[int | None, float]:
        launch = _monotonic()
        with open(self.work / "stderr.log", "ab") as err:
            proc = subprocess.Popen([sys.executable, str(BENCH / script), json.dumps(request)],
                                    cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=SAMPLE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = None
            finally:  # also on SIGTERM or an error: leave no process behind
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        self.longest = max(self.longest, _monotonic() - launch)
        return code, launch

    def sample(self, role: str, threads: str | None = None) -> dict:
        """One process; role is setup (import and resolve only), plain,
        traced, or serial (plain with the given ZRLAB_THREADS)."""
        setup_only = role == "setup"
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        request = {"kind": self.workload.kind, "src": str(SRC),
                   "overrides": list(self.workload.overrides), "out": str(out_dir),
                   "result": str(result), "setup_only": setup_only,
                   "spans": str(self.work / "spans.npz") if role == "traced" else None}
        env = self.env if threads is None else {**self.env, "ZRLAB_THREADS": threads}
        code, launch = self._spawn("sample.py", request, env)
        try:
            res = json.loads(result.read_text())
        except (OSError, ValueError):
            res = {}
        res["role"] = role
        if "ready" in res:
            res["setup_s"] = res["ready"] - launch
        if code != 0:
            res["problems"] = [f"sample process exited with {code} (see {self.work / 'stderr.log'})"]
        elif not setup_only:
            res["problems"] = gate(self.workload, out_dir, res["exit"])
            res["problems"] += [f"spans: {p}" for p in res.get("nesting_problems", [])]
        return res

    def kernel_pass(self, sizes) -> dict:
        result = self.work / "kernels.json"
        code, _ = self._spawn("kernels.py", {"src": str(SRC), "sizes": list(sizes),
                                             "result": str(result)}, self.env)
        if code != 0:
            raise RuntimeError(f"kernel pass exited with {code} (see {self.work / 'stderr.log'})")
        return json.loads(result.read_text())

    def may_start(self) -> bool:
        return self.deadline - _monotonic() > self.longest


# -- runs -----------------------------------------------------------------------

def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "ZRLAB_THREADS": "unset in samples (inherited: %s)" % os.environ.get("ZRLAB_THREADS")}


def untraced_run(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    setups = [runner.sample("setup") for _ in range(SETUP_PROBES)]
    samples = _loop(runner, seconds, lambda: [runner.sample("plain")])
    setups += samples
    done = [s for s in samples if "verdict_s" in s]
    if not done or any("setup_s" not in s for s in setups):
        raise RuntimeError("no sample completed its set-up and run")
    metrics = {
        "verdict_s": _median(done, "verdict_s"),
        "setup_s": _median(setups, "setup_s"),
        "peak_rss_mb": _median(done, "rss_mb"),
        "pass_rate": 1.0 - sum(bool(s["problems"]) for s in samples) / len(samples),
    }
    return samples, metrics


def traced_run(runner: Runner, seconds: float, sizes=KERNEL_SIZES) -> tuple[list[dict], dict]:
    pairs = _loop(runner, seconds, lambda: [runner.sample("plain"), runner.sample("traced")])
    plain = [s for s in pairs[0::2] if "verdict_s" in s]
    traced = [s for s in pairs[1::2] if "layers" in s]
    if not plain or not traced:
        raise RuntimeError("no untraced/traced sample pair completed")
    samples = list(pairs)
    speedup = 1.0  # no pool: the run is serial already
    if max(s["pool_workers"] for s in traced) > 1:
        serial = [runner.sample("serial", threads="1") for _ in plain if runner.may_start()]
        samples += serial
        serial = [s for s in serial if "verdict_s" in s]
        if not serial:
            raise RuntimeError("no ZRLAB_THREADS=1 sample completed")
        speedup = _median(serial, "verdict_s") / _median(plain, "verdict_s")
    # counts repeat exactly; median_low keeps them observed integers
    metrics = {key: (statistics.median_low if LAYER_UNITS[key] in ("count", "B")
                     else statistics.median)(s["layers"][key] for s in traced)
               for key in traced[0]["layers"]}
    metrics["experiments.serial_speedup"] = speedup
    metrics["cli.import_s"] = _median(traced, "import_s")
    metrics["trace.overhead_frac"] = _median(traced, "verdict_s") / _median(plain, "verdict_s") - 1.0
    metrics.update(runner.kernel_pass(sizes))
    return samples, metrics


def _loop(runner: Runner, seconds: float, step) -> list[dict]:
    """Closed loop: repeat step() while the next one is expected to end
    within `seconds` (it runs at least once)."""
    samples: list[dict] = []
    start = _monotonic()
    while True:
        began = _monotonic()
        samples += step()
        now = _monotonic()
        if now - start + (now - began) > seconds or not runner.may_start():
            return samples


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workload: Workload | None = None, sizes=KERNEL_SIZES) -> tuple[dict, dict]:
    """One benchmark run; returns (result, report)."""
    workload = workload or WORKLOADS[workload_name]
    work = WORK / workload_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env_block = environment()
    env_block["loadavg_before"] = _loadavg()
    runner = Runner(workload, work, DEADLINE_S - (KERNEL_RESERVE_S if trace else 0.0))
    if "ready" not in runner.sample("setup"):  # warm-up: fills the bytecode cache
        raise RuntimeError(f"cannot import zrlab from {SRC} (see {work / 'stderr.log'})")
    if trace:
        samples, metrics = traced_run(runner, seconds, sizes)
        units = per_layer_units(sizes)
    else:
        samples, metrics = untraced_run(runner, seconds)
        units = END_TO_END
    env_block["loadavg_after"] = _loadavg()
    env_block["workers"] = max((s.get("pool_workers", 0) for s in samples), default=0)

    attempted = len(samples)
    failures = [p for s in samples for p in s.get("problems", [])]
    failed = sum(bool(s.get("problems")) for s in samples)
    verdicts = [s["verdict_s"] for s in samples if s["role"] == "plain" and "verdict_s" in s]
    report = {"workload": workload_name, "kind": workload.kind, "seed": seed,
              "seconds": seconds, "trace": trace, "samples": attempted,
              "fail_rate": failed / attempted, "failures": failures,
              "verdict_s": _summary(verdicts), "environment": env_block,
              "untraced_names": sorted({n for s in samples for n in s.get("untraced_names", [])})}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    (work / "report.json").write_text(json.dumps({**report, "result": result}, indent=2))
    return result, report


def _summary(values: list[float]) -> dict:
    """Median and max with the count, a high percentile only when at least
    ten samples lie beyond it, and the samples in run order."""
    out = {"n": len(values), "median": statistics.median(values), "max": max(values),
           "samples": values}
    for pct in (90, 99):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup in finally
    if not (SRC / "zrlab" / "__init__.py").is_file():
        print(f"bench: no zrlab sources at {SRC / 'zrlab'}", file=sys.stderr)
        return 2
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
