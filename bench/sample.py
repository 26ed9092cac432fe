"""One benchmark sample in a fresh interpreter (started by run.py).

    python3 bench/sample.py '<json request>'

The request names the experiment kind, the zrlab source directory, the
output directory, extra `--set` overrides, where to write the result, and
whether to trace.  The sample imports zrlab, resolves the kind's spec (the
set-up a user pays before any work), then calls `zrlab.cli.main` exactly as
the `zrlab` command would and writes a JSON result: the CLOCK_MONOTONIC
instant set-up finished (the parent holds the launch instant, and the clock
is system-wide), the wall time of `cli.main`, its exit code and the
process's peak RSS.  A traced sample also writes its spans and the
per-layer metrics derived from them.
"""

import json
import sys
import time


def main() -> int:
    req = json.loads(sys.argv[1])
    sys.path.insert(0, req["src"])
    start = time.perf_counter()
    import zrlab.cli as cli
    import_s = time.perf_counter() - start
    from pathlib import Path
    if Path(req["src"]).resolve() not in Path(cli.__file__).resolve().parents:
        print(f"zrlab imported from {cli.__file__}, not from {req['src']}", file=sys.stderr)
        return 3
    from zrlab.config import apply_overrides, parse_config
    spec = parse_config("", req["kind"])
    if req["overrides"]:
        apply_overrides(spec, req["overrides"])
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC), "import_s": import_s}

    if not req.get("setup_only"):
        result.update(_run(req))
    Path(req["result"]).write_text(json.dumps(result))
    return 0


def _run(req: dict) -> dict:
    import resource

    import zrlab.cli as cli
    import zrlab.experiments as experiments

    import tracing

    argv = [req["kind"], "--set", f"output.dir={req['out']}"]
    for override in req["overrides"]:
        argv += ["--set", override]
    pool = {"pool_workers": 0}
    tracer = tracing.Tracer() if req.get("spans") else None
    if tracer is not None:
        tracing.install(tracer)
    tracing.install_pool(experiments, pool, tracer)

    close_span = tracer.open_span("cli.main") if tracer is not None else None
    start = time.perf_counter()
    code = cli.main(argv)
    verdict_s = time.perf_counter() - start
    if close_span is not None:
        close_span()

    out = {"exit": code, "verdict_s": verdict_s,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "pool_workers": pool["pool_workers"]}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(req["spans"])
        spans = tracing.load_spans(req["spans"])
        out["layers"] = tracing.layer_metrics(spans, tracer.counters(), pool["pool_workers"])
        out["nesting_problems"] = tracing.nesting_problems(spans)
        out["untraced_names"] = tracer.missing
        out["spans"] = int(len(spans["code"]))
    return out


if __name__ == "__main__":
    raise SystemExit(main())
