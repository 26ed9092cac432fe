"""Self-test of the benchmark harness, seconds long.

    python3 bench/selftest.py

It runs the harness on shrunk configs that are not workloads, untraced and
traced with a two-size kernel pass, and checks that every metric named in
BENCHMARK.json is emitted with its unit, that spans nest (self time >= 0,
each child inside its parent on the same thread), and that the negative
controls fail: a wrong headline reference makes every sample fail the gate,
and a child span moved outside its parent is reported.  Exits 0 when all
checks hold.
"""

from __future__ import annotations

import json

import numpy as np

import run
import tracing

SIZES = (256, 512)
SHRUNK = {
    "selftest-growth": run.Workload("growth", (), ("stepper.t_end=0.5",)),
    "selftest-decohere": run.Workload("decohere", (), ("stepper.dt=0.05",
                                                       "experiment.mu_list=0.1,0.05")),
    "selftest-c2probe": run.Workload("c2probe", (), ("experiment.n_list=16,32,64,128",)),
}
WRONG_REF = run.Workload("c2probe", (run.Ref("c2 slope", ("fit", "c2", "slope"), ".4f", "0.5001"),))

def emitted(result: dict, units: dict[str, str]) -> bool:
    metrics = result["metrics"]
    return (set(metrics) == set(units)
            and all(metrics[k]["unit"] == u and isinstance(metrics[k]["value"], (int, float))
                    for k, u in units.items()))


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end names and units match the harness")
    check({m["name"]: m["unit"] for m in declared["per_layer"]} == run.per_layer_units(),
          "BENCHMARK.json per_layer names and units match the harness")
    check(all(w["name"] in run.WORKLOADS for w in declared["workloads"]),
          "every declared workload is defined")

    for name, workload in SHRUNK.items():
        result, report = run.run(name, 0, 0.0, False, workload)
        check(result["correct"] and result["failed"] == 0 and report["fail_rate"] == 0.0,
              f"{name}: untraced sample passes the gate {report['failures']}")
        check(emitted(result, run.END_TO_END), f"{name}: every end-to-end metric with its unit")
        check(result["metrics"]["pass_rate"]["value"] == 1.0, f"{name}: pass_rate is 1")

        result, report = run.run(name, 0, 0.0, True, workload, SIZES)
        check(result["correct"], f"{name}: traced samples pass, spans nest {report['failures']}")
        check(not report["untraced_names"], f"{name}: every traced entry point exists")
        check(emitted(result, run.per_layer_units(SIZES)),
              f"{name}: every per-layer metric with its unit")
        spans = tracing.load_spans(run.WORK / name / "spans.npz")
        check(len(spans["code"]) > 0 and not tracing.nesting_problems(spans),
              f"{name}: {len(spans['code'])} spans nest")
        if workload.kind != "c2probe":
            steps = result["metrics"]["evolution.steps"]["value"]
            check(steps > 0 and result["metrics"]["grid.transforms"]["value"] >= 14 * steps,
                  f"{name}: steps and transforms counted")
        if workload.kind == "decohere":
            check(result["metrics"]["experiments.members"]["value"] == 2,
                  f"{name}: one member span per sweep task")

    # negative control 1: a wrong reference value must fail every sample
    result, report = run.run("selftest-negative", 0, 0.0, False, WRONG_REF)
    check(not result["correct"] and result["failed"] == result["attempted"] >= 1
          and report["fail_rate"] == 1.0 and result["metrics"]["pass_rate"]["value"] == 0.0,
          f"negative control: wrong c2 slope trips fail_rate {report['failures'][:1]}")

    # negative control 2: a child pushed outside its parent must be reported
    spans = tracing.load_spans(run.WORK / "selftest-decohere" / "spans.npz")
    child = int(np.nonzero(spans["parent"] >= 0)[0][0])
    spans["end"][child] = spans["end"][spans["parent"][child]] + 1
    check(bool(tracing.nesting_problems(spans)), "negative control: broken nesting is reported")

    print("selftest: " + ("ok" if not failures else f"{len(failures)} check(s) failed"))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
