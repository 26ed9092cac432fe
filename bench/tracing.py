"""In-memory span recorder for the traced benchmark samples, and its analysis.

A `Tracer` replaces public functions of zrlab at the names the program looks
them up (module attributes such as `zrlab.experiments.evolve`, or class
attributes such as `SpectralGrid.forward`) with wrappers that record one span
per call: name, start, end, parent and thread.  Spans are kept in per-thread
integer arrays while the sample runs and written to one `.npz` file at the
end; nothing under `src/` is edited.

Parents are tracked per thread (the innermost open span of the calling
thread).  Pool members run in worker threads, so their cause is the sweep
span on the main thread; the sweep-efficiency metric joins them by time, not
by parent index.
"""

from __future__ import annotations

import json
import os
import threading
import time
from array import array
from pathlib import Path

import numpy as np

_now = time.perf_counter_ns

# Attribute names wrapped per layer; `install` lists the owners.
QUADRATURE = ("hat_sobolev_norm", "normalize_hats", "l_hat_norm", "first_order_psi1")
TRANSFORMS = ("forward", "inverse")
RECORD_WRITERS = ("write_record_csv", "write_fit_file", "write_manifest")


class _ThreadBuffer:
    """Spans of one thread; `parent` indexes into the same buffer."""

    def __init__(self):
        self.code = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def open(self, code: int) -> int:
        idx = len(self.code)
        self.code.append(code)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self.stack.pop()


class Tracer:
    """Records spans around wrapped callables; `uninstall` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap_callable(self, fn, name: str, on_exit=None):
        code = self._code(name)
        tracer = self

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            idx = buf.open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.close(idx)
            if on_exit is not None:
                on_exit(buf.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def replace(self, owner, attr: str, value) -> None:
        """Set owner.attr = value until `uninstall`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, on_exit=None) -> None:
        """Replace owner.attr by a traced wrapper (skipped if absent)."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        self.replace(owner, attr, self.wrap_callable(original, name, on_exit))

    def open_span(self, name: str):
        """Open a span on the calling thread; returns the function closing it."""
        buf = self._buffer()
        idx = buf.open(self._code(name))
        return lambda: buf.close(idx)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def counters(self) -> dict[str, int]:
        """Counters summed over threads."""
        total: dict[str, int] = {}
        for buf in self._buffers:
            for key, value in buf.counters.items():
                total[key] = total.get(key, 0) + value
        return total

    def dump(self, path: Path) -> None:
        """Write all spans to `path` (.npz)."""
        codes, parents, starts, ends, threads = [], [], [], [], []
        offset = 0
        for buf in self._buffers:
            par = np.array(buf.parent, dtype=np.int64)
            codes.append(np.array(buf.code, dtype=np.int32))
            parents.append(np.where(par >= 0, par + offset, -1))
            starts.append(np.array(buf.start, dtype=np.int64))
            ends.append(np.array(buf.end, dtype=np.int64))
            threads.append(np.full(len(par), len(threads), dtype=np.int32))
            offset += len(par)
        cat = (lambda parts, dt: np.concatenate(parts) if parts else np.zeros(0, dt))
        np.savez(path, code=cat(codes, np.int32), parent=cat(parents, np.int64),
                 start=cat(starts, np.int64), end=cat(ends, np.int64),
                 thread=cat(threads, np.int32), names=np.array(json.dumps(self.names)))


def _add(counters: dict, key: str, value: int) -> None:
    counters[key] = counters.get(key, 0) + value


def _count_transform_bytes(counters, args, result) -> None:
    _add(counters, "grid.bytes_computed", int(np.asarray(args[1]).nbytes) + int(result.nbytes))


def trace_transforms(tracer: Tracer) -> None:
    """Wrap SpectralGrid.forward/inverse, counting input + output bytes."""
    from zrlab.grid import SpectralGrid

    for attr in TRANSFORMS:
        tracer.wrap(SpectralGrid, attr, f"grid.{attr}", _count_transform_bytes)


def _count_record_bytes(path_index: int):
    def count(counters, args, _result) -> None:
        _add(counters, "records.bytes", os.path.getsize(args[path_index]))
    return count


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every zrlab layer."""
    import zrlab.cli as cli
    import zrlab.closed_forms as cf
    import zrlab.evolution as evolution
    import zrlab.experiments as experiments

    trace_transforms(tracer)
    for attr in ("linear_halfstep", "nonlinear_step", "strang_step"):
        tracer.wrap(evolution, attr, f"evolution.{attr}")
    tracer.wrap(experiments, "evolve", "evolution.evolve")
    tracer.wrap(experiments, "conserved_quantities", "model.conserved_quantities")
    for attr in QUADRATURE:
        tracer.wrap(cf, attr, f"closed_forms.{attr}")
    tracer.wrap(cf, "synthesize_hat_field", "closed_forms.synthesize_hat_field")
    tracer.wrap(cli, "run_experiment", "experiments.run_experiment")
    for attr in ("parse_config", "apply_overrides"):
        tracer.wrap(cli, attr, f"config.{attr}")
    tracer.wrap(cli, "write_record_csv", "records.write_record_csv", _count_record_bytes(1))
    tracer.wrap(cli, "write_fit_file", "records.write_fit_file", _count_record_bytes(0))
    tracer.wrap(cli, "write_manifest", "records.write_manifest", _count_record_bytes(1))


def install_pool(experiments, record: dict, tracer: "Tracer | None" = None) -> None:
    """Replace the sweep pool class the experiments module instantiates.

    `record["pool_workers"]` receives the resolved pool size (one call per
    sweep, nothing per member, so untraced samples use it too).  With a
    tracer, each sweep also gets a span on the calling thread and each task
    a member span in its worker thread.
    """
    base = experiments.ThreadPoolExecutor

    class Pool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            record["pool_workers"] = max(record.get("pool_workers", 0), self._max_workers)
            if tracer is not None:
                self._close_span = tracer.open_span("experiments.sweep")

        def map(self, fn, *iterables, **kwargs):
            if tracer is not None:
                fn = tracer.wrap_callable(fn, "experiments.member")
            return super().map(fn, *iterables, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                if tracer is not None:
                    self._close_span()

    if tracer is not None:
        tracer.replace(experiments, "ThreadPoolExecutor", Pool)
    else:
        experiments.ThreadPoolExecutor = Pool


# -- analysis --------------------------------------------------------------------

def load_spans(path: Path) -> dict:
    with np.load(path) as z:
        spans = {key: z[key] for key in ("code", "parent", "start", "end", "thread")}
        spans["names"] = json.loads(str(z["names"]))
    spans["dur"] = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    covered = np.zeros(len(spans["code"]), dtype=np.int64)
    np.add.at(covered, spans["parent"][has_parent], spans["dur"][has_parent])
    spans["self"] = spans["dur"] - covered
    return spans


def nesting_problems(spans: dict) -> list[str]:
    """Every span closed, self time >= 0, each child inside its parent on
    the same thread."""
    problems = []
    if np.any(spans["end"] < spans["start"]):
        problems.append("span ends before it starts (or was never closed)")
    if np.any(spans["self"] < 0):
        problems.append("negative self time")
    child = np.nonzero(spans["parent"] >= 0)[0]
    par = spans["parent"][child]
    if np.any(spans["thread"][child] != spans["thread"][par]):
        problems.append("child on another thread than its parent")
    if np.any(spans["start"][child] < spans["start"][par]) or \
            np.any(spans["end"][child] > spans["end"][par]):
        problems.append("child span outside its parent")
    return problems


def layer_metrics(spans: dict, counters: dict, pool_workers: int) -> dict[str, float]:
    """Per-layer counts and busy times (seconds) of one traced sample."""
    names = spans["names"]
    code = spans["code"]

    def select(*span_names: str) -> np.ndarray:
        codes = [names.index(n) for n in span_names if n in names]
        return np.isin(code, codes)

    def outermost(mask: np.ndarray) -> np.ndarray:
        """Spans in `mask` whose parent is not itself in `mask`."""
        par = spans["parent"]
        inner = np.zeros_like(mask)
        inner[par >= 0] = mask[par[par >= 0]]
        return mask & ~inner

    def seconds(mask: np.ndarray, key: str = "dur") -> float:
        return float(np.sum(spans[key][mask])) * 1e-9

    transforms = select(*(f"grid.{t}" for t in TRANSFORMS))
    steps = select("evolution.strang_step")
    quad = outermost(select(*(f"closed_forms.{q}" for q in QUADRATURE)))
    members = select("experiments.member")
    sweeps = select("experiments.sweep")
    writes = select(*(f"records.{w}" for w in RECORD_WRITERS))
    member_s = spans["dur"][members] * 1e-9
    sweep_wall = seconds(sweeps)
    return {
        "grid.transforms": int(np.count_nonzero(transforms)),
        "grid.transform_s": seconds(transforms),
        "grid.bytes_computed": counters.get("grid.bytes_computed", 0),
        "evolution.steps": int(np.count_nonzero(steps)),
        "evolution.linear_s": seconds(select("evolution.linear_halfstep")),
        "evolution.nonlinear_s": seconds(select("evolution.nonlinear_step")),
        "evolution.evolve_self_s": seconds(select("evolution.evolve"), "self"),
        "model.observer_calls": int(np.count_nonzero(select("model.conserved_quantities"))),
        "model.observer_s": seconds(select("model.conserved_quantities")),
        "closed_forms.quadrature_calls": int(np.count_nonzero(quad)),
        "closed_forms.quadrature_s": seconds(quad),
        "closed_forms.synth_s": seconds(select("closed_forms.synthesize_hat_field")),
        "experiments.workers": pool_workers,
        "experiments.members": int(member_s.size),
        "experiments.longest_member_s": float(member_s.max()) if member_s.size else 0.0,
        "experiments.sweep_eff": (float(member_s.sum()) / (pool_workers * sweep_wall)
                                  if pool_workers and sweep_wall > 0 else 0.0),
        # the sweep span is excluded: its self time is the main thread waiting
        "experiments.self_s": seconds(select("experiments.run_experiment",
                                             "experiments.member"), "self"),
        "records.files": int(np.count_nonzero(writes)),
        "records.bytes": counters.get("records.bytes", 0),
        "records.write_s": seconds(writes),
        "config.parse_s": seconds(select("config.parse_config", "config.apply_overrides")),
    }
