"""loadshift benchmark: one seeded workload, one JSON result line.

    python3 perfbench/run.py --workload dayahead-120d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from its
``src/`` directory, never from an installed copy, and the run fails
without a result when ``src/loadshift`` is missing.  ``--trace 0``
prints the end-to-end metrics, with latencies in units of
``reference_task``; ``--trace 1`` runs every operation twice,
traced and untraced, and prints per-layer self times and counts plus the
tracing overhead.  The last line of standard output is the
result; the run record (machine, versions, sizes, spans) is printed
before it and written under ``.perfbench-out/``.
"""

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS, read_hourly

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
REFERENCE_EVERY_NS = 40_000_000
MODULES = ("cli", "synth", "ingest", "mlp", "objective", "profiles", "pso")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ref": "ref",
    "op_p90_ref": "ref",
    "train_ref": "ref",
    "forecast_mape_pct": "%",
}
_REFERENCE_ROW = np.linspace(0.0, 1.0, 24)


def reference_task():
    """A fixed mix of small numpy calls and interpreter work, like the program's.

    Timings are reported in units of this task, timed in the same process
    next to the operations: on a shared machine the speed of the same code
    drifts by a factor of two between minutes, while an operation's time
    in units of this task stays within a few percent.
    """
    total = 0.0
    for i in range(100):
        row = np.clip(_REFERENCE_ROW * (i % 7), 0.1, 0.9)
        total += float(row @ _REFERENCE_ROW) + float(np.abs(row - _REFERENCE_ROW).sum())
        total += sum(float(f"{j}.25") for j in range(i % 50))
    return total


def per_layer_unit(name):
    """Per-layer metric names end in their unit; counts have no suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    suffix = name.rsplit("_", 1)[-1]
    return {"s": "s", "ms": "ms", "us": "us", "pct": "%", "frac": "fraction", "iter": "iteration"}.get(suffix, "count")


def import_loadshift():
    """A fresh import of loadshift from ``src/``, timed as part of set-up."""
    for name in [n for n in sys.modules if n.split(".")[0] == "loadshift"]:
        del sys.modules[name]
    ls = SimpleNamespace(**{m: importlib.import_module(f"loadshift.{m}") for m in MODULES})
    if not Path(ls.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"loadshift imported from {ls.cli.__file__}, not from {SRC}")
    return ls


class Run:
    """Counts operations and failures of one run; every check failure counts."""

    def __init__(self, seconds, tracer):
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.hourly = {}          # {day: (loads, prices)} of the generated data set
        self.references = []      # (end, duration) of every reference task, ns

    def attempt(self, label, action, check=lambda value: value, latencies=None):
        """Run one operation, time it, then check its output (untimed).

        Returns what ``check`` returns, or None when the operation raised
        or a check failed; the failure is counted and recorded, never
        retried.  In a traced run the operation runs twice, traced and
        untraced, in alternating order; the difference is the tracing
        overhead, measured on the same work at nearly the same moment.
        """
        self.attempted += 1
        try:
            self.reference()
            first = len(self.references) - 1
            if self.tracer is None:
                value, elapsed = self.timed(action)
            else:
                self.tracer.op = self.attempted
                for traced in (True, False) if self.attempted % 2 else (False, True):
                    self.tracer.active = traced
                    outcome, twin = self.timed(action)
                    if traced:
                        value, elapsed = outcome, twin
                    elif latencies is not None:
                        latencies.untraced.append(twin)
            if latencies is not None:
                self.reference()
                latencies.append(elapsed)
                # the reference tasks timed before, during and after the operation
                latencies.ref.append(elapsed / statistics.fmean(d for _, d in self.references[first:]))
            with self.untraced():
                return check(value)
        except Exception:
            self.failed += 1
            self.errors.append(f"{label}: {traceback.format_exc(limit=-3)}")
            return None

    def reference(self):
        """Time the reference task again once the last timing is stale.

        Long operations call this between their steps too; ``timed``
        leaves those reference tasks out of the operation's time.
        """
        if not self.references or time.perf_counter_ns() - self.references[-1][0] > REFERENCE_EVERY_NS:
            _, elapsed = timed(reference_task)
            self.references.append((time.perf_counter_ns(), elapsed))

    def timed(self, action):
        """(value, ns) of ``action``, less the reference tasks it ran."""
        first = len(self.references)
        value, elapsed = timed(action)
        return value, elapsed - sum(d for _, d in self.references[first:])

    @contextlib.contextmanager
    def untraced(self):
        """Calls the benchmark makes for its own checks stay out of the spans."""
        if self.tracer is None:
            yield
            return
        active, self.tracer.active = self.tracer.active, False
        try:
            yield
        finally:
            self.tracer.active = active


def timed(action):
    start = time.perf_counter_ns()
    value = action()
    return value, time.perf_counter_ns() - start


def end_to_end(setup_s, measurement):
    ops, train = measurement.op_ns, measurement.train_ns
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ref": statistics.median(ops.ref),
        "op_p90_ref": statistics.quantiles(ops.ref, n=10)[-1],
        "train_ref": statistics.median(train.ref),
        "forecast_mape_pct": statistics.fmean(measurement.ape),
    }


def wall_clock(ops, train):
    """The same figures in plain wall-clock units, for the run record."""
    return {
        "op_ms_p50": statistics.median(ops) / 1e6,
        "op_ms_p90": statistics.quantiles(ops, n=10)[-1] / 1e6,
        "ops_per_s": len(ops) / (sum(ops) / 1e9),
        "train_s": statistics.median(train) / 1e9,
    }


def run(workload, seed, seconds, trace, tiny=False):
    """(result, record, tracer) of one run; the tracer is None unless ``trace``."""
    kind, sizes, tiny_sizes = WORKLOADS[workload]
    bench = kind(tiny_sizes if tiny else sizes)
    tracer = Tracer() if trace else None
    ops = Run(seconds, tracer)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s = []
        for repeat in range(SETUP_REPEATS):
            folder = work / f"setup-{repeat}"
            folder.mkdir(parents=True)
            start = time.perf_counter()
            ls = import_loadshift()
            if tracer:
                tracer.install()
            prepared = bench.setup(ops, ls, seed, folder)
            setup_s.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()
        ops.hourly = read_hourly(folder / "data.csv")

        if tracer:
            tracer.install()
        (work / "measure").mkdir()
        measurement = bench.measure(ops, ls, seed, prepared, work / "measure")
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = wall_clock(measurement.op_ns, measurement.train_ns)
    if trace:
        untraced = wall_clock(measurement.op_ns.untraced, measurement.train_ns.untraced)
        metrics = tracer.layer_metrics(len(measurement.op_ns))
        for name, gaps in measurement.gaps.items():
            metrics[f"{name}.gap_pct"] = 100 * statistics.fmean(gaps) if gaps else 0.0
        metrics["trace.overhead_pct"] = 100 * (untraced["ops_per_s"] / wall["ops_per_s"] - 1)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, units = end_to_end(setup_s, measurement), END_TO_END_UNITS

    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = run_record(workload, seed, seconds, trace, bench.sizes, measurement)
    record["wall_clock"] = wall
    record["reference_ms_p50"] = statistics.median(d for _, d in ops.references) / 1e6
    if trace:
        record["traced_minus_untraced"] = {name: wall[name] - untraced[name] for name in wall}
        record["spans"] = len(tracer.spans)
    record["errors"] = ops.errors
    record["op_ms"] = [elapsed / 1e6 for elapsed in measurement.op_ns]
    return result, record, tracer


def run_record(workload, seed, seconds, trace, sizes, measurement):
    """Where and on what a result was measured."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": vars(sizes),
        "operations_timed": len(measurement.op_ns),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_info():
    """Name and version numpy was built with, and the thread count it runs with."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()}


def blas_threads():
    """OpenBLAS's own thread count, asked through the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def git_commit():
    """HEAD of the checkout when it is a git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "loadshift" / "__init__.py").is_file():
        print(f"perfbench: no loadshift sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result, record, tracer = run(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    for error in record["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps({"record": {k: v for k, v in record.items() if k not in ("errors", "op_ms")}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
