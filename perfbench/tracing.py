"""Spans around calls into loadshift's public functions, from outside.

While a Tracer is installed, each traced function is replaced, in every
loadshift module that binds it (``loadshift.cli`` imports several by
name), with a wrapper that records a span: name, start, end, parent span
and operation id.  Spans stay in memory; ``write`` saves them at the end
of the run and ``layer_metrics`` turns them into per-layer self times and
counts.  Nothing inside ``src/`` is changed.
"""

import json
import statistics
import sys
import time

# span name -> (module, attribute path) of the public function it wraps
LAYERS = {
    "synth.write_csv": ("loadshift.synth", "write_csv"),
    "ingest.load_dataset": ("loadshift.ingest", "load_dataset"),
    "ingest.build_windows": ("loadshift.ingest", "build_windows"),
    "ingest.window_matrix": ("loadshift.ingest", "window_matrix"),
    "profiles.day_indices": ("loadshift.profiles", "Dataset.day_indices"),
    "mlp.train": ("loadshift.mlp", "train"),
    "mlp.predict_day": ("loadshift.mlp", "predict_day"),
    "mlp.save_model": ("loadshift.mlp", "save_model"),
    "mlp.load_model": ("loadshift.mlp", "load_model"),
    "objective.build_problem": ("loadshift.objective", "build_problem"),
    "objective.evaluate_batch": ("loadshift.objective", "evaluate_batch"),
    "pso.optimize": ("loadshift.pso", "optimize"),
    "de.optimize": ("loadshift.de", "optimize"),
    "gridsearch.grid_search": ("loadshift.gridsearch", "grid_search"),
    "report.weight_sweep": ("loadshift.report", "weight_sweep"),
    "report.compare_algorithms": ("loadshift.report", "compare_algorithms"),
    "report.write_json": ("loadshift.report", "write_json"),
    "report.write_trace_csv": ("loadshift.report", "write_trace_csv"),
    **{
        f"cli.{command}": ("loadshift.cli", f"cmd_{command}")
        for command in ("synth", "train", "predict", "optimize", "sweep", "compare", "verify")
    },
}

OPTIMIZERS = ("pso.optimize", "de.optimize")


def _work_count(name, args, result):
    """Work done by one call, counted at the layer boundary."""
    if name in ("ingest.load_dataset", "ingest.build_windows"):
        return len(result)
    if name == "mlp.train":
        return len(result[1].epoch_mse)
    if name == "objective.evaluate_batch":
        return len(args[1])
    if name == "gridsearch.grid_search":
        return args[0].n_points
    return 0


class Tracer:
    def __init__(self):
        self.spans = []          # [id, name, start_ns, end_ns, parent_id, op, count]
        self.iterations = {}     # optimizer -> intervals between on_iteration calls, ns
        self.improvement = {}    # optimizer -> [(improving_frac, last_improving_iter)]
        self.op = 0              # operation id: 0 in set-up, then the attempt number
        self.active = False
        self._stack = []
        self._patches = []

    # installation ----------------------------------------------------------

    def install(self):
        """Wrap every traced function the imported loadshift binds."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "loadshift" and m]
        for name, (module_name, path) in LAYERS.items():
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue   # the program no longer has this layer
            wrapper = self._wrap(name, original)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, original):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if name in OPTIMIZERS:
                args, kwargs, stamps = tracer._tick_iterations(args, kwargs)
            span = [len(tracer.spans), name, 0, 0, tracer._stack[-1] if tracer._stack else None, tracer.op, 0]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            span[2] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                tracer._stack.pop()
            span[6] = _work_count(name, args, result)
            if name in OPTIMIZERS:
                tracer._record_optimizer(name, stamps, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _tick_iterations(self, args, kwargs):
        """Chain a timing callback in front of the caller's on_iteration."""
        args = list(args)
        caller = args.pop(2) if len(args) > 2 else kwargs.pop("on_iteration", None)
        stamps = []

        def on_iteration(iteration, state):
            stamps.append(time.perf_counter_ns())
            if caller is not None:
                caller(iteration, state)

        kwargs["on_iteration"] = on_iteration
        return tuple(args), kwargs, stamps

    def _record_optimizer(self, name, stamps, result):
        self.iterations.setdefault(name, []).extend(b - a for a, b in zip(stamps, stamps[1:]))
        best = [point.objective for point in result.trace]
        improved = [i for i in range(1, len(best)) if best[i] < best[i - 1]]
        self.improvement.setdefault(name, []).append(
            (len(improved) / max(len(best) - 1, 1), improved[-1] if improved else 0)
        )

    # output ---------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op, count in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op, "count": count,
                }) + "\n")

    def layer_metrics(self, ops):
        """Per-layer self times and counts; ``ops`` is the number of operations traced."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[4] is not None:
                child_ns[span[4]] += span[3] - span[2]
        self_ns, total_ns, count = {}, {}, {}
        for span in self.spans:
            name = span[1]
            self_ns.setdefault(name, []).append(span[3] - span[2] - child_ns[span[0]])
            total_ns[name] = total_ns.get(name, 0) + span[3] - span[2]
            count[name] = count.get(name, 0) + span[6]

        def enclosed_evals(outer):
            """Objective evaluations made inside spans named ``outer``."""
            evals = 0
            for span in self.spans:
                if span[1] != "objective.evaluate_batch":
                    continue
                parent = span[4]
                while parent is not None and self.spans[parent][1] != outer:
                    parent = self.spans[parent][4]
                if parent is not None:
                    evals += span[6]
            return evals

        def median_self(name, scale):
            samples = self_ns.get(name)
            return statistics.median(samples) / scale if samples else 0.0

        def per_call(name):
            calls = len(self_ns.get(name, ()))
            return count.get(name, 0) / calls if calls else 0.0

        def rate(work, name):
            seconds = total_ns.get(name, 0) / 1e9
            return work / seconds if seconds else 0.0

        def mean(values):
            return statistics.fmean(values) if values else 0.0

        epochs = count.get("mlp.train", 0)
        metrics = {
            "synth.write_csv_s": median_self("synth.write_csv", 1e9),
            "ingest.load_dataset_s": median_self("ingest.load_dataset", 1e9),
            "ingest.rows": per_call("ingest.load_dataset"),
            "ingest.build_windows_s": median_self("ingest.build_windows", 1e9),
            "ingest.window_matrix_s": median_self("ingest.window_matrix", 1e9),
            "ingest.windows": per_call("ingest.build_windows"),
            "profiles.day_indices_ms": median_self("profiles.day_indices", 1e6),
            "mlp.train_s": median_self("mlp.train", 1e9),
            "mlp.epoch_ms": sum(self_ns.get("mlp.train", ())) / 1e6 / epochs if epochs else 0.0,
            "mlp.epochs": per_call("mlp.train"),
            "mlp.predict_day_ms": median_self("mlp.predict_day", 1e6),
            "mlp.save_model_ms": median_self("mlp.save_model", 1e6),
            "mlp.load_model_ms": median_self("mlp.load_model", 1e6),
            "objective.build_problem_us": median_self("objective.build_problem", 1e3),
            "objective.evaluate_batch_us": median_self("objective.evaluate_batch", 1e3),
            "objective.evals": count.get("objective.evaluate_batch", 0) / ops if ops else 0.0,
        }
        for name in OPTIMIZERS:
            layer = name.split(".")[0]
            intervals = self.iterations.get(name)
            improvement = self.improvement.get(name, [])
            metrics[f"{layer}.optimize_ms"] = median_self(name, 1e6)
            metrics[f"{layer}.iter_ms"] = statistics.median(intervals) / 1e6 if intervals else 0.0
            metrics[f"{layer}.evals_per_s"] = rate(enclosed_evals(name), name)
            metrics[f"{layer}.improving_iter_frac"] = mean([frac for frac, _ in improvement])
            if layer == "pso":
                metrics["pso.last_improvement_iter"] = mean([last for _, last in improvement])
        metrics.update({
            "gridsearch.grid_search_ms": median_self("gridsearch.grid_search", 1e6),
            "gridsearch.points_per_s": rate(count.get("gridsearch.grid_search", 0), "gridsearch.grid_search"),
            "report.weight_sweep_s": median_self("report.weight_sweep", 1e9),
            "report.compare_algorithms_ms": median_self("report.compare_algorithms", 1e6),
            "report.write_json_ms": median_self("report.write_json", 1e6),
            "report.write_trace_csv_ms": median_self("report.write_trace_csv", 1e6),
        })
        for name in LAYERS:
            if name.startswith("cli."):
                metrics[f"{name}_ms"] = median_self(name, 1e6)
        return metrics
