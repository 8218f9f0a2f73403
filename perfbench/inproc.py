"""Run urlsentry.cli.main(argv) in this process, optionally traced by layer.

Usage: python3 perfbench/inproc.py <spec.json>

The spec names the argv, the working directory, the stdout file, whether to
trace, and where to write the result. The job time is the wall time of
main(argv); imports happen before the clock starts.

Tracing wraps the public functions of each urlsentry module at the name its
caller looks up: a function imported with `from .x import f` is a separate
binding in the importing module and is wrapped there, a function called as
`module.f` is wrapped on its defining module. Spans nest; a layer's busy time
is the sum of its spans' self times, and runner.self_s is the job time no
span covers. Counts come from call arguments and returned values only.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict

TIME_LAYERS = (
    "features.featurize_s",
    "pipeline.load_csv_s",
    "pipeline.clean_s",
    "pipeline.split_s",
    "pipeline.preprocess_s",
    "neural.ae_train_s",
    "neural.encode_s",
    "neural.mlp_train_s",
    "neural.mlp_predict_s",
    "knn.predict_s",
    "trees.xgb_train_s",
    "trees.gb_train_s",
    "trees.rf_train_s",
    "trees.predict_s",
    "evaluation.score_render_s",
    "artifact.load_s",
)

COUNTS = (
    "features.urls",
    "pipeline.rows_read",
    "pipeline.rows_dropped",
    "neural.sgd_steps",
    "knn.queries",
    "knn.stored_rows",
    "trees.nodes",
    "trees.leaves",
    "artifact.bytes",
)


def _tree_shape(node) -> tuple[int, int]:
    """(nodes, leaves) of one TreeNode, without recursion limits."""
    nodes = leaves = 0
    stack = [node]
    while stack:
        n = stack.pop()
        nodes += 1
        if n.is_leaf:
            leaves += 1
        else:
            stack.extend((n.left, n.right))
    return nodes, leaves


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []  # name, start, end, parent index
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._tree_models: set[int] = set()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def add_trees(self, model) -> None:
        """Count the nodes of a tree ensemble once, however often it is seen."""
        if id(model) in self._tree_models:
            return
        self._tree_models.add(id(model))
        for tree in model.trees:
            nodes, leaves = _tree_shape(tree)
            self.counts["trees.nodes"] += nodes
            self.counts["trees.leaves"] += leaves

    def busy(self) -> dict[str, float]:
        """Self time per span name: duration minus the child spans' durations."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            out[span["name"]] += span["end"] - span["start"] - child[i]
        return out

    def top_level_s(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)


# --- counters: (tracer, args, kwargs, result) -------------------------------

def _count_urls(t, args, kwargs, result):
    t.counts["features.urls"] += len(args[0])


def _count_rows_read(t, args, kwargs, result):
    t.counts["pipeline.rows_read"] += len(result)


def _count_dropped(t, args, kwargs, result):
    report = result[1]
    t.counts["pipeline.rows_dropped"] += report.dropped_empty + report.dropped_duplicates


def _sgd_steps(n_rows: int, cfg) -> int:
    return cfg.epochs * math.ceil(n_rows / min(cfg.batch_size, n_rows))


def _count_ae_steps(t, args, kwargs, result):
    neural = importlib.import_module("urlsentry.neural")
    cfg = (args[1] if len(args) > 1 else kwargs.get("cfg")) or neural.DEFAULT_AUTOENCODER_CONFIG
    t.counts["neural.sgd_steps"] += _sgd_steps(args[0].shape[0], cfg)


def _count_mlp_steps(t, args, kwargs, result):
    neural = importlib.import_module("urlsentry.neural")
    cfg = (args[1] if len(args) > 1 else kwargs.get("cfg")) or neural.TrainConfig()
    t.counts["neural.sgd_steps"] += _sgd_steps(args[0].n_rows, cfg)


def _count_knn(t, args, kwargs, result):
    model = args[0]
    t.counts["knn.queries"] += len(result)
    t.counts["knn.stored_rows"] = max(
        t.counts["knn.stored_rows"], model.stored_features.shape[0]
    )


def _count_trained_trees(t, args, kwargs, result):
    t.add_trees(result)


def _count_predicted_trees(t, args, kwargs, result):
    t.add_trees(args[0])


def _count_loaded_bytes(t, args, kwargs, result):
    t.counts["artifact.bytes"] += os.path.getsize(args[0])


# (module, attribute, layer metric, counter)
BINDINGS = (
    ("urlsentry.runner", "featurize_many", "features.featurize_s", _count_urls),
    ("urlsentry.artifact", "featurize_many", "features.featurize_s", _count_urls),
    ("urlsentry.runner", "load_csv", "pipeline.load_csv_s", _count_rows_read),
    ("urlsentry.runner", "clean", "pipeline.clean_s", _count_dropped),
    ("urlsentry.runner", "stratified_subsample", "pipeline.split_s", None),
    ("urlsentry.runner", "stratified_split", "pipeline.split_s", None),
    ("urlsentry.runner", "bound_outliers", "pipeline.preprocess_s", None),
    ("urlsentry.runner", "fit_scaler", "pipeline.preprocess_s", None),
    ("urlsentry.runner", "apply_scaler", "pipeline.preprocess_s", None),
    ("urlsentry.runner", "apply_bounds", "pipeline.preprocess_s", None),
    ("urlsentry.artifact", "apply_bounds", "pipeline.preprocess_s", None),
    ("urlsentry.artifact", "apply_scaler", "pipeline.preprocess_s", None),
    # runner and evaluation call these as neural.f / knn_mod.f / trees.f
    ("urlsentry.neural", "train_autoencoder", "neural.ae_train_s", _count_ae_steps),
    ("urlsentry.neural", "encode", "neural.encode_s", None),
    ("urlsentry.artifact", "encode", "neural.encode_s", None),
    ("urlsentry.neural", "train_mlp", "neural.mlp_train_s", _count_mlp_steps),
    ("urlsentry.neural", "predict_proba_mlp_batch", "neural.mlp_predict_s", None),
    ("urlsentry.artifact", "predict_proba_mlp_batch", "neural.mlp_predict_s", None),
    ("urlsentry.knn", "predict_knn_batch", "knn.predict_s", _count_knn),
    ("urlsentry.artifact", "predict_knn_batch", "knn.predict_s", _count_knn),
    ("urlsentry.trees", "train_xgb", "trees.xgb_train_s", _count_trained_trees),
    ("urlsentry.trees", "train_gradient_boosting", "trees.gb_train_s", _count_trained_trees),
    ("urlsentry.trees", "train_random_forest", "trees.rf_train_s", _count_trained_trees),
    ("urlsentry.trees", "predict_boosted_batch", "trees.predict_s", _count_predicted_trees),
    ("urlsentry.trees", "predict_forest_batch", "trees.predict_s", _count_predicted_trees),
    ("urlsentry.artifact", "predict_boosted_batch", "trees.predict_s", _count_predicted_trees),
    ("urlsentry.artifact", "predict_forest_batch", "trees.predict_s", _count_predicted_trees),
    ("urlsentry.evaluation", "confusion_matrix", "evaluation.score_render_s", None),
    ("urlsentry.evaluation", "compute_metrics", "evaluation.score_render_s", None),
    ("urlsentry.cli", "comparison_csv", "evaluation.score_render_s", None),
    ("urlsentry.cli", "render_bar_chart", "evaluation.score_render_s", None),
    ("urlsentry.cli", "render_comparison_report", "evaluation.score_render_s", None),
    ("urlsentry.cli", "load_model", "artifact.load_s", _count_loaded_bytes),
)


def install(tracer: Tracer) -> None:
    for module_name, attr, layer, count in BINDINGS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)  # AttributeError: the program moved a name
        if hasattr(original, "__wrapped__"):
            raise RuntimeError(f"{module_name}.{attr} is already wrapped")
        setattr(module, attr, tracer.wrap(layer, original, count))


def layer_metrics(tracer: Tracer, job_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced job; raises if time is lost or double counted."""
    busy = tracer.busy()
    unknown = set(busy) - set(TIME_LAYERS)
    if unknown:
        raise RuntimeError(f"spans outside the layer table: {sorted(unknown)}")
    metrics = {name: busy.get(name, 0.0) for name in TIME_LAYERS}
    metrics["runner.self_s"] = job_s - tracer.top_level_s()
    total = sum(metrics.values())
    if not math.isclose(total, job_s, rel_tol=1e-9, abs_tol=1e-9):
        raise RuntimeError(f"layer times sum to {total!r}, traced job took {job_s!r}")
    for name in COUNTS:
        metrics[name] = tracer.counts.get(name, 0.0)
    urls, queries = metrics["features.urls"], metrics["knn.queries"]
    metrics["features.us_per_url"] = metrics["features.featurize_s"] / urls * 1e6 if urls else 0.0
    metrics["knn.us_per_query"] = metrics["knn.predict_s"] / queries * 1e6 if queries else 0.0
    return metrics


def run(spec: dict) -> dict:
    cli = importlib.import_module("urlsentry.cli")
    tracer = None
    if spec["traced"]:
        tracer = Tracer()
        install(tracer)
    os.chdir(spec["cwd"])
    stdout_path = spec["stdout_path"]
    with open(stdout_path, "w", encoding="utf-8", newline="\n") as out, \
            open(stdout_path + ".err", "w", encoding="utf-8") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        exit_code = cli.main(spec["argv"])
        job_s = time.perf_counter() - start
    result = {"job_s": job_s, "exit_code": exit_code}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, job_s)
    return result


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
