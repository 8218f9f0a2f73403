#!/usr/bin/env python3
"""urlsentry benchmark: one workload, one workload seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload seed makes the input files; the program keeps its own --seed
at the default of 42. Every timed job spawns the real CLI
(`python3 -m urlsentry.cli` with src/ on PYTHONPATH), one process at a time:
a closed loop with a single client. The job repeats for about S seconds and
at least MIN_REPEATS times; every repeat must exit 0 and produce
byte-identical outputs, whose digests are printed with the payload checksum
of the artifact a predict workload builds.

--trace 0 prints the end-to-end metrics; --trace 1 instead runs the job in
process (perfbench/inproc.py) untraced and then traced, checks that both
give the same outputs, and prints the per-layer metrics. The last stdout
line is one JSON object: correct, attempted, failed, metrics. Exit codes:
0 all checks passed, 1 a run or output check failed, 2 usage error or no
urlsentry sources in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
INPROC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inproc.py")

MIN_REPEATS = 2
SETUP_SAMPLES = 5
ONE_URL = "http://example.org/docs/index.html"

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple[str, ...]  # the CLI call one repeat makes
    outputs: tuple[str, ...]  # files it writes besides stdout, relative to its cwd
    items: str  # the input stream whose entries are the items: train or knn
    build: tuple[str, ...] = ()  # untimed set-up training run; its artifact is "model"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare_latent",
            "the paper's five-way comparison on latent features; tree training dominates",
            ("compare", "--data", "{inputs}/train.csv", "--features", "latent", "--out", "out"),
            ("out/comparison.csv", "out/report.txt", "out/accuracy_chart.svg"),
            items="train",
        ),
        Workload(
            "predict_knn",
            "batch knn predict over fresh URLs with many exact distance ties; no tree code",
            ("predict", "--model", "{model}", "--data", "{inputs}/knn_queries.txt",
             "--out", "out"),
            ("out/safe_urls.txt",),
            items="knn",
            build=("train", "--data", "{inputs}/train.csv", "--features", "raw",
                   "--classifier", "knn", "--out", "{artifacts}"),
        ),
    )
}


class Run:
    """Paths, child environment and failure accounting of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, trace: int):
        self.workload = workload
        self.dir = os.path.join(WORK, f"{workload.name}-seed{seed}-trace{trace}-{os.getpid()}")
        self.inputs = os.path.join(self.dir, "inputs")
        self.artifacts = os.path.join(self.dir, "artifacts")
        self.model = os.path.join(self.artifacts, "model.json")
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        # the program is single-threaded; keep BLAS from adding threads of its own
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fill(self, args) -> list[str]:
        return [a.format(inputs=self.inputs, artifacts=self.artifacts, model=self.model)
                for a in args]

    def cli(self, args, cwd: str, stdout_name: str) -> measure.ChildRun:
        argv = [sys.executable, "-m", "urlsentry.cli", *self.fill(args)]
        return self.spawn(argv, cwd, stdout_name)

    def spawn(self, argv, cwd: str, stdout_name: str) -> measure.ChildRun:
        os.makedirs(cwd, exist_ok=True)
        child = measure.spawn(argv, cwd, self.env, os.path.join(cwd, stdout_name))
        self.attempted += 1
        if child.exit_code != 0:
            self.fail(f"exit {child.exit_code}: {' '.join(argv[3:])}: "
                      + _tail(child.stdout_path + ".err"))
        return child

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def _tail(path: str, limit: int = 400) -> str:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            return fh.read()[-limit:].strip()
    except OSError:
        return ""


def output_digests(workload: Workload, cwd: str) -> dict[str, str]:
    """Digest of every output of one repeat run in cwd."""
    return {rel: measure.file_digest(os.path.join(cwd, rel))
            for rel in ("stdout.txt", *workload.outputs)}


def mismatches(reference: dict[str, str], digests: dict[str, str]) -> list[str]:
    """Names whose digest differs from the reference (or is missing on either side)."""
    return sorted(k for k in reference.keys() | digests.keys()
                  if reference.get(k) != digests.get(k))


def _fresh(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _check_repeat(run: Run, reference: dict | None, cwd: str) -> dict | None:
    """Digests of the repeat in cwd, counted as failed if they differ from the reference."""
    try:
        digests = output_digests(run.workload, cwd)
    except OSError as exc:
        run.fail(f"outputs unreadable in {cwd}: {exc}")
        return reference
    if reference is not None:
        bad = mismatches(reference, digests)
        if bad:
            run.fail(f"outputs differ from the first repeat: {', '.join(bad)}")
    return digests if reference is None else reference


# --- set-up -----------------------------------------------------------------

def setup(run: Run, seed: int) -> dict:
    """Make inputs and any artifact, untimed. Returns the generator's record."""
    _fresh(run.dir)
    gen = workloads.generate(ROOT, run.inputs, seed)
    if run.workload.build:
        os.makedirs(run.artifacts)
        run.cli(run.workload.build, os.path.join(run.dir, "build"), "stdout.txt")
    else:
        # compiles bytecode once, so no set-up sample pays for it
        run.spawn([sys.executable, "-c", "import urlsentry.cli"], run.dir, "warm.txt")
    return gen


def setup_sample(run: Run) -> float:
    """Wall time of the fixed cost every invocation of the workload pays."""
    if run.workload.build:
        argv = [sys.executable, "-m", "urlsentry.cli", "predict", "--model", run.model,
                "--out", "out", ONE_URL]
    else:
        argv = [sys.executable, "-c", "import urlsentry.cli"]
    return run.spawn(argv, os.path.join(run.dir, "setup"), "stdout.txt").wall_s


# --- timed and traced loops -------------------------------------------------

def _more(start: float, seconds: float, durations: list[float], minimum: int) -> bool:
    """Start another repeat unless it would likely end over half a repeat past the deadline."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + measure.quartiles(durations)[1] / 2 < seconds


def timed_loop(run: Run, seconds: float):
    """Spawned repeats, each after one set-up sample; returns the samples and digests.

    CPU speed on a shared host drifts over tens of seconds, so set-up samples
    are spread over the whole run rather than taken back to back.
    """
    cwd = os.path.join(run.dir, "cli")
    setups, walls, peaks, reference = [], [], [], None
    start = time.perf_counter()
    while _more(start, seconds, walls, MIN_REPEATS):
        setups.append(setup_sample(run))
        _fresh(cwd)
        child = run.cli(run.workload.args, cwd, "stdout.txt")
        walls.append(child.wall_s)
        peaks.append(child.peak_rss_mb)
        if child.exit_code == 0:
            reference = _check_repeat(run, reference, cwd)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(run))
    return setups, walls, peaks, reference or {}


def _inproc(run: Run, traced: bool) -> dict | None:
    name = "traced" if traced else "plain"
    cwd = os.path.join(run.dir, name)
    _fresh(cwd)
    spec = {
        "argv": run.fill(run.workload.args),
        "stdout_path": os.path.join(cwd, "stdout.txt"),
        "cwd": cwd,
        "traced": traced,
        "result_path": os.path.join(run.dir, f"{name}.json"),
    }
    spec_path = os.path.join(run.dir, f"{name}-spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    child = run.spawn([sys.executable, INPROC, spec_path], run.dir, f"{name}-child.txt")
    if child.exit_code != 0:
        return None
    with open(spec["result_path"], "r", encoding="utf-8") as fh:
        result = json.load(fh)
    if result["exit_code"] != 0:
        run.fail(f"{name} in-process exit {result['exit_code']}: "
                 + _tail(spec["stdout_path"] + ".err"))
        return None
    result["cwd"] = cwd
    return result


def traced_loop(run: Run, seconds: float) -> tuple[list[dict], dict]:
    """Pairs of in-process runs, untraced then traced; per pair the layer metrics."""
    pairs, durations, reference = [], [], None
    start = time.perf_counter()
    while _more(start, seconds, durations, 1):
        began = time.perf_counter()
        plain = _inproc(run, traced=False)
        traced = _inproc(run, traced=True)
        durations.append(time.perf_counter() - began)
        if plain is None or traced is None:
            continue
        reference = _check_repeat(run, reference, plain["cwd"])
        reference = _check_repeat(run, reference, traced["cwd"])
        layers = dict(traced["layers"])
        layers["tracing_overhead_s"] = traced["job_s"] - plain["job_s"]
        pairs.append(layers)
    return pairs, reference or {}


# --- input properties and accuracy ------------------------------------------

def _import_program():
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import urlsentry.artifact
    import urlsentry.features

    return urlsentry


def kth_tie_share(stored, queries, k: int, chunk: int = 64) -> float:
    """Share of queries whose k-th and (k+1)-th nearest squared distances are equal.

    Distances use the same difference-based sum as the program, so an exact
    tie here is an exact tie there, decided by the lower-index rule.
    """
    import numpy as np

    if k >= len(stored):
        return 0.0
    tied = 0
    for lo in range(0, len(queries), chunk):
        q = queries[lo:lo + chunk]
        diff = stored[None, :, :] - q[:, None, :]
        sq = (diff * diff).sum(axis=2)
        part = np.partition(sq, [k - 1, k], axis=1)
        tied += int((part[:, k - 1] == part[:, k]).sum())
    return tied / len(queries)


def input_properties(run: Run, gen: dict) -> dict:
    """What the numbers depend on."""
    import numpy as np

    program = _import_program()
    with open(os.path.join(run.inputs, "train.csv"), "r", encoding="utf-8", newline="") as fh:
        urls = [row[0] for row in list(csv.reader(fh))[1:]]
    raw = program.features.featurize_many(urls)
    props = {
        "rows": raw.shape[0],
        "distinct_feature_rows": int(len(np.unique(raw, axis=0))),
        "distinct_values_per_raw_column": [int(len(np.unique(raw[:, j])))
                                           for j in range(raw.shape[1])],
        "label_noise_share": gen["label_noise_share"],
        "items": len(gen["labels"][run.workload.items]),
    }
    if run.workload.name == "predict_knn":
        art = program.artifact.load_model(run.model)
        props["artifact_bytes"] = os.path.getsize(run.model)
        props["knn_stored_rows"] = art.classifier.stored_features.shape[0]
        with open(os.path.join(run.inputs, "knn_queries.txt"), "r", encoding="utf-8") as fh:
            queries = fh.read().splitlines()
        q = program.artifact.transform_features(
            art, program.features.featurize_many(queries, art.feature_spec))
        props["knn_kth_tie_share"] = kth_tie_share(
            art.classifier.stored_features, q, art.classifier.default_k)
    return props


def accuracy(run: Run, gen: dict, cwd: str) -> float:
    """Share of correct verdicts at the 0.5 cut; deterministic for a seed."""
    name = run.workload.name
    if name == "compare_latent":
        with open(os.path.join(cwd, "out", "comparison.csv"), "r", encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        values = [float(r.rsplit(",", 1)[1]) for r in rows]
        return sum(values) / len(values)
    # predict: the CLI's own verdict column (flagged iff confidence >= 0.5)
    with open(os.path.join(cwd, "stdout.txt"), "r", encoding="utf-8") as fh:
        verdicts = [line.rsplit("\t", 1)[1] == "flagged" for line in fh.read().splitlines()]
    truth = gen["labels"][run.workload.items]
    if len(verdicts) != len(truth):
        raise ValueError(f"{len(verdicts)} verdicts for {len(truth)} URLs")
    return sum(int(v) == t for v, t in zip(verdicts, truth)) / len(truth)


# --- reporting --------------------------------------------------------------

def _summary(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = measure.quartiles(values)
    return f"{name}: median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(run: Run, gen: dict, seconds: float, record: dict) -> dict:
    setup_samples, walls, peaks, digests = timed_loop(run, seconds)
    n_items = len(gen["labels"][run.workload.items])
    rates = [n_items / w for w in walls]
    metrics = {
        "items_per_s": measure.quartiles(rates)[1],
        "setup_s": measure.quartiles(setup_samples)[1],
        "peak_rss_mb": max(peaks),
    }
    if digests:
        try:
            metrics["accuracy"] = accuracy(run, gen, os.path.join(run.dir, "cli"))
        except (OSError, ValueError, IndexError) as exc:
            run.fail(f"outputs do not parse: {exc}")
    print(_summary("items_per_s", rates, "items/s") + f", {n_items} items per repeat")
    print(_summary("setup_s", setup_samples, "s"))
    print(_summary("repeat_wall_s", walls, "s"))
    print(f"peak_rss_mb: {metrics['peak_rss_mb']:.6g} MB (max over {len(peaks)} repeats)")
    if "accuracy" in metrics:
        print(f"accuracy: {metrics['accuracy']!r} fraction")
    record.update(digests=digests, samples={"setup_s": setup_samples, "repeat_wall_s": walls,
                                            "items_per_s": rates, "peak_rss_mb": peaks})
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"us_per_url": "us", "us_per_query": "us", "bytes": "bytes"}.get(
        name.rsplit(".", 1)[-1], "count")


def run_traced(run: Run, seconds: float, record: dict) -> dict:
    pairs, digests = traced_loop(run, seconds)
    record.update(digests=digests, samples={"pairs": pairs})
    metrics = {}
    for name in (pairs[0] if pairs else {}):
        values = [p[name] for p in pairs]
        unit = layer_unit(name)
        metrics[name] = _metric(measure.quartiles(values)[1], unit)
        print(f"{name}: {metrics[name]['value']:.6g} {unit} (median of {len(values)})")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so running children are killed and reaped
    signal.signal(signal.SIGTERM, _terminate)
    for needed in ("src/urlsentry/cli.py", "tools/make_sample_data.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; nothing to measure",
                  file=sys.stderr)
            return 2

    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.trace)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {workload.why}")
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": measure.environment(ROOT)}
    print("environment: " + json.dumps(record["environment"], sort_keys=True))

    try:
        gen = setup(run, args.seed)
        if run.failed:
            print("perfbench: set-up failed: " + "; ".join(run.problems), file=sys.stderr)
            return 1
        if args.trace:
            metrics = run_traced(run, args.seconds, record)
        else:
            metrics = run_timed(run, gen, args.seconds, record)
        if workload.build and record["digests"]:
            with open(run.model, "r", encoding="utf-8") as fh:
                record["digests"]["model.json:checksum"] = json.load(fh)["checksum"]
        try:
            record["inputs"] = input_properties(run, gen)
        except (OSError, ValueError, KeyError) as exc:
            run.fail(f"input properties unavailable: {exc}")
            record["inputs"] = {}
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    print("inputs: " + json.dumps(record["inputs"], sort_keys=True))
    for name, digest in sorted(record["digests"].items()):
        print(f"digest {name} {digest}")
    share = measure.failed_share(run.failed, run.attempted)
    print(f"failed_share: {share!r} fraction ({run.failed} failed of {run.attempted} attempted)")
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)

    correct = run.failed == 0 and bool(record["digests"])
    record.update(correct=correct, attempted=run.attempted, failed=run.failed,
                  failed_share=share, problems=run.problems, metrics=metrics)
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
