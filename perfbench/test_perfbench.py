"""Self-tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import filecmp
import os
import random
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inproc  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
FILES = ("train.csv", "knn_queries.txt")


def _generate(path, seed):
    return workloads.generate(ROOT, str(path), seed)


def test_same_seed_same_files_other_seed_other_files(tmp_path):
    _generate(tmp_path / "a", 7)
    _generate(tmp_path / "b", 7)
    _generate(tmp_path / "c", 8)
    for name in FILES:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
        assert not filecmp.cmp(tmp_path / "a" / name, tmp_path / "c" / name, shallow=False)


def test_streams_are_disjoint_and_noise_is_five_percent(tmp_path):
    gen = _generate(tmp_path, 11)
    with open(tmp_path / "train.csv", encoding="utf-8") as fh:
        train = {line.rsplit(",", 1)[0] for line in fh.read().splitlines()[1:]}
    with open(tmp_path / "knn_queries.txt", encoding="utf-8") as fh:
        queries = set(fh.read().splitlines())
    assert len(train) == workloads.TRAIN_ROWS
    assert len(queries) == workloads.KNN_QUERIES
    assert not train & queries
    assert gen["label_noise_share"] == workloads.LABEL_NOISE


def test_flip_moves_each_chosen_row_to_the_other_binary_class():
    rows = [(f"u{i}", label) for i, (label, _) in
            enumerate(workloads.CLASS_MIX * 50)]
    flipped = workloads.flip_labels(rows, 0.1, random.Random(0))
    changed = [(a, b) for a, b in zip(rows, flipped) if a != b]
    assert len(changed) == 20
    for (_, before), (_, after) in changed:
        assert workloads.is_malicious(before) != workloads.is_malicious(after)


def test_quartiles_match_statistics_quantiles():
    assert measure.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (1.5, 3.0, 4.5)
    assert measure.quartiles([2.0]) == (2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        measure.quartiles([])


def test_failed_share():
    assert measure.failed_share(0, 9) == 0.0
    assert measure.failed_share(3, 12) == 0.25
    for failed, attempted in ((1, 0), (-1, 3), (4, 3)):
        with pytest.raises(ValueError):
            measure.failed_share(failed, attempted)


def test_one_byte_change_fails_the_digest_check(tmp_path):
    workload = run.WORKLOADS["predict_knn"]
    (tmp_path / "out").mkdir()
    (tmp_path / "stdout.txt").write_bytes(b"http://a.example/\t0.200000\tsafe\n")
    safe = tmp_path / "out" / "safe_urls.txt"
    safe.write_bytes(b"http://a.example/\n")
    reference = run.output_digests(workload, str(tmp_path))
    assert run.mismatches(reference, run.output_digests(workload, str(tmp_path))) == []

    safe.write_bytes(b"http://b.example/\n")
    assert run.mismatches(reference, run.output_digests(workload, str(tmp_path))) == [
        "out/safe_urls.txt"
    ]


def test_peak_rss_is_per_child_and_excludes_the_parent(tmp_path):
    big = [sys.executable, "-c", "b = b'x' * (96 << 20)"]
    small = [sys.executable, "-c", "pass"]
    env = dict(os.environ)
    # a process that calls exec passes its own peak RSS on to the new program
    ballast = b"y" * (160 << 20)
    first = measure.spawn(big, str(tmp_path), env, str(tmp_path / "big.txt"))
    second = measure.spawn(small, str(tmp_path), env, str(tmp_path / "small.txt"))
    assert len(ballast) and first.exit_code == second.exit_code == 0
    assert 96 < first.peak_rss_mb < 160
    assert second.peak_rss_mb < 48


def test_kth_tie_share():
    stored = np.array([[0.0], [1.0], [1.0], [2.0], [4.0]])
    # squared distances from 0: 0 1 1 4 16; from 4: 0 4 9 9 16
    queries = np.array([[0.0], [4.0]])
    assert run.kth_tie_share(stored, queries, k=1) == 0.0
    assert run.kth_tie_share(stored, queries, k=2) == 0.5
    assert run.kth_tie_share(stored, queries, k=3) == 0.5


def test_layer_times_and_self_time_sum_to_the_job():
    tracer = inproc.Tracer()
    inner = tracer.wrap("pipeline.clean_s", lambda: time.sleep(0.01))

    def outer_fn():
        inner()
        time.sleep(0.01)

    outer = tracer.wrap("features.featurize_s", outer_fn)
    start = time.perf_counter()
    outer()
    time.sleep(0.005)
    job_s = time.perf_counter() - start
    metrics = inproc.layer_metrics(tracer, job_s)
    assert metrics["pipeline.clean_s"] >= 0.01
    assert 0.01 <= metrics["features.featurize_s"] < 0.01 + metrics["pipeline.clean_s"]
    assert metrics["runner.self_s"] >= 0.005
    total = sum(metrics[name] for name in (*inproc.TIME_LAYERS, "runner.self_s"))
    assert total == pytest.approx(job_s, rel=1e-9)


def test_every_traced_binding_exists_in_the_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import importlib

    for module_name, attr, layer, _ in inproc.BINDINGS:
        assert callable(getattr(importlib.import_module(module_name), attr))
        assert layer in inproc.TIME_LAYERS


def test_benchmark_json_names_the_metrics_the_runs_print():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    traced = {*inproc.TIME_LAYERS, *inproc.COUNTS, "runner.self_s", "features.us_per_url",
              "knn.us_per_query", "tracing_overhead_s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in traced
    }
