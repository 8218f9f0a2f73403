"""Seeded workload inputs for the benchmark.

Every file is made from the workload seed alone, with the URL makers of
tools/make_sample_data.py (imported, never edited). Rows follow the makers'
class mix (benign 50%, phishing 25%, defacement 12.5%, malware 12.5%); every
URL is distinct across the training set and the prediction stream, so the
stream never repeats a training URL.

Label noise: exactly 5% of the training rows, chosen by the seed, get the
opposite binary class (a malicious row becomes "benign"; a benign row becomes
an attack class drawn by the seed). The prediction stream keeps the makers'
own labels, so predict accuracy is measured against the uncorrupted truth.
"""

from __future__ import annotations

import csv
import importlib.util
import os
import random

TRAIN_ROWS = 3_000
KNN_QUERIES = 5_000
LABEL_NOISE = 0.05
CLASS_MIX = (("benign", 0.5), ("phishing", 0.25), ("defacement", 0.125), ("malware", 0.125))
ATTACK_CLASSES = ("phishing", "defacement", "malware")


def load_makers(root: str):
    """The maker module of tools/make_sample_data.py under a checkout root."""
    path = os.path.join(root, "tools", "make_sample_data.py")
    spec = importlib.util.spec_from_file_location("make_sample_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _draw(makers, rng: random.Random, n: int, seen: set[str]) -> list[tuple[str, str]]:
    """n distinct (url, type) rows in class-mix proportion, shuffled."""
    quotas = [(label, round(n * share)) for label, share in CLASS_MIX]
    quotas[0] = (quotas[0][0], n - sum(q for _, q in quotas[1:]))
    rows = []
    for label, count in quotas:
        maker = getattr(makers, label)
        made = 0
        while made < count:
            url = maker(rng)
            if url in seen:
                continue
            seen.add(url)
            rows.append((url, label))
            made += 1
    rng.shuffle(rows)
    return rows


def flip_labels(rows: list[tuple[str, str]], share: float, rng: random.Random):
    """Copy of rows with round(share * n) seeded rows moved to the other binary class."""
    out = list(rows)
    for i in sorted(rng.sample(range(len(rows)), round(share * len(rows)))):
        url, label = rows[i]
        out[i] = (url, rng.choice(ATTACK_CLASSES) if label == "benign" else "benign")
    return out


def is_malicious(label: str) -> int:
    return 0 if label == "benign" else 1


def generate(root: str, out_dir: str, seed: int) -> dict:
    """Write train.csv and knn_queries.txt; return their labels.

    The returned dict maps each file to its 0/1 truth labels and records
    the label noise applied.
    """
    makers = load_makers(root)
    rng = random.Random(seed)
    seen: set[str] = set()
    clean_rows = _draw(makers, rng, TRAIN_ROWS, seen)
    train = flip_labels(clean_rows, LABEL_NOISE, rng)
    knn_stream = _draw(makers, rng, KNN_QUERIES, seen)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "train.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["url", "type"])
        writer.writerows(train)
    with open(os.path.join(out_dir, "knn_queries.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.writelines(url + "\n" for url, _ in knn_stream)

    flipped = sum(a[1] != b[1] for a, b in zip(clean_rows, train))
    labels = {"train": [is_malicious(t) for _, t in train],
              "knn": [is_malicious(t) for _, t in knn_stream]}
    return {"labels": labels, "label_noise_share": flipped / len(train)}
