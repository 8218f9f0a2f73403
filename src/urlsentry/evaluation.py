"""Confusion matrices, derived metrics, the five-way comparison, and reports.

The positive class is always malicious (= 1): detection rate and false
positive rate are only meaningful under that convention. Metric values are
printed at full float precision so a reader can recompute them from the
printed cells exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifact import CLASSIFIERS
from .config import PipelineConfig
from .errors import DimensionMismatch, EmptyInput
from .pipeline import SCORING_CUT, Dataset

# Fixed comparison row order; serials 1-5 in every emitted table.
CLASSIFIER_ORDER = tuple(kind.display_name for kind in CLASSIFIERS.values())


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    false_positive_rate: float
    f1: float
    degenerate: tuple[str, ...] = ()


@dataclass
class ComparisonTable:
    rows: list[tuple[str, float]]
    split_descriptor: str
    seed: int


def confusion_matrix(predicted, truth) -> ConfusionMatrix:
    """Count (predicted, truth) pairs; a pair that is neither (1, 1), (1, 0)
    nor (0, 0) counts as a false negative."""
    p, t = np.asarray(predicted), np.asarray(truth)
    if len(p) != len(t):
        raise DimensionMismatch(f"{len(p)} predictions vs {len(t)} truths")
    if len(p) == 0:
        raise EmptyInput("cannot evaluate zero examples")
    tp = int(np.count_nonzero((p == 1) & (t == 1)))
    fp = int(np.count_nonzero((p == 1) & (t == 0)))
    tn = int(np.count_nonzero((p == 0) & (t == 0)))
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=len(p) - tp - fp - tn)


def _ratio(num: int, denom: int, name: str, degenerate: list[str]) -> float:
    if denom == 0:
        degenerate.append(name)
        return 0.0
    return num / denom


def compute_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Standard metrics; 0/0 ratios report 0 and are flagged degenerate."""
    if cm.total == 0:
        raise EmptyInput("confusion matrix holds zero examples")
    degenerate: list[str] = []
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = _ratio(cm.tp, cm.tp + cm.fp, "precision", degenerate)
    recall = _ratio(cm.tp, cm.tp + cm.fn, "recall", degenerate)
    fpr = _ratio(cm.fp, cm.fp + cm.tn, "false_positive_rate", degenerate)
    f1 = _ratio(2 * cm.tp, 2 * cm.tp + cm.fp + cm.fn, "f1", degenerate)
    return MetricsReport(
        accuracy=accuracy, precision=precision, recall=recall,
        false_positive_rate=fpr, f1=f1, degenerate=tuple(degenerate),
    )


def compare_classifiers(
    train: Dataset,
    test: Dataset,
    config: PipelineConfig,
    split_descriptor: str = "",
) -> tuple[ComparisonTable, dict[str, ConfusionMatrix]]:
    """Train every registered classifier on identical data and score the same test set.

    Row order is the registry order (MLP, K-NN, XGB, Gradient Boosting,
    Random Forest) and the whole run is deterministic in config.seed.
    """
    if train.n_rows == 0 or test.n_rows == 0:
        raise EmptyInput("both partitions must be non-empty")

    rows = []
    matrices = {}
    for kind in CLASSIFIERS.values():
        model = kind.train(train, config)
        cm = confusion_matrix(kind.predict(model, test.features) >= SCORING_CUT, test.labels)
        matrices[kind.display_name] = cm
        rows.append((kind.display_name, compute_metrics(cm).accuracy))
    table = ComparisonTable(rows=rows, split_descriptor=split_descriptor, seed=config.seed)
    return table, matrices


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_confusion(cm: ConfusionMatrix, name: str) -> str:
    """Fixed-width 2x2 grid, truth rows x predicted columns."""
    lines = [
        f"Confusion matrix: {name}",
        f"{'':<16} {'pred=benign':>12} {'pred=malicious':>15}",
        f"{'truth=benign':<16} {cm.tn:>12} {cm.fp:>15}",
        f"{'truth=malicious':<16} {cm.fn:>12} {cm.tp:>15}",
    ]
    return "\n".join(lines) + "\n"


def render_metrics(report: MetricsReport) -> str:
    lines = [
        f"accuracy            = {report.accuracy!r}",
        f"precision           = {report.precision!r}",
        f"recall              = {report.recall!r}",
        f"false_positive_rate = {report.false_positive_rate!r}",
        f"f1                  = {report.f1!r}",
    ]
    if report.degenerate:
        lines.append(f"degenerate (0/0 reported as 0): {', '.join(report.degenerate)}")
    return "\n".join(lines) + "\n"


def render_comparison_report(
    table: ComparisonTable, matrices: dict[str, ConfusionMatrix]
) -> str:
    """Full text report: table, per-classifier matrices + metrics, footer."""
    out = ["Classifier comparison", "=" * 60]
    if table.split_descriptor:
        out.append(f"split: {table.split_descriptor}")
    out.append(f"seed: {table.seed}")
    out.append("")
    out.append(f"{'Serial':>6}  {'Classifier':<20} {'Accuracy':>12}")
    for i, (name, acc) in enumerate(table.rows, start=1):
        out.append(f"{i:>6}  {name:<20} {acc:>12.6f}")
    out.append("")
    for name, _ in table.rows:
        cm = matrices[name]
        out.append(render_confusion(cm, name))
        out.append(render_metrics(compute_metrics(cm)))
    best_name, best_acc = max(table.rows, key=lambda r: r[1])
    out.append("-" * 60)
    out.append(
        f"Best classifier by measured accuracy on this split: "
        f"{best_name} ({best_acc:.6f})"
    )
    out.append("Rankings are split- and dataset-dependent; re-evaluate before relying on them.")
    return "\n".join(out) + "\n"


def comparison_csv(table: ComparisonTable) -> str:
    """Machine-readable table: header classifier,accuracy, full precision."""
    lines = ["classifier,accuracy"]
    for name, acc in table.rows:
        lines.append(f"{name},{acc!r}")
    return "\n".join(lines) + "\n"


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_bar_chart(table: ComparisonTable) -> str:
    """A deterministic SVG bar chart, one bar per row, y axis [0, 1]."""
    if not table.rows:
        raise EmptyInput("cannot chart an empty comparison table")
    width, height = 640, 420
    left, right, top, bottom = 60, 20, 30, 70
    plot_w = width - left - right
    plot_h = height - top - bottom
    n = len(table.rows)
    slot = plot_w / n
    bar_w = slot * 0.6

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="18" font-family="monospace" font-size="14">'
        'Classifier accuracy</text>',
    ]
    # y axis with 0.0 .. 1.0 gridlines
    for tick in range(0, 11, 2):
        frac = tick / 10.0
        y = top + plot_h * (1.0 - frac)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{width - right}" y2="{y:.1f}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{frac:.1f}</text>'
        )
    for i, (name, acc) in enumerate(table.rows):
        x = left + i * slot + (slot - bar_w) / 2
        bar_h = plot_h * acc
        y = top + plot_h - bar_h
        parts.append(
            f'<rect class="bar" x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
            f'height="{bar_h:.1f}" fill="#4477aa"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{y - 5:.1f}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{acc:.6f}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{top + plot_h + 16:.1f}" '
            f'text-anchor="middle" font-family="monospace" font-size="11">'
            f'{_svg_escape(name)}</text>'
        )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{width - right}" '
        f'y2="{top + plot_h}" stroke="black" stroke-width="1"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
