"""Command line interface.

Subcommands: train, compare, evaluate, predict, report. _COMMANDS declares
the flags each one reads, and a subcommand rejects any other flag; the
config file (--config) still takes every key. _COMMANDS also declares the
settings each one needs, and a setting that neither a flag nor the config
file gives is an error naming its flag. Exit codes: 0 success (and
--help), 1 usage, config, data or file error (including unreadable or
non-UTF-8 input), 2 internal error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .artifact import load_model, save_model
from .config import CONFIG_KEYS, PipelineConfig, build_config, parse_config_file
from .errors import MalformedRow, UrlSentryError, UsageError
from .evaluation import (
    ComparisonTable,
    comparison_csv,
    render_bar_chart,
    render_comparison_report,
    render_confusion,
    render_metrics,
)
from .pipeline import read_columns, write_text
from .runner import (
    dataset_fingerprint,
    evaluate_artifact,
    load_labeled_dataset,
    make_verdicts,
    run_compare,
    train_artifact,
)


def _out_path(config: PipelineConfig, name: str) -> str:
    """The path of file name in --out, making the directory if it is missing."""
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, name)


def _print_rows(rows: list[tuple[str, float]]) -> None:
    for i, (name, acc) in enumerate(rows, start=1):
        print(f"{i}  {name:<20} {acc:.6f}")


def cmd_train(config: PipelineConfig) -> int:
    dataset, report = load_labeled_dataset(config.data_path)
    artifact = train_artifact(dataset, config, fingerprint=dataset_fingerprint(config.data_path))
    model_path = config.model_path or _out_path(config, "model.json")
    save_model(artifact, model_path)

    n = dataset.n_rows
    n_mal = int(dataset.labels.sum())
    print(f"trained classifier={config.classifier} features={config.feature_mode}")
    print(
        f"rows used: {n} ({n - n_mal} benign / {n_mal} malicious), "
        f"dropped: {report.dropped_empty} empty, {report.dropped_duplicates} duplicates"
    )
    print(f"seed: {config.seed}")
    print(f"artifact written to {model_path}")
    return 0


def cmd_compare(config: PipelineConfig) -> int:
    dataset, _ = load_labeled_dataset(config.data_path)
    table, matrices = run_compare(dataset, config)

    csv_path = write_text(_out_path(config, "comparison.csv"), comparison_csv(table))
    svg_path = write_text(_out_path(config, "accuracy_chart.svg"), render_bar_chart(table))
    report_path = write_text(_out_path(config, "report.txt"),
                             render_comparison_report(table, matrices))

    _print_rows(table.rows)
    print(f"wrote {csv_path}, {svg_path}, {report_path}")
    return 0


def cmd_evaluate(config: PipelineConfig) -> int:
    artifact = load_model(config.model_path)
    dataset, _ = load_labeled_dataset(config.data_path, spec=artifact.feature_spec)
    cm, metrics = evaluate_artifact(artifact, dataset)
    print(render_confusion(cm, artifact.classifier_kind))
    print(render_metrics(metrics), end="")
    return 0


def _read_url_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8-sig") as fh:  # drops a byte-order mark
        return [line.rstrip("\n") for line in fh]


def cmd_predict(config: PipelineConfig, *arguments: str) -> int:
    for i, argument in enumerate(arguments, start=1):  # a non-UTF-8 byte is a lone surrogate
        if argument != argument.encode(errors="replace").decode():
            raise UsageError(f"argument {i}: URL is not valid UTF-8")
    sources = [("argument", arguments)]
    if config.data_path:
        sources.append((f"{config.data_path} line", _read_url_lines(config.data_path)))

    urls = []
    for where, inputs in sources:
        for i, candidate in enumerate(inputs, start=1):
            if candidate.strip():
                urls.append(candidate.strip())
            else:
                print(f"warning: {where} {i}: empty URL skipped", file=sys.stderr)
    if not urls:
        raise UrlSentryError("no URLs to classify")

    artifact = load_model(config.model_path)
    verdicts = make_verdicts(artifact, urls, config.threshold)
    sys.stdout.write("".join(f"{v.url}\t{v.confidence:.6f}\t{v.label}\n" for v in verdicts))

    safe = [v.url for v in verdicts if v.label == "safe"]
    safe_path = write_text(_out_path(config, "safe_urls.txt"), "".join(url + "\n" for url in safe))
    print(
        f"{len(verdicts) - len(safe)} flagged, {len(safe)} safe "
        f"(threshold {config.threshold}); safe list: {safe_path}",
        file=sys.stderr,
    )
    return 0


def cmd_report(config: PipelineConfig) -> int:
    rows = []
    for line, (name, accuracy) in read_columns(config.data_path, ("classifier", "accuracy")):
        try:
            acc = float(accuracy)
        except ValueError:
            acc = math.nan
        if not name.strip() or not 0.0 <= acc <= 1.0:  # false for NaN too
            raise MalformedRow(line, "expected a classifier name and an accuracy in [0, 1]")
        rows.append((name, acc))
    if not rows:
        raise UrlSentryError("comparison CSV has no rows")
    table = ComparisonTable(
        rows=rows, split_descriptor=f"from {config.data_path}", seed=config.seed
    )
    svg_path = write_text(_out_path(config, "accuracy_chart.svg"), render_bar_chart(table))
    _print_rows(rows)
    print(f"wrote {svg_path}")
    return 0


_FLAG_HELP = {
    "config": "flat key = value config file; flags override it",
    **{key: help_text for key, (_, _, help_text) in CONFIG_KEYS.items()},
}

# Subcommand -> (handler, help, the flags it reads, the settings it needs);
# predict also takes URLs.
_COMMANDS = {
    "train": (cmd_train, "train one classifier and write an artifact",
              "data config model seed out features classifier", "data"),
    "compare": (cmd_compare, "train all five classifiers head-to-head",
                "data config seed out features", "data"),
    "evaluate": (cmd_evaluate, "score an artifact on a labeled CSV", "data config model",
                 "model data"),
    "predict": (cmd_predict, "classify URLs and emit a safe list",
                "data config model threshold out", "model"),
    "report": (cmd_report, "re-render chart/report from a comparison CSV", "data config out",
               "data"),
}


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of printing usage and exiting 2."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="urlsentry",
        description="Lexical malicious-URL detection: train, compare, and filter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(f"--{flag}", help=_FLAG_HELP[flag])
        if name == "predict":
            p.add_argument("urls", nargs="*", help="URLs given directly on the command line")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        handler, _, _, needs = _COMMANDS[args.command]
        config = build_config(
            parse_config_file(args.config) if args.config else {},
            {key: value for key, value in vars(args).items() if key in CONFIG_KEYS},
        )
        missing = [f"--{key}" for key in needs.split()
                   if getattr(config, CONFIG_KEYS[key][0]) is None]
        if missing:
            raise UrlSentryError(f"{args.command} requires {' and '.join(missing)}")
        return handler(config, *getattr(args, "urls", ()))
    except (UrlSentryError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
