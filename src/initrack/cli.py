"""Command-line entry point for reproducible batch runs.

Results go to stdout (or --out); diagnostics go to stderr.  Exit codes:
0 success, 2 validation error, 3 degenerate statistic, 64 usage, 1 internal.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterator, Sequence

from .corpus import (
    Corpus,
    GeneratorConfig,
    distribution_report,
    format_corpus,
    gen_synthetic,
    load_corpus,
    partition_by_pair,
)
from .cues import load_model, parse_cue, save_model
from .evalstats import (
    ComparisonRow,
    DegenerateStatisticError,
    RunResult,
    baseline_run,
    cochran_q,
    comparison_csv,
    comparison_text,
    cross_validate,
    error_report,
    error_report_csv,
    error_report_text,
    evaluate,
    fold_table_csv,
    kappa,
)
from .tracker import DEFAULT_GRID, AdjustmentMethod, TrackerConfig, delta_grid, sweep, sweep_csv, train

USAGE_EXIT = 64
VALIDATION_EXIT = 2
DEGENERATE_EXIT = 3
INTERNAL_EXIT = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


class _CommandParser(_Parser):
    """A subcommand's parser: it reports its own unrecognised arguments, with
    its own usage, instead of handing them up to the top-level parser."""

    def parse_known_args(  # type: ignore[override]
        self, args: Sequence[str] | None = None, namespace: argparse.Namespace | None = None
    ) -> tuple[argparse.Namespace, list[str]]:
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


def _add_tracker_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delta", type=float, default=TrackerConfig.delta, help="adjustment increment (default %(default)s)")
    _add_method_flags(parser)


def _add_method_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        choices=[m.value for m in AdjustmentMethod],
        default=TrackerConfig.method.value,
        help="bpa adjustment method (default %(default)s)",
    )
    _add_index_flags(parser)


def _add_index_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--default-x", type=float, default=TrackerConfig.default_x, help="default speaker mass of the initiative indices")
    parser.add_argument("--reset-strength", type=float, default=TrackerConfig.reset_strength, help="index mass put on the actual holder after an error")


def _config(args: argparse.Namespace) -> TrackerConfig:
    """The run's settings; a command without --delta or --method gets `TrackerConfig`'s."""
    return TrackerConfig(
        delta=getattr(args, "delta", TrackerConfig.delta),
        method=AdjustmentMethod(getattr(args, "method", TrackerConfig.method.value)),
        default_x=args.default_x,
        reset_strength=args.reset_strength,
    )


def _add_common_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=None, help="write results here instead of stdout")
    parser.add_argument("--format", choices=["text", "csv"], default="text", help="output format")


def _build_parser() -> _Parser:
    parser = _Parser(prog="initrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser("validate", help="parse a corpus file and report problems")
    p.add_argument("--corpus", type=Path, required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("distribution", help="joint task/dialogue initiative distribution")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--focus-agent", required=True)
    _add_common_output(p)
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser("train", help="train cue mass functions on a corpus")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--model", type=Path, default=None, help="write the trained model here")
    _add_tracker_flags(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a frozen model on a corpus")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--teacher-forcing", type=_parse_bool, default=True, metavar="BOOL")
    _add_index_flags(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("baseline", help="keep-the-holder baseline accuracies")
    p.add_argument("--corpus", type=Path, required=True)
    _add_common_output(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("xval", help="leave-one-pair-out cross-validation")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--teacher-forcing", type=_parse_bool, default=True, metavar="BOOL")
    _add_tracker_flags(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_xval)

    p = sub.add_parser("sweep", help="accuracy table over a grid of delta values")
    p.add_argument("--corpus", type=Path, required=True)
    for flag, default in zip(("--sweep-from", "--sweep-to", "--sweep-step"), DEFAULT_GRID):
        p.add_argument(flag, type=float, default=default)
    p.add_argument("--xval", action="store_true", help="score each delta by cross-validation")
    _add_method_flags(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report-errors", help="per-cue shift/no-shift error tallies")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--teacher-forcing", type=_parse_bool, default=True, metavar="BOOL")
    _add_index_flags(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_report_errors)

    p = sub.add_parser("compare", help="baseline vs trained model across corpora")
    p.add_argument("--corpus", type=Path, action="append", required=True, help="repeatable")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--focus-agent", required=True, help="expert agent for the control counts")
    p.add_argument("--teacher-forcing", type=_parse_bool, default=True, metavar="BOOL")
    _add_index_flags(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("kappa", help="multi-rater agreement from a ratings file")
    p.add_argument("--ratings", type=Path, required=True, help="one line per item, one category token per rater")
    _add_common_output(p)
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("cochran-q", help="Cochran's Q over matched binary outcomes")
    p.add_argument("--outcomes", type=Path, required=True, help="one line per subject, 0/1 per treatment")
    _add_common_output(p)
    p.set_defaults(func=_cmd_cochran_q)

    p = sub.add_parser("gen-synthetic", help="generate a seeded synthetic corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default=GeneratorConfig.name)
    p.add_argument("--dialogues", type=int, default=GeneratorConfig.dialogues)
    p.add_argument("--turns", type=int, default=GeneratorConfig.turns_per_dialogue)
    p.add_argument("--pairs", type=int, default=GeneratorConfig.pairs)
    p.add_argument("--cue-emit", action="append", default=[], metavar="KIND=P", help="repeatable")
    p.add_argument("--cue-shift", action="append", default=[], metavar="KIND=P", help="repeatable")
    p.add_argument("--base-shift-task", type=float, default=GeneratorConfig.base_shift_task)
    p.add_argument("--base-shift-dialogue", type=float, default=GeneratorConfig.base_shift_dialogue)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_gen_synthetic)

    return parser


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _accuracy_lines(label_results: list[tuple[str, RunResult]], fmt: str) -> str:
    if fmt == "csv":
        lines = ["dim,correct,total,accuracy"]
        for _, result in label_results:
            lines.append(f"task,{result.task_correct},{result.predictions},{result.task_accuracy:.6f}")
            lines.append(f"dialogue,{result.dialogue_correct},{result.predictions},{result.dialogue_accuracy:.6f}")
        return "\n".join(lines) + "\n"
    lines = []
    for label, result in label_results:
        lines.append(
            f"{label}: task {result.task_correct}/{result.predictions} ({100 * result.task_accuracy:.1f}%), "
            f"dialogue {result.dialogue_correct}/{result.predictions} ({100 * result.dialogue_accuracy:.1f}%)"
        )
    return "\n".join(lines) + "\n"


def _require_points(corpus: Corpus, path: Path) -> Corpus:
    """`corpus`, read from `path`; tracking one with no prediction point is a degenerate run."""
    if not any(len(d.turns) > 1 for d in corpus.dialogues):
        raise DegenerateStatisticError(
            f"corpus {corpus.name!r} ({path}) has no prediction point: no dialogue has two turns"
        )
    return corpus


def _cmd_validate(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    sys.stdout.write(f"ok: corpus {corpus.name}: {len(corpus.dialogues)} dialogues, {corpus.turn_count} turns\n")
    return 0


def _cmd_distribution(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    report = distribution_report(corpus, args.focus_agent)
    cells = report.cells()
    if args.format == "csv":
        raw = report.percentages()
        lines = ["ti,di,count,pct"]
        labels = [("focus", "focus"), ("other", "focus"), ("focus", "other"), ("other", "other")]
        for (ti, di), count, pct in zip(labels, cells, raw):
            lines.append(f"{ti},{di},{count},{pct:.6f}")
        text = "\n".join(lines) + "\n"
    else:
        pct = report.rounded_percentages()
        f = report.focus_agent
        text = (
            f"corpus {corpus.name}: {report.total} turns, focus agent {f}\n"
            f"{'':14}{f'TI={f}':>18}{'TI=other':>18}\n"
            f"{f'DI={f}':14}{f'{cells[0]} ({pct[0]:.1f}%)':>18}{f'{cells[1]} ({pct[1]:.1f}%)':>18}\n"
            f"{'DI=other':14}{f'{cells[2]} ({pct[2]:.1f}%)':>18}{f'{cells[3]} ({pct[3]:.1f}%)':>18}\n"
        )
    _emit(args, text)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = _require_points(load_corpus(args.corpus), args.corpus)
    result = train(corpus, _config(args))
    if args.model:
        save_model(result.model, args.model)
        print(f"wrote model to {args.model}", file=sys.stderr)
    _emit(args, _accuracy_lines([("train", result.run)], args.format))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    corpus = _require_points(load_corpus(args.corpus), args.corpus)
    model = load_model(args.model)
    result = evaluate(corpus, model, _config(args), teacher_forcing=args.teacher_forcing)
    _emit(args, _accuracy_lines([("eval", result)], args.format))
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    corpus = _require_points(load_corpus(args.corpus), args.corpus)
    result = baseline_run(corpus)
    _emit(args, _accuracy_lines([("baseline", result)], args.format))
    return 0


def _cmd_xval(args: argparse.Namespace) -> int:
    corpus = _require_points(load_corpus(args.corpus), args.corpus)
    for _, held_out in partition_by_pair(corpus):
        _require_points(held_out, args.corpus)
    xval = cross_validate(corpus, _config(args), teacher_forcing=args.teacher_forcing)
    if args.format == "csv":
        _emit(args, fold_table_csv(xval))
    else:
        rows = [(f"fold {f.pair[0]}|{f.pair[1]}", f.result) for f in xval.folds]
        rows.append(("aggregate", xval.aggregate))
        _emit(args, _accuracy_lines(rows, "text"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    corpus = _require_points(load_corpus(args.corpus), args.corpus)
    grid = delta_grid(args.sweep_from, args.sweep_to, args.sweep_step)
    rows = sweep(corpus, _config(args), grid, cross_validated=args.xval)
    _emit(args, sweep_csv(rows))
    return 0


def _cmd_report_errors(args: argparse.Namespace) -> int:
    corpus = _require_points(load_corpus(args.corpus), args.corpus)
    model = load_model(args.model)
    run = evaluate(corpus, model, _config(args), teacher_forcing=args.teacher_forcing)
    report = error_report(run, corpus)
    _emit(args, error_report_csv(report) if args.format == "csv" else error_report_text(report))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    config = _config(args)
    rows = []
    for path in args.corpus:
        corpus = _require_points(load_corpus(path), path)
        if not any(args.focus_agent in d.agents for d in corpus.dialogues):
            raise ValueError(f"agent {args.focus_agent!r} takes part in no dialogue of corpus {corpus.name!r} ({path})")
        expert_ti = sum(t.ti_holder == args.focus_agent for d in corpus.dialogues for t in d.turns)
        expert_di = sum(t.di_holder == args.focus_agent for d in corpus.dialogues for t in d.turns)
        rows.append(
            ComparisonRow(
                corpus_name=corpus.name,
                baseline=baseline_run(corpus),
                trained=evaluate(corpus, model, config, teacher_forcing=args.teacher_forcing),
                expert_ti_turns=expert_ti,
                expert_di_turns=expert_di,
                total_turns=corpus.turn_count,
            )
        )
    _emit(args, comparison_csv(rows) if args.format == "csv" else comparison_text(rows))
    return 0


def _data_lines(path: Path) -> Iterator[str]:
    """The non-blank lines of a file that are not `#` comments, stripped."""
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line


def _cmd_kappa(args: argparse.Namespace) -> int:
    value = kappa([line.split() for line in _data_lines(args.ratings)])
    _emit(args, f"kappa,{value:.6f}\n" if args.format == "csv" else f"kappa = {value:.6f}\n")
    return 0


def _cmd_cochran_q(args: argparse.Namespace) -> int:
    result = cochran_q([[int(tok) for tok in line.split()] for line in _data_lines(args.outcomes)])
    if args.format == "csv":
        text = f"q,df,p\n{result.statistic:.6f},{result.df},{result.p_value:.6g}\n"
    else:
        text = f"Q = {result.statistic:.6f}, df = {result.df}, p = {result.p_value:.6g}\n"
    _emit(args, text)
    return 0


def _parse_prob_table(entries: list[str]) -> dict:
    table = {}
    for entry in entries:
        token, sep, value = entry.rpartition("=")
        if not sep:
            raise ValueError(f"expected KIND=P, got {entry!r}")
        table[parse_cue(token)] = float(value)
    return table


def _cmd_gen_synthetic(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        name=args.name,
        dialogues=args.dialogues,
        turns_per_dialogue=args.turns,
        pairs=args.pairs,
        cue_emit=_parse_prob_table(args.cue_emit),
        cue_shift=_parse_prob_table(args.cue_shift),
        base_shift_task=args.base_shift_task,
        base_shift_dialogue=args.base_shift_dialogue,
    )
    corpus = gen_synthetic(config, args.seed)
    _emit(args, format_corpus(corpus))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except DegenerateStatisticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DEGENERATE_EXIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
