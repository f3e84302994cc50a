"""Command-line entry point for reproducible batch runs.

Results go to stdout (or --out); diagnostics go to stderr.  Exit codes:
0 success, 2 validation error, 3 degenerate statistic, 64 usage, 1 internal.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

# A command imports from tracker and evalstats only what it runs, so that one
# that tracks nothing does not load them.
from .corpus import (
    Corpus,
    DegenerateStatisticError,
    GeneratorConfig,
    distribution_report,
    format_corpus,
    gen_synthetic,
    load_corpus,
    partition_by_pair,
)
from .cues import load_model, parse_cue, save_model

if TYPE_CHECKING:
    from .tracker import RunResult, TrackerConfig

USAGE_EXIT = 64
VALIDATION_EXIT = 2
DEGENERATE_EXIT = 3
INTERNAL_EXIT = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


def _config(args: argparse.Namespace) -> TrackerConfig:
    """The run's settings; a command without --delta or --method gets `TrackerConfig`'s."""
    from .tracker import TrackerConfig

    return TrackerConfig(**{f: getattr(args, f) for f in TrackerConfig._fields if hasattr(args, f)})


def _flag(name: str, **options) -> tuple[str, dict]:
    return name, options


def _tracker_flags() -> dict[str, dict]:
    """The options of the flags whose defaults are the tracker's, by flag.
    Only a command that takes one of them calls this, and so loads `tracker`."""
    from .tracker import DEFAULT_GRID, AdjustmentMethod, TrackerConfig

    default = TrackerConfig()
    return {
        "--sweep-from": dict(type=float, default=DEFAULT_GRID[0]),
        "--sweep-to": dict(type=float, default=DEFAULT_GRID[1]),
        "--sweep-step": dict(type=float, default=DEFAULT_GRID[2]),
        "--delta": dict(type=float, default=default.delta, help="adjustment increment (default %(default)s)"),
        "--method": dict(
            choices=[m.value for m in AdjustmentMethod],
            default=default.method.value,
            help="bpa adjustment method (default %(default)s)",
        ),
        "--default-x": dict(type=float, default=default.default_x, help="default speaker mass of the initiative indices"),
        "--reset-strength": dict(type=float, default=default.reset_strength, help="index mass put on the actual holder after an error"),
    }


# Flag groups, each stated once; a subcommand lists its flags in --help order.
_CORPUS = _flag("--corpus", type=Path, required=True)
_MODEL = _flag("--model", type=Path, required=True)
_TEACHER_FORCING = _flag("--teacher-forcing", type=_parse_bool, default=True, metavar="BOOL")
_INDEX = ("--default-x", "--reset-strength")
_OUTPUT = (
    _flag("--out", type=Path, default=None, help="write results here instead of stdout"),
    _flag("--format", choices=["text", "csv"], default="text", help="output format"),
)
_FROZEN = (_CORPUS, _MODEL, _TEACHER_FORCING, *_INDEX, *_OUTPUT)

# A command's handler returns the text it prints.
_Handler = Callable[[argparse.Namespace], str]
# A flag: (name, options), or a name alone whose options `_tracker_flags` gives.
_Flag = str | tuple[str, dict]
# name: (summary, flags, handler) of each subcommand, in --help order.
_COMMANDS: dict[str, tuple[str, tuple[_Flag, ...], _Handler]] = {}


def _command(name: str, summary: str, *flags: _Flag) -> Callable[[_Handler], _Handler]:
    """Register the decorated handler as subcommand `name`, taking `flags`."""

    def register(handler: _Handler) -> _Handler:
        _COMMANDS[name] = (summary, flags, handler)
        return handler

    return register


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments of `argv`.  When `argv[0]` names a command, only that
    command's parser is built, and it parses the rest.  Otherwise the
    top-level parser, whose subcommands take no flags, prints --help or a
    usage error, and exits either way."""
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        _, flags, handler = _COMMANDS[name]
        parser = _Parser(prog=f"initrack {name}")
        tracker_flags = _tracker_flags() if any(isinstance(flag, str) for flag in flags) else {}
        for flag in flags:
            flag, options = (flag, tracker_flags[flag]) if isinstance(flag, str) else flag
            parser.add_argument(flag, **options)
        parser.set_defaults(func=handler)
        return parser.parse_args(argv[1:])
    parser = _Parser(prog="initrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=summary)
    return parser.parse_args(argv)


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


def _load_points(path: Path) -> Corpus:
    """The corpus at `path`, for a command that tracks it."""
    return _require_points(load_corpus(path), path)


def _frozen(args: argparse.Namespace) -> Callable[[Corpus], RunResult]:
    """A frozen run of the model in --model, loaded once, under the command's settings."""
    from .evalstats import evaluate

    model, config = load_model(args.model), _config(args)
    return lambda corpus: evaluate(corpus, model, config, teacher_forcing=args.teacher_forcing)


@_command("validate", "parse a corpus file and report problems", _CORPUS)
def _cmd_validate(args: argparse.Namespace) -> str:
    corpus = load_corpus(args.corpus)
    return f"ok: corpus {corpus.name}: {len(corpus.dialogues)} dialogues, {corpus.turn_count} turns\n"


@_command("distribution", "joint task/dialogue initiative distribution",
          _CORPUS, _flag("--focus-agent", required=True), *_OUTPUT)
def _cmd_distribution(args: argparse.Namespace) -> str:
    corpus = load_corpus(args.corpus)
    report = distribution_report(corpus, args.focus_agent)
    cells = report.cells()
    if args.format == "csv":
        raw = report.percentages()
        lines = ["ti,di,count,pct"]
        labels = [("focus", "focus"), ("other", "focus"), ("focus", "other"), ("other", "other")]
        for (ti, di), count, pct in zip(labels, cells, raw):
            lines.append(f"{ti},{di},{count},{pct:.6f}")
        return "\n".join(lines) + "\n"
    pct = report.rounded_percentages()
    f = report.focus_agent
    return (
        f"corpus {corpus.name}: {report.total} turns, focus agent {f}\n"
        f"{'':14}{f'TI={f}':>18}{'TI=other':>18}\n"
        f"{f'DI={f}':14}{f'{cells[0]} ({pct[0]:.1f}%)':>18}{f'{cells[1]} ({pct[1]:.1f}%)':>18}\n"
        f"{'DI=other':14}{f'{cells[2]} ({pct[2]:.1f}%)':>18}{f'{cells[3]} ({pct[3]:.1f}%)':>18}\n"
    )


@_command("train", "train cue mass functions on a corpus",
          _CORPUS, _flag("--model", type=Path, default=None, help="write the trained model here"),
          "--delta", "--method", *_INDEX, *_OUTPUT)
def _cmd_train(args: argparse.Namespace) -> str:
    from .tracker import train

    result = train(_load_points(args.corpus), _config(args))
    if args.model:
        save_model(result.model, args.model)
        print(f"wrote model to {args.model}", file=sys.stderr)
    return _accuracy_lines([("train", result.run)], args.format)


@_command("eval", "evaluate a frozen model on a corpus", *_FROZEN)
def _cmd_eval(args: argparse.Namespace) -> str:
    corpus = _load_points(args.corpus)
    return _accuracy_lines([("eval", _frozen(args)(corpus))], args.format)


@_command("baseline", "keep-the-holder baseline accuracies", _CORPUS, *_OUTPUT)
def _cmd_baseline(args: argparse.Namespace) -> str:
    from .evalstats import baseline_run

    return _accuracy_lines([("baseline", baseline_run(_load_points(args.corpus)))], args.format)


@_command("xval", "leave-one-pair-out cross-validation",
          _CORPUS, _TEACHER_FORCING, "--delta", "--method", *_INDEX, *_OUTPUT)
def _cmd_xval(args: argparse.Namespace) -> str:
    from .evalstats import cross_validate, fold_table_csv

    corpus = _load_points(args.corpus)
    for _, held_out in partition_by_pair(corpus):
        _require_points(held_out, args.corpus)
    xval = cross_validate(corpus, _config(args), teacher_forcing=args.teacher_forcing)
    if args.format == "csv":
        return fold_table_csv(xval)
    rows = [(f"fold {f.pair[0]}|{f.pair[1]}", f.result) for f in xval.folds]
    rows.append(("aggregate", xval.aggregate))
    return _accuracy_lines(rows, "text")


@_command("sweep", "accuracy table over a grid of delta values",
          _CORPUS, "--sweep-from", "--sweep-to", "--sweep-step",
          _flag("--xval", action="store_true", help="score each delta by cross-validation"),
          "--method", *_INDEX, *_OUTPUT)
def _cmd_sweep(args: argparse.Namespace) -> str:
    from .tracker import delta_grid, sweep, sweep_csv

    corpus = _load_points(args.corpus)
    grid = delta_grid(args.sweep_from, args.sweep_to, args.sweep_step)
    return sweep_csv(sweep(corpus, _config(args), grid, cross_validated=args.xval))


@_command("report-errors", "per-cue shift/no-shift error tallies", *_FROZEN)
def _cmd_report_errors(args: argparse.Namespace) -> str:
    from .evalstats import error_report, error_report_csv, error_report_text

    corpus = _load_points(args.corpus)
    report = error_report(_frozen(args)(corpus), corpus)
    return error_report_csv(report) if args.format == "csv" else error_report_text(report)


@_command("compare", "baseline vs trained model across corpora",
          _flag("--corpus", type=Path, action="append", required=True, help="repeatable"), _MODEL,
          _flag("--focus-agent", required=True, help="expert agent for the control counts"),
          _TEACHER_FORCING, *_INDEX, *_OUTPUT)
def _cmd_compare(args: argparse.Namespace) -> str:
    from .evalstats import ComparisonRow, baseline_run, comparison_csv, comparison_text

    corpora = [(path, _load_points(path)) for path in args.corpus]
    frozen = _frozen(args)
    rows = []
    for path, corpus in corpora:
        if not any(args.focus_agent in d.agents for d in corpus.dialogues):
            raise ValueError(f"agent {args.focus_agent!r} takes part in no dialogue of corpus {corpus.name!r} ({path})")
        expert_ti = sum(t.ti_holder == args.focus_agent for d in corpus.dialogues for t in d.turns)
        expert_di = sum(t.di_holder == args.focus_agent for d in corpus.dialogues for t in d.turns)
        rows.append(
            ComparisonRow(
                corpus_name=corpus.name,
                baseline=baseline_run(corpus),
                trained=frozen(corpus),
                expert_ti_turns=expert_ti,
                expert_di_turns=expert_di,
                total_turns=corpus.turn_count,
            )
        )
    return comparison_csv(rows) if args.format == "csv" else comparison_text(rows)


def _data_lines(path: Path) -> Iterator[str]:
    """The non-blank lines of a file that are not `#` comments, stripped."""
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line


@_command("kappa", "multi-rater agreement from a ratings file",
          _flag("--ratings", type=Path, required=True, help="one line per item, one category token per rater"), *_OUTPUT)
def _cmd_kappa(args: argparse.Namespace) -> str:
    from .evalstats import kappa

    value = kappa([line.split() for line in _data_lines(args.ratings)])
    return f"kappa,{value:.6f}\n" if args.format == "csv" else f"kappa = {value:.6f}\n"


@_command("cochran-q", "Cochran's Q over matched binary outcomes",
          _flag("--outcomes", type=Path, required=True, help="one line per subject, 0/1 per treatment"), *_OUTPUT)
def _cmd_cochran_q(args: argparse.Namespace) -> str:
    from .evalstats import cochran_q

    result = cochran_q([[int(tok) for tok in line.split()] for line in _data_lines(args.outcomes)])
    if args.format == "csv":
        return f"q,df,p\n{result.statistic:.6f},{result.df},{result.p_value:.6g}\n"
    return f"Q = {result.statistic:.6f}, df = {result.df}, p = {result.p_value:.6g}\n"


def _parse_prob_table(entries: list[str]) -> dict:
    table = {}
    for entry in entries:
        token, sep, value = entry.rpartition("=")
        if not sep:
            raise ValueError(f"expected KIND=P, got {entry!r}")
        table[parse_cue(token)] = float(value)
    return table


_GENERATOR = GeneratorConfig()  # the defaults of gen-synthetic's flags


@_command(
    "gen-synthetic", "generate a seeded synthetic corpus",
    _flag("--seed", type=int, default=0),
    _flag("--name", default=_GENERATOR.name),
    _flag("--dialogues", type=int, default=_GENERATOR.dialogues),
    _flag("--turns", type=int, default=_GENERATOR.turns_per_dialogue),
    _flag("--pairs", type=int, default=_GENERATOR.pairs),
    _flag("--cue-emit", action="append", default=[], metavar="KIND=P", help="repeatable"),
    _flag("--cue-shift", action="append", default=[], metavar="KIND=P", help="repeatable"),
    _flag("--base-shift-task", type=float, default=_GENERATOR.base_shift_task),
    _flag("--base-shift-dialogue", type=float, default=_GENERATOR.base_shift_dialogue),
    _flag("--out", type=Path, default=None),
)
def _cmd_gen_synthetic(args: argparse.Namespace) -> str:
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
    return format_corpus(gen_synthetic(config, args.seed))


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    # The command's text is written only once it has returned, so a failing
    # command leaves stdout and its --out file untouched.  Warnings print as
    # one line each, and an in-process caller's handler is restored after.
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            text = args.func(args)
            if getattr(args, "out", None):
                with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0
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
