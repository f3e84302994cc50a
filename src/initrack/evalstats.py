"""Frozen-model evaluation, baselines, cross-validation, and test statistics.

Evaluation replays the tracker loop without touching the learned model.  By
default it is teacher forced: a mispredicted index is still re-anchored on
the annotated holder, so one early error does not cascade through the
dialogue.  Closed-loop tracking is available behind a flag.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Hashable, Sequence

from .corpus import Corpus, partition_by_pair
from .cues import CueKind, CueModel, Dimension, canonical_specs
from .tracker import RunResult, TrackerConfig, track, train


class DegenerateStatisticError(ValueError):
    """Raised when a statistic is undefined on the given data (0/0 chance terms)."""


# ---------------------------------------------------------------------------
# Runs


def evaluate(
    corpus: Corpus,
    model: CueModel,
    config: TrackerConfig,
    *,
    teacher_forcing: bool = True,
) -> RunResult:
    """Run the tracker over a corpus with the model frozen."""
    return track(corpus.dialogues, model, config, learn=False, reset_on_error=teacher_forcing)


def baseline_run(corpus: Corpus) -> RunResult:
    """The no-cue predictor: the initiative stays with its current holder."""
    ti_ok, di_ok, ti_speaker, di_speaker = bytearray(), bytearray(), bytearray(), bytearray()
    for dialogue in corpus.dialogues:
        turns = dialogue.turns
        for turn, nxt in zip(turns, islice(turns, 1, None)):
            ti_ok.append(turn.ti_holder == nxt.ti_holder)
            di_ok.append(turn.di_holder == nxt.di_holder)
            ti_speaker.append(turn.ti_holder == turn.speaker)
            di_speaker.append(turn.di_holder == turn.speaker)
    return RunResult(corpus.dialogues, bytes(ti_ok), bytes(di_ok), bytes(ti_speaker), bytes(di_speaker))


@dataclass(frozen=True)
class Fold:
    pair: tuple[str, str]
    result: RunResult


@dataclass(frozen=True)
class CrossValidationResult:
    folds: tuple[Fold, ...]

    @property
    def aggregate(self) -> RunResult:
        return RunResult.concat([fold.result for fold in self.folds])


def cross_validate(
    corpus: Corpus,
    config: TrackerConfig,
    *,
    teacher_forcing: bool = True,
) -> CrossValidationResult:
    """Leave-one-pair-out: train on the other groups, test on the held-out one."""
    groups = partition_by_pair(corpus)
    if len(groups) < 2:
        raise ValueError("cross-validation needs at least two speaker/hearer pair groups")
    folds = []
    for key, held_out in groups:
        train_dialogues = tuple(d for d in corpus.dialogues if d.agents != key)
        train_corpus = Corpus(f"{corpus.name}!{key[0]},{key[1]}", train_dialogues)
        trained = train(train_corpus, config)
        result = evaluate(held_out, trained.model, config, teacher_forcing=teacher_forcing)
        folds.append(Fold(key, result))
    return CrossValidationResult(tuple(folds))


def fold_table_csv(xval: CrossValidationResult) -> str:
    lines = ["fold,dim,correct,total,accuracy"]
    rows: list[tuple[str, RunResult]] = [(f"{f.pair[0]}|{f.pair[1]}", f.result) for f in xval.folds]
    rows.append(("all", xval.aggregate))
    for label, result in rows:
        lines.append(f"{label},task,{result.task_correct},{result.predictions},{result.task_accuracy:.6f}")
        lines.append(
            f"{label},dialogue,{result.dialogue_correct},{result.predictions},{result.dialogue_accuracy:.6f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Error report (per-cue shift / no-shift tallies)


@dataclass
class ErrorCell:
    shift_errors: int = 0
    shift_total: int = 0
    noshift_errors: int = 0
    noshift_total: int = 0


@dataclass(frozen=True)
class ErrorReport:
    """Per (cue, dimension) tallies of shift vs. no-shift prediction points."""

    cells: dict[tuple[CueKind, Dimension], ErrorCell]

    def cell(self, kind: CueKind, dimension: Dimension) -> ErrorCell:
        return self.cells[(kind, dimension)]


def error_report(run: RunResult, corpus: Corpus) -> ErrorReport:
    """Classify each cue-bearing prediction point as shift or no-shift.

    A point is a Shift for a dimension when the next turn's holder differs
    from the predicting turn's holder.  A point with several cues counts
    toward each of them.  The run must cover the corpus's prediction points,
    dialogue by dialogue; its dialogues may come in another order (a
    cross-validated run holds them in fold order), since tallies are sums.
    """
    if run.predictions != sum(len(d.turns) - 1 for d in corpus.dialogues):
        raise ValueError("run does not match corpus: differing prediction point counts")
    points = {dialogue.id: len(dialogue.turns) - 1 for dialogue in run.dialogues}
    for dialogue in corpus.dialogues:
        if points.get(dialogue.id) != len(dialogue.turns) - 1:
            raise ValueError(f"run does not match corpus: dialogue {dialogue.id!r} differs")
    cells = {
        (spec.kind, dim): ErrorCell() for spec in canonical_specs() for dim in (Dimension.TASK, Dimension.DIALOGUE)
    }
    task_cells = {spec.kind: cells[(spec.kind, Dimension.TASK)] for spec in canonical_specs()}
    dialogue_cells = {spec.kind: cells[(spec.kind, Dimension.DIALOGUE)] for spec in canonical_specs()}
    ti_ok, di_ok = run.ti_ok, run.di_ok
    k = 0
    for dialogue in run.dialogues:
        turns = dialogue.turns
        for turn, nxt in zip(turns, islice(turns, 1, None)):
            if turn.cues:
                ti_shift = nxt.ti_holder != turn.ti_holder
                di_shift = nxt.di_holder != turn.di_holder
                ti_wrong = not ti_ok[k]
                di_wrong = not di_ok[k]
                for kind in turn.cues:
                    _tally(task_cells[kind], ti_shift, ti_wrong)
                    _tally(dialogue_cells[kind], di_shift, di_wrong)
            k += 1
    return ErrorReport(cells)


def _tally(cell: ErrorCell, shift: bool, wrong: bool) -> None:
    if shift:
        cell.shift_total += 1
        cell.shift_errors += wrong
    else:
        cell.noshift_total += 1
        cell.noshift_errors += wrong


def error_report_csv(report: ErrorReport) -> str:
    lines = ["cue,dim,shift_err,shift_tot,noshift_err,noshift_tot"]
    for spec in canonical_specs():
        for dim in (Dimension.TASK, Dimension.DIALOGUE):
            cell = report.cell(spec.kind, dim)
            lines.append(
                f"{spec.kind},{dim},{cell.shift_errors},{cell.shift_total},"
                f"{cell.noshift_errors},{cell.noshift_total}"
            )
    return "\n".join(lines) + "\n"


def error_report_text(report: ErrorReport) -> str:
    lines = [f"{'cue':32}{'dim':10}{'shift err/tot':>14}{'no-shift err/tot':>18}"]
    for spec in canonical_specs():
        for dim in (Dimension.TASK, Dimension.DIALOGUE):
            cell = report.cell(spec.kind, dim)
            if cell.shift_total == 0 and cell.noshift_total == 0:
                continue
            shift = f"{cell.shift_errors}/{cell.shift_total}"
            noshift = f"{cell.noshift_errors}/{cell.noshift_total}"
            lines.append(f"{str(spec.kind):32}{str(dim):10}{shift:>14}{noshift:>18}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Comparison table


@dataclass(frozen=True)
class ComparisonRow:
    corpus_name: str
    baseline: RunResult
    trained: RunResult
    expert_ti_turns: int
    expert_di_turns: int
    total_turns: int


def _pct(count: int, total: int) -> float:
    return 100.0 * count / total if total else float("nan")


def comparison_csv(rows: Sequence[ComparisonRow]) -> str:
    lines = ["corpus,dim,expert_pct,baseline_pct,trained_pct,improvement_pts"]
    for row in rows:
        for dim, expert, base, trained in (
            ("task", row.expert_ti_turns, row.baseline.task_accuracy, row.trained.task_accuracy),
            ("dialogue", row.expert_di_turns, row.baseline.dialogue_accuracy, row.trained.dialogue_accuracy),
        ):
            expert_pct = _pct(expert, row.total_turns)
            lines.append(
                f"{row.corpus_name},{dim},{expert_pct:.6f},{100 * base:.6f},{100 * trained:.6f},"
                f"{100 * (trained - base):.6f}"
            )
    return "\n".join(lines) + "\n"


def comparison_text(rows: Sequence[ComparisonRow]) -> str:
    """Human-readable comparison; improvements are differences of the
    one-decimal percentages, matching how such tables are usually printed."""
    lines = [f"{'corpus':20}{'dim':10}{'expert':>16}{'baseline':>18}{'trained':>18}{'improvement':>13}"]
    for row in rows:
        for dim, expert, base_res, trained_res in (
            ("task", row.expert_ti_turns, (row.baseline.task_correct, row.baseline.task_accuracy),
             (row.trained.task_correct, row.trained.task_accuracy)),
            ("dialogue", row.expert_di_turns, (row.baseline.dialogue_correct, row.baseline.dialogue_accuracy),
             (row.trained.dialogue_correct, row.trained.dialogue_accuracy)),
        ):
            expert_pct = round(_pct(expert, row.total_turns), 1)
            base_pct = round(100 * base_res[1], 1)
            trained_pct = round(100 * trained_res[1], 1)
            improvement = trained_pct - base_pct
            points = row.baseline.predictions
            lines.append(
                f"{row.corpus_name:20}{dim:10}"
                f"{f'{expert} ({expert_pct:.1f}%)':>16}"
                f"{f'{base_res[0]}/{points} ({base_pct:.1f}%)':>18}"
                f"{f'{trained_res[0]}/{points} ({trained_pct:.1f}%)':>18}"
                f"{improvement:>13.1f}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Agreement and significance statistics


def kappa(ratings: Sequence[Sequence[Hashable]]) -> float:
    """Multi-rater kappa: chance-corrected agreement over N items.

    ratings is an N x m matrix of category labels (m raters per item, no
    missing entries).  With n_ij raters putting item i into category j:

        P(A) = sum_ij n_ij (n_ij - 1) / (N m (m - 1))
        P(E) = sum_j p_j^2,   p_j = sum_i n_ij / (N m)
        K    = (P(A) - P(E)) / (1 - P(E))

    Raises DegenerateStatisticError when every rating lands in a single
    category (P(E) = 1 leaves the chance correction undefined).
    """
    if not ratings:
        raise ValueError("kappa needs at least one item")
    m = len(ratings[0])
    if m < 2:
        raise ValueError("kappa needs at least two raters")
    if any(len(row) != m for row in ratings):
        raise ValueError("every item must have the same number of ratings")
    n_items = len(ratings)
    agreeing, totals = 0, Counter()
    for row in ratings:
        for label, n_ij in Counter(row).items():
            agreeing += n_ij * (n_ij - 1)
            totals[label] += n_ij
    p_observed = agreeing / (n_items * m * (m - 1))
    # Summed in a fixed category order, whatever the order of the items.
    proportions = [totals[label] / (n_items * m) for label in sorted(totals, key=repr)]
    p_expected = sum(p * p for p in proportions)
    if p_expected >= 1.0:
        raise DegenerateStatisticError("all ratings fall in one category; kappa is undefined")
    return (p_observed - p_expected) / (1.0 - p_expected)


@dataclass(frozen=True)
class CochranQResult:
    statistic: float
    df: int
    p_value: float


def cochran_q(outcomes: Sequence[Sequence[int]]) -> CochranQResult:
    """Cochran's Q test for k matched binary treatments over n subjects.

    With column totals G_j and row totals L_i:

        Q = (k - 1) [k sum G_j^2 - (sum G_j)^2] / [k sum L_i - sum L_i^2]

    Q is referred to the chi-square distribution with k - 1 degrees of
    freedom.  Rows with no variation contribute nothing; when every row is
    constant the statistic is the trivial 0/0 case and Q = 0, p = 1 is
    returned (no detectable treatment effect).  For k = 2 the statistic
    equals the uncorrected McNemar statistic (b - c)^2 / (b + c).
    """
    try:
        table = [list(row) for row in outcomes]
    except TypeError:
        raise ValueError("outcomes must be a 2-D matrix") from None
    if not table:
        raise ValueError("outcomes must be a 2-D matrix")
    k = len(table[0])
    if any(len(row) != k for row in table):
        raise ValueError("outcomes must have the same number of treatments in every row")
    if k < 2:
        raise ValueError("Cochran's Q needs at least two treatments")
    if any(x not in (0, 1) for row in table for x in row):
        raise ValueError("outcomes must be binary (0/1)")
    col_totals = [int(sum(col)) for col in zip(*table)]
    row_totals = [int(sum(row)) for row in table]
    numerator = (k - 1) * (k * sum(g * g for g in col_totals) - sum(col_totals) ** 2)
    denominator = k * sum(row_totals) - sum(r * r for r in row_totals)
    df = k - 1
    if denominator == 0:
        return CochranQResult(0.0, df, 1.0)
    q = numerator / denominator
    return CochranQResult(q, df, chi_square_sf(q, df))


def paired_outcomes(baseline: RunResult, trained: RunResult, dimension: Dimension) -> list[list[int]]:
    """Per-point correctness columns for significance testing two predictors."""
    if baseline.predictions != trained.predictions:
        raise ValueError("runs cover different prediction points")
    if dimension is Dimension.TASK:
        return [[b, t] for b, t in zip(baseline.task_vector, trained.task_vector)]
    return [[b, t] for b, t in zip(baseline.dialogue_vector, trained.dialogue_vector)]


# ---------------------------------------------------------------------------
# Chi-square upper tail


def chi_square_sf(x: float, df: int) -> float:
    """P(chi-square with df degrees of freedom >= x), for a whole-number df.

    With y = x / 2 the tail has a closed form (Abramowitz & Stegun
    26.4.4-26.4.5): e^-y sum_{j < df/2} y^j / j! for even df, and
    erfc(sqrt y) + e^-y sum_{j < (df-1)/2} y^(j+1/2) / Gamma(j+3/2) for odd df.
    Each term is taken in log space: a product recurrence from e^-y underflows
    once x passes about 1490, which would zero a tail that is near 1 at large df.
    """
    if df <= 0 or df % 1:
        raise ValueError("degrees of freedom must be a positive whole number")
    if x < 0 or math.isnan(x):
        raise ValueError("chi-square statistic must be non-negative")
    y = x / 2.0
    if y == 0.0:  # also an x so small that x / 2 underflows
        return 1.0
    if y == math.inf:
        return 0.0
    offset = (df % 2) / 2.0
    log_y = math.log(y)
    terms = [math.exp((j + offset) * log_y - y - math.lgamma(j + offset + 1.0)) for j in range(int(df) // 2)]
    if offset:
        terms.append(math.erfc(math.sqrt(y)))
    # fsum rounds the sum once, so the result does not depend on the term order or Python version.
    return min(1.0, math.fsum(terms))
