"""Frozen-model evaluation, baselines, cross-validation, and test statistics.

Evaluation replays the tracker loop without touching the learned model.  By
default it is teacher forced: a mispredicted index is still re-anchored on
the annotated holder, so one early error does not cascade through the
dialogue.  Closed-loop tracking is available behind a flag.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, compress, repeat
from operator import add, and_, itemgetter
from typing import Hashable, Iterator, NamedTuple, Sequence

from .corpus import Corpus, DegenerateStatisticError, Dialogue, partition_by_pair
from .cues import TABLES, CueKind, CueModel, Dimension, canonical_specs
from .tracker import RunResult, TrackerConfig, track, train


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


def _keys(dialogues: Sequence[Dialogue]) -> Iterator[int]:
    """Each prediction point's key (see `cues.Point`), dialogue by dialogue."""
    return map(itemgetter(4), chain.from_iterable(d.points for d in dialogues))


# Byte translations: a key's low two bits to one of them, and a 0/1 byte to its negation.
_BIT = [bytes((k >> b) & 1 for k in range(256)) for b in range(2)]
_NOT = bytes([1]) + bytes(255)
# The cue of each dialogue table, by the table's bit in a point's mask.
_KIND_OF_BIT = {1 << i: kind for i, (kind, dim) in enumerate(TABLES) if dim is Dimension.DIALOGUE}


def baseline_run(corpus: Corpus) -> RunResult:
    """The no-cue predictor: the initiative stays with its current holder."""
    bits = bytes(map(and_, _keys(corpus.dialogues), repeat(3)))
    return RunResult(corpus.dialogues, *(bits.translate(table) for table in _BIT))


class Fold(NamedTuple):
    pair: tuple[str, str]
    result: RunResult


class CrossValidationResult(NamedTuple):
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


class ErrorCell:
    """One (cue, dimension) tally: errors and totals at shift and no-shift points."""

    def __init__(self, shift_errors: int = 0, shift_total: int = 0, noshift_errors: int = 0, noshift_total: int = 0) -> None:
        self.shift_errors = shift_errors
        self.shift_total = shift_total
        self.noshift_errors = noshift_errors
        self.noshift_total = noshift_total

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"ErrorCell({', '.join(f'{name}={value!r}' for name, value in vars(self).items())})"


class ErrorReport(NamedTuple):
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
    keys = list(_keys(run.dialogues))
    totals = Counter(keys)
    ti_errors = Counter(compress(keys, run.ti_ok.translate(_NOT)))
    di_errors = Counter(compress(keys, run.di_ok.translate(_NOT)))
    # Per cue mask, TI then DI: shift errors, shift total, no-shift errors, no-shift total.
    sums: dict[int, list[int]] = {}
    for key, total in totals.items():
        if key >> 4:
            tally = sums.setdefault(key >> 4, [0] * 8)
            ti, di = 2 * (key & 1), 4 + (key & 2)  # a holder that stays is a no-shift, two places on
            tally[ti] += ti_errors[key]
            tally[ti + 1] += total
            tally[di] += di_errors[key]
            tally[di + 1] += total
    kinds = {spec.kind: [0] * 8 for spec in canonical_specs()}
    for mask, tally in sums.items():
        while mask:  # one bit per cue: that of its dialogue table
            bit = mask & -mask
            mask ^= bit
            counts = kinds[_KIND_OF_BIT[bit]]
            counts[:] = map(add, counts, tally)
    return ErrorReport({(kind, dim): ErrorCell(*counts[at:at + 4])
                        for kind, counts in kinds.items() for dim, at in ((Dimension.TASK, 0), (Dimension.DIALOGUE, 4))})


def _error_cells(report: ErrorReport) -> Iterator[tuple[CueKind, Dimension, ErrorCell]]:
    """Each (cue, dimension) cell of the report, in canonical cue order, task first."""
    for spec in canonical_specs():
        for dim in (Dimension.TASK, Dimension.DIALOGUE):
            yield spec.kind, dim, report.cell(spec.kind, dim)


def error_report_csv(report: ErrorReport) -> str:
    lines = ["cue,dim,shift_err,shift_tot,noshift_err,noshift_tot"]
    for kind, dim, cell in _error_cells(report):
        lines.append(f"{kind},{dim},{cell.shift_errors},{cell.shift_total},{cell.noshift_errors},{cell.noshift_total}")
    return "\n".join(lines) + "\n"


def error_report_text(report: ErrorReport) -> str:
    lines = [f"{'cue':32}{'dim':10}{'shift err/tot':>14}{'no-shift err/tot':>18}"]
    for kind, dim, cell in _error_cells(report):
        if cell.shift_total or cell.noshift_total:
            shift = f"{cell.shift_errors}/{cell.shift_total}"
            noshift = f"{cell.noshift_errors}/{cell.noshift_total}"
            lines.append(f"{str(kind):32}{str(dim):10}{shift:>14}{noshift:>18}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Comparison table


class ComparisonRow(NamedTuple):
    corpus_name: str
    baseline: RunResult
    trained: RunResult
    expert_ti_turns: int
    expert_di_turns: int
    total_turns: int


def _pct(count: int, total: int) -> float:
    return 100.0 * count / total if total else float("nan")


def _comparison_cells(rows: Sequence[ComparisonRow]) -> Iterator[tuple[ComparisonRow, str, int, tuple, tuple]]:
    """Per row, task then dialogue: the row, the dimension, its expert turns,
    and the baseline's and the trained model's (correct, accuracy)."""
    for row in rows:
        b, t = row.baseline, row.trained
        yield row, "task", row.expert_ti_turns, (b.task_correct, b.task_accuracy), (t.task_correct, t.task_accuracy)
        yield row, "dialogue", row.expert_di_turns, (b.dialogue_correct, b.dialogue_accuracy), (t.dialogue_correct, t.dialogue_accuracy)


def comparison_csv(rows: Sequence[ComparisonRow]) -> str:
    lines = ["corpus,dim,expert_pct,baseline_pct,trained_pct,improvement_pts"]
    for row, dim, expert, (_, base), (_, trained) in _comparison_cells(rows):
        lines.append(
            f"{row.corpus_name},{dim},{_pct(expert, row.total_turns):.6f},{100 * base:.6f},{100 * trained:.6f},"
            f"{100 * (trained - base):.6f}"
        )
    return "\n".join(lines) + "\n"


def comparison_text(rows: Sequence[ComparisonRow]) -> str:
    """Human-readable comparison; improvements are differences of the
    one-decimal percentages, matching how such tables are usually printed."""
    lines = [f"{'corpus':20}{'dim':10}{'expert':>16}{'baseline':>18}{'trained':>18}{'improvement':>13}"]
    for row, dim, expert, (base_correct, base), (trained_correct, trained) in _comparison_cells(rows):
        expert_pct = round(_pct(expert, row.total_turns), 1)
        base_pct, trained_pct = round(100 * base, 1), round(100 * trained, 1)
        points = row.baseline.predictions
        lines.append(
            f"{row.corpus_name:20}{dim:10}"
            f"{f'{expert} ({expert_pct:.1f}%)':>16}"
            f"{f'{base_correct}/{points} ({base_pct:.1f}%)':>18}"
            f"{f'{trained_correct}/{points} ({trained_pct:.1f}%)':>18}"
            f"{trained_pct - base_pct:>13.1f}"
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


class CochranQResult(NamedTuple):
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
