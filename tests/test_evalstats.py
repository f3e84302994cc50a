import copy
import dataclasses
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

import initrack

from initrack.corpus import Corpus, GeneratorConfig, gen_synthetic
from initrack.cues import CueKind, Dimension, canonical_specs, format_model, init_model
from initrack.evalstats import (
    ComparisonRow,
    CochranQResult,
    DegenerateStatisticError,
    RunResult,
    baseline_run,
    chi_square_sf,
    cochran_q,
    comparison_csv,
    comparison_text,
    cross_validate,
    error_report,
    error_report_csv,
    evaluate,
    fold_table_csv,
    kappa,
    paired_outcomes,
)
from initrack.evidence import Role
from initrack.tracker import AdjustmentMethod, TrackerConfig, TurnRecord, track, train

from conftest import corpus_forms, generator_configs, make_corpus, make_dialogue, synthetic_corpora


def _mixed_corpus(seed=21):
    config = GeneratorConfig(
        dialogues=6,
        turns_per_dialogue=14,
        pairs=3,
        cue_emit={CueKind.NO_NEW_INFO_PROMPT: 0.4, CueKind.QUESTION_EVALUATION: 0.25},
        cue_shift={CueKind.NO_NEW_INFO_PROMPT: 0.85, CueKind.QUESTION_EVALUATION: 0.8},
    )
    return gen_synthetic(config, seed)


class TestEvaluate:
    def test_model_untouched(self):
        corpus = _mixed_corpus()
        config = TrackerConfig()
        trained = train(corpus, config).model
        before = format_model(trained)
        evaluate(corpus, trained, config)
        assert format_model(trained) == before

    def test_vacuous_model_equals_baseline_on_generated_corpora(self):
        # With defaults matching the reset strength the index always carries
        # 0.75 on the current holder, so on corpora whose dialogues open with
        # the speaker holding (as generated ones do), an all-vacuous model
        # predicts exactly what the keep-the-holder baseline predicts.
        config = TrackerConfig(default_x=0.75)
        for seed in range(5):
            corpus = _mixed_corpus(seed)
            frozen = evaluate(corpus, init_model(), config)
            base = baseline_run(corpus)
            assert frozen.task_vector == base.task_vector
            assert frozen.dialogue_vector == base.dialogue_vector
            assert [r.predicted_ti_agent for r in frozen.records] == [
                r.predicted_ti_agent for r in base.records
            ]
            assert [r.predicted_di_agent for r in frozen.records] == [
                r.predicted_di_agent for r in base.records
            ]

    def test_handtrace_di_vector(self, handtrace_corpus):
        config = TrackerConfig(delta=0.35, method=AdjustmentMethod.CONSTANT_INCREMENT)
        trained = train(handtrace_corpus, config).model
        result = evaluate(handtrace_corpus, trained, config)
        assert result.dialogue_vector == (1,)

    def test_teacher_forcing_flag_changes_tracking(self):
        # Holder hops to the hearer once and stays; with teacher forcing the
        # index re-anchors after the miss, closed loop keeps drifting.
        rows = [("a", "a", ()), ("b", "b", ()), ("b", "b", ()), ("b", "b", ())]
        corpus = make_corpus("drift", make_dialogue("d1", ("a", "b"), rows))
        config = TrackerConfig()
        forced = evaluate(corpus, init_model(), config, teacher_forcing=True)
        closed = evaluate(corpus, init_model(), config, teacher_forcing=False)
        assert forced.task_vector != closed.task_vector

    def test_frozen_after_convergence_not_worse(self):
        rows = [("a", "a", ())] * 10
        corpus = make_corpus("flat", make_dialogue("d1", ("a", "b"), rows))
        config = TrackerConfig()
        trained = train(corpus, config)
        frozen = evaluate(corpus, trained.model, config)
        assert frozen.task_accuracy >= trained.task_accuracy
        assert frozen.dialogue_accuracy >= trained.dialogue_accuracy


class TestRunResult:
    def test_equal_runs_compare_equal(self):
        corpus = _mixed_corpus()
        config = TrackerConfig()
        model = train(corpus, config).model
        run = evaluate(corpus, model, config)
        assert run == evaluate(corpus, model, config)
        assert hash(run) == hash(evaluate(corpus, model, config))
        assert run != baseline_run(corpus)

    def test_equal_vectors_over_other_dialogues_differ(self):
        run = _run_with([True, False, True])
        other = make_dialogue("d2", ("a", "b"), [("a", "a", ())] * 4)
        moved = RunResult((other,), run.ti_ok, run.di_ok, run.ti_speaker, run.di_speaker)
        assert moved != run
        assert hash(moved) == hash(run)
        assert dataclasses.replace(moved, dialogues=run.dialogues) == run

    def test_frozen(self):
        run = baseline_run(_mixed_corpus())
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.ti_ok = b""
        with pytest.raises(dataclasses.FrozenInstanceError):
            del run.dialogues

    def test_repr_names_the_counts(self):
        run = _run_with([True, False, True])
        assert repr(run) == "RunResult(predictions=3, task_correct=2, dialogue_correct=2)"

    def test_records_follow_the_vectors(self):
        run = _run_with([True, False, True])
        assert [r.ti_correct for r in run.records] == [True, False, True]
        assert [r.predicted_di_agent for r in run.records] == ["a", "b", "a"]
        assert run.records is run.records

    @pytest.mark.parametrize("points", [2, 4])
    def test_records_reject_vectors_of_another_length(self, points):
        run = _run_with([True] * points)
        moved = RunResult(_run_with([True] * 3).dialogues, run.ti_ok, run.di_ok, run.ti_speaker, run.di_speaker)
        with pytest.raises(ValueError, match=f"{points} outcome bytes for 3 prediction points"):
            moved.records

    def test_copies_and_pickles(self):
        for run in (baseline_run(_mixed_corpus()), _run_with([True, False])):
            data = pickle.dumps(run)
            assert pickle.loads(data) == run
            assert copy.copy(run) == run
            # The records are cached on first access, but not pickled.
            assert run.records and pickle.dumps(run) == data
            loaded = pickle.loads(data)
            assert "records" not in loaded.__dict__
            assert loaded.records == run.records
            assert all(type(r) is TurnRecord for r in loaded.records)

    def test_records_are_immutable_hashable_named_tuples(self):
        run = _run_with([True, False, True])
        record = run.records[1]
        assert isinstance(record, TurnRecord)
        assert record == ("d1", 1, Role.SPEAKER, "b", Role.SPEAKER, "b", "a", "a", ())
        assert record._fields == (
            "dialogue_id", "turn_index", "predicted_ti", "predicted_ti_agent", "predicted_di",
            "predicted_di_agent", "actual_ti_agent", "actual_di_agent", "cues",
        )
        assert not record.ti_correct and not record.di_correct
        with pytest.raises(AttributeError):
            record.turn_index = 0
        with pytest.raises(AttributeError):
            record.extra = 0
        assert len(set(run.records)) == 3 and hash(record) == hash(tuple(record))
        assert record._replace(actual_ti_agent="b").ti_correct

    def test_concat_records(self):
        runs = [baseline_run(_mixed_corpus(seed)) for seed in (21, 22)]
        runs.append(_run_with([True, False]))
        assert RunResult.concat(runs).records == runs[0].records + runs[1].records + runs[2].records

    @settings(max_examples=60, deadline=None)
    @given(synthetic_corpora(), st.sampled_from(list(AdjustmentMethod)), st.booleans())
    def test_records_restate_the_run(self, corpus, method, learn):
        runs = [baseline_run(corpus)]
        try:
            runs.append(track(corpus.dialogues, init_model(), TrackerConfig(method=method), learn=learn))
        except ValueError:  # total conflict or a failed mass check while learning
            assert learn
        for run in runs:
            expected = _restated_records(run)
            assert len(run.records) == len(expected)
            for record, fields in zip(run.records, expected):
                assert type(record) is TurnRecord
                for name, value in fields.items():
                    assert getattr(record, name) == value, name


class TestBaseline:
    def test_no_shift_corpus(self):
        rows = [("a", "a", ())] * 5
        corpus = make_corpus("flat", make_dialogue("d1", ("a", "b"), rows))
        result = baseline_run(corpus)
        assert result.task_accuracy == 1.0
        assert result.dialogue_accuracy == 1.0

    def test_alternating_dialogue_holder(self):
        rows = [("a", "a" if t % 2 == 0 else "b", ()) for t in range(6)]
        corpus = make_corpus("flip", make_dialogue("d1", ("a", "b"), rows))
        result = baseline_run(corpus)
        assert result.dialogue_accuracy == 0.0
        assert result.task_accuracy == 1.0

    def test_published_style_percentages(self):
        # 1043 turns -> 1042 scored; 33 task holder changes and 262 dialogue
        # holder changes give the familiar 96.8% / 74.9% pair.
        n = 1043
        ti = _holder_sequence(n, changes=33)
        di = _holder_sequence(n, changes=262)
        rows = [(ti[t], di[t], ()) for t in range(n)]
        corpus = make_corpus("replica_rates", make_dialogue("d1", ("a", "b"), rows))
        result = baseline_run(corpus)
        assert result.predictions == 1042
        assert result.task_correct == 1042 - 33
        assert result.dialogue_correct == 1042 - 262
        assert f"{100 * result.task_accuracy:.1f}" == "96.8"
        assert f"{100 * result.dialogue_accuracy:.1f}" == "74.9"

    def test_accuracy_equals_one_minus_change_rate(self):
        for seed in range(10):
            corpus = _mixed_corpus(seed)
            result = baseline_run(corpus)
            changes_ti = changes_di = points = 0
            for dialogue in corpus.dialogues:
                turns = dialogue.turns
                for t in range(len(turns) - 1):
                    points += 1
                    changes_ti += turns[t + 1].ti_holder != turns[t].ti_holder
                    changes_di += turns[t + 1].di_holder != turns[t].di_holder
            assert result.task_correct == points - changes_ti
            assert result.dialogue_correct == points - changes_di


def _holder_sequence(n, changes, agents=("a", "b")):
    """n holders with exactly `changes` switches, spread over the sequence."""
    assert 0 <= changes < n
    positions = sorted(random.Random(changes).sample(range(1, n), changes))
    seq = []
    current = 0
    nxt = 0
    for i in range(n):
        if nxt < len(positions) and i == positions[nxt]:
            current = 1 - current
            nxt += 1
        seq.append(agents[current])
    return seq


class TestCrossValidate:
    def test_eight_pairs_eight_folds(self):
        config = GeneratorConfig(
            dialogues=8,
            turns_per_dialogue=8,
            pairs=8,
            cue_emit={CueKind.END_SILENCE: 0.3},
            cue_shift={CueKind.END_SILENCE: 0.7},
        )
        corpus = gen_synthetic(config, 2)
        xval = cross_validate(corpus, TrackerConfig())
        assert len(xval.folds) == 8
        assert xval.aggregate.predictions == sum(f.result.predictions for f in xval.folds)
        total_points = sum(len(d.turns) - 1 for d in corpus.dialogues)
        assert xval.aggregate.predictions == total_points

    def test_identical_groups_give_identical_folds(self):
        rows = [("a", "a", ("no_new_info:prompt",)), ("a", "b", ()), ("a", "b", ())]
        rows2 = [(r[0].replace("a", "c").replace("b", "d"), r[1].replace("a", "c").replace("b", "d"), r[2]) for r in rows]
        corpus = make_corpus(
            "twin",
            make_dialogue("d1", ("a", "b"), rows),
            make_dialogue("d2", ("c", "d"), rows2),
        )
        xval = cross_validate(corpus, TrackerConfig())
        assert len(xval.folds) == 2
        a, b = xval.folds
        assert a.result.task_vector == b.result.task_vector
        assert a.result.dialogue_vector == b.result.dialogue_vector

    def test_single_group_rejected(self):
        corpus = make_corpus("solo", make_dialogue("d1", ("a", "b"), [("a", "a", ()), ("a", "a", ())]))
        with pytest.raises(ValueError, match="at least two"):
            cross_validate(corpus, TrackerConfig())

    def test_fold_csv(self):
        corpus = gen_synthetic(GeneratorConfig(dialogues=4, turns_per_dialogue=5, pairs=2), 1)
        xval = cross_validate(corpus, TrackerConfig())
        lines = fold_table_csv(xval).strip().split("\n")
        assert lines[0] == "fold,dim,correct,total,accuracy"
        assert len(lines) == 1 + 2 * (len(xval.folds) + 1)
        assert lines[-2].startswith("all,task,")


class TestErrorReport:
    def test_constructed_cells(self):
        # invalidity:action observed at 14 task prediction points: 3 shifts
        # (2 mispredicted) and 11 no-shifts (0 mispredicted).
        rows = []
        cue = "invalidity:action"
        shift_plan = [True, True, True] + [False] * 11
        wrong_plan = [True, True, False] + [False] * 11
        ti = "a"
        for shift in shift_plan:
            nxt = ("b" if ti == "a" else "a") if shift else ti
            rows.append((ti, ti, (cue,)))
            ti = nxt
        rows.append((ti, ti, ()))
        corpus = make_corpus("err", make_dialogue("d1", ("a", "b"), rows))
        turns = corpus.dialogues[0].turns
        ti_speaker, di_speaker = bytearray(), bytearray()
        for t, wrong in enumerate(wrong_plan):
            # A wrong TI prediction names the agent that does not hold it next.
            ti_speaker.append((turns[t + 1].ti_holder == turns[t].speaker) != wrong)
            di_speaker.append(turns[t + 1].di_holder == turns[t].speaker)
        ti_ok = bytes(not wrong for wrong in wrong_plan)
        run = RunResult(corpus.dialogues, ti_ok, bytes([1]) * len(wrong_plan), bytes(ti_speaker), bytes(di_speaker))
        assert [r.ti_correct for r in run.records] == [not wrong for wrong in wrong_plan]
        report = error_report(run, corpus)
        cell = report.cell(CueKind.INVALIDITY_ACTION, Dimension.TASK)
        assert (cell.shift_errors, cell.shift_total) == (2, 3)
        assert (cell.noshift_errors, cell.noshift_total) == (0, 11)

    def test_records_in_any_order(self):
        corpus = _mixed_corpus()
        config = TrackerConfig()
        run = evaluate(corpus, train(corpus, config).model, config)
        # The cross-validated run holds the dialogues in fold order.
        folds = error_report(cross_validate(corpus, config).aggregate, corpus).cells
        for key, cell in error_report(run, corpus).cells.items():
            assert (folds[key].shift_total, folds[key].noshift_total) == (cell.shift_total, cell.noshift_total)

    def test_absent_cue_all_zero(self):
        corpus = make_corpus("x", make_dialogue("d1", ("a", "b"), [("a", "a", ()), ("a", "a", ())]))
        run = baseline_run(corpus)
        report = error_report(run, corpus)
        cell = report.cell(CueKind.SUBOPTIMALITY, Dimension.TASK)
        assert (cell.shift_errors, cell.shift_total, cell.noshift_errors, cell.noshift_total) == (0, 0, 0, 0)

    def test_totals_partition_occurrences(self):
        corpus = _mixed_corpus(4)
        config = TrackerConfig()
        model = train(corpus, config).model
        run = evaluate(corpus, model, config)
        report = error_report(run, corpus)
        occurrences = {}
        for record in run.records:
            for kind in record.cues:
                occurrences[kind] = occurrences.get(kind, 0) + 1
        for kind, count in occurrences.items():
            for dim in (Dimension.TASK, Dimension.DIALOGUE):
                cell = report.cell(kind, dim)
                assert cell.shift_total + cell.noshift_total == count

    def test_mismatched_run_rejected(self):
        corpus = make_corpus("x", make_dialogue("d1", ("a", "b"), [("a", "a", ()), ("a", "a", ())]))
        run = baseline_run(corpus)
        other = make_corpus("y", make_dialogue("d1", ("a", "b"), [("a", "a", ())] * 3))
        with pytest.raises(ValueError, match="does not match"):
            error_report(run, other)

    def test_csv_has_all_cells(self):
        corpus = make_corpus("x", make_dialogue("d1", ("a", "b"), [("a", "a", ()), ("a", "a", ())]))
        text = error_report_csv(error_report(baseline_run(corpus), corpus))
        lines = text.strip().split("\n")
        assert lines[0] == "cue,dim,shift_err,shift_tot,noshift_err,noshift_tot"
        assert len(lines) == 1 + 28


def recount_baseline(corpus) -> tuple[bytes, bytes, bytes, bytes]:
    """The baseline's four vectors, walked turn by turn."""
    ti_ok, di_ok, ti_speaker, di_speaker = [], [], [], []
    for dialogue in corpus.dialogues:
        for turn, nxt in zip(dialogue.turns, dialogue.turns[1:]):
            ti_ok.append(nxt.ti_holder == turn.ti_holder)
            di_ok.append(nxt.di_holder == turn.di_holder)
            ti_speaker.append(turn.ti_holder == turn.speaker)
            di_speaker.append(turn.di_holder == turn.speaker)
    return bytes(ti_ok), bytes(di_ok), bytes(ti_speaker), bytes(di_speaker)


def recount_errors(run: RunResult) -> list:
    """The error report's cells in order, each (kind, dim, shift errors, shift total,
    no-shift errors, no-shift total), walked turn by turn over the run's dialogues."""
    cells = {(spec.kind, dim): [0, 0, 0, 0] for spec in canonical_specs() for dim in (Dimension.TASK, Dimension.DIALOGUE)}
    k = 0
    for dialogue in run.dialogues:
        for turn, nxt in zip(dialogue.turns, dialogue.turns[1:]):
            for kind in turn.cues:
                for dim, now, then, ok in ((Dimension.TASK, turn.ti_holder, nxt.ti_holder, run.ti_ok[k]),
                                           (Dimension.DIALOGUE, turn.di_holder, nxt.di_holder, run.di_ok[k])):
                    cell = cells[kind, dim]
                    at = 0 if then != now else 2
                    cell[at] += not ok
                    cell[at + 1] += 1
            k += 1
    assert k == run.predictions
    return [(kind, dim, *cell) for (kind, dim), cell in cells.items()]


class TestAgainstRecount:
    @settings(max_examples=80, deadline=None)
    @given(generator_configs(), st.integers(0, 2**16), st.sampled_from(list(AdjustmentMethod)), st.sampled_from([0.1, 0.35]))
    def test_analysis_passes_equal_the_recount(self, config, seed, method, delta):
        tracker_config = TrackerConfig(delta=delta, method=method)
        for corpus in corpus_forms(gen_synthetic(config, seed)):
            baseline = baseline_run(corpus)
            assert (baseline.ti_ok, baseline.di_ok, baseline.ti_speaker, baseline.di_speaker) == recount_baseline(corpus)
            model = init_model()
            runs = {"baseline": lambda: baseline, "train": lambda: train(corpus, tracker_config, model).run,
                    "frozen": lambda: evaluate(corpus, model, tracker_config),
                    "closed-loop": lambda: evaluate(corpus, model, tracker_config, teacher_forcing=False),
                    "cross-validated": lambda: cross_validate(corpus, tracker_config).aggregate}
            for name, call in runs.items():
                try:
                    run = call()
                except ValueError:  # a failed combination, or one pair group to cross-validate
                    continue
                report = error_report(run, corpus)
                cells = [(kind, dim, c.shift_errors, c.shift_total, c.noshift_errors, c.noshift_total)
                         for (kind, dim), c in report.cells.items()]
                assert cells == recount_errors(run), name

    def test_short_vectors_raise(self):
        corpus = _mixed_corpus()
        run = baseline_run(corpus)
        for field in ("ti_ok", "di_ok"):
            short = dataclasses.replace(run, **{field: getattr(run, field)[:-1]})
            with pytest.raises(ValueError):
                error_report(short, corpus)
        # More dialogues than the vectors cover: the corpus check passes on the first dialogue alone.
        first = Corpus(corpus.name, corpus.dialogues[:1])
        vectors = [v[:len(corpus.dialogues[0].turns) - 1] for v in (run.ti_ok, run.di_ok, run.ti_speaker, run.di_speaker)]
        with pytest.raises(ValueError, match="outcome bytes"):
            error_report(RunResult(corpus.dialogues, *vectors), first)


def _run_with(correct: list[bool]) -> RunResult:
    """A RunResult with the given joint correctness for both dimensions.

    Its one dialogue leaves both initiatives with "a", who speaks the even
    turns; a correct point names "a" and a wrong one "b".
    """
    dialogue = make_dialogue("d1", ("a", "b"), [("a", "a", ())] * (len(correct) + 1))
    ok = bytes(correct)
    speaker = bytes(c == (t % 2 == 0) for t, c in enumerate(correct))
    return RunResult((dialogue,), ok, ok, speaker, speaker)


def _restated_records(run: RunResult) -> list[dict]:
    """Each point's record fields, read straight off the dialogues and the four vectors."""
    out = []
    k = 0
    for dialogue in run.dialogues:
        for t in range(len(dialogue.turns) - 1):
            turn, nxt = dialogue.turns[t], dialogue.turns[t + 1]
            ti_agent = turn.speaker if run.ti_speaker[k] else turn.hearer
            di_agent = turn.speaker if run.di_speaker[k] else turn.hearer
            out.append({
                "dialogue_id": dialogue.id,
                "turn_index": t,
                "predicted_ti": Role.SPEAKER if run.ti_speaker[k] else Role.HEARER,
                "predicted_ti_agent": ti_agent,
                "predicted_di": Role.SPEAKER if run.di_speaker[k] else Role.HEARER,
                "predicted_di_agent": di_agent,
                "actual_ti_agent": nxt.ti_holder,
                "actual_di_agent": nxt.di_holder,
                "cues": turn.cues,
                "ti_correct": run.ti_ok[k] == 1,
                "di_correct": run.di_ok[k] == 1,
            })
            k += 1
    assert k == run.predictions
    return out


def _run_with_counts(correct: int, total: int) -> RunResult:
    return _run_with([True] * correct + [False] * (total - correct))


class TestComparisonTable:
    def test_published_style_row(self):
        baseline = _run_with_counts(1009, 1042)
        trained = _run_with_counts(1033, 1042)
        # give the trained run the published dialogue-side counts
        di_trained = _run_with_counts(915, 1042)
        di_baseline = _run_with_counts(780, 1042)
        row_task = ComparisonRow("replica", baseline, trained, 41, 311, 1042)
        text = comparison_text([row_task])
        assert "1033/1042 (99.1%)" in text
        assert "1009/1042 (96.8%)" in text
        assert "2.3" in text.split("\n")[1]
        row_di = ComparisonRow("replica", di_baseline, di_trained, 41, 311, 1042)
        di_line = comparison_text([row_di]).split("\n")[2]
        assert "915/1042 (87.8%)" in di_line
        assert "780/1042 (74.9%)" in di_line
        assert di_line.rstrip().endswith("12.9")

    def test_ceiling_improvement_zero(self):
        perfect = _run_with_counts(10, 10)
        row = ComparisonRow("ceiling", perfect, perfect, 5, 5, 11)
        text = comparison_text([row])
        for line in text.strip().split("\n")[1:]:
            assert line.rstrip().endswith("0.0")

    def test_csv_fields(self):
        row = ComparisonRow("c", _run_with_counts(3, 4), _run_with_counts(4, 4), 2, 3, 5)
        lines = comparison_csv([row]).strip().split("\n")
        assert lines[0] == "corpus,dim,expert_pct,baseline_pct,trained_pct,improvement_pts"
        task = lines[1].split(",")
        assert task[0] == "c" and task[1] == "task"
        assert float(task[2]) == pytest.approx(40.0)
        assert float(task[3]) == pytest.approx(75.0)
        assert float(task[4]) == pytest.approx(100.0)
        assert float(task[5]) == pytest.approx(25.0)


class TestKappa:
    def test_perfect_agreement(self):
        assert kappa([["x", "x", "x"], ["y", "y", "y"], ["x", "x", "x"]]) == 1.0

    def test_derived_two_item_example(self):
        # items: (3,0) and (2,1) over two categories, three raters;
        # P(A) = 2/3, P(E) = 13/18, K = -0.2.
        value = kappa([["x", "x", "x"], ["x", "x", "y"]])
        assert value == pytest.approx(-0.2, abs=1e-12)

    def test_degenerate_single_category(self):
        with pytest.raises(DegenerateStatisticError):
            kappa([["x", "x"], ["x", "x"]])

    def test_malformed(self):
        with pytest.raises(ValueError):
            kappa([])
        with pytest.raises(ValueError):
            kappa([["x"]])
        with pytest.raises(ValueError):
            kappa([["x", "y"], ["x"]])

    def test_relabel_and_permutation_invariance(self):
        rng = random.Random(8)
        for _ in range(25):
            n, m = rng.randint(2, 8), rng.randint(2, 4)
            cats = ["a", "b", "c"]
            matrix = [[rng.choice(cats) for _ in range(m)] for _ in range(n)]
            if len({x for row in matrix for x in row}) < 2:
                continue
            base = kappa(matrix)
            relabel = {"a": "z", "b": "q", "c": "m"}
            assert kappa([[relabel[x] for x in row] for row in matrix]) == pytest.approx(base, abs=1e-12)
            shuffled = matrix[:]
            rng.shuffle(shuffled)
            assert kappa(shuffled) == pytest.approx(base, abs=1e-12)

    def test_range(self):
        rng = random.Random(12)
        for _ in range(100):
            n, m = rng.randint(1, 6), rng.randint(2, 5)
            matrix = [[rng.choice("xy") for _ in range(m)] for _ in range(n)]
            if len({x for row in matrix for x in row}) < 2:
                continue
            value = kappa(matrix)
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12

    def test_agrees_with_numpy_restatement(self):
        rng = random.Random(40)
        for _ in range(200):
            n, m = rng.randint(1, 12), rng.randint(2, 6)
            cats = list("abcdefghij"[: rng.randint(2, 10)])
            matrix = [[rng.choice(cats) for _ in range(m)] for _ in range(n)]
            if len({x for row in matrix for x in row}) < 2:
                continue
            counts = np.array([[row.count(c) for c in cats] for row in matrix])
            p_observed = (counts * (counts - 1)).sum() / (n * m * (m - 1))
            p_expected = ((counts.sum(axis=0) / (n * m)) ** 2).sum()
            expected = (p_observed - p_expected) / (1.0 - p_expected)
            assert abs(kappa(matrix) - expected) <= 1e-12


class TestCochranQ:
    def test_identical_columns(self):
        result = cochran_q([[1, 1], [0, 0], [1, 1]])
        assert result == CochranQResult(0.0, 1, 1.0)

    def test_derived_example(self):
        result = cochran_q([[1, 1], [1, 0], [0, 0]])
        assert result.statistic == 1.0
        assert result.df == 1
        assert result.p_value == pytest.approx(0.3173, abs=1e-4)

    def test_mcnemar_equivalence(self):
        rng = random.Random(77)
        for _ in range(200):
            n = rng.randint(2, 12)
            matrix = [[rng.randint(0, 1), rng.randint(0, 1)] for _ in range(n)]
            b = sum(1 for r in matrix if r == [1, 0])
            c = sum(1 for r in matrix if r == [0, 1])
            if b + c == 0:
                continue
            result = cochran_q(matrix)
            assert abs(result.statistic - (b - c) ** 2 / (b + c)) <= 1e-12

    def test_permutation_invariance(self):
        rng = random.Random(5)
        matrix = [[rng.randint(0, 1) for _ in range(3)] for _ in range(10)]
        base = cochran_q(matrix)
        shuffled = matrix[:]
        rng.shuffle(shuffled)
        assert cochran_q(shuffled).statistic == pytest.approx(base.statistic, abs=1e-12)
        permuted_cols = [[row[2], row[0], row[1]] for row in matrix]
        assert cochran_q(permuted_cols).statistic == pytest.approx(base.statistic, abs=1e-12)
        assert base.statistic >= 0.0

    def test_against_scipy(self):
        rng = random.Random(31)
        for _ in range(50):
            n, k = rng.randint(3, 15), rng.randint(2, 4)
            matrix = [[rng.randint(0, 1) for _ in range(k)] for _ in range(n)]
            result = cochran_q(matrix)
            if result.statistic > 0:
                expected = scipy.stats.chi2.sf(result.statistic, result.df)
                assert result.p_value == pytest.approx(expected, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            cochran_q([[1], [0]])
        with pytest.raises(ValueError):
            cochran_q([[1, 2], [0, 1]])
        with pytest.raises(ValueError):
            cochran_q([])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="same number of treatments"):
            cochran_q([[1, 0], [0, 1, 1]])

    def test_agrees_with_numpy_restatement(self):
        rng = random.Random(41)
        for _ in range(200):
            n, k = rng.randint(1, 30), rng.randint(2, 6)
            matrix = [[rng.randint(0, 1) for _ in range(k)] for _ in range(n)]
            table = np.array(matrix)
            g, r = table.sum(axis=0), table.sum(axis=1)
            denominator = k * r.sum() - (r**2).sum()
            expected = 0.0 if denominator == 0 else (k - 1) * (k * (g**2).sum() - g.sum() ** 2) / denominator
            result = cochran_q(matrix)
            assert abs(result.statistic - expected) <= 1e-12
            assert result.df == k - 1

    def test_paired_outcomes_helper(self):
        base = _run_with([True, False, True])
        trained = _run_with([True, True, True])
        matrix = paired_outcomes(base, trained, Dimension.DIALOGUE)
        assert matrix == [[1, 1], [0, 1], [1, 1]]


class TestChiSquareTail:
    def test_known_values(self):
        assert chi_square_sf(0.0, 1) == 1.0
        assert chi_square_sf(1.0, 1) == pytest.approx(0.31731050786291415, rel=1e-10)
        assert chi_square_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=1e-9)
        # x / 2 underflows to 0 for the smallest subnormal.
        assert chi_square_sf(5e-324, 1) == 1.0
        assert chi_square_sf(5e-324, 2) == 1.0
        assert chi_square_sf(math.inf, 1) == 0.0
        assert chi_square_sf(math.inf, 2) == 0.0

    def test_ten_significant_digits_vs_scipy(self):
        for df in (1, 2, 3, 5, 10, 30, 99, 100, 1000, 20000):
            for x in (0.01, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 60.0, 200.0, 700.0, 1400.0, df, df + 2):
                expected = scipy.stats.chi2.sf(x, df)
                if expected > 1e-300:
                    assert chi_square_sf(x, df) == pytest.approx(expected, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_square_sf(-1.0, 1)
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 2.5)


def test_import_loads_no_numpy():
    src = str(Path(initrack.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import initrack, sys; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
