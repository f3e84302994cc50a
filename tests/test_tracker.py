import hashlib
import math
import random
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from initrack import tracker
from initrack.corpus import GeneratorConfig, gen_synthetic
from initrack.cues import CueKind, Dimension, format_model, init_model
from initrack.evalstats import baseline_run, cross_validate, error_report, error_report_csv, error_report_text, evaluate
from initrack.evidence import MassFunction, Role, TotalConflictError, bayesian, vacuous
from initrack.tracker import (
    DEFAULT_GRID,
    AdjustmentMethod,
    TrackerConfig,
    TrackerState,
    adjust_bpa,
    credit_counters,
    delta_grid,
    step_predict,
    sweep,
    sweep_csv,
    train,
)

from conftest import README_CONFIG, corpus_to_plain, make_corpus, make_dialogue, synthetic_corpora
from oracles import HEA, SPK, THETA, OracleConflict, OracleInvalid, figure1_evaluate, figure1_train, fresh_model

CONST = AdjustmentMethod.CONSTANT_INCREMENT
CONST_COUNTER = AdjustmentMethod.CONSTANT_INCREMENT_WITH_COUNTER
VAR_COUNTER = AdjustmentMethod.VARIABLE_INCREMENT_WITH_COUNTER


class TestConfig:
    def test_defaults(self):
        config = TrackerConfig()
        assert config.delta == 0.35
        assert config.method is CONST_COUNTER
        assert config.reset_strength == 0.75

    def test_delta_bounds(self):
        with pytest.raises(ValueError):
            TrackerConfig(delta=0.0)
        with pytest.raises(ValueError):
            TrackerConfig(delta=1.0)
        with pytest.warns(UserWarning):
            TrackerConfig(delta=0.6)

    def test_warning_names_the_caller(self):
        # The caller's file, not the constructor's.
        with pytest.warns(UserWarning) as record:
            TrackerConfig(delta=0.6)
        assert record[0].filename == __file__

    def test_reset_strength_strict(self):
        with pytest.raises(ValueError):
            TrackerConfig(reset_strength=1.0)
        with pytest.raises(ValueError):
            TrackerConfig(reset_strength=0.0)

    @pytest.mark.parametrize("reset_strength", [0.5, 0.3, 0.1])
    def test_reset_strength_not_above_half_warns(self, reset_strength):
        # A reset would then leave the index predicting the other agent.
        with pytest.warns(UserWarning, match=rf"^reset_strength={reset_strength} is outside") as record:
            TrackerConfig(reset_strength=reset_strength)
        assert record[0].filename == __file__

    def test_reset_strength_above_half_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TrackerConfig(reset_strength=0.5000000000000001)


class TestStepPredict:
    def test_no_cues_tie(self):
        state = TrackerState(bayesian(0.5), bayesian(0.5))
        pred = step_predict(state, [], init_model())
        assert pred.m_t_new == bayesian(0.5)
        assert pred.m_d_new == bayesian(0.5)
        assert pred.ti_role is Role.SPEAKER
        assert pred.di_role is Role.SPEAKER

    def test_learned_prompt_bpa(self):
        model = init_model()
        model.params[CueKind.NO_NEW_INFO_PROMPT].dialogue_bpa = MassFunction(0.0, 0.35, 0.65)
        state = TrackerState(bayesian(0.5), bayesian(0.5))
        pred = step_predict(state, [CueKind.NO_NEW_INFO_PROMPT], model)
        assert pred.m_d_new.speaker == pytest.approx(13 / 33, abs=1e-12)
        assert pred.m_d_new.hearer == pytest.approx(20 / 33, abs=1e-12)
        assert pred.di_role is Role.HEARER

    def test_dialogue_only_cue_leaves_task_untouched(self):
        state = TrackerState(bayesian(0.6), bayesian(0.5))
        pred = step_predict(state, [CueKind.QUESTION_DOMAIN], init_model())
        assert pred.m_t_new == state.m_t_cur


class TestAdjust:
    def test_constant_increment(self):
        model = init_model()
        config = TrackerConfig(delta=0.35, method=CONST)
        adjust_bpa(model, [CueKind.END_SILENCE], Dimension.DIALOGUE, Role.HEARER, config)
        assert model.params[CueKind.END_SILENCE].dialogue_bpa == MassFunction(0.0, 0.35, 0.65)

    def test_constant_increment_clamps_at_theta(self):
        model = init_model()
        model.params[CueKind.END_SILENCE].dialogue_bpa = MassFunction(0.0, 0.70, 0.30)
        config = TrackerConfig(delta=0.35, method=CONST)
        adjust_bpa(model, [CueKind.END_SILENCE], Dimension.DIALOGUE, Role.HEARER, config)
        bpa = model.params[CueKind.END_SILENCE].dialogue_bpa
        assert bpa.hearer == pytest.approx(1.0, abs=1e-12)
        assert bpa.theta == 0.0

    def test_counter_absorbs_errors(self):
        model = init_model()
        model.params[CueKind.END_SILENCE].dialogue_counter = 2
        config = TrackerConfig(delta=0.35, method=CONST_COUNTER)
        adjust_bpa(model, [CueKind.END_SILENCE], Dimension.DIALOGUE, Role.HEARER, config)
        params = model.params[CueKind.END_SILENCE]
        assert params.dialogue_counter == 1
        assert params.dialogue_bpa == vacuous()

    def test_counter_k_absorbs_k_errors_then_adjusts(self):
        for k in (1, 3, 5):
            model = init_model()
            model.params[CueKind.END_SILENCE].dialogue_counter = k
            config = TrackerConfig(delta=0.35, method=CONST_COUNTER)
            for _ in range(k):
                adjust_bpa(model, [CueKind.END_SILENCE], Dimension.DIALOGUE, Role.HEARER, config)
                assert model.params[CueKind.END_SILENCE].dialogue_bpa == vacuous()
            adjust_bpa(model, [CueKind.END_SILENCE], Dimension.DIALOGUE, Role.HEARER, config)
            assert model.params[CueKind.END_SILENCE].dialogue_bpa == MassFunction(0.0, 0.35, 0.65)
            assert model.params[CueKind.END_SILENCE].dialogue_counter == 0

    def test_variable_increment_uses_post_decrement_counter(self):
        model = init_model()
        model.params[CueKind.END_SILENCE].dialogue_counter = 3
        config = TrackerConfig(delta=0.4, method=VAR_COUNTER)
        adjust_bpa(model, [CueKind.END_SILENCE], Dimension.DIALOGUE, Role.HEARER, config)
        params = model.params[CueKind.END_SILENCE]
        assert params.dialogue_counter == 2
        assert params.dialogue_bpa.hearer == 0.4 / 2**3

    def test_variable_increment_negative_counter_clamped(self):
        model = init_model()
        model.params[CueKind.END_SILENCE].dialogue_counter = -4
        config = TrackerConfig(delta=0.4, method=VAR_COUNTER)
        adjust_bpa(model, [CueKind.END_SILENCE], Dimension.DIALOGUE, Role.HEARER, config)
        params = model.params[CueKind.END_SILENCE]
        assert params.dialogue_counter == -5
        assert params.dialogue_bpa.hearer == 0.4 / 2  # exponent floor at count 0

    @pytest.mark.parametrize("counter", [1, 2, 11, 500, 1023])
    def test_variable_increment_is_delta_over_power_of_two(self, counter):
        # The step is computed with ldexp; up to exponent 1023 it equals
        # delta / 2 ** exponent bit for bit.
        for delta in delta_grid(*DEFAULT_GRID):
            model = init_model()
            model.params[CueKind.END_SILENCE].dialogue_counter = counter
            config = TrackerConfig(delta=delta, method=VAR_COUNTER)
            adjust_bpa(model, [CueKind.END_SILENCE], Dimension.DIALOGUE, Role.HEARER, config)
            assert model.params[CueKind.END_SILENCE].dialogue_bpa.hearer == delta / 2**counter

    def test_variable_increment_trains_past_1023_credits(self):
        # end_silence earns 1099 credits on both dimensions, then one miss
        # adjusts it with the step delta / 2 ** 1099, which is below the
        # float range: the table stays vacuous and training completes.
        rows = [("a", "a", ("end_silence",))] * 1100 + [("b", "b", ())]
        corpus = make_corpus("long", make_dialogue("d1", ("a", "b"), rows))
        config = TrackerConfig(method=VAR_COUNTER, default_x=0.75)
        result = train(corpus, config)
        params = result.model.params[CueKind.END_SILENCE]
        assert (params.task_counter, params.dialogue_counter) == (1098, 1098)
        assert params.task_bpa == params.dialogue_bpa == vacuous()
        assert result.run.task_correct == result.run.dialogue_correct == 1099
        assert not result.records[-1].ti_correct and not result.records[-1].di_correct

    def test_bpas_stay_valid_under_many_adjustments(self):
        # MassFunction construction re-checks the invariants on every write,
        # so surviving a long random adjustment run means they always held.
        rng = random.Random(314)
        for method in (CONST, CONST_COUNTER, VAR_COUNTER):
            model = init_model()
            config = TrackerConfig(delta=0.35, method=method)
            for _ in range(300):
                kind = rng.choice([CueKind.END_SILENCE, CueKind.AMBIGUITY_ACTION])
                dim = rng.choice([Dimension.TASK, Dimension.DIALOGUE])
                actual = rng.choice([Role.SPEAKER, Role.HEARER])
                if rng.random() < 0.3:
                    credit_counters(model, [kind], dim, config)
                else:
                    adjust_bpa(model, [kind], dim, actual, config)
            for params in model.params.values():
                total = params.dialogue_bpa.speaker + params.dialogue_bpa.hearer + params.dialogue_bpa.theta
                assert abs(total - 1.0) <= 1e-9

    def test_task_dimension_touches_both_effect_cues_only(self):
        model = init_model()
        config = TrackerConfig(delta=0.35, method=CONST)
        adjust_bpa(
            model,
            [CueKind.QUESTION_DOMAIN, CueKind.END_SILENCE],
            Dimension.TASK,
            Role.HEARER,
            config,
        )
        assert model.params[CueKind.QUESTION_DOMAIN].task_bpa is None
        assert model.params[CueKind.END_SILENCE].task_bpa == MassFunction(0.0, 0.35, 0.65)
        assert model.params[CueKind.QUESTION_DOMAIN].dialogue_bpa == vacuous()


class TestCredit:
    def test_credit_increments(self):
        model = init_model()
        config = TrackerConfig(method=CONST_COUNTER)
        credit_counters(model, [CueKind.END_SILENCE], Dimension.DIALOGUE, config)
        assert model.params[CueKind.END_SILENCE].dialogue_counter == 1

    def test_no_cues_no_change(self):
        model = init_model()
        credit_counters(model, [], Dimension.DIALOGUE, TrackerConfig(method=CONST_COUNTER))
        assert model == init_model()

    def test_constant_increment_ignores_counters(self):
        model = init_model()
        credit_counters(model, [CueKind.END_SILENCE], Dimension.DIALOGUE, TrackerConfig(method=CONST))
        assert model == init_model()


class TestTrain:
    def test_hand_trace_first_pass(self, handtrace_corpus):
        config = TrackerConfig(delta=0.35, method=CONST)
        result = train(handtrace_corpus, config)
        assert result.task_accuracy == 1.0
        assert result.dialogue_accuracy == 0.0
        record = result.records[0]
        assert record.predicted_di is Role.SPEAKER  # tie broken to speaker
        assert record.predicted_di_agent == "a"
        assert record.actual_di_agent == "b"
        prompt = result.model.params[CueKind.NO_NEW_INFO_PROMPT]
        assert prompt.dialogue_bpa == MassFunction(0.0, 0.35, 0.65)
        assert prompt.task_bpa == vacuous()

    def test_hand_trace_second_pass(self, handtrace_corpus):
        config = TrackerConfig(delta=0.35, method=CONST)
        first = train(handtrace_corpus, config)
        second = train(handtrace_corpus, config, model=first.model)
        assert second.records[0].predicted_di is Role.HEARER
        assert second.dialogue_accuracy == 1.0

    def test_shift_free_cueless_corpus_is_perfect_with_anchored_defaults(self):
        # Defaults matching the reset strength put 0.75 on the opening
        # speaker, so the index follows the constant holder across swaps.
        rows = [("a", "a", ())] * 8
        corpus = make_corpus("flat", make_dialogue("d1", ("a", "b"), rows))
        config = TrackerConfig(default_x=0.75)
        result = train(corpus, config)
        assert result.task_accuracy == 1.0
        assert result.dialogue_accuracy == 1.0
        assert result.model == init_model()

    def test_shift_free_cueless_corpus_with_tie_defaults(self):
        # With 0.5 defaults the index stays tied after a correct prediction,
        # so the second point predicts the new speaker and misses once; the
        # reset then anchors the index on the holder for good.
        rows = [("a", "a", ())] * 8
        corpus = make_corpus("flat", make_dialogue("d1", ("a", "b"), rows))
        result = train(corpus, TrackerConfig())
        assert [r.ti_correct for r in result.records] == [True, False] + [True] * 5
        assert result.model == init_model()

    def test_dialogue_only_cues_never_alter_task_records(self):
        config = GeneratorConfig(
            dialogues=4,
            turns_per_dialogue=12,
            cue_emit={
                CueKind.QUESTION_DOMAIN: 0.4,
                CueKind.QUESTION_EVALUATION: 0.3,
                CueKind.END_SILENCE: 0.3,
            },
            cue_shift={CueKind.QUESTION_EVALUATION: 0.7, CueKind.END_SILENCE: 0.6},
        )
        corpus = gen_synthetic(config, 5)
        stripped = make_corpus(
            corpus.name,
            *(
                make_dialogue(
                    d.id,
                    d.agents,
                    [
                        (
                            t.ti_holder,
                            t.di_holder,
                            tuple(k.value for k in t.cues if k not in (CueKind.QUESTION_DOMAIN, CueKind.QUESTION_EVALUATION)),
                        )
                        for t in d.turns
                    ],
                )
                for d in corpus.dialogues
            ),
        )
        cfg = TrackerConfig(method=CONST_COUNTER)
        full = train(corpus, cfg)
        less = train(stripped, cfg)
        for a, b in zip(full.records, less.records):
            assert (a.predicted_ti, a.predicted_ti_agent, a.actual_ti_agent, a.ti_correct) == (
                b.predicted_ti,
                b.predicted_ti_agent,
                b.actual_ti_agent,
                b.ti_correct,
            )

    def test_deterministic(self):
        config = GeneratorConfig(
            dialogues=3,
            turns_per_dialogue=10,
            cue_emit={CueKind.NO_NEW_INFO_PROMPT: 0.5},
            cue_shift={CueKind.NO_NEW_INFO_PROMPT: 0.8},
        )
        corpus = gen_synthetic(config, 3)
        cfg = TrackerConfig()
        a = train(corpus, cfg)
        b = train(corpus, cfg)
        assert a.model == b.model
        assert a.records == b.records

    def test_matches_figure1_oracle_small_corpora(self, handtrace_corpus):
        methods = [CONST, CONST_COUNTER, VAR_COUNTER]
        rng = random.Random(99)
        kinds = [CueKind.NO_NEW_INFO_PROMPT, CueKind.QUESTION_EVALUATION, CueKind.AMBIGUITY_ACTION]
        for trial in range(6):
            config = GeneratorConfig(
                dialogues=1,
                turns_per_dialogue=rng.randint(4, 10),
                cue_emit={k: rng.uniform(0.2, 0.7) for k in kinds},
                cue_shift={k: rng.uniform(0.3, 0.9) for k in kinds},
                base_shift_dialogue=0.1,
            )
            corpus = gen_synthetic(config, 1000 + trial)
            method = methods[trial % 3]
            delta = 0.05 + 0.1 * (trial % 4)
            assert_train_matches_oracle(corpus, method, delta)
            assert_train_matches_oracle(corpus, method, delta, default_x=0.3, reset_strength=0.1)

    def test_empty_prediction_accuracy_is_nan(self):
        corpus = make_corpus("one", make_dialogue("d1", ("a", "b"), [("a", "a", ())]))
        result = train(corpus, TrackerConfig())
        assert result.records == ()
        assert math.isnan(result.task_accuracy)


def assert_train_matches_oracle(corpus, method, delta, tol=1e-12, *, default_x=0.5, reset_strength=0.75):
    """`train` and the oracle agree on the trace and, within `tol`, on the tables."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # reset_strength <= 0.5
        config = TrackerConfig(delta=delta, method=method, default_x=default_x, reset_strength=reset_strength)
    plain = corpus_to_plain(corpus)
    try:
        result = train(corpus, config)
        main_outcome = "ok"
    except TotalConflictError:
        main_outcome = "conflict"
    try:
        oracle_model, oracle_trace = figure1_train(
            plain, delta=delta, method=method.value, default_x=default_x, reset_strength=reset_strength
        )
        oracle_outcome = "ok"
    except OracleConflict:
        oracle_outcome = "conflict"
    assert main_outcome == oracle_outcome
    if main_outcome == "conflict":
        return

    assert _trace(result.records) == oracle_trace
    _assert_tables_match(result.model, oracle_model, tol)


def _trace(records):
    return [
        (r.dialogue_id, r.turn_index, r.predicted_ti.value, r.predicted_di.value, r.ti_correct, r.di_correct)
        for r in records
    ]


def _assert_tables_match(model, oracle_model, tol=1e-12):
    from initrack.cues import CueEffect, canonical_specs

    for spec in canonical_specs():
        params = model.params[spec.kind]
        entry = oracle_model[(spec.kind.value, "dialogue")]
        assert abs(params.dialogue_bpa.speaker - entry["m"][SPK]) <= tol
        assert abs(params.dialogue_bpa.hearer - entry["m"][HEA]) <= tol
        assert abs(params.dialogue_bpa.theta - entry["m"][THETA]) <= tol
        assert params.dialogue_counter == entry["counter"]
        if spec.effect is CueEffect.BOTH:
            entry = oracle_model[(spec.kind.value, "task")]
            assert params.task_bpa is not None
            assert abs(params.task_bpa.speaker - entry["m"][SPK]) <= tol
            assert abs(params.task_bpa.hearer - entry["m"][HEA]) <= tol
            assert abs(params.task_bpa.theta - entry["m"][THETA]) <= tol
            assert params.task_counter == entry["counter"]


def _assert_records_agree(run):
    """The lazily built records say what the outcome vectors say."""
    records = run.records
    assert len(records) == run.predictions
    assert sum(r.ti_correct for r in records) == run.task_correct
    assert sum(r.di_correct for r in records) == run.dialogue_correct
    assert tuple(int(r.ti_correct) for r in records) == run.task_vector
    assert tuple(int(r.di_correct) for r in records) == run.dialogue_vector


def _outcome(call):
    """Run call; name how it ended: ("ok", value), ("conflict", None) or ("invalid", None)."""
    try:
        return "ok", call()
    except (TotalConflictError, OracleConflict):
        return "conflict", None
    except (ValueError, OracleInvalid):  # a failed mass check
        return "invalid", None


class TestOracleAgreement:
    @settings(max_examples=150, deadline=None)
    @given(
        synthetic_corpora(),
        st.sampled_from(list(AdjustmentMethod)),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from([{}, {"default_x": 0.3, "reset_strength": 0.6}, {"default_x": 0.3, "reset_strength": 0.1}]),
    )
    # Predictions flipped here when the hearer reset was 1 - (1 - r), not r.
    @example(
        gen_synthetic(GeneratorConfig(
            dialogues=1, turns_per_dialogue=25, cue_emit={CueKind.NO_NEW_INFO_PROMPT: 0.8062945394843766},
            cue_shift={CueKind.NO_NEW_INFO_PROMPT: 0.8062945394843766}, base_shift_task=1.0,
            base_shift_dialogue=0.8062945394843766), 2),
        AdjustmentMethod.CONSTANT_INCREMENT, 0.3, {"default_x": 0.3, "reset_strength": 0.1},
    )
    def test_train_and_evaluate_match_oracle(self, corpus, method, delta, index):
        # `index` is empty for the default index settings.  Both `track` and
        # the oracle re-anchor on the hearer with (1 - r, r, 0), so they agree
        # on either side of r = 0.5, also near total conflict.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # delta >= 0.5, reset_strength <= 0.5
            config = TrackerConfig(delta=delta, method=method, **index)
        plain = corpus_to_plain(corpus)
        model, oracle_model = init_model(), fresh_model()
        outcome, result = _outcome(lambda: train(corpus, config, model))
        oracle_outcome, oracle = _outcome(
            lambda: figure1_train(plain, delta=delta, method=method.value, model=oracle_model, **index)
        )
        assert outcome == oracle_outcome
        # Also after a failure: equal partial models mean both broke down
        # on the same turn.
        _assert_tables_match(model, oracle_model)
        if outcome == "ok":
            assert _trace(result.records) == oracle[1]
            _assert_records_agree(result.run)
        saved = format_model(model)
        for teacher_forcing in (True, False):
            outcome, run = _outcome(lambda: evaluate(corpus, model, config, teacher_forcing=teacher_forcing))
            oracle_outcome, oracle_trace = _outcome(
                lambda: figure1_evaluate(plain, oracle_model, reset=teacher_forcing, **index)
            )
            assert outcome == oracle_outcome
            if outcome == "ok":
                assert _trace(run.records) == oracle_trace
                _assert_records_agree(run)
        assert format_model(model) == saved


# Ten cue kinds emitted at 0.4 over three agent pairs, with shifts and base
# shifts: most points read several tables and most turn lines are distinct.
DENSE_CONFIG = GeneratorConfig(
    name="dense", dialogues=9, turns_per_dialogue=40, pairs=3,
    cue_emit={k: 0.4 for k in (CueKind.END_SILENCE, CueKind.QUESTION_DOMAIN, CueKind.INVALIDITY_ACTION,
                               CueKind.AMBIGUITY_BELIEF, CueKind.NO_NEW_INFO_PROMPT, CueKind.SUBOPTIMALITY,
                               CueKind.EXPLICIT_GIVEUP, CueKind.QUESTION_EVALUATION,
                               CueKind.OBLIGATION_FULFILLED_TASK, CueKind.INVALIDITY_BELIEF)},
    cue_shift={CueKind.QUESTION_DOMAIN: 0.9, CueKind.EXPLICIT_GIVEUP: 0.9, CueKind.NO_NEW_INFO_PROMPT: 0.7},
    base_shift_task=0.05, base_shift_dialogue=0.05,
)
PINNED_CORPORA = {"readme": (README_CONFIG, 7), "default": (GeneratorConfig(), 5), "dense": (DENSE_CONFIG, 2)}
# Keyed by (corpus, method, delta) and (corpus, method, cross-validated).
PINNED_RUNS = {
    ("readme", "const", 0.35): "2cfc0b2ba18b40dd61ba791c62e73ec99f11d2836cdec5c1ef73b48dd612ddd7",
    ("readme", "const", 0.1): "867140ae78144b6e00363c50ea112cb87182dff94edee61dfdcf418e3fd18d32",
    ("readme", "const-counter", 0.35): "771302e2264ed066e3d86a8cf9017ddf1a31818a7dd566a313a5c62a22ac700e",
    ("readme", "const-counter", 0.1): "129ceaa6bc861763f8733eb2e6f34e844fa20627add7b366b390af5cece4a9d6",
    ("readme", "var-counter", 0.35): "09eeea1c8f510f096048246f3008fb22d380da29bda7a98b23f4e0feffe058a8",
    ("readme", "var-counter", 0.1): "3a702be216e7d4a8ba1d387e2bc9ca9630903081d329a7288dc8f9b51dd7e25b",
    ("default", "const", 0.35): "7824e37a7ae0be8b7377cf2436a5e0a4d0952d003a8a438ae868a99c3c0edf06",
    ("default", "const", 0.1): "7824e37a7ae0be8b7377cf2436a5e0a4d0952d003a8a438ae868a99c3c0edf06",
    ("default", "const-counter", 0.35): "7824e37a7ae0be8b7377cf2436a5e0a4d0952d003a8a438ae868a99c3c0edf06",
    ("default", "const-counter", 0.1): "7824e37a7ae0be8b7377cf2436a5e0a4d0952d003a8a438ae868a99c3c0edf06",
    ("default", "var-counter", 0.35): "7824e37a7ae0be8b7377cf2436a5e0a4d0952d003a8a438ae868a99c3c0edf06",
    ("default", "var-counter", 0.1): "7824e37a7ae0be8b7377cf2436a5e0a4d0952d003a8a438ae868a99c3c0edf06",
    ("dense", "const", 0.35): "e56af63b389b82a66b6f04bf692cfa8a1239603f098558a1676109ee9c19f1b5",
    ("dense", "const", 0.1): "9f64f5f2520a0b1cdb6647e30ae4915891298ec82b57cc65d7b8afdcee3038e8",
    ("dense", "const-counter", 0.35): "58be30d64552091f0d9f31079df2f1e11952cb3fe0c5277f1ddc292b929261b5",
    ("dense", "const-counter", 0.1): "4bc824b25a3425b22b56e2c081b79ea82446f069192e990bd3e91196a7397607",
    ("dense", "var-counter", 0.35): "84813ac07259fd0960956d521570f91e87bf87abeee0c06253cb7a4381cf23de",
    ("dense", "var-counter", 0.1): "fcd5158e8316f56251ac2513388fc46412f19f2c692267cfa0f16d9cd6162c6e",
}
PINNED_SWEEPS = {
    ("readme", "const", False): "6b72b058038b59d6219a3c288657ddac2fb23f85ada47c99c490c23a3994b18c",
    ("readme", "const", True): "8b3913be6abd1dd6b0f2235bbc32865e6137e49f982417eb32c7678acb9602ec",
    ("readme", "const-counter", False): "6ff08ff03f3beccf4f2f8b94e7b3b9667a13b16b93cca3939fa4bc93db78c416",
    ("readme", "const-counter", True): "a8342d0dbe0d1378d8f62eacd71599d0aac685f2b1c78c4052f2b05fc52433ea",
    ("readme", "var-counter", False): "1f2ccb2682dc6e531b4fbcad97f49e7160b3cbe87d014923e463e566219c3d9f",
    ("readme", "var-counter", True): "1f2ccb2682dc6e531b4fbcad97f49e7160b3cbe87d014923e463e566219c3d9f",
    ("default", "const", False): "fffc5db12507cbaf71c3b8cc4d41647e6430681b1f183e3274099cb069589745",
    ("default", "const", True): "55aa53bb4164c1a223a3b51d62e0cb1c2ba506bd97675dc27bdbbae16f5ea413",
    ("default", "const-counter", False): "fffc5db12507cbaf71c3b8cc4d41647e6430681b1f183e3274099cb069589745",
    ("default", "const-counter", True): "b9ea37bb2241e541feadbbafae56824ff7fe6f2b52bf129f8846119c99334feb",
    ("default", "var-counter", False): "fffc5db12507cbaf71c3b8cc4d41647e6430681b1f183e3274099cb069589745",
    ("default", "var-counter", True): "e41979ff40ad321d900eb5ff2ec4ffecb0e5ffe0bdffc2a996a7016be5feda14",
    ("dense", "const", False): "7f06cff34727a45f1fb50d9b38e9c259a399906f2d67426dedebf3043a4697c2",
    ("dense", "const", True): "64a3eb31942bad521844e01996760771ba1d45d23dd244d8e10d0bc4b08ace04",
    ("dense", "const-counter", False): "239909052f38c1ccbf6024d010df2f351131577f1d1bbd9232d9bea7e6fd11dc",
    ("dense", "const-counter", True): "becff0998d434628d53c80a830541da14ab011396ad60ff71709305cad31d27e",
    ("dense", "var-counter", False): "a0fd54d5111ed4720c18e5ab491e61279f42bacbfd75f9212769b5aa4e59adf9",
    ("dense", "var-counter", True): "cf1da997fa06466ca67185f226af1f72cf7d2b8e14cf3bc71bc191a587ecab2c",
}

# The baseline's outcome vectors and error reports, by corpus.
PINNED_BASELINES = {
    "readme": "63ba234ddeb59668d7a4ef9863161455db7a93b58c3f0b17078e65b1f06b8a86",
    "default": "c8f709fa8ddc5c302f0f671bbd8c8965674d8aed2c7fbf2b996b23a7635196a2",
    "dense": "a0310a90b0adb096cf2ed501d7504caf9e248fb574cd5f36e90419048de28600",
}
# Keyed by (corpus, method, delta): the error reports of frozen evaluate and
# of the cross-validated aggregate, whose dialogues come in fold order.
PINNED_REPORTS = {
    ("readme", "const", 0.35): "d5d0d2365e9dcb93030ef626d2bf02d2c7b04969fb9ca4f692f78d4bb84dca23",
    ("readme", "const", 0.1): "982d03cb459c29c042fa5d0e15df72ae509b7075b3c8180b900ce87cc5ef9114",
    ("readme", "const-counter", 0.35): "4071c6036c65b064b8865c7ea19851226e2123a309d1bcb3d1acee1325d23736",
    ("readme", "const-counter", 0.1): "00047b99546760537b327c098f0c30698e6185adcf7f6897b5e392cf740ab9c8",
    ("readme", "var-counter", 0.35): "73bd08dcc9ff2216c7d814e2bc20078bfdc2c2d539e1249b24b355c7e967bafc",
    ("readme", "var-counter", 0.1): "4071c6036c65b064b8865c7ea19851226e2123a309d1bcb3d1acee1325d23736",
    ("default", "const", 0.35): "cdca8ba6e53870a7938e74bd991d26802a5bb893ef52b3411e6f27221ec66069",
    ("default", "const", 0.1): "cdca8ba6e53870a7938e74bd991d26802a5bb893ef52b3411e6f27221ec66069",
    ("default", "const-counter", 0.35): "cdca8ba6e53870a7938e74bd991d26802a5bb893ef52b3411e6f27221ec66069",
    ("default", "const-counter", 0.1): "cdca8ba6e53870a7938e74bd991d26802a5bb893ef52b3411e6f27221ec66069",
    ("default", "var-counter", 0.35): "cdca8ba6e53870a7938e74bd991d26802a5bb893ef52b3411e6f27221ec66069",
    ("default", "var-counter", 0.1): "cdca8ba6e53870a7938e74bd991d26802a5bb893ef52b3411e6f27221ec66069",
    ("dense", "const", 0.35): "fa39f68b5e8d83146447615f2dd97e3184282cff809bbc99e7bbd0ccce7ad7b8",
    ("dense", "const", 0.1): "8e48bc0f6c3da87626c77911532bb5fd2cebd9df2660962579c9902a1ff2014b",
    ("dense", "const-counter", 0.35): "ba28d5f10b44ce43a72fc73b81d87c24061e751bb31330fbcd6233ad18d58946",
    ("dense", "const-counter", 0.1): "c9ce0d4e84fb9df497d1f63c53632e0b05d0c413ca78f3e99022544557def62e",
    ("dense", "var-counter", 0.35): "1548625f395a10bf8078d98f474c36f7693cb455ae19016d819d6138448a486b",
    ("dense", "var-counter", 0.1): "2f8d51478b4c08a77f8504cca80d46bc84767abe5d21897146d196dd3c0133fc",
}


def _pinned(call) -> str:
    """A run's outcome vectors in hex, then whether each record's TI and DI
    prediction names the speaker, one byte a point; or its error's type and message."""
    try:
        run = call()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    ti_speaker = bytes(r.predicted_ti is Role.SPEAKER for r in run.records)
    di_speaker = bytes(r.predicted_di is Role.SPEAKER for r in run.records)
    return " ".join(v.hex() for v in (run.ti_ok, run.di_ok, ti_speaker, di_speaker))


def _reports(corpus, call) -> str:
    """A run's error report as CSV and as text, or the type and message of its error."""
    try:
        report = error_report(call(), corpus)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return error_report_csv(report) + error_report_text(report)

def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class TestPinnedOutputs:
    """Byte-for-byte outputs of the kernel, as sha256 digests.

    The run and sweep digests were taken before prediction points were
    derived once per dialogue, the baseline and report digests before the
    analysis passes read those points; any change to the arithmetic, its
    order or a fold's error shows here, where the oracle tests allow 1e-12
    on masses.
    """

    @pytest.mark.parametrize("delta", [0.35, 0.1])
    @pytest.mark.parametrize("method", list(AdjustmentMethod), ids=str)
    @pytest.mark.parametrize("corpus_name", list(PINNED_CORPORA))
    def test_train_and_evaluate(self, corpus_name, method, delta):
        corpus = gen_synthetic(*PINNED_CORPORA[corpus_name])
        config = TrackerConfig(delta=delta, method=method)
        model = init_model()
        trained = _pinned(lambda: train(corpus, config, model).run)
        digest = _digest(
            trained,
            format_model(model),
            _pinned(lambda: evaluate(corpus, model, config)),
            _pinned(lambda: evaluate(corpus, model, config, teacher_forcing=False)),
        )
        assert digest == PINNED_RUNS[corpus_name, str(method), delta]

    @pytest.mark.parametrize("cross_validated", [False, True], ids=["train", "xval"])
    @pytest.mark.parametrize("method", list(AdjustmentMethod), ids=str)
    @pytest.mark.parametrize("corpus_name", list(PINNED_CORPORA))
    def test_sweep(self, corpus_name, method, cross_validated):
        corpus = gen_synthetic(*PINNED_CORPORA[corpus_name])
        try:
            text = sweep_csv(sweep(corpus, TrackerConfig(method=method), cross_validated=cross_validated))
        except ValueError as exc:
            text = f"{type(exc).__name__}: {exc}"
        assert _digest(text) == PINNED_SWEEPS[corpus_name, str(method), cross_validated]

    @pytest.mark.parametrize("corpus_name", list(PINNED_CORPORA))
    def test_baseline(self, corpus_name):
        corpus = gen_synthetic(*PINNED_CORPORA[corpus_name])
        digest = _digest(_pinned(lambda: baseline_run(corpus)), _reports(corpus, lambda: baseline_run(corpus)))
        assert digest == PINNED_BASELINES[corpus_name]

    @pytest.mark.parametrize("delta", [0.35, 0.1])
    @pytest.mark.parametrize("method", list(AdjustmentMethod), ids=str)
    @pytest.mark.parametrize("corpus_name", list(PINNED_CORPORA))
    def test_error_reports(self, corpus_name, method, delta):
        corpus = gen_synthetic(*PINNED_CORPORA[corpus_name])
        config = TrackerConfig(delta=delta, method=method)
        model = init_model()
        _pinned(lambda: train(corpus, config, model).run)  # a failed training leaves its partial model
        digest = _digest(
            _reports(corpus, lambda: evaluate(corpus, model, config)),
            _reports(corpus, lambda: cross_validate(corpus, config).aggregate),
        )
        assert digest == PINNED_REPORTS[corpus_name, str(method), delta]


class TestSweep:
    def test_default_grid(self, handtrace_corpus):
        rows = sweep(handtrace_corpus, TrackerConfig(method=CONST))
        assert len(rows) == 19
        for i, row in enumerate(rows):
            assert row.delta == pytest.approx(0.025 + 0.025 * i, abs=1e-12)

    def test_rows_run_the_config_with_each_delta(self):
        # Every setting but delta comes from the one config, method included.
        corpus = gen_synthetic(
            GeneratorConfig(
                dialogues=6,
                turns_per_dialogue=12,
                pairs=3,
                cue_emit={CueKind.NO_NEW_INFO_PROMPT: 0.4},
                cue_shift={CueKind.NO_NEW_INFO_PROMPT: 0.9},
            ),
            9,
        )
        config = TrackerConfig(method=VAR_COUNTER, default_x=0.75, reset_strength=0.6)
        for cross_validated in (False, True):
            rows = sweep(corpus, config, (0.3, 0.1, 0.2), cross_validated=cross_validated)
            assert [row.delta for row in rows] == [0.1, 0.2, 0.3]
            # The index settings reach the runs: the default ones score otherwise.
            assert rows[0] != sweep(corpus, TrackerConfig(method=VAR_COUNTER), [0.1], cross_validated=cross_validated)[0]
            for row in rows:
                run_config = TrackerConfig(delta=row.delta, method=VAR_COUNTER, default_x=0.75, reset_strength=0.6)
                if cross_validated:
                    direct = cross_validate(corpus, run_config).aggregate
                else:
                    direct = train(corpus, run_config).run
                assert direct.predictions > 0
                assert (row.task_accuracy, row.dialogue_accuracy) == (direct.task_accuracy, direct.dialogue_accuracy)

    def test_ascending_order(self, handtrace_corpus):
        rows = sweep(handtrace_corpus, TrackerConfig(method=CONST), [0.3, 0.1, 0.2])
        assert [r.delta for r in rows] == [0.1, 0.2, 0.3]

    def test_warning_names_the_tracker(self, handtrace_corpus):
        # Not collections, where `_replace` is defined: the copy is built
        # by the tracker's own `_make`.
        with pytest.warns(UserWarning, match="delta=0.5") as record:
            sweep(handtrace_corpus, TrackerConfig(method=CONST), [0.5])
        assert record[0].filename == tracker.__file__

    def test_rows_do_not_repeat_the_reset_warning(self, handtrace_corpus):
        # The config has warned when it was built; its rows share its reset strength.
        with pytest.warns(UserWarning, match="reset_strength=0.3"):
            config = TrackerConfig(method=CONST, reset_strength=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = sweep(handtrace_corpus, config, [0.1, 0.2])
        assert len(rows) == 2

    def test_bad_delta_fails_before_training(self, handtrace_corpus, monkeypatch):
        trained = []
        monkeypatch.setattr(tracker, "train", lambda corpus, config: trained.append(config.delta))
        with pytest.raises(ValueError, match=r"^delta=1 method=const: delta must lie in \(0, 1\)"):
            sweep(handtrace_corpus, TrackerConfig(method=CONST), [0.1, 0.2, 1.0])
        assert trained == []

    def test_empty_grid_rejected(self, handtrace_corpus):
        with pytest.raises(ValueError):
            sweep(handtrace_corpus, TrackerConfig(method=CONST), [])

    def test_csv_shape(self, handtrace_corpus):
        rows = sweep(handtrace_corpus, TrackerConfig(method=CONST), [0.35])
        text = sweep_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "delta,task_accuracy,dialogue_accuracy"
        assert lines[1] == "0.350,1.000000,0.000000"

    def test_grid_helper(self):
        grid = delta_grid(*DEFAULT_GRID)
        assert len(grid) == 19
        assert grid[0] == 0.025
        assert grid[-1] == pytest.approx(0.475, abs=1e-12)

    def test_delta_grid_bounds(self):
        assert delta_grid(0.1, 0.3, 0.1) == (0.1, 0.2, 0.30000000000000004)
        assert delta_grid(0.3, 0.1, 0.1) == ()
        with pytest.raises(ValueError, match="positive"):
            delta_grid(0.1, 0.3, 0.0)
        for bounds in ((0.1, 0.3, math.nan), (0.1, math.inf, 0.1), (math.nan, 0.3, 0.1)):
            with pytest.raises(ValueError, match="finite"):
                delta_grid(*bounds)
        assert len(delta_grid(0.0, 9999.0, 1.0)) == 10_000
        with pytest.raises(ValueError, match="more than 10000 points"):
            delta_grid(0.0, 10_000.0, 1.0)
        # start + i * step stays at start, so an unbounded grid would never end.
        with pytest.raises(ValueError, match="more than 10000 points"):
            delta_grid(0.025, 0.475, 1e-300)
