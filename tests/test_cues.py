import copy
import pickle

import pytest

from initrack.cues import (
    TABLE_INDEX,
    CueClass,
    CueEffect,
    CueKind,
    Dimension,
    ModelFormatError,
    UnknownCueError,
    canonical_specs,
    format_model,
    init_model,
    load_model,
    parse_cue,
    parse_model,
    save_model,
)
from initrack.evalstats import evaluate
from initrack.evidence import MassFunction, Role, vacuous
from initrack.tracker import AdjustmentMethod, TrackerConfig, train

# The full taxonomy: (token, class, effect, expected holder).
TAXONOMY = [
    ("explicit_giveup", "explicit", "both", "hearer"),
    ("explicit_takeover", "explicit", "both", "speaker"),
    ("end_silence", "discourse", "both", "hearer"),
    ("no_new_info:repetition", "discourse", "both", "hearer"),
    ("no_new_info:prompt", "discourse", "both", "hearer"),
    ("question:domain", "discourse", "dialogue-only", "speaker"),
    ("question:evaluation", "discourse", "dialogue-only", "hearer"),
    ("obligation_fulfilled:task", "discourse", "both", "hearer"),
    ("obligation_fulfilled:discourse", "discourse", "dialogue-only", "hearer"),
    ("invalidity:action", "analytical", "both", "hearer"),
    ("invalidity:belief", "analytical", "dialogue-only", "hearer"),
    ("suboptimality", "analytical", "both", "hearer"),
    ("ambiguity:action", "analytical", "both", "hearer"),
    ("ambiguity:belief", "analytical", "dialogue-only", "hearer"),
]


class TestTaxonomy:
    def test_count(self):
        assert len(canonical_specs()) == 14
        assert len(CueKind) == 14

    def test_canonical_order_and_fields(self):
        specs = canonical_specs()
        assert [s.kind.value for s in specs] == [row[0] for row in TAXONOMY]
        for spec, (token, cls, effect, holder) in zip(specs, TAXONOMY):
            assert spec.cue_class is CueClass(cls)
            assert spec.effect is CueEffect(effect)
            assert spec.expected_holder is Role(holder)

    def test_lookup_examples(self):
        specs = {spec.kind: spec for spec in canonical_specs()}
        spec = specs[CueKind.QUESTION_DOMAIN]
        assert spec.effect is CueEffect.DIALOGUE_ONLY
        assert spec.expected_holder is Role.SPEAKER
        spec = specs[CueKind.INVALIDITY_ACTION]
        assert spec.effect is CueEffect.BOTH
        assert spec.expected_holder is Role.HEARER

    @pytest.mark.parametrize("member", [*CueKind, *Dimension])
    def test_copied_members_hash_as_the_original(self, member):
        for copied in (copy.deepcopy(member), pickle.loads(pickle.dumps(member))):
            assert copied is member
            assert hash(copied) == hash(member)
            assert {member: 1}[copied] == 1

    def test_copied_keys_find_their_table(self):
        for key, i in TABLE_INDEX.items():
            assert TABLE_INDEX[pickle.loads(pickle.dumps(key))] == i
            assert TABLE_INDEX[copy.deepcopy(key)] == i

    def test_parse_cue(self):
        assert parse_cue("ambiguity:belief") is CueKind.AMBIGUITY_BELIEF
        assert parse_cue("question:evaluation") is CueKind.QUESTION_EVALUATION
        with pytest.raises(UnknownCueError):
            parse_cue("prompts")
        with pytest.raises(UnknownCueError):
            parse_cue("No_New_Info:Prompt")


class TestInitModel:
    def test_vacuous_everywhere(self):
        model = init_model()
        assert set(model.params) == set(CueKind)
        assert model.params[CueKind.SUBOPTIMALITY].task_bpa == vacuous()
        assert model.params[CueKind.END_SILENCE].dialogue_counter == 0
        assert model.params[CueKind.QUESTION_DOMAIN].task_bpa is None
        assert model.params[CueKind.QUESTION_DOMAIN].task_counter is None

    def test_scope_totality(self):
        model = init_model()
        for spec in canonical_specs():
            params = model.params[spec.kind]
            has_task = params.task_bpa is not None
            assert has_task == (spec.effect is CueEffect.BOTH)


class TestParamsView:
    def test_view_fetched_before_train_reads_the_trained_tables(self, handtrace_corpus):
        model = init_model()
        prompt = model.params[CueKind.NO_NEW_INFO_PROMPT]
        train(handtrace_corpus, TrackerConfig(delta=0.35, method=AdjustmentMethod.CONSTANT_INCREMENT), model)
        assert prompt.dialogue_bpa == MassFunction(0.0, 0.35, 0.65)
        assert prompt.task_bpa == vacuous()

    def test_writes_reach_the_model_file_and_the_tracker(self, handtrace_corpus):
        model = init_model()
        assert evaluate(handtrace_corpus, model, TrackerConfig()).dialogue_correct == 0
        prompt = model.params[CueKind.NO_NEW_INFO_PROMPT]
        prompt.dialogue_bpa = MassFunction(0.0, 0.35, 0.65)
        prompt.dialogue_counter = 4
        line = (
            "cue=no_new_info:prompt dim=dialogue"
            " m_speaker=0 m_hearer=0.34999999999999998 m_theta=0.65000000000000002 counter=4"
        )
        assert line in format_model(model).splitlines()
        assert evaluate(handtrace_corpus, model, TrackerConfig()).dialogue_correct == 1

    @pytest.mark.parametrize("name, value", [("task_bpa", MassFunction(0.2, 0.0, 0.8)), ("task_counter", 1)])
    def test_dialogue_only_cue_has_no_task_table(self, name, value):
        model = init_model()
        params = model.params[CueKind.QUESTION_DOMAIN]
        with pytest.raises(AttributeError, match="question:domain affects the dialogue initiative only"):
            setattr(params, name, value)
        assert getattr(params, name) is None
        assert model == init_model()

    def test_a_model_equals_no_other_type(self):
        model = init_model()
        assert model.__eq__((model.masses, model.counters)) is NotImplemented
        assert model != (model.masses, model.counters)

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda model: pickle.loads(pickle.dumps(model))], ids=["deepcopy", "pickle"]
    )
    def test_copies_are_independent(self, clone):
        model = init_model()
        silence = model.params[CueKind.END_SILENCE]
        silence.task_bpa = MassFunction(0.2, 0.0, 0.8)
        copied = clone(model)
        assert copied == model
        copied.params[CueKind.END_SILENCE].dialogue_bpa = MassFunction(0.0, 0.5, 0.5)
        copied.params[CueKind.END_SILENCE].task_counter = 5
        assert copied != model
        assert silence.dialogue_bpa == vacuous()
        assert silence.task_counter == 0
        assert copied.params[CueKind.END_SILENCE].task_bpa == MassFunction(0.2, 0.0, 0.8)

    def test_view_is_not_part_of_the_value(self):
        model = init_model()
        model.params[CueKind.END_SILENCE].dialogue_counter = 2
        assert repr(model) == f"CueModel(masses={model.masses!r}, counters={model.counters!r})"
        other = init_model()
        other.counters[TABLE_INDEX[CueKind.END_SILENCE, Dimension.DIALOGUE]] = 2
        assert other == model


class TestPersistence:
    def test_fresh_model_line_count(self):
        text = format_model(init_model())
        lines = text.strip().split("\n")
        assert lines[0] == "initrack-model v1"
        assert len(lines) - 1 == 23  # 9 both-effect cues x 2 + 5 dialogue-only x 1

    def test_round_trip_fresh(self):
        model = init_model()
        assert parse_model(format_model(model)) == model

    def test_round_trip_trained(self, tmp_path):
        model = init_model()
        p = model.params[CueKind.NO_NEW_INFO_PROMPT]
        p.dialogue_bpa = MassFunction(0.1234567891234567, 0.35, 1.0 - 0.1234567891234567 - 0.35)
        p.dialogue_counter = 7
        p.task_bpa = MassFunction(0.0, 1.0 / 3.0, 2.0 / 3.0)
        p.task_counter = -3
        path = tmp_path / "trained.model"
        save_model(model, path)
        assert load_model(path) == model
        # byte-for-byte reproducible
        save_model(model, tmp_path / "again.model")
        assert (tmp_path / "again.model").read_bytes() == path.read_bytes()

    def test_comments_allowed(self):
        text = format_model(init_model())
        commented = text.replace("initrack-model v1", "# note\ninitrack-model v1", 1)
        assert parse_model(commented) == init_model()

    def test_bad_sum_rejected(self):
        text = format_model(init_model()).replace(
            "cue=explicit_giveup dim=task m_speaker=0 m_hearer=0 m_theta=1 counter=0",
            "cue=explicit_giveup dim=task m_speaker=0.2 m_hearer=0.2 m_theta=0.5 counter=0",
        )
        with pytest.raises(ModelFormatError) as exc:
            parse_model(text)
        assert exc.value.line == 2

    def test_duplicate_rejected(self):
        text = format_model(init_model())
        line = "cue=explicit_giveup dim=task m_speaker=0 m_hearer=0 m_theta=1 counter=0"
        with pytest.raises(ModelFormatError, match="duplicate"):
            parse_model(text + line + "\n")

    def test_missing_rejected(self):
        lines = format_model(init_model()).strip().split("\n")
        with pytest.raises(ModelFormatError, match="missing"):
            parse_model("\n".join(lines[:-1]) + "\n")

    @pytest.mark.parametrize(
        "dropped, message",
        [
            # Line 0 is the header; lines 1 and 2 are explicit_giveup's task and dialogue entries.
            ((23,), "<model>:0: missing dialogue entry for cue ambiguity:belief"),
            ((1,), "<model>:0: missing task entry for cue explicit_giveup"),
            ((1, 2), "<model>:0: missing dialogue entry for cue explicit_giveup"),
            ((5, 22), "<model>:0: missing task entry for cue end_silence"),
        ],
    )
    def test_missing_entry_message(self, dropped, message):
        lines = format_model(init_model()).strip().split("\n")
        text = "\n".join(line for i, line in enumerate(lines) if i not in dropped) + "\n"
        with pytest.raises(ModelFormatError) as exc:
            parse_model(text)
        assert str(exc.value) == message
        assert exc.value.line == 0

    def test_unknown_cue_rejected(self):
        text = "initrack-model v1\ncue=nope dim=task m_speaker=0 m_hearer=0 m_theta=1 counter=0\n"
        with pytest.raises(ModelFormatError, match="unknown cue"):
            parse_model(text)

    def test_task_entry_for_dialogue_only_cue_rejected(self):
        text = "initrack-model v1\ncue=question:domain dim=task m_speaker=0 m_hearer=0 m_theta=1 counter=0\n"
        with pytest.raises(ModelFormatError, match="dialogue initiative only"):
            parse_model(text)

    def test_malformed_line(self):
        with pytest.raises(ModelFormatError, match="malformed|missing"):
            parse_model("initrack-model v1\ncue=end_silence dim=task\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("initrack-model v1\ncue=end_silence dim=task m_speaker=0 m_hearer=0 m_theta=1 counter=0 extra\n",
             "<model>:2: malformed field 'extra'"),
            ("initrack-model v1\ncue=end_silence color=red dim=task m_speaker=0 m_hearer=0 m_theta=1 counter=0\n",
             "<model>:2: malformed field 'color=red'"),
            ("initrack-model v1\n\ncue=end_silence cue=end_silence dim=task m_speaker=0 m_hearer=0 m_theta=1 counter=0\n",
             "<model>:3: malformed field 'cue=end_silence'"),
            ("initrack-model v1\ncue=end_silence dim=topic m_speaker=0 m_hearer=0 m_theta=1 counter=0\n",
             "<model>:2: unknown dimension 'topic'"),
            ("", "<model>:0: empty model file"),
            ("# a comment\n\n", "<model>:0: empty model file"),
        ],
    )
    def test_error_message(self, text, message):
        with pytest.raises(ModelFormatError) as exc:
            parse_model(text)
        assert str(exc.value) == message

    def test_missing_header(self):
        with pytest.raises(ModelFormatError, match="header"):
            parse_model("cue=end_silence dim=task m_speaker=0 m_hearer=0 m_theta=1 counter=0\n")

    def test_lines_end_at_lf_only(self):
        # str.splitlines() would end the comment at U+2028 and read 'B' as an entry line.
        text = format_model(init_model()).replace("\n", "\n# trained on corpus A\u2028B\n", 1)
        assert parse_model(text) == init_model()

    def test_form_feed_line_is_one_line(self):
        lines = format_model(init_model()).split("\n")
        text = "\n".join([lines[0], lines[1], "\x0c", lines[2], "cue=bogus dim=task m_speaker=0 m_hearer=0 m_theta=1 counter=0"])
        with pytest.raises(ModelFormatError) as exc:
            parse_model(text)
        assert (str(exc.value), exc.value.line) == ("<model>:5: unknown cue 'bogus'", 5)

    def test_crlf_line_ends(self):
        text = format_model(init_model())
        assert parse_model(text.replace("\n", "\r\n")) == init_model()

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_load_reads_universal_newlines(self, tmp_path, end):
        path = tmp_path / "m.model"
        path.write_bytes(format_model(init_model()).replace("\n", end).encode())
        assert load_model(path) == init_model()
        bogus = "cue=bogus dim=task m_speaker=0 m_hearer=0 m_theta=1 counter=0"
        path.write_bytes(f"initrack-model v1{end}\x0c{end}{bogus}{end}".encode())
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}:3: unknown cue 'bogus'"

    def test_dimension_str(self):
        assert str(Dimension.TASK) == "task"
        assert str(Dimension.DIALOGUE) == "dialogue"
