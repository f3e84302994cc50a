import argparse
import importlib
import io
import os
import re
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import event, example, given, note, settings, strategies as st

import initrack
from initrack.cli import main
from initrack.corpus import GeneratorConfig, format_corpus, gen_synthetic, load_corpus, save_corpus
from initrack.cues import CueKind, Dimension, canonical_specs, format_model, init_model, load_model, save_model
from initrack.evalstats import baseline_run, cross_validate, error_report, evaluate
from initrack.evidence import MassFunction
from initrack.tracker import DEFAULT_GRID, AdjustmentMethod, TrackerConfig, delta_grid, sweep, sweep_csv, train

GOOD = """\
corpus demo
dialogue d1 agents=system,manager
turn speaker=manager ti=manager di=manager cues=question:domain
turn speaker=system ti=manager di=manager cues=no_new_info:prompt
end
"""

BAD = GOOD.replace("cues=no_new_info:prompt", "cues=promptz")

# The README quick-start corpus (200 turns): const training on it meets
# total conflict.
README_GEN = ["gen-synthetic", "--seed", "7", "--dialogues", "8", "--turns", "25", "--pairs", "4",
              "--cue-emit", "no_new_info:prompt=0.35", "--cue-shift", "no_new_info:prompt=0.9"]

# Corpora the parser accepts but on which no prediction is made: no dialogue
# at all, and dialogues of one turn each.
NO_POINT_CORPORA = {
    "no-dialogue": "corpus x\n",
    "one-turn": (
        "corpus x\n"
        "dialogue d1 agents=a,b\nturn speaker=a ti=a di=a cues=-\nend\n"
        "dialogue d2 agents=c,d\nturn speaker=c ti=c di=c cues=-\nend\n"
    ),
}

SUBCOMMANDS = [
    "validate",
    "distribution",
    "train",
    "eval",
    "baseline",
    "xval",
    "sweep",
    "report-errors",
    "compare",
    "kappa",
    "cochran-q",
    "gen-synthetic",
]


@pytest.fixture
def good_corpus(tmp_path):
    path = tmp_path / "good.dti"
    path.write_text(GOOD, encoding="utf-8")
    return path


@pytest.fixture
def synth_corpus(tmp_path):
    config = GeneratorConfig(
        dialogues=6,
        turns_per_dialogue=12,
        pairs=3,
        cue_emit={CueKind.NO_NEW_INFO_PROMPT: 0.4},
        cue_shift={CueKind.NO_NEW_INFO_PROMPT: 0.9},
    )
    path = tmp_path / "synth.dti"
    save_corpus(gen_synthetic(config, 9), path)
    return path


class TestUsage:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_smoke(self, command, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--" in out or command == "validate"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 64
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["validate"]) == 64

    def test_no_args(self):
        assert main([]) == 64

    def test_a_command_builds_one_parser(self, monkeypatch, capsys):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            progs.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["validate", "--corpus", str(initrack.REPLICA_PATH)]) == 0
        assert progs == ["initrack validate"]

    def test_leading_unknown_option_is_the_top_level_usage_error(self, capsys):
        # The top-level parser knows no command's flags, so it lists them too.
        assert main(["--foo", "validate", "--corpus", "x"]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: initrack [-h]\n")
        assert err.endswith("\ninitrack: error: unrecognized arguments: --foo --corpus x\n")

    def test_help_after_a_leading_unknown_option_is_a_usage_error(self, capsys):
        # The top-level parser's commands take no flags, not even -h.
        assert main(["--foo", "train", "-h"]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: initrack [-h]\n")
        assert err.endswith("\ninitrack: error: unrecognized arguments: --foo -h\n")

    @pytest.mark.parametrize("command", ["eval", "report-errors", "compare"])
    @pytest.mark.parametrize("flag", [["--delta", "0.35"], ["--method", "const"]])
    def test_frozen_commands_take_no_training_flags(self, command, flag, good_corpus, tmp_path, capsys):
        focus = ["--focus-agent", "manager"] if command == "compare" else []
        argv = [command, "--corpus", str(good_corpus), "--model", str(tmp_path / "m.model"), *focus, *flag]
        assert main(argv) == 64
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestValidate:
    def test_ok(self, good_corpus, capsys):
        assert main(["validate", "--corpus", str(good_corpus)]) == 0
        assert "2 turns" in capsys.readouterr().out

    def test_bad_exit_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.dti"
        path.write_text(BAD, encoding="utf-8")
        assert main(["validate", "--corpus", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.dti:4" in err
        assert "promptz" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--corpus", str(tmp_path / "nope.dti")]) == 2


class TestTrainEval:
    def test_train_writes_model(self, good_corpus, tmp_path, capsys):
        model_path = tmp_path / "out.model"
        code = main(
            [
                "train",
                "--corpus",
                str(good_corpus),
                "--delta",
                "0.35",
                "--method",
                "const-counter",
                "--model",
                str(model_path),
            ]
        )
        assert code == 0
        assert model_path.exists()
        captured = capsys.readouterr()
        assert "task" in captured.out
        assert "wrote model" in captured.err

    def test_train_deterministic_bytes(self, synth_corpus, tmp_path):
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        assert main(["train", "--corpus", str(synth_corpus), "--model", str(a)]) == 0
        assert main(["train", "--corpus", str(synth_corpus), "--model", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eval_round_trip(self, synth_corpus, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--corpus", str(synth_corpus), "--model", str(model_path)])
        capsys.readouterr()
        assert main(["eval", "--corpus", str(synth_corpus), "--model", str(model_path), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("dim,correct,total,accuracy")

    def test_eval_teacher_forcing_flag(self, synth_corpus, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--corpus", str(synth_corpus), "--model", str(model_path)])
        capsys.readouterr()
        assert (
            main(
                [
                    "eval",
                    "--corpus",
                    str(synth_corpus),
                    "--model",
                    str(model_path),
                    "--teacher-forcing",
                    "false",
                ]
            )
            == 0
        )

    def test_teacher_forcing_takes_only_a_boolean(self, good_corpus, tmp_path, capsys):
        argv = ["eval", "--corpus", str(good_corpus), "--model", str(tmp_path / "m.model"), "--teacher-forcing", "maybe"]
        assert main(argv) == 64
        assert capsys.readouterr().err.endswith(
            "initrack eval: error: argument --teacher-forcing: expected a boolean, got 'maybe'\n"
        )

    def test_bad_delta_is_validation_error(self, good_corpus, capsys):
        assert main(["train", "--corpus", str(good_corpus), "--delta", "1.5"]) == 2


class TestReports:
    def test_distribution_text_and_csv(self, good_corpus, capsys):
        assert main(["distribution", "--corpus", str(good_corpus), "--focus-agent", "manager"]) == 0
        out = capsys.readouterr().out
        assert "focus agent manager" in out
        assert main(
            ["distribution", "--corpus", str(good_corpus), "--focus-agent", "manager", "--format", "csv"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("ti,di,count,pct")

    def test_baseline(self, good_corpus, capsys):
        assert main(["baseline", "--corpus", str(good_corpus)]) == 0
        assert "baseline:" in capsys.readouterr().out

    def test_xval(self, synth_corpus, capsys):
        assert main(["xval", "--corpus", str(synth_corpus), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fold,dim,correct,total,accuracy")
        assert "all,task," in out

    def test_sweep_default_grid(self, good_corpus, capsys):
        assert main(["sweep", "--corpus", str(good_corpus), "--method", "const"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "delta,task_accuracy,dialogue_accuracy"
        assert len(lines) == 20
        assert lines[1].startswith("0.025,")
        assert lines[-1].startswith("0.475,")

    def test_sweep_custom_grid(self, good_corpus, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--corpus",
                    str(good_corpus),
                    "--method",
                    "const",
                    "--sweep-from",
                    "0.1",
                    "--sweep-to",
                    "0.3",
                    "--sweep-step",
                    "0.1",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4

    def test_sweep_failure_names_delta_and_method(self, tmp_path, capsys):
        # const training on the README corpus breaks down at 0.1.
        demo = tmp_path / "demo.dti"
        assert main([*README_GEN, "--out", str(demo)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--corpus", str(demo), "--method", "const"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: delta=0.1 method=const: masses must sum to 1, got ")

    @pytest.mark.parametrize("flag", ["--sweep-from", "--sweep-to", "--sweep-step"])
    def test_sweep_non_finite_grid_exit_2(self, good_corpus, flag, capsys):
        assert main(["sweep", "--corpus", str(good_corpus), "--method", "const", flag, "nan"]) == 2
        assert capsys.readouterr().err == "error: delta grid bounds and step must be finite\n"

    def test_sweep_takes_no_delta(self, good_corpus, capsys):
        # The grid sets every delta, so a --delta would be read by no run.
        assert main(["sweep", "--corpus", str(good_corpus), "--delta", "0.3"]) == 64
        assert "unrecognized arguments: --delta 0.3" in capsys.readouterr().err

    def test_unknown_flag_shows_the_subcommand_usage(self, good_corpus, capsys):
        assert main(["sweep", "--corpus", str(good_corpus), "--delta", "1.5"]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: initrack sweep ")
        assert err.endswith("initrack sweep: error: unrecognized arguments: --delta 1.5\n")

    def test_sweep_zero_step_exit_2(self, good_corpus, capsys):
        assert main(["sweep", "--corpus", str(good_corpus), "--sweep-step", "0"]) == 2
        assert capsys.readouterr().err == "error: delta grid step must be positive, got 0.0\n"

    def test_sweep_grid_too_fine_exit_2(self, good_corpus, capsys):
        assert main(["sweep", "--corpus", str(good_corpus), "--sweep-step", "1e-300"]) == 2
        assert capsys.readouterr().err == "error: delta grid would have more than 10000 points\n"

    def test_sweep_empty_grid_exit_2(self, good_corpus, capsys):
        assert main(["sweep", "--corpus", str(good_corpus), "--sweep-from", "0.3", "--sweep-to", "0.1"]) == 2
        assert capsys.readouterr().err == "error: sweep requires at least one delta\n"

    def test_sweep_runs_the_library_config(self, tmp_path, capsys):
        demo = tmp_path / "demo.dti"
        assert main([*README_GEN, "--out", str(demo)]) == 0
        argv = ["sweep", "--corpus", str(demo), "--xval", "--method", "var-counter",
                "--default-x", "0.7", "--reset-strength", "0.6"]
        capsys.readouterr()
        assert main(argv) == 0
        config = TrackerConfig(method=AdjustmentMethod.VARIABLE_INCREMENT_WITH_COUNTER, default_x=0.7, reset_strength=0.6)
        assert capsys.readouterr().out == sweep_csv(sweep(load_corpus(demo), config, cross_validated=True))

    def test_report_errors(self, synth_corpus, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--corpus", str(synth_corpus), "--model", str(model_path)])
        capsys.readouterr()
        assert (
            main(
                [
                    "report-errors",
                    "--corpus",
                    str(synth_corpus),
                    "--model",
                    str(model_path),
                    "--format",
                    "csv",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("cue,dim,shift_err,shift_tot,noshift_err,noshift_tot")
        assert len(out.strip().split("\n")) == 29

    def test_compare(self, synth_corpus, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--corpus", str(synth_corpus), "--model", str(model_path)])
        capsys.readouterr()
        assert (
            main(
                [
                    "compare",
                    "--corpus",
                    str(synth_corpus),
                    "--model",
                    str(model_path),
                    "--focus-agent",
                    "a0",
                    "--format",
                    "csv",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("corpus,dim,expert_pct,baseline_pct,trained_pct,improvement_pts")

    def test_compare_unknown_focus_agent_exit_2(self, synth_corpus, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        main(["train", "--corpus", str(synth_corpus), "--model", str(model_path)])
        capsys.readouterr()
        argv = ["compare", "--corpus", str(synth_corpus), "--model", str(model_path), "--focus-agent", "nobody"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: agent 'nobody' takes part in no dialogue of corpus 'synthetic' ({synth_corpus})\n"

    def test_out_file(self, good_corpus, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        assert (
            main(["sweep", "--corpus", str(good_corpus), "--method", "const", "--out", str(out_path)]) == 0
        )
        assert capsys.readouterr().out == ""
        assert out_path.read_text().startswith("delta,")


class TestWarnings:
    @pytest.mark.parametrize(
        "argv, deltas",
        [
            (["train", "--delta", "0.5"], ["0.5"]),
            (["sweep", "--sweep-from", "0.5", "--sweep-to", "0.6", "--sweep-step", "0.1"], ["0.5", "0.6"]),
        ],
        ids=["train", "sweep"],
    )
    def test_one_line_per_warning(self, argv, deltas, good_corpus, capsys):
        handler = warnings.showwarning
        assert main([*argv, "--corpus", str(good_corpus)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "".join(f"warning: delta={d} is outside the recommended (0, 0.5) range\n" for d in deltas)
        assert captured.out
        assert warnings.showwarning is handler

    @pytest.mark.parametrize("argv", [["train"], ["sweep"], ["sweep", "--xval"]], ids=["train", "sweep", "sweep-xval"])
    def test_reset_strength_warns_once(self, argv, synth_corpus, capsys):
        # A sweep's rows share one reset strength: one line, not one per row.
        argv = [*argv, "--corpus", str(synth_corpus), "--reset-strength", "0.3"]
        handler = warnings.showwarning
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: reset_strength=0.3 is outside the recommended (0.5, 1) range\n"
        assert _read_report(argv[0], captured.out) == _library_report(argv)
        assert warnings.showwarning is handler


class TestNoPredictionPoint:
    @pytest.mark.parametrize("corpus_text", NO_POINT_CORPORA.values(), ids=NO_POINT_CORPORA.keys())
    @pytest.mark.parametrize(
        "command",
        [
            ["train", "--model", "{out}"],
            ["eval", "--model", "{model}"],
            ["baseline"],
            ["xval"],
            ["sweep"],
            ["sweep", "--xval"],
            ["report-errors", "--model", "{model}"],
            ["compare", "--model", "{model}", "--focus-agent", "a"],
        ],
        ids=["train", "eval", "baseline", "xval", "sweep", "sweep-xval", "report-errors", "compare"],
    )
    def test_exit_3(self, command, corpus_text, tmp_path, capsys):
        corpus_path = tmp_path / "c.dti"
        corpus_path.write_text(corpus_text, encoding="utf-8")
        model_path, out_path = tmp_path / "m.model", tmp_path / "trained.model"
        save_model(init_model(), model_path)
        argv = [arg.format(model=model_path, out=out_path) for arg in command]
        assert main([*argv, "--corpus", str(corpus_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: corpus 'x' ({corpus_path}) has no prediction point: no dialogue has two turns\n"
        )
        assert not out_path.exists()

    def test_xval_held_out_pair_without_point_exit_3(self, tmp_path, capsys):
        corpus_path = tmp_path / "c.dti"
        corpus_path.write_text(
            "corpus x\n"
            "dialogue d1 agents=a,b\nturn speaker=a ti=a di=a cues=-\nturn speaker=b ti=a di=b cues=-\nend\n"
            "dialogue d2 agents=c,d\nturn speaker=c ti=c di=c cues=-\nend\n",
            encoding="utf-8",
        )
        assert main(["xval", "--corpus", str(corpus_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: corpus 'x[c,d]' ({corpus_path}) has no prediction point: no dialogue has two turns\n"
        )


class TestStatistics:
    def test_kappa_file(self, tmp_path, capsys):
        path = tmp_path / "ratings.txt"
        path.write_text("x x x\nx x y\n", encoding="utf-8")
        assert main(["kappa", "--ratings", str(path)]) == 0
        assert "kappa = -0.2" in capsys.readouterr().out

    def test_kappa_degenerate_exit_3(self, tmp_path, capsys):
        path = tmp_path / "ratings.txt"
        path.write_text("x x\nx x\n", encoding="utf-8")
        assert main(["kappa", "--ratings", str(path)]) == 3

    def test_cochran_file(self, tmp_path, capsys):
        path = tmp_path / "outcomes.txt"
        path.write_text("1 1\n1 0\n0 0\n", encoding="utf-8")
        assert main(["cochran-q", "--outcomes", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Q = 1.000000" in out
        assert "df = 1" in out

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # Odd df: the erfc branch of the chi-square tail.
            ("1 0/1 0/1 0/0 1/1 1/0 0/1 0", "Q = 1.800000, df = 1, p = 0.179712\n"),
            # Even df: the exponential-sum branch.
            ("1 0 0/1 1 0/1 0 1/0 1 0/1 1 1/0 0 0/1 1 0/1 0 0", "Q = 4.000000, df = 2, p = 0.135335\n"),
        ],
    )
    def test_cochran_exact_lines(self, tmp_path, capsys, rows, expected):
        path = tmp_path / "outcomes.txt"
        path.write_text(rows.replace("/", "\n") + "\n", encoding="utf-8")
        assert main(["cochran-q", "--outcomes", str(path)]) == 0
        assert capsys.readouterr().out == expected

    def test_cochran_csv_line(self, tmp_path, capsys):
        path = tmp_path / "outcomes.txt"
        path.write_text("1 0\n1 0\n1 0\n0 1\n1 1\n0 0\n1 0\n", encoding="utf-8")
        assert main(["cochran-q", "--outcomes", str(path), "--format", "csv"]) == 0
        assert capsys.readouterr().out == "q,df,p\n1.800000,1,0.179712\n"

    def test_cochran_ragged_rows_exit_2(self, tmp_path, capsys):
        path = tmp_path / "outcomes.txt"
        path.write_text("1 1\n1 0 1\n", encoding="utf-8")
        assert main(["cochran-q", "--outcomes", str(path)]) == 2
        assert "same number of treatments" in capsys.readouterr().err


class TestGenSynthetic:
    def test_deterministic_output(self, capsys):
        argv = [
            "gen-synthetic",
            "--seed",
            "5",
            "--dialogues",
            "2",
            "--turns",
            "10",
            "--cue-emit",
            "no_new_info:prompt=0.4",
            "--cue-shift",
            "no_new_info:prompt=0.9",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("corpus synthetic")

    def test_generated_corpus_validates(self, tmp_path, capsys):
        out_path = tmp_path / "gen.dti"
        assert main(["gen-synthetic", "--seed", "1", "--out", str(out_path)]) == 0
        assert main(["validate", "--corpus", str(out_path)]) == 0

    def test_defaults_are_the_library_defaults(self, capsys):
        assert main(["gen-synthetic", "--seed", "0"]) == 0
        assert capsys.readouterr().out == format_corpus(gen_synthetic(GeneratorConfig(), 0))

    def test_bad_cue_kind(self, capsys):
        for entry, message in [("nope=0.5", "unknown cue 'nope'"), ("end_silence", "expected KIND=P, got 'end_silence'")]:
            assert main(["gen-synthetic", "--cue-emit", entry]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_probability(self, capsys):
        assert main(["gen-synthetic", "--cue-emit", "end_silence=1.5"]) == 2

    @pytest.mark.parametrize("name", ["my corpus", ""])
    def test_name_that_cannot_read_back(self, tmp_path, capsys, name):
        out_path = tmp_path / "x.dti"
        assert main(["gen-synthetic", "--name", name, "--out", str(out_path)]) == 2
        assert repr(name) in capsys.readouterr().err
        assert not out_path.exists()


def test_cli_import_loads_no_importlib_resources():
    src = str(Path(initrack.__file__).resolve().parent.parent)
    code = "import initrack.cli, sys; print('importlib.resources' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def _fresh(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter that imports this initrack."""
    src = str(Path(initrack.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_package_import_loads_no_submodule():
    assert _fresh("import initrack, sys; print(sorted(m for m in sys.modules if m.startswith('initrack')))") == (
        "['initrack']\n"
    )


def test_package_reads_a_submodule_by_name():
    assert _fresh("import initrack, sys; print(initrack.cues is sys.modules['initrack.cues'])") == "True\n"


# Each command loads the library modules its handler runs and no other.  The
# base set is what `cli` imports itself; evalstats imports tracker.
_BASE_MODULES = ["initrack", "initrack.cli", "initrack.corpus", "initrack.cues", "initrack.evidence"]


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["validate", "--corpus", "{corpus}"], []),
        (["distribution", "--corpus", "{replica}", "--focus-agent", "system"], []),
        (["gen-synthetic", "--seed", "3", "--out", "{tmp}/g.dti"], []),
        (["train", "--corpus", "{corpus}"], ["tracker"]),
        (["sweep", "--corpus", "{corpus}", "--sweep-to", "0.1"], ["tracker"]),
        (["sweep", "--corpus", "{corpus}", "--sweep-to", "0.1", "--xval"], ["evalstats", "tracker"]),
        (["baseline", "--corpus", "{corpus}"], ["evalstats", "tracker"]),
        (["eval", "--corpus", "{corpus}", "--model", "{model}"], ["evalstats", "tracker"]),
        (["kappa", "--ratings", "{ratings}"], ["evalstats", "tracker"]),
        (["validate", "--help"], []),
        (["--help"], []),
    ],
    ids=["validate", "distribution", "gen-synthetic", "train", "sweep", "sweep-xval", "baseline", "eval", "kappa",
         "validate-help", "help"],
)
def test_command_loads_only_what_it_runs(argv, loads, synth_corpus, tmp_path):
    model, ratings = tmp_path / "m.model", tmp_path / "ratings.txt"
    save_model(init_model(), model)
    ratings.write_text("x x y\nx x x\n", encoding="utf-8")
    argv = [arg.format(corpus=synth_corpus, replica=initrack.REPLICA_PATH, model=model, ratings=ratings, tmp=tmp_path)
            for arg in argv]
    code = (
        "import sys\n"
        "from contextlib import redirect_stdout\n"
        "from io import StringIO\n"
        "from initrack.cli import main\n"
        f"with redirect_stdout(StringIO()):\n    code = main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('initrack')))\n"
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
    )
    # No command needs `dataclasses` or the `inspect` module it loads.
    assert _fresh(code) == f"0 {sorted([*_BASE_MODULES, *(f'initrack.{m}' for m in loads)])}\n[]\n"


def test_every_public_name_reads_its_module(monkeypatch):
    """Each name of `initrack.__all__` is its module's object, looked up anew on each use."""
    assert len(initrack.__all__) == 78 and initrack.__all__ == sorted(set(initrack.__all__))
    assert set(initrack.__all__) <= set(dir(initrack))
    submodules = [importlib.import_module(f"initrack.{name}") for name in ("evidence", "cues", "corpus", "tracker", "evalstats")]
    for name in initrack.__all__:
        value = getattr(initrack, name)
        if isinstance(value, ModuleType):
            assert value is sys.modules[f"initrack.{name}"]
            continue
        holders = [module.__name__ for module in submodules if vars(module).get(name) is value]
        home = getattr(value, "__module__", "")
        assert home in holders if home.startswith("initrack.") else holders, name
        assert name not in vars(initrack), name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        initrack.no_such_name
    assert initrack.evalstats.DegenerateStatisticError is initrack.DegenerateStatisticError
    # A stand-in set on the module, as the benchmark's tracer sets one, is
    # seen through the package, and so is the original once it is restored.
    original = initrack.evalstats.evaluate
    monkeypatch.setattr(initrack.evalstats, "evaluate", lambda *args, **kwargs: original(*args, **kwargs))
    assert initrack.evaluate is initrack.evalstats.evaluate is not original
    monkeypatch.undo()
    assert initrack.evaluate is initrack.evalstats.evaluate is original


def test_validate_replica_from_a_copied_package(tmp_path):
    package = Path(initrack.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "lib" / "initrack", ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "lib")}

    def run(*args: str) -> str:
        return subprocess.run(
            [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, check=True
        ).stdout

    replica = run("-c", "from initrack import REPLICA_PATH; print(REPLICA_PATH)").strip()
    assert Path(replica).is_relative_to(tmp_path / "lib" / "initrack")
    out = run("-m", "initrack.cli", "validate", "--corpus", replica)
    assert out == "ok: corpus replica_trains91: 8 dialogues, 1042 turns\n"


# ---------------------------------------------------------------------------
# One property over the whole CLI: every accepted or rejected input ends in a
# named exit code.  Its input files are named relative to the `cli_inputs`
# directory, so that an argv can be stated as an @example.


def _values(typical, odd):
    """Flag values, half of them typical and half boundary or malformed."""
    return st.sampled_from(typical) | st.sampled_from(odd)


_FLOATS = _values(["0.025", "0.1", "0.35", "0.75"], ["nan", "inf", "-inf", "0", "1", "-1", "1e-300", "x"])
_INTS = _values(["1", "2", "3"], ["0", "-1", "1.5", "x"])
_FORMATS = _values(["text", "csv"], ["json"])
_BOOLS = _values(["true", "false"], ["1", "off", "maybe"])
_CUE_ENTRIES = st.sampled_from(
    ["end_silence=0.5", "question:domain=1", "no_new_info:prompt=0", "nope=0.5", "end_silence=nan",
     "end_silence=1.5", "end_silence=-0.1", "end_silence", "=0.5", "end_silence=1e-300"]
)

# The corpora the property draws from: "zero-point" has no prediction point,
# and "pointless-pair" has one agent pair with points and one without.
CORPORA = ["zero-point.dti", "pointless-pair.dti", "one-pair.dti", "cue-dense.dti", "saturating.dti",
           "unknown-cue.dti", "missing.dti"]
# The commands that track a corpus: they exit 3 on one without prediction point.
TRACKING = ["train", "eval", "baseline", "xval", "sweep", "report-errors", "compare"]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """The directory of small input files that the CLI property draws from."""
    root = tmp_path_factory.mktemp("cli_property")
    corpora = {
        "zero-point": "corpus x\n",
        "pointless-pair": (
            "corpus x\n"
            "dialogue d1 agents=a0,b0\nturn speaker=a0 ti=a0 di=a0 cues=-\nturn speaker=b0 ti=a0 di=b0 cues=-\nend\n"
            "dialogue d2 agents=a1,b1\nturn speaker=a1 ti=a1 di=a1 cues=-\nend\n"
        ),
        "one-pair": format_corpus(gen_synthetic(GeneratorConfig(dialogues=3, turns_per_dialogue=10), 1)),
        "cue-dense": format_corpus(gen_synthetic(GeneratorConfig(
            dialogues=4, turns_per_dialogue=15, pairs=2,
            cue_emit={kind: 0.5 for kind in list(CueKind)[:8]},
            cue_shift={CueKind.QUESTION_DOMAIN: 0.9, CueKind.END_SILENCE: 0.8},
        ), 2)),
        "unknown-cue": BAD,
    }
    for name, text in corpora.items():
        (root / f"{name}.dti").write_text(text, encoding="utf-8")
    assert main([*README_GEN, "--out", str(root / "saturating.dti")]) == 0
    # The README quick-start model.
    assert main(["train", "--corpus", str(root / "saturating.dti"), "--delta", "0.35", "--method", "const-counter",
                 "--model", str(root / "demo.model")]) == 0
    save_model(init_model(), root / "vacuous.model")
    saturated = init_model()
    saturated.params[CueKind.NO_NEW_INFO_PROMPT].dialogue_bpa = MassFunction(0.0, 1.0, 0.0)
    save_model(saturated, root / "saturated.model")
    (root / "broken.model").write_text("not a model\n", encoding="utf-8")
    for name, text in {
        "ratings": "x x x\nx x y\n", "ratings-same": "x x\nx x\n", "ratings-ragged": "x x\nx\n",
        "outcomes": "1 1\n1 0\n0 0\n", "outcomes-same": "1 1\n1 1\n", "outcomes-bad": "1 2\n0 x\n", "empty": "",
    }.items():
        (root / f"{name}.txt").write_text(text, encoding="utf-8")
    return root


def _in(root: Path, argv: list[str]) -> list[str]:
    """argv with its input and output files placed in `root`."""
    return [str(root / arg) if arg.endswith((".dti", ".model", ".txt")) else arg for arg in argv]


def _cli_flags() -> dict:
    """Each subcommand's flags: (flag, value strategy or None for a switch, required)."""
    corpora = st.sampled_from(CORPORA)
    models = st.sampled_from(["vacuous.model", "demo.model", "saturated.model", "broken.model", "none.model"])
    index = [("--default-x", _FLOATS, False), ("--reset-strength", _FLOATS, False)]
    method = [("--method", _values(["const", "const-counter", "var-counter"], ["constant"]), False), *index]
    tracker = [("--delta", _FLOATS, False), *method]
    output = [("--format", _FORMATS, False), ("--out", st.just("out.txt"), False)]
    focus = ("--focus-agent", st.sampled_from(["a0", "a1", "manager", "nobody"]), True)
    frozen = [("--corpus", corpora, True), ("--model", models, True), ("--teacher-forcing", _BOOLS, False), *index, *output]
    return {
        "validate": [("--corpus", corpora, True)],
        "distribution": [("--corpus", corpora, True), focus, *output],
        "train": [("--corpus", corpora, True), ("--model", st.just("trained.model"), False), *tracker, *output],
        "eval": frozen,
        "baseline": [("--corpus", corpora, True), *output],
        "xval": [("--corpus", corpora, True), ("--teacher-forcing", _BOOLS, False), *tracker, *output],
        "sweep": [
            ("--corpus", corpora, True),
            ("--sweep-from", _values(["0.025", "0.1"], ["0", "1e-300", "nan", "-inf"]), False),
            ("--sweep-to", _values(["0.2", "0.475"], ["1", "inf", "x"]), False),
            ("--sweep-step", _values(["0.025", "0.1"], ["0.5", "0", "-0.1", "1e-300", "nan"]), False),
            ("--xval", None, False),
            *method,
            *output,
        ],
        "report-errors": frozen,
        "compare": [*frozen, ("--corpus", corpora, False), focus],
        "kappa": [("--ratings", st.sampled_from(["ratings.txt", "ratings-same.txt", "ratings-ragged.txt", "empty.txt"]), True), *output],
        "cochran-q": [("--outcomes", st.sampled_from(["outcomes.txt", "outcomes-same.txt", "outcomes-bad.txt", "empty.txt"]), True), *output],
        "gen-synthetic": [
            ("--seed", _INTS, False),
            ("--name", st.sampled_from(["synthetic", "x", "my corpus", ""]), False),
            ("--dialogues", _INTS, False),
            ("--turns", _INTS, False),
            ("--pairs", _INTS, False),
            ("--cue-emit", _CUE_ENTRIES, False),
            ("--cue-shift", _CUE_ENTRIES, False),
            ("--base-shift-task", _FLOATS, False),
            ("--base-shift-dialogue", _FLOATS, False),
            ("--out", st.just("out.txt"), False),
        ],
    }


@st.composite
def cli_argvs(draw) -> list[str]:
    """A command, then its flags: each required one, and each other one a third of the time."""
    flags = _cli_flags()
    command = draw(st.sampled_from(sorted(flags)))
    argv = [command]
    for flag, values, required in flags[command]:
        if required or draw(st.integers(0, 2)) == 0:
            argv += [flag] if values is None else [flag, draw(values)]
    if draw(st.integers(0, 30)) == 0:
        argv.append("--help")
    return argv


def _options(argv: list[str]) -> dict:
    """argv's flags by name, the last value winning; `--corpus` as the list of its values, `--xval` as True."""
    opts, tokens = {"--corpus": []}, iter(argv[1:])
    for flag in tokens:
        if flag == "--xval":
            opts[flag] = True
        elif flag == "--corpus":
            opts[flag].append(next(tokens))
        else:
            opts[flag] = next(tokens)
    return opts


def _library_config(opts: dict) -> TrackerConfig:
    """The config of a run with these flags, each flag left out taking `TrackerConfig`'s default."""
    default = TrackerConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # delta >= 0.5, reset_strength <= 0.5
        return TrackerConfig(
            delta=float(opts.get("--delta", default.delta)),
            method=AdjustmentMethod(opts.get("--method", default.method.value)),
            default_x=float(opts.get("--default-x", default.default_x)),
            reset_strength=float(opts.get("--reset-strength", default.reset_strength)),
        )


def _counts(run) -> tuple[int, int, int]:
    return run.task_correct, run.dialogue_correct, run.predictions


def _library_report(argv: list[str]) -> list[tuple]:
    """What the library computes on the inputs of a tracking command, in the
    form in which `_read_report` reads the command's report.

    An accuracy report gives (task correct, dialogue correct, points) per
    run, xval's its folds' then the aggregate's; sweep its csv rows;
    report-errors its cells; compare, per corpus and dimension, counts in text
    and percentages in csv.
    """
    command, opts = argv[0], _options(argv)
    csv = opts.get("--format") == "csv"
    corpus = load_corpus(opts["--corpus"][0])
    config = _library_config(opts)
    teacher_forcing = opts.get("--teacher-forcing", "true").lower() in ("true", "1", "yes", "on")

    def frozen(corpus):
        return evaluate(corpus, load_model(opts["--model"]), config, teacher_forcing=teacher_forcing)

    if command == "baseline":
        return [_counts(baseline_run(corpus))]
    if command == "train":
        result = train(corpus, config)
        if "--model" in opts:
            assert Path(opts["--model"]).read_text(encoding="utf-8") == format_model(result.model)
        return [_counts(result.run)]
    if command == "eval":
        return [_counts(frozen(corpus))]
    if command == "xval":
        xval = cross_validate(corpus, config, teacher_forcing=teacher_forcing)
        return [*(_counts(fold.result) for fold in xval.folds), _counts(xval.aggregate)]
    if command == "sweep":
        grid = delta_grid(*(float(opts.get(flag, default))
                            for flag, default in zip(("--sweep-from", "--sweep-to", "--sweep-step"), DEFAULT_GRID)))
        rows = sweep(corpus, config, grid, cross_validated="--xval" in opts)
        return [(f"{row.delta:.3f}", f"{row.task_accuracy:.6f}", f"{row.dialogue_accuracy:.6f}") for row in rows]
    if command == "report-errors":
        report = error_report(frozen(corpus), corpus)
        cells = [(str(spec.kind), str(dim), report.cell(spec.kind, dim))
                 for spec in canonical_specs() for dim in (Dimension.TASK, Dimension.DIALOGUE)]
        return [(kind, dim, cell.shift_errors, cell.shift_total, cell.noshift_errors, cell.noshift_total)
                for kind, dim, cell in cells if csv or cell.shift_total or cell.noshift_total]
    assert command == "compare"
    rows = []
    for path in opts["--corpus"]:
        corpus = load_corpus(path)
        base, trained = baseline_run(corpus), frozen(corpus)
        for dim, holder, correct, accuracy in (("task", "ti_holder", "task_correct", "task_accuracy"),
                                               ("dialogue", "di_holder", "dialogue_correct", "dialogue_accuracy")):
            expert = sum(getattr(t, holder) == opts["--focus-agent"] for d in corpus.dialogues for t in d.turns)
            if csv:
                rows.append((corpus.name, dim, f"{100 * expert / corpus.turn_count:.6f}",
                             f"{100 * getattr(base, accuracy):.6f}", f"{100 * getattr(trained, accuracy):.6f}"))
            else:
                rows.append((corpus.name, dim, expert, getattr(base, correct), getattr(trained, correct), base.predictions))
    return rows


def _read_report(command: str, report: str) -> list[tuple]:
    """The numbers of a tracking command's report, text or csv, in the form `_library_report` gives."""
    lines = report.splitlines()
    csv = lines[0].partition(",")[0] in ("dim", "fold", "cue", "corpus")  # a csv header

    def match(pattern: str, line: str) -> tuple[str, ...]:
        found = re.fullmatch(pattern, line)
        assert found, (pattern, line)
        return found.groups()

    if command in ("baseline", "train", "eval", "xval"):
        if csv:  # a header, then a task and a dialogue row per run, each led by xval's fold
            rows = [match(r"(?:[^,]+,)?(task|dialogue),(\d+),(\d+),[^,]+", line) for line in lines[1:]]
            runs = list(zip(rows[::2], rows[1::2]))
            assert all(task[0] == "task" and dialogue[0] == "dialogue" for task, dialogue in runs)
            counts = [(task[1], dialogue[1], task[2], dialogue[2]) for task, dialogue in runs]
        else:
            counts = [match(r"[^:]+: task (\d+)/(\d+) \([^)]*\), dialogue (\d+)/(\d+) \([^)]*\)", line)
                      for line in lines]
            counts = [(t_correct, d_correct, t_total, d_total) for t_correct, t_total, d_correct, d_total in counts]
        assert all(t_total == d_total for *_, t_total, d_total in counts)
        return [(int(t_correct), int(d_correct), int(total)) for t_correct, d_correct, total, _ in counts]
    if command == "sweep":
        assert lines[0] == "delta,task_accuracy,dialogue_accuracy"
        return [tuple(line.split(",")) for line in lines[1:]]
    if command == "report-errors":
        pattern = r"([^,]+),([^,]+),(\d+),(\d+),(\d+),(\d+)" if csv else r"(\S+) +(\S+) +(\d+)/(\d+) +(\d+)/(\d+)"
        return [(kind, dim, *map(int, counts)) for kind, dim, *counts in (match(pattern, line) for line in lines[1:])]
    assert command == "compare"
    if csv:
        return [match(r"([^,]+),([^,]+),([^,]+),([^,]+),([^,]+),[^,]+", line) for line in lines[1:]]
    rows = [match(r"(\S+) +(\S+) +(\d+) \([^)]*\) +(\d+)/(\d+) \([^)]*\) +(\d+)/(\d+) \([^)]*\) +-?\d+\.\d", line)
            for line in lines[1:]]
    assert all(base_points == trained_points for *_, base_points, _, trained_points in rows)
    return [(name, dim, int(expert), int(base), int(trained), int(points))
            for name, dim, expert, base, points, trained, _ in rows]


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["baseline", "--corpus", "cue-dense.dti"],
        ["train", "--corpus", "cue-dense.dti", "--method", "const-counter", "--delta", "0.2", "--model", "t.model"],
        ["train", "--corpus", "cue-dense.dti", "--method", "var-counter", "--delta", "0.35",
         "--default-x", "0.3", "--reset-strength", "0.1"],
        ["eval", "--corpus", "cue-dense.dti", "--model", "vacuous.model"],
        ["eval", "--corpus", "one-pair.dti", "--model", "saturated.model", "--teacher-forcing", "false"],
        ["eval", "--corpus", "cue-dense.dti", "--model", "vacuous.model", "--teacher-forcing", "off",
         "--default-x", "0.3", "--reset-strength", "0.6"],
        ["xval", "--corpus", "saturating.dti", "--teacher-forcing", "false", "--method", "var-counter", "--delta", "0.2"],
        ["sweep", "--corpus", "cue-dense.dti", "--sweep-to", "0.2", "--method", "var-counter", "--default-x", "0.3"],
        ["sweep", "--corpus", "saturating.dti", "--xval", "--sweep-step", "0.1", "--reset-strength", "0.6"],
        ["report-errors", "--corpus", "saturating.dti", "--model", "demo.model", "--teacher-forcing", "false"],
        ["compare", "--corpus", "saturating.dti", "--model", "demo.model", "--focus-agent", "a0",
         "--corpus", "cue-dense.dti", "--teacher-forcing", "false"],
    ],
    ids=["baseline", "train", "train-index", "eval", "eval-closed-loop", "eval-index", "xval", "sweep", "sweep-xval",
         "report-errors", "compare"],
)
def test_zero_exit_prints_the_library_counts(cli_inputs, argv, fmt, capsys):
    argv = _in(cli_inputs, argv)
    assert main([*argv, "--format", fmt]) == 0
    assert _read_report(argv[0], capsys.readouterr().out) == _library_report([*argv, "--format", fmt])


def _examples(argvs: list[list[str]]):
    """Add each argv as an explicit example of the property."""
    def add(test):
        for argv in argvs:
            test = example(argv=argv)(test)
        return test
    return add


# Every command that reads a corpus, on every corpus, with typical settings;
# then a closed-loop eval that exits 0.
_CORPUS_EXAMPLES = [
    [command, "--corpus", corpus, *extra]
    for command, extra in {
        "validate": [], "distribution": ["--focus-agent", "a0"], "train": [], "eval": ["--model", "vacuous.model"],
        "baseline": [], "xval": [], "sweep": [], "report-errors": ["--model", "vacuous.model"],
        "compare": ["--model", "vacuous.model", "--focus-agent", "a0"],
    }.items()
    for corpus in CORPORA
] + [["eval", "--corpus", "one-pair.dti", "--model", "saturated.model", "--teacher-forcing", "false"]] + [
    # A broken model does not hide a corpus with no prediction point.
    [command, "--corpus", "zero-point.dti", "--model", "broken.model", *extra]
    for command, extra in (("eval", []), ("report-errors", []), ("compare", ["--focus-agent", "a0"]))
]


@_examples(_CORPUS_EXAMPLES)
@settings(max_examples=300, deadline=None)
@given(argv=cli_argvs())
def test_every_input_ends_in_a_named_exit_code(cli_inputs, argv):
    """Exit 0, 2, 3 or 64, never 1; no traceback; stdout empty unless exit 0, and no nan then.

    A tracking command exits 3 on a corpus with no prediction point, and xval
    also on one with an agent pair that has none, whatever is wrong with its
    model or settings.  Its zero exit prints what the library computes on
    the same inputs, and train's --model file holds the model that `train`
    returns.

    Saturating inputs may exit 2 with "cannot combine totally conflicting
    mass functions" or "masses must sum to 1": tracking is not yet total.
    """
    note(argv)
    command, argv = argv[0], _in(cli_inputs, argv)
    out_file = cli_inputs / "out.txt"
    out_file.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"{command} exit {code}")
    assert code in (0, 2, 3, 64), err
    assert "Traceback" not in err
    if command in TRACKING and code != 64 and "--help" not in argv:
        corpus = Path(_options(argv)["--corpus"][0]).name
        if corpus == "zero-point.dti" or (command, corpus) == ("xval", "pointless-pair.dti"):
            assert code == 3, err
    if code:
        assert out == ""
        assert not out_file.exists()
    else:
        written = out_file.read_text(encoding="utf-8") if out_file.exists() else ""
        assert not re.search(r"\bnan\b", out + written, re.IGNORECASE)
        if command in TRACKING and "--help" not in argv:
            assert _read_report(command, out + written) == _library_report(argv)
