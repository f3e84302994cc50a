"""The console-script checks: each runs `initrack` as a separate process.

The command prefix comes from INITRACK_CONSOLE (split as a shell would),
by default `python -m initrack.cli` on the package this module imports.
To check an installed package, run this module from outside the checkout
with INITRACK_CONSOLE=initrack and pytest's --noconftest, so that the
`initrack` imported here, and the replica it ships, are the installed ones.
"""

import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import initrack
from initrack import REPLICA_PATH

if "INITRACK_CONSOLE" in os.environ:
    PREFIX = shlex.split(os.environ["INITRACK_CONSOLE"])
    ENV = None
else:
    PREFIX = [sys.executable, "-m", "initrack.cli"]
    _src = str(Path(initrack.__file__).resolve().parent.parent)
    ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_src, os.environ.get("PYTHONPATH")]))}

# The README quick-start corpus.
DEMO = ["gen-synthetic", "--seed", "7", "--dialogues", "8", "--turns", "25", "--pairs", "4",
        "--cue-emit", "no_new_info:prompt=0.35", "--cue-shift", "no_new_info:prompt=0.9", "--out", "demo.dti"]


def run(cwd: Path, *args: str, status: int = 0) -> str:
    """Run one initrack command in cwd, check its exit status and return its stdout."""
    done = subprocess.run([*PREFIX, *args], cwd=cwd, env=ENV, capture_output=True, text=True)
    assert done.returncode == status, done.stderr
    return done.stdout


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def demo(tmp_path_factory) -> Path:
    """A directory holding demo.dti and the README's demo.model."""
    cwd = tmp_path_factory.mktemp("demo")
    run(cwd, *DEMO)
    run(cwd, "train", "--corpus", "demo.dti", "--delta", "0.35", "--method", "const-counter", "--model", "demo.model")
    return cwd


def test_package_ships_the_replica_corpus(tmp_path):
    out = run(tmp_path, "validate", "--corpus", str(REPLICA_PATH)).rstrip("\n")
    assert out.startswith("ok: corpus replica_trains91: ") and out.endswith(" 1042 turns")


def test_defaults_come_from_the_library(tmp_path):
    # gen-synthetic's defaults are GeneratorConfig's, and sweep's grid is initrack.DEFAULT_GRID (19 deltas).
    run(tmp_path, "gen-synthetic", "--seed", "5", "--out", "g.dti")
    assert run(tmp_path, "validate", "--corpus", "g.dti") == "ok: corpus synthetic: 8 dialogues, 160 turns\n"
    assert len(run(tmp_path, "sweep", "--corpus", "g.dti", "--method", "const-counter").splitlines()) == 20


def test_cross_validated_sweep(demo):
    # The README quick-start corpus: a cross-validated sweep re-tracks its dialogues for 19 deltas x 4 folds.
    xval = run(demo, "sweep", "--corpus", "demo.dti", "--method", "const-counter", "--xval")
    assert len(xval.splitlines()) == 20
    assert sha256(xval) == "a8342d0dbe0d1378d8f62eacd71599d0aac685f2b1c78c4052f2b05fc52433ea"


def test_baseline_and_error_report(demo):
    baseline = run(demo, "baseline", "--corpus", "demo.dti")
    assert sha256(baseline) == "4c69b82fef2e9723ee2822b96d87bae5ef614784eca59685c5c27ab792648eee"
    errors = run(demo, "report-errors", "--corpus", "demo.dti", "--model", "demo.model", "--format", "csv")
    assert sha256(errors) == "641026eb8f96a2a90624578c8b81d65c4b0bbecec456e6a5a553b089c04099c5"


def test_dense_corpus_validates(tmp_path):
    # Ten cue kinds emitted at 0.5 over 8 agent pairs: almost every turn line is new to the parser.
    emit = ["end_silence", "question:domain", "invalidity:action", "ambiguity:belief", "no_new_info:prompt",
            "suboptimality", "explicit_giveup", "question:evaluation", "obligation_fulfilled:task", "invalidity:belief"]
    run(tmp_path, "gen-synthetic", "--seed", "5", "--dialogues", "40", "--turns", "50", "--pairs", "8",
        *(arg for kind in emit for arg in ("--cue-emit", f"{kind}=0.5")),
        "--cue-shift", "question:domain=0.9", "--cue-shift", "explicit_giveup=0.9", "--out", "dense.dti")
    assert run(tmp_path, "validate", "--corpus", "dense.dti") == "ok: corpus synthetic: 40 dialogues, 2000 turns\n"


def test_cochran_q_both_tail_branches(tmp_path):
    # Both branches of the chi-square tail: odd df (erfc) and even df (exponential sum).
    (tmp_path / "odd.txt").write_text("1 0\n1 0\n1 0\n0 1\n1 1\n0 0\n1 0\n")
    assert run(tmp_path, "cochran-q", "--outcomes", "odd.txt") == "Q = 1.800000, df = 1, p = 0.179712\n"
    (tmp_path / "even.txt").write_text("1 0 0\n1 1 0\n1 0 1\n0 1 0\n1 1 1\n0 0 0\n1 1 0\n1 0 0\n")
    assert run(tmp_path, "cochran-q", "--outcomes", "even.txt") == "Q = 4.000000, df = 2, p = 0.135335\n"


def test_empty_corpus_exits_3(tmp_path):
    # A corpus with no dialogue has no prediction point: every tracking command exits 3.
    (tmp_path / "empty.dti").write_text("corpus x\n")
    run(tmp_path, "baseline", "--corpus", "empty.dti", status=3)


# sha256 of each command's stdout on the README quick-start corpus and model, text then csv.
DEMO_MODEL = ["--corpus", "demo.dti", "--model", "demo.model"]
PINNED = {
    "train": (["train", "--corpus", "demo.dti", "--delta", "0.35", "--method", "const-counter"],
              "8583a41525dc7293e46e1533b8a061cfc52f80b6c241d886f1c21e6d284b83a6",
              "957bd5e7eb2172a6714afc9cd6bd3433c02f7f13d1551080f54dceacc710071e"),
    "eval": (["eval", *DEMO_MODEL],
             "519561ea212b9b6cc2053d3edc10911c0d876a51795ec4d0a662554e4e5dfc4f",
             "33a4196feae46dc63e3e276c657f83ec6de75ce37ecdb382f2e2033df32c5e62"),
    "eval-closed-loop": (["eval", *DEMO_MODEL, "--teacher-forcing", "false"],
                         "3d17a3fe94601d3e2018a27ed4912167427d9b93b270b70fa6d1232f959bb85c",
                         "6677938364b4caf96fe31b8bac09f1a61c8a000c30a090fab15352567837cd91"),
    "xval": (["xval", "--corpus", "demo.dti"],
             "a72d80042948662b7243a0082152a8ff12f500531d770cad1020539509da5e47",
             "02fd90aa9f0d612bde430b59a84dae9fe8e5636221133383853d453b47ec45a0"),
    "compare": (["compare", *DEMO_MODEL, "--focus-agent", "a0"],
                "69f3aab95b836d6894a2700539d6e667a7bcff8e0e07524b4a6f5a77dbef6959",
                "8607d8c3ae6694df2837f035f56bdde4981d6b00da4cc67faef21600422121ec"),
    "report-errors": (["report-errors", *DEMO_MODEL],
                      "fb690600603c3c9367fa562d39c4b0b46c02ea3d8d6b4c055829023fff980dd1",
                      "641026eb8f96a2a90624578c8b81d65c4b0bbecec456e6a5a553b089c04099c5"),
}


def test_quickstart_files(demo):
    assert sha256((demo / "demo.dti").read_text()) == "e96b617ac63c1ff20203aad3b8fc99b8877a435ec57471bf19fe84a7599d6174"
    assert sha256((demo / "demo.model").read_text()) == "14092349ad02db4d406a2d7580625f1f0bac5318545b4f82e2c25ab70a6e86eb"


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("name", PINNED)
def test_quickstart_stdout(demo, name, fmt):
    argv, text, csv = PINNED[name]
    assert sha256(run(demo, *argv, "--format", fmt)) == (text if fmt == "text" else csv)


@pytest.mark.parametrize("fmt, digest", [
    ("text", "41c4cf64d4438c1976513143569ea353872170181b379e81061241c53825637a"),
    ("csv", "73e992eeb44e33457e95c7dc0e6d514fdf6a5ef85b5b7d6c9c6b38de043248d7"),
])
def test_replica_distribution(tmp_path, fmt, digest):
    out = run(tmp_path, "distribution", "--corpus", str(REPLICA_PATH), "--focus-agent", "system", "--format", fmt)
    assert sha256(out) == digest


def test_out_file_holds_the_stdout(demo):
    argv = PINNED["compare"][0]
    assert run(demo, *argv, "--out", "compare.txt") == ""
    assert (demo / "compare.txt").read_text() == run(demo, *argv)


# Each subcommand's options, as its --help lists them: the flag and its metavar
# or choices.  The layout around them differs between Python versions.
_TRACKER = ["--delta DELTA", "--method {const,const-counter,var-counter}"]
_INDEX = ["--default-x DEFAULT_X", "--reset-strength RESET_STRENGTH"]
_OUTPUT = ["--out OUT", "--format {text,csv}"]
_FROZEN = ["--corpus CORPUS", "--model MODEL", "--teacher-forcing BOOL", *_INDEX, *_OUTPUT]
OPTIONS = {
    "validate": ["--corpus CORPUS"],
    "distribution": ["--corpus CORPUS", "--focus-agent FOCUS_AGENT", *_OUTPUT],
    "train": ["--corpus CORPUS", "--model MODEL", *_TRACKER, *_INDEX, *_OUTPUT],
    "eval": _FROZEN,
    "baseline": ["--corpus CORPUS", *_OUTPUT],
    "xval": ["--corpus CORPUS", "--teacher-forcing BOOL", *_TRACKER, *_INDEX, *_OUTPUT],
    "sweep": ["--corpus CORPUS", "--sweep-from SWEEP_FROM", "--sweep-to SWEEP_TO", "--sweep-step SWEEP_STEP",
              "--xval", *_TRACKER[1:], *_INDEX, *_OUTPUT],
    "report-errors": _FROZEN,
    "compare": [*_FROZEN[:2], "--focus-agent FOCUS_AGENT", *_FROZEN[2:]],
    "kappa": ["--ratings RATINGS", *_OUTPUT],
    "cochran-q": ["--outcomes OUTCOMES", *_OUTPUT],
    "gen-synthetic": ["--seed SEED", "--name NAME", "--dialogues DIALOGUES", "--turns TURNS", "--pairs PAIRS",
                      "--cue-emit KIND=P", "--cue-shift KIND=P", "--base-shift-task BASE_SHIFT_TASK",
                      "--base-shift-dialogue BASE_SHIFT_DIALOGUE", "--out OUT"],
}


def _section(help_text: str, heading: str) -> str:
    return help_text.split(f"\n{heading}:\n", 1)[1].split("\n\n", 1)[0]


def test_commands_in_help(tmp_path):
    out = run(tmp_path, "--help")
    assert re.findall(r"^    (\S+)", _section(out, "positional arguments"), re.M) == list(OPTIONS)
    assert re.findall(r"^  (-\S.*?)(?:  |$)", _section(out, "options"), re.M) == ["-h, --help"]


@pytest.mark.parametrize("command", OPTIONS)
def test_options_in_help(tmp_path, command):
    options = re.findall(r"^  (-h, --help|--[\w-]+(?: \S+)?)", _section(run(tmp_path, command, "--help"), "options"), re.M)
    assert options == ["-h, --help", *OPTIONS[command]]
