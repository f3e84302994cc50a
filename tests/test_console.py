"""The console-script checks: each runs `initrack` as a separate process.

The command prefix comes from INITRACK_CONSOLE (split as a shell would),
by default `python -m initrack.cli` on the package this module imports.
To check an installed package, run this module from outside the checkout
with INITRACK_CONSOLE=initrack and pytest's --noconftest, so that the
`initrack` imported here, and the replica it ships, are the installed ones.
"""

import hashlib
import os
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
