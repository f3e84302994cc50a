"""Straight-line restatement of the initiative tracker, for checking results.

This module shares no code with the `initrack` package or with the test
oracles.  It reads the corpus and model files as plain text, keeps masses
as dicts keyed by focal element, and replays each computation in the most
direct form: Dempster's rule by enumerating pairs of focal elements, the
frozen and training tracker loops turn by turn, the keep-the-holder
baseline, per-cue shift tallies, multi-rater kappa and Cochran's Q.

Run as a program it answers a batch of jobs, so that the benchmark can keep
the reference's memory out of its own process:

    python3 perfbench/reference.py JOBS.json OUT.json
"""

from __future__ import annotations

import json
import math
import sys

# Focal elements as bit sets over the frame {speaker, hearer}.
SPK, HEA, THETA = 1, 2, 3
FOCAL = (SPK, HEA, THETA)

# Tolerance on the sum of a mass function; the tracker rejects any
# combination result outside it.
SUM_TOLERANCE = 1e-9

# Which initiatives each cue bears on: "both" or the dialogue initiative only.
SCOPE = {
    "explicit_giveup": "both",
    "explicit_takeover": "both",
    "end_silence": "both",
    "no_new_info:repetition": "both",
    "no_new_info:prompt": "both",
    "question:domain": "dialogue",
    "question:evaluation": "dialogue",
    "obligation_fulfilled:task": "both",
    "obligation_fulfilled:discourse": "dialogue",
    "invalidity:action": "both",
    "invalidity:belief": "dialogue",
    "suboptimality": "both",
    "ambiguity:action": "both",
    "ambiguity:belief": "dialogue",
}
DIMS = ("task", "dialogue")


class Conflict(Exception):
    """Dempster's rule is undefined: the two mass functions conflict totally."""


class Unnormalised(Exception):
    """A combination came out with masses that no longer sum to 1."""


def mass(speaker: float, hearer: float, theta: float) -> dict[int, float]:
    return {SPK: speaker, HEA: hearer, THETA: theta}


def dempster(m1: dict[int, float], m2: dict[int, float]) -> dict[int, float]:
    """Dempster's rule by brute force over all pairs of focal elements."""
    acc = {SPK: 0.0, HEA: 0.0, THETA: 0.0}
    conflict = 0.0
    for a in FOCAL:
        for b in FOCAL:
            product = m1[a] * m2[b]
            if a & b:
                acc[a & b] += product
            else:
                conflict += product
    norm = 1.0 - conflict
    if norm <= 0.0:
        raise Conflict("total conflict")
    out = {focal: value / norm for focal, value in acc.items()}
    if abs(sum(out.values()) - 1.0) > SUM_TOLERANCE:
        raise Unnormalised(f"combined masses sum to {sum(out.values())!r}")
    return out


# ---------------------------------------------------------------------------
# Files


def read_corpus(path: str) -> list[tuple[str, tuple[str, str], list[tuple[str, str, str, tuple[str, ...]]]]]:
    """Dialogues as (id, agents, turns); a turn is (speaker, ti, di, cues)."""
    dialogues = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            words = raw.split()
            if not words or words[0].startswith("#"):
                continue
            if words[0] == "dialogue":
                a, b = words[2][len("agents="):].split(",")
                current: list = []
                dialogues.append((words[1], (a, b), current))
            elif words[0] == "turn":
                fields = dict(w.split("=", 1) for w in words[1:])
                cues = () if fields["cues"] == "-" else tuple(fields["cues"].split(","))
                current.append((fields["speaker"], fields["ti"], fields["di"], cues))
    return dialogues


def read_model(path: str) -> dict[tuple[str, str], dict]:
    tables = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            if not raw.startswith("cue="):
                continue
            fields = dict(w.split("=", 1) for w in raw.split())
            m = mass(float(fields["m_speaker"]), float(fields["m_hearer"]), float(fields["m_theta"]))
            tables[(fields["cue"], fields["dim"])] = {"m": m, "counter": int(fields["counter"])}
    return tables


def fresh_tables() -> dict[tuple[str, str], dict]:
    tables = {}
    for cue, scope in SCOPE.items():
        for dim in DIMS:
            if dim == "dialogue" or scope == "both":
                tables[(cue, dim)] = {"m": mass(0.0, 0.0, 1.0), "counter": 0}
    return tables


# ---------------------------------------------------------------------------
# Tracking


def _move(table: dict, to_speaker: bool, amount: float) -> None:
    m = table["m"]
    inc = min(amount, m[THETA])
    if to_speaker:
        table["m"] = mass(m[SPK] + inc, m[HEA], m[THETA] - inc)
    else:
        table["m"] = mass(m[SPK], m[HEA] + inc, m[THETA] - inc)


def _adjust(table: dict, to_speaker: bool, method: str, delta: float) -> None:
    if method == "const":
        _move(table, to_speaker, delta)
        return
    table["counter"] -= 1
    if method == "const-counter":
        if table["counter"] < 0:
            _move(table, to_speaker, delta)
            table["counter"] = 0
        return
    # var-counter: the remaining credit halves the step, at most delta / 2.
    _move(table, to_speaker, delta / 2 ** (max(table["counter"], 0) + 1))


def track(dialogues, tables, *, learn: bool, method: str = "const-counter", delta: float = 0.35,
          teacher_forced: bool = True, default_x: float = 0.5, reset: float = 0.75) -> list[tuple[str, str]]:
    """Replay the tracker; returns the predicted (TI, DI) holder of every point.

    With learn=True the tables are adjusted in place after each error and
    credited after each correct prediction.  Raises Conflict or
    Unnormalised where the tracker's own arithmetic breaks down.
    """
    predictions = []
    for _, agents, turns in dialogues:
        index = {dim: mass(default_x, 1.0 - default_x, 0.0) for dim in DIMS}
        for t in range(len(turns) - 1):
            speaker, _, _, cues = turns[t]
            hearer = agents[1] if speaker == agents[0] else agents[0]
            nxt = turns[t + 1]
            point = []
            for dim, actual in (("task", nxt[1]), ("dialogue", nxt[2])):
                used = [c for c in cues if dim == "dialogue" or SCOPE[c] == "both"]
                m = index[dim]
                for cue in used:
                    m = dempster(m, tables[(cue, dim)]["m"])
                predicted = speaker if m[SPK] >= m[HEA] else hearer
                point.append(predicted)
                if predicted == actual:
                    if learn and method != "const":
                        for cue in used:
                            tables[(cue, dim)]["counter"] += 1
                else:
                    if learn:
                        for cue in used:
                            _adjust(tables[(cue, dim)], actual == speaker, method, delta)
                    if teacher_forced:
                        m = mass(reset, 1.0 - reset, 0.0) if actual == speaker else mass(1.0 - reset, reset, 0.0)
                # The next turn's speaker is this turn's hearer.
                index[dim] = mass(m[HEA], m[SPK], m[THETA])
            predictions.append((point[0], point[1]))
    return predictions


def points_of(dialogues) -> list[tuple[str, str, str, str, tuple[str, ...]]]:
    """Every prediction point as (TI now, DI now, TI next, DI next, cues)."""
    out = []
    for _, _, turns in dialogues:
        for t in range(len(turns) - 1):
            out.append((turns[t][1], turns[t][2], turns[t + 1][1], turns[t + 1][2], turns[t][3]))
    return out


def counts(dialogues, predictions) -> dict:
    pts = points_of(dialogues)
    return {
        "points": len(pts),
        "task_correct": sum(p[0] == pt[2] for p, pt in zip(predictions, pts)),
        "dialogue_correct": sum(p[1] == pt[3] for p, pt in zip(predictions, pts)),
    }


def baseline(dialogues) -> dict:
    """Keep-the-holder: predict that each initiative stays where it is."""
    return counts(dialogues, [(pt[0], pt[1]) for pt in points_of(dialogues)])


def shift_cells(dialogues, predictions) -> dict[str, list[int]]:
    """Per 'cue,dim': [shift errors, shift total, no-shift errors, no-shift total].

    Every cue of a point counts toward both dimensions.
    """
    cells = {f"{cue},{dim}": [0, 0, 0, 0] for cue in SCOPE for dim in DIMS}
    for pred, pt in zip(predictions, points_of(dialogues)):
        for cue in pt[4]:
            for dim, now, nxt, guess in (("task", pt[0], pt[2], pred[0]), ("dialogue", pt[1], pt[3], pred[1])):
                cell = cells[f"{cue},{dim}"]
                col = 0 if now != nxt else 2
                cell[col] += guess != nxt
                cell[col + 1] += 1
    return cells


def distribution(dialogues, focus: str) -> list[int]:
    cells = [0, 0, 0, 0]
    for _, _, turns in dialogues:
        for _, ti, di, _ in turns:
            cells[(0 if di == focus else 2) + (0 if ti == focus else 1)] += 1
    return cells


def cross_validate(dialogues, method: str, delta: float) -> dict:
    """Leave one agent pair out: train on the rest, evaluate the held-out pair."""
    total = {"points": 0, "task_correct": 0, "dialogue_correct": 0}
    for pair in sorted({d[1] for d in dialogues}):
        tables = fresh_tables()
        track([d for d in dialogues if d[1] != pair], tables, learn=True, method=method, delta=delta)
        held = [d for d in dialogues if d[1] == pair]
        for key, value in counts(held, track(held, tables, learn=False)).items():
            total[key] += value
    return total


# ---------------------------------------------------------------------------
# Statistics


def kappa(ratings: list[list[str]]) -> float:
    n_items, raters = len(ratings), len(ratings[0])
    labels = sorted({label for row in ratings for label in row})
    agree = 0
    totals = dict.fromkeys(labels, 0)
    for row in ratings:
        for label in labels:
            n = row.count(label)
            agree += n * (n - 1)
            totals[label] += n
    p_a = agree / (n_items * raters * (raters - 1))
    p_e = sum((totals[label] / (n_items * raters)) ** 2 for label in labels)
    return (p_a - p_e) / (1.0 - p_e)


def chi_square_tail(x: float, df: int) -> float:
    """Upper tail of chi-square for integer df, by its closed form."""
    if x <= 0.0:
        return 1.0
    y = x / 2.0
    if df % 2 == 0:
        term, total = 1.0, 1.0
        for i in range(1, df // 2):
            term *= y / i
            total += term
        return math.exp(-y) * total
    total = math.erfc(math.sqrt(y))
    for i in range(df // 2):
        total += math.exp(-y + (i + 0.5) * math.log(y) - math.lgamma(i + 1.5))
    return total


def cochran_q(table: list[list[int]]) -> tuple[float, int, float]:
    k = len(table[0])
    cols = [sum(row[j] for row in table) for j in range(k)]
    rows = [sum(row) for row in table]
    num = (k - 1) * (k * sum(g * g for g in cols) - sum(cols) ** 2)
    den = k * sum(rows) - sum(r * r for r in rows)
    if den == 0:
        return 0.0, k - 1, 1.0
    q = num / den
    return q, k - 1, chi_square_tail(q, k - 1)


# ---------------------------------------------------------------------------
# Jobs


def encode(dialogues, predictions) -> str:
    """One digit per point: 2 * (TI predicted for the dialogue's first agent)
    + (DI predicted for it)."""
    firsts = [agents[0] for _, agents, turns in dialogues for _ in range(len(turns) - 1)]
    return "".join(str(2 * (ti == first) + (di == first)) for (ti, di), first in zip(predictions, firsts))


def _replay(dialogues, tables, prefix: str, **options) -> dict:
    """Predictions, counts and shift cells of one replay, or the fault that stopped it."""
    try:
        predictions = track(dialogues, tables, **options)
    except (Conflict, Unnormalised) as exc:
        return {f"{prefix}fault": type(exc).__name__}
    return {f"{prefix}fault": None, f"{prefix}predictions": encode(dialogues, predictions),
            f"{prefix}counts": counts(dialogues, predictions), f"{prefix}cells": shift_cells(dialogues, predictions)}


def _track_job(job: dict) -> dict:
    """Frozen tracking of a corpus with a model file."""
    dialogues = read_corpus(job["corpus"])
    return _replay(dialogues, read_model(job["model"]), "", learn=False,
                   teacher_forced=job.get("teacher_forced", True))


def _train_eval_job(job: dict) -> dict:
    """One training pass from fresh tables, then frozen teacher-forced tracking."""
    dialogues = read_corpus(job["corpus"])
    tables = fresh_tables()
    out = _replay(dialogues, tables, "train_", learn=True, method=job["method"], delta=job["delta"])
    if out["train_fault"] is None:
        out["tables"] = {f"{c},{d}": [t["m"][SPK], t["m"][HEA], t["m"][THETA], t["counter"]]
                         for (c, d), t in tables.items()}
        out.update(_replay(dialogues, tables, "eval_", learn=False))
    return out


def _xval_job(job: dict) -> dict:
    try:
        return cross_validate(read_corpus(job["corpus"]), job["method"], job["delta"])
    except (Conflict, Unnormalised) as exc:
        return {"fault": type(exc).__name__}


def _sweep_job(job: dict) -> dict:
    dialogues = read_corpus(job["corpus"])
    rows = []
    for delta in job["deltas"]:
        predictions = track(dialogues, fresh_tables(), learn=True, method=job["method"], delta=delta)
        rows.append([delta, counts(dialogues, predictions)])
    return {"rows": rows}


def _facts_job(job: dict) -> dict:
    dialogues = read_corpus(job["corpus"])
    out = {
        "dialogues": len(dialogues),
        "turns": sum(len(d[2]) for d in dialogues),
        "baseline": baseline(dialogues),
    }
    if job.get("focus"):
        out["distribution"] = distribution(dialogues, job["focus"])
    return out


def run_job(job: dict) -> dict:
    kind = job["kind"]
    if kind == "track":
        return _track_job(job)
    if kind == "train_eval":
        return _train_eval_job(job)
    if kind == "xval":
        return _xval_job(job)
    if kind == "sweep":
        return _sweep_job(job)
    if kind == "facts":
        return _facts_job(job)
    if kind == "kappa":
        with open(job["ratings"], encoding="utf-8") as fh:
            return {"kappa": kappa([line.split() for line in fh if line.strip()])}
    if kind == "cochran_q":
        with open(job["outcomes"], encoding="utf-8") as fh:
            q, df, p = cochran_q([[int(v) for v in line.split()] for line in fh if line.strip()])
        return {"q": q, "df": df, "p": p}
    raise ValueError(f"unknown job kind {kind!r}")


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        jobs = json.load(fh)
    results = [run_job(job) for job in jobs]
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
