"""Independent straight-line reimplementations used as test oracles.

Everything here deliberately avoids the library's data structures: masses
are dicts keyed by frozensets, the training loop is a direct transliteration
of the per-turn procedure, and the cue effect table is restated from
scratch.  Keep this file dumb; its value is that it shares no code with the
implementation under test.
"""

from __future__ import annotations

import math
import random

SPK = frozenset({"speaker"})
HEA = frozenset({"hearer"})
THETA = frozenset({"speaker", "hearer"})


class OracleConflict(Exception):
    pass


class OracleInvalid(Exception):
    """A mass went negative or NaN, or the masses stopped summing to 1."""


def _checked(m: dict[frozenset, float]) -> dict[frozenset, float]:
    # Restated validity rule: every mass >= 0 (NaN fails) and the sum,
    # speaker + hearer + theta, within 1e-9 of 1.
    if not all(v >= 0.0 for v in (m[SPK], m[HEA], m[THETA])):
        raise OracleInvalid(f"negative or NaN mass in {m}")
    if not abs(m[SPK] + m[HEA] + m[THETA] - 1.0) <= 1e-9:
        raise OracleInvalid(f"masses do not sum to 1 in {m}")
    return m


def bf_mass(speaker: float, hearer: float, theta: float) -> dict[frozenset, float]:
    return {SPK: speaker, HEA: hearer, THETA: theta}


def bf_combine(m1: dict[frozenset, float], m2: dict[frozenset, float]) -> dict[frozenset, float]:
    """Brute-force Dempster combination: enumerate all focal-element pairs,
    accumulate intersection masses, renormalize by 1 - conflict."""
    acc = {SPK: 0.0, HEA: 0.0, THETA: 0.0}
    conflict = 0.0
    for a in (SPK, HEA, THETA):
        for b in (SPK, HEA, THETA):
            product = m1[a] * m2[b]
            inter = a & b
            if inter:
                acc[inter] += product
            else:
                conflict += product
    norm = 1.0 - conflict
    # A conflict that rounds below 1 with nothing left to renormalize is total too.
    if norm <= 0.0 or not any(acc.values()):
        raise OracleConflict("total conflict")
    return {k: v / norm for k, v in acc.items()}


# Effect scope per cue token, restated: "both" moves task and dialogue
# initiative, "di" the dialogue initiative only.
CUE_EFFECTS = {
    "explicit_giveup": "both",
    "explicit_takeover": "both",
    "end_silence": "both",
    "no_new_info:repetition": "both",
    "no_new_info:prompt": "both",
    "question:domain": "di",
    "question:evaluation": "di",
    "obligation_fulfilled:task": "both",
    "obligation_fulfilled:discourse": "di",
    "invalidity:action": "both",
    "invalidity:belief": "di",
    "suboptimality": "both",
    "ambiguity:action": "both",
    "ambiguity:belief": "di",
}

ALL_CUES = list(CUE_EFFECTS)


def fresh_model() -> dict[tuple[str, str], dict]:
    model = {}
    for token, effect in CUE_EFFECTS.items():
        dims = ("task", "dialogue") if effect == "both" else ("dialogue",)
        for dim in dims:
            model[(token, dim)] = {"m": bf_mass(0.0, 0.0, 1.0), "counter": 0}
    return model


def _increment(m: dict[frozenset, float], actual: str, amount: float) -> dict[frozenset, float]:
    inc = min(amount, m[THETA])
    out = dict(m)
    out[SPK if actual == "speaker" else HEA] = m[SPK if actual == "speaker" else HEA] + inc
    out[THETA] = m[THETA] - inc
    return out


def _adjust(entry: dict, actual: str, method: str, delta: float) -> None:
    # The new masses are checked before the entry changes: an adjustment
    # that fails leaves its entry, counter included, as it was.
    if method == "const":
        entry["m"] = _checked(_increment(entry["m"], actual, delta))
        return
    count = entry["counter"] - 1
    if method == "const-counter":
        if count < 0:
            entry["m"] = _checked(_increment(entry["m"], actual, delta))
            count = 0
        entry["counter"] = count
        return
    if method == "var-counter":
        # ldexp, not delta / 2 ** (count + 1): past 1023 credits the power
        # of two no longer converts to a float, and the step is 0.
        step = math.ldexp(delta, -(max(count, 0) + 1))
        entry["m"] = _checked(_increment(entry["m"], actual, step))
        entry["counter"] = count
        return
    raise AssertionError(method)


def figure1_train(
    dialogues: list[dict],
    *,
    delta: float,
    method: str,
    default_x: float = 0.5,
    reset_strength: float = 0.75,
    model: dict[tuple[str, str], dict] | None = None,
):
    """Straight-line training loop over plain-dict dialogues.

    `dialogues` entries look like:
        {"id": "d1", "turns": [{"speaker": "a", "hearer": "b",
                                "ti": "a", "di": "a", "cues": [...]}, ...]}

    Returns (model, trace), or raises OracleConflict (total conflict) or
    OracleInvalid (a combination or adjustment gave invalid masses).  Trace
    rows are (dialogue id, turn index, predicted ti role, predicted di role,
    ti correct, di correct).  Pass `model` (from fresh_model) to keep the
    partly trained model when the loop raises.
    """
    if model is None:
        model = fresh_model()
    trace = _figure1(dialogues, model, True, True, delta, method, default_x, reset_strength)
    return model, trace


def figure1_evaluate(
    dialogues: list[dict],
    model: dict[tuple[str, str], dict],
    *,
    reset: bool = True,
    default_x: float = 0.5,
    reset_strength: float = 0.75,
):
    """The same loop with the model frozen: nothing is adjusted or credited.

    `model` is a table as figure1_train returns it.  With reset=False a
    misprediction leaves the index as combined (closed-loop tracking).
    Returns the trace or raises OracleConflict or OracleInvalid.
    """
    return _figure1(dialogues, model, False, reset, 0.0, "frozen", default_x, reset_strength)


def _figure1(dialogues, model, learn, reset, delta, method, default_x, reset_strength):
    trace = []
    for dialogue in dialogues:
        m_t_cur = bf_mass(default_x, 1.0 - default_x, 0.0)
        m_d_cur = bf_mass(default_x, 1.0 - default_x, 0.0)
        turns = dialogue["turns"]
        for t in range(len(turns) - 1):
            turn, nxt = turns[t], turns[t + 1]
            cues = turn["cues"]

            m_t_new = m_t_cur
            for c in cues:
                if CUE_EFFECTS[c] == "both":
                    m_t_new = _checked(bf_combine(m_t_new, model[(c, "task")]["m"]))
            m_d_new = m_d_cur
            for c in cues:
                m_d_new = _checked(bf_combine(m_d_new, model[(c, "dialogue")]["m"]))

            t_predicted = "speaker" if m_t_new[SPK] >= m_t_new[HEA] else "hearer"
            d_predicted = "speaker" if m_d_new[SPK] >= m_d_new[HEA] else "hearer"

            t_actual = "speaker" if nxt["ti"] == turn["speaker"] else "hearer"
            d_actual = "speaker" if nxt["di"] == turn["speaker"] else "hearer"

            ti_ok = t_predicted == t_actual
            di_ok = d_predicted == d_actual

            if not ti_ok:
                if learn:
                    for c in cues:
                        if CUE_EFFECTS[c] == "both":
                            _adjust(model[(c, "task")], t_actual, method, delta)
                if reset and t_actual == "speaker":
                    m_t_new = bf_mass(reset_strength, 1.0 - reset_strength, 0.0)
                elif reset:
                    m_t_new = bf_mass(1.0 - reset_strength, reset_strength, 0.0)
            elif learn and method != "const":
                for c in cues:
                    if CUE_EFFECTS[c] == "both":
                        model[(c, "task")]["counter"] += 1

            if not di_ok:
                if learn:
                    for c in cues:
                        _adjust(model[(c, "dialogue")], d_actual, method, delta)
                if reset and d_actual == "speaker":
                    m_d_new = bf_mass(reset_strength, 1.0 - reset_strength, 0.0)
                elif reset:
                    m_d_new = bf_mass(1.0 - reset_strength, reset_strength, 0.0)
            elif learn and method != "const":
                for c in cues:
                    model[(c, "dialogue")]["counter"] += 1

            trace.append((dialogue["id"], t, t_predicted, d_predicted, ti_ok, di_ok))

            # swap roles of speaker and hearer for the next turn
            m_t_cur = bf_mass(m_t_new[HEA], m_t_new[SPK], m_t_new[THETA])
            m_d_cur = bf_mass(m_d_new[HEA], m_d_new[SPK], m_d_new[THETA])
    return trace


# Expected holder per cue token, restated: these two cues hand the initiative
# to the speaker, every other cue to the hearer.
TO_SPEAKER = {"explicit_takeover", "question:domain"}


def synthetic_dialogues(
    *,
    dialogues: int,
    turns_per_dialogue: int,
    pairs: int,
    cue_emit: dict[str, float],
    cue_shift: dict[str, float],
    base_shift_task: float,
    base_shift_dialogue: float,
    seed: int,
) -> list[dict]:
    """Straight-line restatement of the synthetic generator and its draw order.

    Per turn: one emission draw per configured cue in taxonomy order; then one
    task-shift draw per emitted cue that affects both initiatives and has a
    shift entry; then one dialogue-shift draw per emitted cue with a shift
    entry; then one draw per base shift above 0.  Returns plain-dict dialogues
    (with their agents) in the form figure1_train takes.
    """
    rng = random.Random(seed)
    emitted_kinds = [k for k in ALL_CUES if k in cue_emit]
    out = []
    for d in range(dialogues):
        pair_index = d % pairs
        agents = (f"a{pair_index}", f"b{pair_index}")
        ti_holder = agents[0]
        di_holder = agents[0]
        turns = []
        for t in range(turns_per_dialogue):
            speaker = agents[t % 2]
            hearer = agents[(t + 1) % 2]
            cues = [k for k in emitted_kinds if rng.random() < cue_emit[k]]
            turns.append({"speaker": speaker, "hearer": hearer, "ti": ti_holder, "di": di_holder, "cues": cues})

            next_ti, next_di = ti_holder, di_holder
            for kind in cues:
                if kind not in cue_shift or CUE_EFFECTS[kind] != "both":
                    continue
                if rng.random() < cue_shift[kind]:
                    next_ti = speaker if kind in TO_SPEAKER else hearer
            for kind in cues:
                if kind not in cue_shift:
                    continue
                if rng.random() < cue_shift[kind]:
                    next_di = speaker if kind in TO_SPEAKER else hearer
            if base_shift_task > 0.0 and rng.random() < base_shift_task:
                next_ti = agents[0] if next_ti == agents[1] else agents[1]
            if base_shift_dialogue > 0.0 and rng.random() < base_shift_dialogue:
                next_di = agents[0] if next_di == agents[1] else agents[1]
            ti_holder, di_holder = next_ti, next_di
        out.append({"id": f"d{d + 1}", "agents": agents, "turns": turns})
    return out
