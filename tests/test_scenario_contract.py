"""Every scenario drawn from the declared schema gets an answer or a refusal.

Scenarios are drawn from `SCHEMA` itself: each bound and its neighbours,
values inside the bounds, `nan`/`inf` spellings, malformed numbers,
unknown keys and missing required keys. Each one runs through
`cli.main`, which must return an exit code (no exception escapes) and
must print no `nan` or `inf` figure.

Games run end to end, so their accepted `trials` and `plaintext_bytes`
draws are capped (values above a cap are drawn only where they are out of
bounds and so refused at load). Adjudication over the whole declared
`trials` range is not exercised here.
"""

import io
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from workfunc.cli import main
from workfunc.devices import default_catalog
from workfunc.scenarios import SCHEMA

# the largest accepted value drawn for these game keys
GAME_CAPS = {"trials": 200, "plaintext_bytes": 64}

NON_FINITE_SPELLINGS = ("nan", "NaN", "inf", "+inf", "-inf", "Infinity", "1e400", "-1e400")
MALFORMED = ("", "0x", "1.2.3", "ten", "1e", "--1", "0b2", "1,5")
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
DEVICES = tuple(device.name for device in default_catalog())


def _edges(spec) -> list[str]:
    """Each finite bound of a number key and its two neighbours."""
    points = []
    for bound in (spec.lo, spec.hi):
        if spec.type is int:
            points += [bound - 1, bound, bound + 1]
        elif math.isfinite(bound):
            points += [math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)]
    return [str(v) if spec.type is int else repr(v) for v in points]


def _inside(kind: str, key: str, spec) -> st.SearchStrategy[str]:
    """Values of the key's type drawn within its bounds (or its choices)."""
    hi = GAME_CAPS.get(key, spec.hi) if kind == "game_otp" else spec.hi
    if spec.type is int:
        inside = st.integers(spec.lo, hi)
        return inside.map(str) | inside.filter(lambda v: v >= 0).map(hex)
    if spec.type is float:
        finite_hi = math.isfinite(hi)
        return st.floats(
            spec.lo, hi if finite_hi else None, allow_nan=False, allow_infinity=False,
            exclude_min=spec.ends[0] == "(", exclude_max=finite_hi and spec.ends[1] == ")",
        ).map(repr)
    if spec.type is bool:
        return st.sampled_from(("true", "Yes", "1", "on", "false", "No", "0", "off"))
    if spec.choices:
        return st.sampled_from(spec.choices + tuple(c.upper() for c in spec.choices))
    term = st.builds("{} x {}".format, st.integers(1, 70000), st.sampled_from(DEVICES))
    return st.lists(term, min_size=1, max_size=3).map(" + ".join)


def _edge_or_wrong(kind: str, key: str, spec) -> st.SearchStrategy[str]:
    """A bound, a neighbour of one, a non-finite number or a malformed value.

    A game's edges above its cap are drawn only where they are out of bounds.
    """
    wrong = st.sampled_from(NON_FINITE_SPELLINGS) | st.sampled_from(MALFORMED)
    if spec.type is bool:
        return wrong | st.just("maybe")
    if spec.type is str:
        return wrong | st.sampled_from(("exact", "many gpus", "0 x intel-core-duo", "3 x cray-1"))
    cap = GAME_CAPS.get(key) if kind == "game_otp" else None
    edges = [e for e in _edges(spec) if cap is None or not cap < float(e) <= spec.hi]
    non_finite = st.sampled_from(NON_FINITE_SPELLINGS)
    return st.sampled_from(edges) | non_finite | non_finite | st.sampled_from(MALFORMED)


@st.composite
def scenarios(draw):
    """(command, scenario text) for one drawn scenario.

    Every required key and about a third of the optional ones get a value
    within bounds; then one fault may be made: one key gets an edge or a
    wrong value, a required key goes missing, or an unknown key is added.
    """
    kind = draw(st.sampled_from(tuple(SCHEMA)))
    schema = SCHEMA[kind]
    values = {
        key: draw(_inside(kind, key, spec))
        for key, spec in schema.items()
        if spec.required or draw(st.integers(0, 2)) == 0
    }
    fault = draw(st.sampled_from(("none", "value", "value", "value", "missing", "unknown")))
    if fault == "value":
        key = draw(st.sampled_from(tuple(schema)))
        values[key] = draw(_edge_or_wrong(kind, key, schema[key]))
    elif fault == "missing":
        del values[draw(st.sampled_from([k for k, spec in schema.items() if spec.required]))]
    elif fault == "unknown":
        values["color"] = "red"
    command = "game" if kind == "game_otp" else "estimate"
    if draw(st.integers(0, 19)) == 0:  # the other command: a usage error
        command = "estimate" if command == "game" else "game"
    lines = [f"[{kind}]"] + [f"{key} = {value}" for key, value in values.items()]
    return command, "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(scenarios())
def test_every_drawn_scenario_gets_an_answer_or_a_refusal(drawn):
    command, text = drawn
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "drawn.scenario"
        path.write_text(text, encoding="utf-8")
        argv = [command, str(path)]
        if command == "game":
            argv += ["--transcript", str(Path(workdir) / "drawn.transcript")]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (text, err.getvalue())
    assert NON_FINITE.search(out.getvalue()) is None, (text, out.getvalue())
    if code == 1:
        assert err.getvalue().startswith("bad scenario:"), (text, err.getvalue())
