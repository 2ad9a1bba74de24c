"""Replays the golden corpus (``tests/golden/regen.py``) through ``cli.main``.

Every output must match its file byte for byte, except the Monte-Carlo
``metric`` and ``mse_stderr`` of ``simulate``: under the recorded stream
layout they may move in the last digits with summation order, so they are
compared to 1e-12 relative.  A change of stream layout moves every draw;
the corpus then has to be regenerated and its diff reviewed.
"""

import importlib.util
import json
import math
from pathlib import Path

from lipagg.harness import STREAM_LAYOUT

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

_REL = 1e-12


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is want
    return math.isclose(got, want, rel_tol=_REL, abs_tol=0.0)


def _same_rows(got: list[dict], want: list[dict]) -> bool:
    """Rows equal, with a Monte-Carlo row's metric and stderr to 1e-12."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        loose = {"metric", "mse_stderr"} if w["trials"] > 0 else set()
        if g.keys() != w.keys() or any(g[k] != w[k] for k in w.keys() - loose):
            return False
        if not all(_close(g[k], w[k]) for k in loose & w.keys()):
            return False
    return True


def _csv_rows(text: str) -> list[dict]:
    header, *lines = text.splitlines()
    assert header == "epsilon,family,metric,trials"
    return [{"epsilon": e, "family": f, "metric": float(m), "trials": int(t)}
            for e, f, m, t in (line.split(",") for line in lines)]


def _same_simulate(name: str, got: str, want: str) -> bool:
    if name.endswith(".csv"):
        return _same_rows(_csv_rows(got), _csv_rows(want))
    got, want = json.loads(got), json.loads(want)
    return got.keys() == want.keys() and got["metadata"] == want["metadata"] \
        and _same_rows(got["rows"], want["rows"])


def test_cli_outputs_match_the_golden_corpus():
    recorded = {name: (regen.OUT / name).read_bytes().decode("utf-8") for name, _ in regen.CASES}
    layouts = {json.loads(text)["metadata"]["stream_layout"]
               for name, text in recorded.items() if name.startswith("simulate-")
               and name.endswith(".json")}
    assert layouts == {STREAM_LAYOUT}, "a new stream layout: regenerate the golden corpus"
    changed = []
    for name, command in regen.CASES:
        got, want = regen.replay(command), recorded[name]
        if not (got == want or name.startswith("simulate-") and _same_simulate(name, got, want)):
            changed.append(name)
    assert not changed, f"outputs differ from tests/golden/out: {changed}"
