"""The `check` invariant battery on generated arrangements.

Rank 1 and rank 2, at most three walls, character entries in [-2, 2]
and angles in {0, 1/2, 1/3, 1/4}.  Each draw runs `toricarr check`
without `--window`: it must pass at a window no larger than the
arrangement's cap.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from toricarr import cli
from toricarr.arrangement import parse_spec, window_cap

Q_VALUES = ("0", "1/2", "1/3", "1/4")


@st.composite
def arrangements(draw):
    rank = draw(st.sampled_from((1, 2)))
    chi = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).filter(any)
    walls = draw(st.lists(st.tuples(chi.map(tuple), st.sampled_from(Q_VALUES)),
                          min_size=1, max_size=3, unique=True))
    return {"rank": rank,
            "hypersurfaces": [{"chi": list(c), "q": q} for c, q in walls]}


def check_report(doc):
    """Exit code and JSON stdout of `check` with the default window."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp_dir:
        path = os.path.join(tmp_dir, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(["check", path, "--format", "json"])
    return code, out.getvalue()


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(arrangements())
def test_check_battery_on_generated_arrangements(doc):
    code, stdout = check_report(doc)
    assert code == 0, (doc, code)
    report = json.loads(stdout)
    assert report["verdict"] == "pass"
    assert report["window"] <= window_cap(parse_spec(json.dumps(doc))), doc
