"""The `check` invariant battery on generated arrangements.

Rank 1 and rank 2, at most three walls, character entries in [-2, 2]
and angles in {0, 1/2, 1/3, 1/4}.  Each draw runs `toricarr check` at
windows 1, 2 and 3 until one answers: it must pass, or say "window too
small" (exit 2) at the last window, and never exit 1 or 3.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from toricarr import cli

WINDOWS = (1, 2, 3)
Q_VALUES = ("0", "1/2", "1/3", "1/4")


@st.composite
def arrangements(draw):
    rank = draw(st.sampled_from((1, 2)))
    chi = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).filter(any)
    walls = draw(st.lists(st.tuples(chi.map(tuple), st.sampled_from(Q_VALUES)),
                          min_size=1, max_size=3, unique=True))
    return {"rank": rank,
            "hypersurfaces": [{"chi": list(c), "q": q} for c, q in walls]}


def check_exit_codes(doc):
    """Exit codes of `check` at growing windows, up to the first answer."""
    codes = []
    with tempfile.TemporaryDirectory() as tmp_dir:
        path = os.path.join(tmp_dir, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for k in WINDOWS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.run(["check", path, "--window", str(k)]))
            if codes[-1] != 2:
                break
    return codes


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(arrangements())
def test_check_battery_on_generated_arrangements(doc):
    codes = check_exit_codes(doc)
    assert codes[-1] == 0 or codes == [2] * len(WINDOWS), (doc, codes)
