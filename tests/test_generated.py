"""The `check` invariant battery on generated arrangements.

Rank 1 and rank 2 with at most three walls and character entries in
[-2, 2], and rank 3 with three or four walls and entries in [-1, 1];
angles in {0, 1/2, 1/3, 1/4}.  Each draw runs `toricarr check`, which
must pass.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from toricarr import cli

Q_VALUES = ("0", "1/2", "1/3", "1/4")


@st.composite
def arrangements(draw):
    rank = draw(st.sampled_from((1, 2, 3)))
    entries = st.integers(-1, 1) if rank == 3 else st.integers(-2, 2)
    chi = st.lists(entries, min_size=rank, max_size=rank).filter(any)
    walls = draw(st.lists(st.tuples(chi.map(tuple), st.sampled_from(Q_VALUES)),
                          min_size=3 if rank == 3 else 1, max_size=4 if rank == 3 else 3,
                          unique=True))
    return {"rank": rank,
            "hypersurfaces": [{"chi": list(c), "q": q} for c, q in walls]}


def check_report(doc):
    """Exit code and JSON stdout of `check`."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp_dir:
        path = os.path.join(tmp_dir, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(["check", path, "--format", "json"])
    return code, out.getvalue()


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(arrangements())
def test_check_battery_on_generated_arrangements(doc):
    code, stdout = check_report(doc)
    assert code == 0, (doc, code)
    report = json.loads(stdout)
    assert report["verdict"] == "pass" and all(report["checks"].values()), doc
