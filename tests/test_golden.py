"""Golden outputs of the command line: `--format json` stdout and exit code.

Each case runs `cli.run` in-process on an arrangement document at one
`--window` and compares the exit code and the exact stdout bytes with
the files under `tests/golden/`.  The documents are the catalog, a
three-wall rank-2 arrangement with the angle 2/3 (every catalog angle has
a power-of-two denominator), `g2_00`, which needs window 2, a
three-wall arrangement whose flats have non-integral direction vectors
and a non-essential rank-3 arrangement, which pin the essentialization
basis and the layer lattices, and `r3`, a rank-3 arrangement with oblique
walls, which pins face translation, the layer keys and their order, and
the cyclic order of the walls around each codimension-2 face (`pi1-raw`,
the presentation without `--simplify`, which on `r3` would print about a
million relator letters) in rank 3; `coord3` `pi1` pins that order on
coordinate walls.  To rewrite the goldens from the current code (only
when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os

import pytest

from toricarr import cli

from conftest import CATALOG
from test_cli import SPEC_G2_00

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

COMMANDS = {
    "validate": ["validate"],
    "faces": ["faces"],
    "layers": ["layers"],
    "salvetti": ["salvetti"],
    "homology": ["homology"],
    "homology-face": ["homology", "--space", "face"],
    "pi1": ["pi1", "--simplify"],
    "pi1-raw": ["pi1"],
    "check": ["check"],
}

DOCS = dict(CATALOG,
            three_walls={"rank": 2, "hypersurfaces": [
                {"chi": [1, -1], "q": "0"}, {"chi": [1, -2], "q": "2/3"},
                {"chi": [1, 2], "q": "0"}]},
            g2_00=json.loads(SPEC_G2_00),
            three_walls_2={"rank": 2, "hypersurfaces": [
                {"chi": [2, -2], "q": "2/3"}, {"chi": [-1, 1], "q": "0"},
                {"chi": [2, -1], "q": "2/3"}]},
            nonessential={"rank": 3, "hypersurfaces": [
                {"chi": [2, 2, 0], "q": "0"}, {"chi": [0, 2, 2], "q": "1/2"},
                {"chi": [2, 0, -2], "q": "1/3"}]},
            r3={"rank": 3, "hypersurfaces": [
                {"chi": [1, 0, 0], "q": "0"}, {"chi": [0, 1, 0], "q": "0"},
                {"chi": [0, 0, 1], "q": "0"}, {"chi": [1, 1, 0], "q": "1/2"},
                {"chi": [0, 1, -1], "q": "1/3"}, {"chi": [1, -1, 1], "q": "0"}]})

# (document, command, window)
CASES = [(name, cmd, 1) for name in ("one_point", "two_points", "three_points")
         for cmd in COMMANDS if cmd != "pi1-raw"] + \
        [(name, cmd, 1) for name in ("diagonals", "grid")
         for cmd in COMMANDS if cmd not in ("check", "pi1-raw")] + \
        [("grid", "check", 1), ("coord3", "homology", 1),
         ("three_walls", "faces", 1), ("three_walls", "homology", 1),
         ("three_walls", "pi1", 2), ("g2_00", "faces", 1), ("g2_00", "faces", 2)] + \
        [("three_walls_2", "layers", 1)] + \
        [("nonessential", cmd, 1) for cmd in ("validate", "layers", "homology")] + \
        [("r3", cmd, 1) for cmd in ("faces", "layers", "salvetti", "homology", "pi1-raw")] + \
        [("coord3", "pi1", 1)]


def case_name(name, cmd, window):
    """Golden file stem; window 1 is the default and goes unnamed."""
    stem = "%s.%s" % (name, cmd)
    return stem if window == 1 else "%s.w%d" % (stem, window)


def run_case(tmp_dir, doc, cmd, window):
    path = os.path.join(tmp_dir, "spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(COMMANDS[cmd] + [path, "--window", str(window),
                                        "--format", "json"])
    return code, out.getvalue()


def _exit_codes():
    with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,cmd,window", CASES,
                         ids=[case_name(*c).replace(".", "-") for c in CASES])
def test_golden(tmp_path, name, cmd, window):
    code, stdout = run_case(str(tmp_path), DOCS[name], cmd, window)
    case = case_name(name, cmd, window)
    with open(os.path.join(GOLDEN, case + ".stdout"), encoding="utf-8") as fh:
        expected = fh.read()
    assert code == _exit_codes()[case]
    assert stdout == expected


def test_three_walls_pi1_at_window_one_matches_window_two(tmp_path):
    # the window-2 golden, apart from its window: the relators are read at
    # each codim-2 orbit's canonical face, which window 1 already holds
    code, stdout = run_case(str(tmp_path), DOCS["three_walls"], "pi1", 1)
    assert code == 0
    with open(os.path.join(GOLDEN, "three_walls.pi1.w2.stdout"), encoding="utf-8") as fh:
        expected = json.load(fh)
    report = json.loads(stdout)
    assert (report.pop("window"), expected.pop("window")) == (1, 2)
    assert report == expected


def write_goldens():
    import tempfile
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp_dir:
        for name, cmd, window in CASES:
            case = case_name(name, cmd, window)
            codes[case], stdout = run_case(tmp_dir, DOCS[name], cmd, window)
            with open(os.path.join(GOLDEN, case + ".stdout"), "w",
                      encoding="utf-8") as fh:
                fh.write(stdout)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write_goldens()
