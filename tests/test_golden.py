"""Golden outputs of the command line: `--format json` stdout and exit code.

Each case runs `cli.run` in-process at `--window 1` on a catalog
arrangement and compares the exit code and the exact stdout bytes with
the files under `tests/golden/`.  To rewrite the goldens from the
current code (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os

import pytest

from toricarr import cli

from conftest import CATALOG

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

COMMANDS = {
    "validate": ["validate"],
    "faces": ["faces"],
    "layers": ["layers"],
    "salvetti": ["salvetti"],
    "homology": ["homology"],
    "homology-face": ["homology", "--space", "face"],
    "pi1": ["pi1", "--simplify"],
    "check": ["check"],
}

CASES = [(name, cmd) for name in ("one_point", "two_points", "three_points")
         for cmd in COMMANDS] + \
        [(name, cmd) for name in ("diagonals", "grid")
         for cmd in COMMANDS if cmd != "check"] + \
        [("grid", "check"), ("coord3", "homology")]


def run_case(tmp_dir, name, cmd):
    path = os.path.join(tmp_dir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(CATALOG[name], fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(COMMANDS[cmd] + [path, "--format", "json"])
    return code, out.getvalue()


def _exit_codes():
    with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,cmd", CASES, ids=["%s-%s" % c for c in CASES])
def test_golden(tmp_path, name, cmd):
    code, stdout = run_case(str(tmp_path), name, cmd)
    case = "%s.%s" % (name, cmd)
    with open(os.path.join(GOLDEN, case + ".stdout"), encoding="utf-8") as fh:
        expected = fh.read()
    assert code == _exit_codes()[case]
    assert stdout == expected


def write_goldens():
    import tempfile
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp_dir:
        for name, cmd in CASES:
            case = "%s.%s" % (name, cmd)
            codes[case], stdout = run_case(tmp_dir, name, cmd)
            with open(os.path.join(GOLDEN, case + ".stdout"), "w",
                      encoding="utf-8") as fh:
                fh.write(stdout)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write_goldens()
