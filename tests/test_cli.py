import json
import subprocess
import sys

import pytest

SPEC_ONE_POINT = '{"rank":1,"hypersurfaces":[{"chi":[1],"q":"0"}]}'
SPEC_TWO_POINTS = ('{"rank":1,"hypersurfaces":[{"chi":[1],"q":"0"},'
                   '{"chi":[1],"q":"1/2"}]}')
SPEC_GRID = ('{"rank":2,"hypersurfaces":[{"chi":[1,0],"q":"0"},'
             '{"chi":[1,0],"q":"1/2"},{"chi":[0,1],"q":"0"},'
             '{"chi":[0,1],"q":"1/2"}]}')
SPEC_SHEARED = ('{"rank":2,"hypersurfaces":[{"chi":[1,0],"q":"0"},'
                '{"chi":[1,1],"q":"0"}]}')


def run_cli(args, stdin=None):
    return subprocess.run([sys.executable, "-m", "toricarr"] + args,
                          input=stdin, capture_output=True, text=True)


def write_spec(tmp_path, doc, name="arr.json"):
    path = tmp_path / name
    path.write_text(doc)
    return str(path)


def test_validate_echo(tmp_path):
    path = write_spec(tmp_path, SPEC_ONE_POINT)
    res = run_cli(["validate", path, "--format", "json"])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["essential"] is True
    assert report["arrangement"]["rank"] == 1


def test_reads_stdin():
    res = run_cli(["validate", "-", "--format", "json"], stdin=SPEC_ONE_POINT)
    assert res.returncode == 0


def test_homology_salvetti_one_point(tmp_path):
    path = write_spec(tmp_path, SPEC_ONE_POINT)
    res = run_cli(["homology", path, "--space", "salvetti", "--format", "json"])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    hom = {h["degree"]: (h["betti"], h["torsion"]) for h in report["homology"]}
    assert hom == {0: (1, []), 1: (2, [])}


def test_salvetti_grid_thick(tmp_path):
    path = write_spec(tmp_path, SPEC_GRID)
    res = run_cli(["salvetti", path, "--format", "json"])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["thick"] is True
    assert report["euler_cw"] == report["euler_nerve"]


def test_pi1_two_points_simplified(tmp_path):
    path = write_spec(tmp_path, SPEC_TWO_POINTS)
    res = run_cli(["pi1", path, "--simplify", "--format", "json"])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert len(report["simplified"]["generators"]) == 3
    assert report["simplified"]["relators"] == []


def test_check_passes(tmp_path):
    path = write_spec(tmp_path, SPEC_ONE_POINT)
    res = run_cli(["check", path, "--format", "json"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["verdict"] == "pass"


def test_json_roundtrip(tmp_path):
    path = write_spec(tmp_path, SPEC_GRID)
    res = run_cli(["faces", path, "--format", "json"])
    report = json.loads(res.stdout)
    assert json.loads(json.dumps(report)) == report


def test_json_deterministic(tmp_path):
    path = write_spec(tmp_path, SPEC_GRID)
    first = run_cli(["salvetti", path, "--format", "json"])
    second = run_cli(["salvetti", path, "--format", "json"])
    assert first.stdout == second.stdout


def test_exit_one_on_bad_spec(tmp_path):
    path = write_spec(tmp_path, '{"rank":1,"hypersurfaces":[{"chi":[0],"q":"0"}]}')
    res = run_cli(["validate", path])
    assert res.returncode == 1
    assert "error" in res.stderr


def test_exit_one_on_missing_file():
    res = run_cli(["validate", "/nonexistent/arrangement.json"])
    assert res.returncode == 1


def test_exit_two_when_window_too_small(tmp_path, capsys):
    # the sheared pair has a canonical chamber whose closure reaches the
    # boundary of window 1, so the lift behind check needs --window 2
    path = write_spec(tmp_path, SPEC_SHEARED)
    res = run_cli(["check", path, "--window", "1"])
    assert res.returncode == 2
    assert "try again with --window 2" in res.stderr
    res2 = run_cli(["check", path, "--window", "2", "--format", "json"])
    assert res2.returncode == 0
    assert json.loads(res2.stdout)["verdict"] == "pass"
    assert run_cli(["check", path, "--format", "json"]).stdout == res2.stdout
    assert_window_free_reports(capsys, path, SPEC_SHEARED)


def test_text_format_mentions_fields(tmp_path):
    path = write_spec(tmp_path, SPEC_ONE_POINT)
    res = run_cli(["salvetti", path])
    assert res.returncode == 0
    assert "thick" in res.stdout
    assert "object_census_by_codim" in res.stdout


def test_layers_command(tmp_path):
    path = write_spec(tmp_path, SPEC_ONE_POINT)
    res = run_cli(["layers", path, "--format", "json"])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["counts_by_dim"] == {"0": 1, "1": 1}


def test_layers_rejects_arrangement_without_hypersurfaces(tmp_path):
    # the only layer is the torus itself, of dimension 2, which the rank-0
    # essentialization cannot report; exit 1 as `faces` does
    path = write_spec(tmp_path, '{"rank":2,"hypersurfaces":[]}')
    layers = run_cli(["layers", path, "--format", "json"])
    faces = run_cli(["faces", path, "--format", "json"])
    assert layers.returncode == faces.returncode == 1
    assert layers.stdout == ""
    assert layers.stderr == faces.stderr
    assert "no hypersurfaces" in layers.stderr


# a chamber orbit of this arrangement has no whole translate in
# window 1; the face census must not silently drop it
SPEC_G2_00 = ('{"rank":2,"hypersurfaces":[{"chi":[-1,2],"q":"1/4"},'
              '{"chi":[-1,2],"q":"0"},{"chi":[0,-1],"q":"1/3"}]}')


def test_missing_face_orbit_needs_larger_window(tmp_path, capsys):
    # the lift behind check misses the orbit at window 1; the commands
    # that read the vertex stars need no window
    path = write_spec(tmp_path, SPEC_G2_00)
    res = run_cli(["check", path, "--window", "1", "--format", "json"])
    assert res.returncode == 2
    assert "try again with --window 2" in res.stderr
    assert_window_free_reports(capsys, path, SPEC_G2_00)


def _homology(*betti):
    return [{"degree": k, "betti": b, "torsion": []} for k, b in enumerate(betti)]


# the reports of the window-free commands: those of the lift at window 2,
# which they read before they used the vertex stars, without `window`
WINDOW_TWO_REPORTS = {
    SPEC_SHEARED: {
        "faces": {"census": [1, 2, 1], "nonidentity_morphisms": 12, "euler": 0},
        "salvetti": {"face_census": [1, 2, 1], "object_census_by_codim": [1, 4, 4],
                     "euler_cw": 1, "nerve_chain_counts": [9, 40, 32], "euler_nerve": 1,
                     "thick": False},
        "homology": {"space": "salvetti", "chain_counts": [9, 40, 32],
                     "homology": _homology(1, 4, 4), "euler": 1},
        "homology --space face": {"space": "face", "chain_counts": [4, 12, 8],
                                  "homology": _homology(1, 2, 1), "euler": 0}},
    SPEC_G2_00: {
        "faces": {"census": [2, 4, 2], "nonidentity_morphisms": 24, "euler": 0},
        "salvetti": {"face_census": [2, 4, 2], "object_census_by_codim": [2, 8, 8],
                     "euler_cw": 2, "nerve_chain_counts": [18, 80, 64], "euler_nerve": 2,
                     "thick": False},
        "homology": {"space": "salvetti", "chain_counts": [18, 80, 64],
                     "homology": _homology(1, 5, 6), "euler": 2},
        "homology --space face": {"space": "face", "chain_counts": [8, 24, 16],
                                  "homology": _homology(1, 2, 1), "euler": 0}},
}


def assert_window_free_reports(capsys, path, spec):
    for command, expected in WINDOW_TWO_REPORTS[spec].items():
        report = _json_report(capsys, command.split() + [path])
        assert report.pop("arrangement") == json.loads(spec)
        assert report == expected, command


def test_window_free_commands_never_lift(tmp_path, capsys, monkeypatch):
    from toricarr import arrangement

    def no_window(*args):
        raise AssertionError("a window was built")

    monkeypatch.setattr(arrangement.Window, "standard", classmethod(no_window))
    path = write_spec(tmp_path, SPEC_GRID)
    census = _json_report(capsys, ["faces", path])["census"]
    assert census == [4, 8, 4]
    assert _json_report(capsys, ["salvetti", path])["object_census_by_codim"] == [4, 16, 16]
    for space in ("face", "salvetti"):
        report = _json_report(capsys, ["homology", path, "--space", space])
        assert report["homology"][2]["betti"] == (1 if space == "face" else 9)
    assert _json_report(capsys, ["layers", path])["counts_by_dim"] == {"0": 4, "1": 4, "2": 1}
    report = _json_report(capsys, ["pi1", path])
    assert len(report["generators"]) == 10 and "window" not in report
    assert _json_report(capsys, ["pi1", path, "--simplify"])["simplified"]["abelianization"] \
        == {"betti": 6, "torsion": []}
    from toricarr import cli
    with pytest.raises(AssertionError, match="a window was built"):
        cli.run(["check", path])


# the second draw of the benchmark's generator family 1
SPEC_G1_01 = ('{"rank":2,"hypersurfaces":[{"chi":[1,0],"q":"0"},'
              '{"chi":[1,-1],"q":"1/4"}]}')


def test_translated_cut_chamber_needs_no_larger_window(tmp_path, capsys):
    # at window 1, a cut chamber moved by (0, 1) meets the box although its
    # clipped barycenter, moved along, does not; its code finds it, so the
    # lift's Salvetti category behind check answers at window 1 as at 2
    path = write_spec(tmp_path, SPEC_G1_01)
    reports = [_json_report(capsys, ["check", path, "--window", str(k)]) for k in (1, 2)]
    assert [r.pop("window") for r in reports] == [1, 2]
    assert reports[0] == reports[1]
    assert reports[0]["verdict"] == "pass"


def test_max_dim_truncates_reports_not_homology(tmp_path):
    # the grid's complement has Betti numbers (1, 6, 9) and Euler number 4
    path = write_spec(tmp_path, SPEC_GRID)
    res = run_cli(["homology", path, "--max-dim", "1", "--format", "json"])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert [h["betti"] for h in report["homology"]] == [1, 6]
    assert report["chain_counts"] == [36, 160]
    assert report["euler"] == 4
    res = run_cli(["homology", path, "--max-dim", "0", "--format", "json"])
    assert [h["betti"] for h in json.loads(res.stdout)["homology"]] == [1]
    res = run_cli(["salvetti", path, "--max-dim", "1", "--format", "json"])
    report = json.loads(res.stdout)
    assert report["nerve_chain_counts"] == [36, 160]
    assert report["euler_nerve"] == report["euler_cw"] == 4
    res = run_cli(["homology", path, "--max-dim", "-1"])
    assert res.returncode == 1
    assert "--max-dim" in res.stderr


def test_max_dim_only_on_nerve_commands(tmp_path):
    # a usage error exits 1: exit 2 is reserved for "window too small"
    path = write_spec(tmp_path, SPEC_ONE_POINT)
    res = run_cli(["faces", path, "--max-dim", "1"])
    assert res.returncode == 1
    assert "--max-dim" in res.stderr
    assert run_cli(["faces", "--help"]).returncode == 0


def test_check_failure_reports_diagnostics(tmp_path, monkeypatch, capsys):
    from toricarr import cli
    monkeypatch.setattr(cli, "check_acyclic", lambda cat: (False, ["diag"]))
    path = write_spec(tmp_path, SPEC_ONE_POINT)
    assert cli.run(["check", path]) == 3
    err = capsys.readouterr().err
    assert "face_category_acyclic" in err
    assert "salvetti_category_acyclic" in err
    assert "diag" in err


def test_window_above_cap_exits_one_at_once(tmp_path):
    # without the cap this call lifts 200002 points and does not finish
    path = write_spec(tmp_path, SPEC_ONE_POINT)
    res = subprocess.run([sys.executable, "-m", "toricarr", "check", path,
                          "--window", "100000"],
                         capture_output=True, text=True, timeout=30)
    assert res.returncode == 1
    assert res.stdout == ""
    assert "cap 2" in res.stderr


# this arrangement's cap is 4, and every command answers at window 2
SPEC_TWO_WALL = ('{"rank":2,"hypersurfaces":[{"chi":[-1,1],"q":"1/4"},'
                 '{"chi":[1,-2],"q":"0"}]}')


def _json_report(capsys, argv):
    from toricarr import cli
    code = cli.run(argv + ["--format", "json"])
    out, err = capsys.readouterr()
    assert code == 0, err
    return json.loads(out)


def test_default_window_reaches_a_tight_cap(tmp_path, capsys):
    from toricarr.arrangement import parse_spec, window_cap
    assert window_cap(parse_spec(SPEC_TWO_WALL)) == 4
    path = write_spec(tmp_path, SPEC_TWO_WALL)
    report = _json_report(capsys, ["check", path])
    assert report["window"] == 2 and report["verdict"] == "pass"
    at_cap = _json_report(capsys, ["check", path, "--window", "4"])
    assert at_cap.pop("window") == 4
    report.pop("window")
    assert report == at_cap


def test_window_error_at_every_window_exits_three_at_the_cap(tmp_path, monkeypatch,
                                                             capsys):
    from toricarr import cli
    from toricarr.errors import WindowError
    tried = []

    def never_fits(spec, args):
        tried.append(args.window)
        raise WindowError("window %d is too small" % args.window)

    monkeypatch.setitem(cli.COMMANDS, "check", (never_fits, ("--window",)))
    path = write_spec(tmp_path, SPEC_TWO_WALL)
    assert cli.run(["check", path]) == 3
    assert tried == [1, 2, 3, 4]
    out, err = capsys.readouterr()
    assert out == ""
    assert "window error at the cap 4: window 4 is too small" in err

    # a command without a window has no window to retry at
    def no_window(spec, args):
        raise WindowError("no window here")

    monkeypatch.setitem(cli.COMMANDS, "faces", (no_window, ()))
    assert cli.run(["faces", path]) == 3
    assert "window error without a window: no window here" in capsys.readouterr().err


def test_two_wall_check_passes_at_window_two(tmp_path, capsys):
    path = write_spec(tmp_path, SPEC_TWO_WALL)
    report = _json_report(capsys, ["check", path, "--window", "2"])
    assert report["verdict"] == "pass" and all(report["checks"].values())


# Each usage error, and the word its "error:" line must name.
USAGE_ERRORS = [
    ([], "command"),
    (["bogus", "{path}"], "bogus"),
    (["faces"], "faces"),
    (["faces", "{path}", "other.json"], "other.json"),
    (["faces", "{path}", "--bogus"], "--bogus"),
    (["check", "{path}", "--window"], "--window"),
    (["faces", "{path}", "--format", "xml"], "--format"),
    (["homology", "{path}", "--space", "cell"], "--space"),
    (["check", "{path}", "--window", "abc"], "--window"),
    (["check", "{path}", "--window", "1.5"], "--window"),
    (["faces", "{path}", "--window", "1"], "--window"),
    (["layers", "{path}", "--window", "1"], "--window"),
    (["pi1", "{path}", "--window", "1"], "--window"),
    (["pi1", "{path}", "--simplify", "--window=1"], "--window"),
    (["salvetti", "{path}", "--window=2"], "--window"),
    (["homology", "{path}", "--window", "1"], "--window"),
    (["validate", "{path}", "--window", "1"], "--window"),
    (["homology", "{path}", "--max-dim", "-1"], "--max-dim"),
    (["faces", "{path}", "--max-dim", "1"], "--max-dim"),
    (["homology", "{path}", "--simplify"], "--simplify"),
    (["faces", "{path}", "--win", "1"], "--win"),
]

HELP_REQUESTS = [["-h"], ["--help"], ["faces", "-h"], ["homology", "--help"]]


def test_command_line_grammar(tmp_path, capsys):
    from toricarr import cli
    path = write_spec(tmp_path, SPEC_ONE_POINT)
    for argv, named in USAGE_ERRORS:
        argv = [a.format(path=path) for a in argv]
        assert cli.run(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith("error: ") and named in err.splitlines()[0], (argv, err)
    for argv in HELP_REQUESTS:
        assert cli.run(argv) == 0, argv
        out, err = capsys.readouterr()
        assert out.startswith("usage: toricarr ") and err == "", argv
    outputs = []
    for argv in (["check", path, "--window", "2"], ["check", "--window=2", path]):
        assert cli.run(argv + ["--format=json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["window"] == 2


SPEC_GRID3 = ('{"rank":2,"hypersurfaces":['
              + ",".join('{"chi":%s,"q":"%s"}' % (chi, q)
                         for chi in ("[1,0]", "[0,1]") for q in ("0", "1/3", "2/3"))
              + ']}')


def test_closed_stdout_exits_one_without_traceback(tmp_path):
    # the report is about 400 kB, more than a pipe holds, so the child is
    # still writing when the reader goes away
    path = write_spec(tmp_path, SPEC_GRID3)
    proc = subprocess.Popen([sys.executable, "-m", "toricarr", "pi1", path,
                             "--simplify", "--format", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_startup_footprint(tmp_path):
    import gc
    from toricarr import cli
    path = write_spec(tmp_path, SPEC_ONE_POINT)
    res = subprocess.run([sys.executable, "-X", "importtime", "-m", "toricarr",
                          "validate", path], capture_output=True, text=True)
    assert res.returncode == 0
    imported = {line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
                if line.startswith("import time:")}
    assert "toricarr.cli" in imported
    assert not imported & {"argparse", "gettext", "locale"}
    # main() freezes the start-up objects; run() leaves the collector alone
    probe = ("import atexit, gc, sys; from toricarr.cli import main; "
             "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr)); "
             "sys.argv[1:] = ['validate', %r]; main()" % path)
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0
    assert int(res.stderr.split()[-1]) > 1000
    frozen = gc.get_freeze_count()
    assert cli.run(["validate", path]) == 0
    assert cli.run(["faces", path]) == 0
    assert gc.get_freeze_count() == frozen
