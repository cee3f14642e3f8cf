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


def test_exit_two_when_window_too_small(tmp_path):
    # the sheared pair has a canonical chamber whose closure reaches the
    # boundary of window 1, so the quotient needs --window 2
    path = write_spec(tmp_path, SPEC_SHEARED)
    res = run_cli(["salvetti", path, "--window", "1"])
    assert res.returncode == 2
    assert "--window" in res.stderr
    res2 = run_cli(["salvetti", path, "--window", "2", "--format", "json"])
    assert res2.returncode == 0
    report = json.loads(res2.stdout)
    assert report["face_census"][0] > 0
    assert run_cli(["salvetti", path, "--format", "json"]).stdout == res2.stdout


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


def test_missing_face_orbit_needs_larger_window(tmp_path):
    path = write_spec(tmp_path, SPEC_G2_00)
    for cmd in (["faces"], ["homology", "--space", "face"]):
        res = run_cli(cmd + [path, "--window", "1", "--format", "json"])
        assert res.returncode == 2
        assert "try again with --window 2" in res.stderr
    res = run_cli(["faces", path, "--window", "2", "--format", "json"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["census"] == [2, 4, 2]
    assert run_cli(["faces", path, "--format", "json"]).stdout == res.stdout


# the second draw of the benchmark's generator family 1
SPEC_G1_01 = ('{"rank":2,"hypersurfaces":[{"chi":[1,0],"q":"0"},'
              '{"chi":[1,-1],"q":"1/4"}]}')


def test_translated_cut_chamber_needs_no_larger_window(tmp_path):
    # at window 1, a cut chamber moved by (0, 1) meets the box although its
    # clipped barycenter, moved along, does not; its shifted masks find it,
    # so window 1 answers as window 2 does
    path = write_spec(tmp_path, SPEC_G1_01)
    for cmd in (["salvetti"], ["homology"]):
        reports = []
        for k in (1, 2):
            res = run_cli(cmd + [path, "--window", str(k), "--format", "json"])
            assert res.returncode == 0, res.stderr
            report = json.loads(res.stdout)
            assert report.pop("window") == k
            reports.append(report)
        assert reports[0] == reports[1]


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
    res = subprocess.run([sys.executable, "-m", "toricarr", "faces", path,
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

    monkeypatch.setitem(cli.COMMANDS, "faces", (never_fits, ()))
    path = write_spec(tmp_path, SPEC_TWO_WALL)
    assert cli.run(["faces", path]) == 3
    assert tried == [1, 2, 3, 4]
    out, err = capsys.readouterr()
    assert out == ""
    assert "window error at the cap 4: window 4 is too small" in err


def test_pi1_answers_at_the_salvetti_window(tmp_path, capsys):
    # pi1 reads each codim-2 star at its canonical face, so it needs no
    # window beyond what the quotient needs: g1_01 answers at window 1 as
    # at window 3
    path = write_spec(tmp_path, SPEC_G1_01)
    reports = [_json_report(capsys, ["pi1", path, "--window", str(k)]) for k in (1, 3)]
    assert [r.pop("window") for r in reports] == [1, 3]
    assert reports[0] == reports[1]


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
    (["faces", "{path}", "--window"], "--window"),
    (["faces", "{path}", "--format", "xml"], "--format"),
    (["homology", "{path}", "--space", "cell"], "--space"),
    (["faces", "{path}", "--window", "abc"], "--window"),
    (["faces", "{path}", "--window", "1.5"], "--window"),
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
    for argv in (["faces", path, "--window", "2"], ["faces", "--window=2", path]):
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
