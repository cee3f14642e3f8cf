import json
import subprocess
import sys


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
    # the sheared pair has a chamber orbit whose closure reaches past
    # [-1, 2]^2 from its vertex, so the lift behind check once exited 2 at
    # window 1; check now takes no window, and exit 2 is gone
    path = write_spec(tmp_path, SPEC_SHEARED)
    res = run_cli(["check", path, "--window", "1"])
    assert res.returncode == 1 and "--window" in res.stderr
    res = run_cli(["check", path, "--format", "json"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["verdict"] == "pass"
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
    # a lift to [-1, 2]^2 misses a chamber orbit, which once needed a
    # larger window; the vertex stars need none
    path = write_spec(tmp_path, SPEC_G2_00)
    report = _json_report(capsys, ["check", path])
    assert report["verdict"] == "pass" and "window" not in report
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


def test_window_free_commands_never_lift(tmp_path, capsys):
    from toricarr import arrangement, cells
    assert not {"Window", "window_cap", "lift_to_window"} & set(dir(arrangement))
    assert not {"enumerate_faces", "quotient_faces"} & set(dir(cells))
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
    report = _json_report(capsys, ["check", path])
    assert report["verdict"] == "pass" and "window" not in report


# the second draw of the benchmark's generator family 1
SPEC_G1_01 = ('{"rank":2,"hypersurfaces":[{"chi":[1,0],"q":"0"},'
              '{"chi":[1,-1],"q":"1/4"}]}')


def test_translated_cut_chamber_needs_no_larger_window(tmp_path, capsys):
    # at window 1, a cut chamber of the lift moved by (0, 1) met the box
    # although its clipped barycenter did not; the vertex stars have no
    # box, and the reports are those of the arrangement in other
    # coordinates and moved by a rational point (`moved_spec`)
    from toricarr.arrangement import parse_spec, spec_to_json_dict
    from conftest import moved_spec
    moved = json.dumps(spec_to_json_dict(moved_spec(parse_spec(SPEC_G1_01))))
    paths = [write_spec(tmp_path, doc, name) for doc, name in
             ((SPEC_G1_01, "arr.json"), (moved, "moved.json"))]
    for command in ("check", "salvetti", "homology"):
        reports = [_json_report(capsys, [command, path]) for path in paths]
        for r in reports:
            r.pop("arrangement")
        assert reports[0] == reports[1]
        if command == "check":
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
    # a usage error exits 1
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


def test_faces_salvetti_and_pi1_compose_nothing(tmp_path, monkeypatch, capsys):
    # composites are formed only when asked, and only the nerve's
    # boundaries and `check_acyclic` ask
    from toricarr import cells, cli

    def refuse(morphisms, by_rep, m2, m1):
        raise AssertionError("composite formed")
    monkeypatch.setattr(cells, "_composite", refuse)
    path = write_spec(tmp_path, SPEC_GRID)
    for command in ("faces", "salvetti", "pi1"):
        assert cli.run([command, path]) == 0, capsys.readouterr().err
    assert cli.run(["homology", path]) == 3


def test_salvetti_lists_no_chains(tmp_path, monkeypatch, capsys):
    # `salvetti` counts the nerve's chains as paths, with no chain listed
    from toricarr import category, cli
    path = write_spec(tmp_path, SPEC_GRID)
    assert cli.run(["salvetti", path]) == 0
    expected = capsys.readouterr().out

    def refuse(cat, max_dim):
        raise AssertionError("nerve listed")
    monkeypatch.setattr(category, "nerve_chains", refuse)
    monkeypatch.setattr(cli, "nerve_chains", refuse)
    assert cli.run(["salvetti", path]) == 0
    assert capsys.readouterr().out == expected
    assert cli.run(["homology", path]) == 3


def test_unexpected_exception_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # an exception that is neither SpecError nor InternalError is a bug,
    # not bad input: exit 3 with one line, no traceback
    from toricarr import cli

    def broken(spec, args):
        return [][0]
    monkeypatch.setitem(cli.COMMANDS, "faces", (broken, ()))
    path = write_spec(tmp_path, SPEC_ONE_POINT)
    assert cli.run(["faces", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: IndexError: list index out of range\n"


def test_window_above_cap_exits_one_at_once(tmp_path):
    # check takes no window: any --window exits 1 before any work
    path = write_spec(tmp_path, SPEC_ONE_POINT)
    res = subprocess.run([sys.executable, "-m", "toricarr", "check", path,
                          "--window", "100000"],
                         capture_output=True, text=True, timeout=30)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: unknown option --window for check")


# its chamber orbits reach far from their vertices: a lift to [-1, 2]^2 misses some
SPEC_TWO_WALL = ('{"rank":2,"hypersurfaces":[{"chi":[-1,1],"q":"1/4"},'
                 '{"chi":[1,-2],"q":"0"}]}')


def _json_report(capsys, argv):
    from toricarr import cli
    code = cli.run(argv + ["--format", "json"])
    out, err = capsys.readouterr()
    assert code == 0, err
    return json.loads(out)


def test_two_wall_check_passes_at_window_two(tmp_path, capsys):
    # the lift behind check needed window 2 here; check takes none now
    path = write_spec(tmp_path, SPEC_TWO_WALL)
    report = _json_report(capsys, ["check", path])
    assert report["verdict"] == "pass" and all(report["checks"].values())


# Each usage error, and the word its "error:" line must name.
USAGE_ERRORS = [
    ([], "command"),
    (["bogus", "{path}"], "bogus"),
    (["faces"], "faces"),
    (["faces", "{path}", "other.json"], "other.json"),
    (["faces", "{path}", "--bogus"], "--bogus"),
    (["check", "{path}", "--window"], "--window"),
    (["check", "{path}", "--window", "1"], "--window"),
    (["check", "{path}", "--window=2"], "--window"),
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
    for argv in (["homology", path, "--space", "face"], ["homology", "--space=face", path]):
        assert cli.run(argv + ["--format=json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["space"] == "face"


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
