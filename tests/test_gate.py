"""The output gate script, `tests/gate.py`, on one input."""

import json

import gate


def test_gate_records_and_diffs_one_input(tmp_path, capsys):
    root = gate.ROOT
    path = str(tmp_path / "a.jsonl")
    gate.record(root, path, only={"one_point"})
    with open(path, encoding="utf-8") as fh:
        runs = [json.loads(line) for line in fh]
    # nine command lines
    assert len(runs) == 9
    assert {r["exit"] for r in runs} == {0}
    assert not any("elapsed" in r["stderr"] for r in runs)
    faces = next(r for r in runs if r["command"] == ["faces"])
    assert json.loads(faces["stdout"])["census"] == [1, 1]
    assert gate.diff(path, path) == 0

    # a recording whose faces report differs only in its euler key, and
    # whose layers report differs in another key: ignoring euler leaves
    # only the layers run changed in content
    layers = next(r for r in runs if r["command"] == ["layers"])

    def moved(run, **keys):
        return dict(run, stdout=json.dumps(dict(json.loads(run["stdout"]), **keys)))
    changed = [moved(r, euler=5) if r is faces else
               moved(r, counts_by_dim={}) if r is layers else r for r in runs]
    new = str(tmp_path / "new.jsonl")
    with open(new, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in changed)
    capsys.readouterr()
    assert gate.diff(path, new, ("euler",)) == 2
    out = capsys.readouterr().out
    assert "2 of 9 runs changed" in out
    assert "faces, exit 0 -> 0: only euler" in out
    assert "one_point faces (euler 0 -> 5)" in out
    assert "layers, exit 0 -> 0: stdout differ" in out
    assert gate.main(["diff", path, new, "--ignore-key", "euler"]) == 1
    assert gate.main(["diff", path, new]) == 1
    assert "faces, exit 0 -> 0: stdout differ" in capsys.readouterr().out


def test_gate_records_a_raising_run_and_goes_on(tmp_path, monkeypatch, capsys):
    # a tree whose cli.run raises on one command: that run is recorded
    # with exit null and the exception in its stderr, and the rest follow
    root = gate.ROOT
    good = str(tmp_path / "good.jsonl")
    gate.record(root, good, only={"one_point"})
    from toricarr import cli
    run = cli.run

    def raising(argv):
        if argv[0] == "faces":
            raise IndexError("list index out of range")
        return run(argv)
    monkeypatch.setattr(cli, "run", raising)
    bad = str(tmp_path / "bad.jsonl")
    gate.record(root, bad, only={"one_point"})
    with open(bad, encoding="utf-8") as fh:
        runs = [json.loads(line) for line in fh]
    assert len(runs) == 9
    faces = next(r for r in runs if r["command"] == ["faces"])
    assert (faces["exit"], faces["stdout"]) == (None, "")
    assert faces["stderr"] == "IndexError: list index out of range\n"
    assert {r["exit"] for r in runs if r is not faces} == {0}
    capsys.readouterr()
    assert gate.diff(good, bad) == 1
    out = capsys.readouterr().out
    assert "1 of 9 runs changed" in out
    assert "faces, exit 0 -> None: stdout and stderr differ" in out
