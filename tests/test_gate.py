"""The output gate script, `tests/gate.py`, on one input."""

import json

import gate


def test_gate_records_and_diffs_one_input(tmp_path, capsys):
    root = gate.ROOT
    path = str(tmp_path / "a.jsonl")
    gate.record(root, path, only={"one_point"})
    with open(path, encoding="utf-8") as fh:
        runs = [json.loads(line) for line in fh]
    # nine command lines, none of which takes --window
    assert len(runs) == 9
    assert {r["window"] for r in runs} == {None}
    assert {r["exit"] for r in runs} == {0}
    assert not any("elapsed" in r["stderr"] for r in runs)
    faces = next(r for r in runs if r["command"] == ["faces"])
    assert json.loads(faces["stdout"])["census"] == [1, 1]
    assert gate.diff(path, path) == 0

    # a recording from a tree whose check took a window: its default run
    # reports the window, and its explicit run at window 1 failed where
    # the other side's answers
    check = next(r for r in runs if r["command"] == ["check"])
    report = json.loads(check["stdout"])
    windowed = dict(check, stdout=json.dumps(dict(report, window=2)))
    failed = dict(check, window=1, exit=2, stdout="", stderr="error: too small\n")
    answered = dict(check, window=1)
    old, new = str(tmp_path / "old.jsonl"), str(tmp_path / "new.jsonl")
    with open(old, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(windowed if r is check else r) + "\n" for r in runs + [failed])
    with open(new, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in runs + [answered])
    capsys.readouterr()
    assert gate.diff(old, new, ("window",)) == 2
    out = capsys.readouterr().out
    assert "2 of 10 runs changed" in out
    assert "check, default window, exit 0 -> 0: only window" in out
    assert "one_point check (window 2 -> None)" in out
    assert ("check, explicit window, exit 2 -> 0: stdout and stderr differ; "
            "B equals A's default run apart from window") in out
    assert gate.main(["diff", old, new]) == 1
    assert "check, default window, exit 0 -> 0: stdout differ" in capsys.readouterr().out


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
    assert "faces, default window, exit 0 -> None: stdout and stderr differ" in out
