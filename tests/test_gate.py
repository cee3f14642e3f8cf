"""The output gate script, `tests/gate.py`, on one input."""

import json

import gate


def test_gate_records_and_diffs_one_input(tmp_path, capsys):
    root = gate.ROOT
    path = str(tmp_path / "a.jsonl")
    gate.record(root, path, only={"one_point"})
    with open(path, encoding="utf-8") as fh:
        runs = [json.loads(line) for line in fh]
    # nine command lines, each with no --window and at windows 1 and 2
    assert len(runs) == 27
    assert {r["exit"] for r in runs} == {0}
    assert not any("elapsed" in r["stderr"] for r in runs)
    faces = next(r for r in runs if r["command"] == ["faces"] and r["window"] is None)
    assert json.loads(faces["stdout"])["census"] == [1, 1]
    assert gate.diff(path, path) == 0

    # a default run reporting another window, and an explicit run that
    # failed on the first side
    report = json.loads(faces["stdout"])
    report["window"] = 2
    faces["stdout"] = json.dumps(report)
    explicit = next(r for r in runs if r["command"] == ["faces"] and r["window"] == 1)
    failed = dict(explicit, exit=2, stdout="", stderr="error: too small\n")
    changed = str(tmp_path / "b.jsonl")
    with open(changed, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(failed if r is explicit else r) + "\n" for r in runs)
    capsys.readouterr()
    assert gate.diff(changed, path, ("window",)) == 2
    out = capsys.readouterr().out
    assert "2 of 27 runs changed" in out
    assert "faces, default window, exit 0 -> 0: only window" in out
    assert "one_point faces (window 2 -> 1)" in out
    assert ("faces, explicit window, exit 2 -> 0: stdout and stderr differ; "
            "B equals A's default run apart from window") in out
    assert gate.main(["diff", changed, path]) == 1
    assert "faces, default window, exit 0 -> 0: stdout differ" in capsys.readouterr().out
