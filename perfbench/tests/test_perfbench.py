"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from runner import Runner  # noqa: E402

# `toricarr layers --format json` on the diagonals {(1,1):0, (1,-1):0}
DIAGONALS_LAYERS = {
    "arrangement": {"rank": 2, "hypersurfaces": [{"chi": [1, 1], "q": "0"},
                                                 {"chi": [1, -1], "q": "0"}]},
    "layers": [{"index": 0, "dim": 2}, {"index": 1, "dim": 1},
               {"index": 2, "dim": 1}, {"index": 3, "dim": 0},
               {"index": 4, "dim": 0}],
    "relations": [[1, 0], [2, 0], [3, 0], [3, 1], [3, 2], [4, 0], [4, 1], [4, 2]],
}
ARRANGEMENT = DIAGONALS_LAYERS["arrangement"]


def test_layer_invariants_of_diagonals():
    ref = reference.layer_invariants(DIAGONALS_LAYERS)
    assert (ref.rank, ref.betti, ref.census) == (2, [1, 4, 5], [2, 4, 2])


def _homology(betti, torsion=()):
    return {"arrangement": ARRANGEMENT, "homology": [
        {"degree": k, "betti": b, "torsion": list(torsion) if k == 1 else []}
        for k, b in enumerate(betti)]}


def _pi1(n_gens, betti, simplified_betti):
    return {"arrangement": ARRANGEMENT,
            "generators": ["g%d" % i for i in range(n_gens)],
            "abelianization": {"betti": betti, "torsion": []},
            "simplified": {"abelianization": {"betti": simplified_betti, "torsion": []}}}


def test_correct_answers_pass():
    ref = reference.layer_invariants(DIAGONALS_LAYERS)
    faces = {"arrangement": ARRANGEMENT, "census": [2, 4, 2], "euler": 0}
    assert reference.check_answer("faces", faces, ref) == []
    assert reference.check_answer("homology", _homology([1, 4, 5]), ref) == []
    assert reference.check_answer("pi1 --simplify", _pi1(6, 4, 4), ref) == []
    assert reference.check_pass({("d", "homology"): _homology([1, 4, 5]),
                                 ("d", "pi1"): _pi1(6, 4, 4)}) == []


@pytest.mark.parametrize("command,report", [
    ("faces", {"arrangement": ARRANGEMENT, "census": [2, 4, 1], "euler": -1}),
    ("homology", _homology([1, 4, 6])),
    ("homology", _homology([1, 4, 5], torsion=[2])),
    ("homology", _homology([2, 5, 5])),
    ("pi1 --simplify", _pi1(5, 4, 4)),
    ("pi1 --simplify", _pi1(6, 4, 3)),
    ("check", {"arrangement": ARRANGEMENT, "verdict": "fail",
               "checks": {"connected": False}}),
    ("homology", dict(_homology([1, 4, 5]), arrangement={"rank": 1})),
])
def test_corrupted_answer_is_flagged(command, report):
    ref = reference.layer_invariants(DIAGONALS_LAYERS)
    assert reference.check_answer(command, report, ref)


def test_h1_must_match_abelianization_within_a_pass():
    found = reference.check_pass({("d", "homology"): _homology([1, 4, 5]),
                                  ("d", "pi1"): _pi1(6, 3, 3)})
    assert [name for name, _ in found] == ["d"]


def test_generator_is_deterministic():
    assert workloads.generate(1, 6) == workloads.generate(1, 6)
    assert workloads.generate(1, 6) != workloads.generate(2, 6)
    for name in workloads.WORKLOADS:
        assert workloads.build_inputs(name, 7) == workloads.build_inputs(name, 7)


def test_generator_family():
    for _, doc in workloads.generate(3, 40):
        assert doc["rank"] in (1, 2)
        hyps = doc["hypersurfaces"]
        assert 1 <= len(hyps) <= 3 and (doc["rank"] == 1 or len(hyps) >= 2)
        assert len({workloads._canonical(h) for h in hyps}) == len(hyps)
        for h in hyps:
            assert any(h["chi"]) and h["q"] in workloads.Q_VALUES
            if doc["rank"] == 2:
                assert h["chi"][0] in workloads.CHI_FIRST
                assert h["chi"][1] in workloads.CHI_SECOND


def test_restatement_keeps_the_hypersurfaces():
    docs = {json.dumps(d, sort_keys=True)
            for seed in range(6)
            for _, d, _, _ in workloads.build_inputs("grids", seed)}
    assert len(docs) > 2
    for seed in range(6):
        for (_, doc, _, _), (_, base, _, _) in zip(
                workloads.build_inputs("generated", seed),
                workloads.WORKLOADS["generated"](workloads.DEFAULT_FAMILY_SEED)):
            assert sorted(map(workloads._canonical, doc["hypersurfaces"])) == \
                sorted(map(workloads._canonical, base["hypersurfaces"]))


def test_absent_targets_are_reported(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", [
        ("toricarr.exact", "no_such_function", "exact.no_such_function"),
        ("toricarr.cells", "NoSuchClass.locate", "cells.no_such_method"),
        ("toricarr.no_such_module", "f", "gone.f")])
    tracer = tracing.Tracer("t")
    assert tracer.install() == ["exact.no_such_function", "cells.no_such_method",
                                "gone.f"]


def test_self_time_excludes_children():
    tracer = tracing.Tracer("t")
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    metrics, _ = tracing.summarize([{"absent": [], "spans": tracer.spans}])
    (_, s0, e0, _, child, _) = tracer.spans[0]
    assert metrics["inner.calls"] == 3 and metrics["outer.calls"] == 1
    assert child >= sum(e - s for _, s, e, _, _, _ in tracer.spans[1:])
    assert metrics["outer.self_s"] == pytest.approx(e0 - s0 - child)


def test_counter_on_a_changed_result_does_not_break_the_call(tmp_path):
    tracer = tracing.Tracer("t")
    snf = tracer.wrap(lambda m: ("no rows attribute", m), "exact.snf")
    assert snf(7) == ("no rows attribute", 7)
    tracer.dump(str(tmp_path / "spans.json"), [])
    metrics, absent = tracing.summarize([json.loads((tmp_path / "spans.json").read_text())])
    assert absent == ["exact.snf.counts"] and metrics["exact.snf.calls"] == 1


def _traced_counts(tmp_path, tag):
    spans = tmp_path / tag
    spans.mkdir()
    path = tmp_path / "diagonals.json"
    path.write_text(json.dumps(ARRANGEMENT))
    runner = Runner(ROOT, timeout=120)
    prefix = [sys.executable, os.path.join(BENCH, "traced_cli.py"), str(spans), tag]
    for cmd in ("homology", "pi1 --simplify"):
        assert runner.answer(cmd, str(path), prefix).ok
    docs = [json.loads(p.read_text()) for p in sorted(spans.iterdir())]
    metrics, absent = tracing.summarize(docs)
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}, absent


def test_two_traced_runs_give_identical_counts(tmp_path):
    first, absent = _traced_counts(tmp_path, "a")
    second, _ = _traced_counts(tmp_path, "b")
    assert first == second
    assert absent == []
    assert first["cells.enumerate_faces.calls"] == 2
    assert first["exact.snf.calls"] > 0 and first["pi1.generators"] == 6


def test_benchmark_json_lists_the_metrics_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
