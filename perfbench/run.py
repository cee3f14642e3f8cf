"""End-to-end benchmark of the toricarr command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grids --seed 1 --seconds 55 --trace 0

Each command runs in its own process, ``PYTHONPATH=src python -m
toricarr``, one after another, exactly as a user would type it: without
``--window`` first, then with the window that stderr suggests (see
runner.py).  A pass runs every command of the workload on every
arrangement; passes repeat until ``--seconds`` are used up and the
timings are medians over passes.  Before the passes, the run times
``toricarr validate`` (set-up), makes one untimed warm-up call that
writes bytecode, and computes each arrangement's reference invariants
(reference.py).  Every answer of every pass is checked.

``--trace 1`` alternates untraced passes with traced passes, in which
each command runs under perfbench/traced_cli.py, and reports per-layer
metrics (tracing.py) and the tracing overhead instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a summary goes to stderr.
The exit code is 0 when the benchmark ran, whether or not the answers
were correct, and 2 when it could not run (for example, with no
``src/toricarr`` in the current directory).
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import reference
import tracing
import workloads
from runner import Runner

HERE = os.path.dirname(os.path.abspath(__file__))
HARD_LIMIT_S = 170          # the whole run ends within this many seconds
COMMAND_TIMEOUT_S = 120
SETUP_CALLS = 15

END_TO_END = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics and their units.  Self times come from the traced
# passes; the cli.* metrics and command times from the untraced ones.
PER_LAYER = {name: unit for unit, names in (
    ("count", ["cli.attempts", "cli.window_retries", "cli.max_window",
               "arrangement.lift_to_window.calls", "arrangement.hyperplanes",
               "cells.enumerate_faces.calls", "cells.faces", "cells.flats",
               "cells.cut_faces", "cells.face_orbits", "cells.face_morphisms",
               "cells.locate.calls", "salvetti.objects", "salvetti.morphisms",
               "salvetti.poset_elements", "salvetti.relation_pairs",
               "category.chains.d0", "category.chains.d1", "category.chains.d2",
               "category.boundary_nnz",
               "category.boundary_cells", "exact.snf.calls", "exact.snf.max_cells",
               "exact.mat_mul.calls", "exact.hnf.calls", "exact.solve_affine.calls",
               "pi1.relations_for_G.calls", "pi1.delta_word.calls",
               "pi1.positive_minimal_path.calls", "pi1.generators", "pi1.relators",
               "pi1.relator_letters"]),
    ("ratio", ["cli.answer_ratio", "salvetti.relation_hit_ratio",
               "category.boundary_density"]),
    ("s", ["cli.retry_s", "cli.faces_s", "cli.homology_s", "cli.pi1_s",
           "cli.check_s", "cli.startup_s", "trace.overhead_s"] + [
        stem + ".self_s" for _, _, stem in tracing.TARGETS]),
) for name in names}


class Run:
    """One benchmark invocation: its inputs, references and counters."""

    def __init__(self, root, args):
        self.args = args
        self.started = time.monotonic()
        self.runner = Runner(root, COMMAND_TIMEOUT_S,
                             deadline=self.started + HARD_LIMIT_S)
        self.work = os.path.join(root, ".perfbench_work", str(os.getpid()))
        self.spans_dir = os.path.join(self.work, "spans")
        os.makedirs(self.spans_dir)
        self.traced_prefix = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                              self.spans_dir]
        self.inputs = []
        for name, doc, cmds, exact in workloads.build_inputs(
                args.workload, args.seed, args.family_seed):
            path = os.path.join(self.work, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.inputs.append((name, path, cmds, exact))
        self.refs = {}
        self.setup_s = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, what, problems):
        """Count one answer; it fails when it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend("%s: %s" % (what, p) for p in problems)

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass                    # another run still uses it

    def setup(self):
        """Warm up, time validate, and compute the references."""
        self.runner.invoke(["validate", self.inputs[0][1]], None)
        times = []
        for i in range(SETUP_CALLS):
            att = self.runner.invoke(["validate", self.inputs[i % len(self.inputs)][1]], None)
            self.record("validate", [] if att.code == 0 else ["exit %s" % att.code])
            times.append(att.seconds)
        self.setup_s = statistics.median(times)
        for name, path, _, exact in self.inputs:
            lay = self.runner.answer("layers", path)
            problems = [lay.error] if lay.error else []
            if lay.ok:
                try:
                    ref = reference.layer_invariants(lay.report)
                except (KeyError, TypeError, IndexError) as e:
                    problems = ["layers report has an unexpected shape: %r" % e]
                else:
                    problems = ["reference %s %s, exact %s" % (key, getattr(ref, key), value)
                                for key, value in exact.items() if getattr(ref, key) != value]
                    if not problems:
                        self.refs[name] = ref
            self.record("layers " + name, problems)

    def one_pass(self, index, traced):
        """Run every command once; return the pass record."""
        rec = {"total_s": 0.0, "retry_s": 0.0, "rss_kb": 0, "attempts": 0,
               "answers": 0, "retries": 0, "max_window": 1, "seconds": {}}
        reports, problems = {}, {}
        for name, path, cmds, _ in self.inputs:
            for cmd in cmds:
                prefix = None
                if traced:
                    prefix = self.traced_prefix + ["p%d/%s/%s" % (index, name, cmd)]
                ans = self.runner.answer(cmd, path, prefix)
                kind = cmd.split()[0]
                key = (name, kind)
                rec["total_s"] += ans.seconds
                rec["seconds"][key] = ans.seconds
                rec["retry_s"] += ans.retry_seconds
                rec["rss_kb"] = max(rec["rss_kb"], ans.maxrss_kb)
                rec["attempts"] += len(ans.attempts)
                rec["retries"] += sum(1 for a in ans.attempts if a.code == 2)
                rec["max_window"] = max(rec["max_window"], ans.window or 1)
                rec["answers"] += ans.ok
                if not ans.ok:
                    problems[key] = [ans.error]
                elif name not in self.refs:
                    problems[key] = ["no reference to check against"]
                else:
                    try:
                        problems[key] = reference.check_answer(cmd, ans.report,
                                                               self.refs[name])
                    except (KeyError, TypeError, IndexError) as e:
                        problems[key] = ["report has an unexpected shape: %r" % e]
                    if not problems[key]:
                        reports[key] = ans.report
        for name, problem in reference.check_pass(reports):
            problems[(name, "pi1")].append(problem)
        for (name, kind), found in problems.items():
            self.record("%s %s" % (kind, name), found)
        if traced:
            docs = []
            for fname in sorted(os.listdir(self.spans_dir)):
                fpath = os.path.join(self.spans_dir, fname)
                with open(fpath, encoding="utf-8") as fh:
                    docs.append(json.load(fh))
                os.remove(fpath)
            rec["layers"], rec["absent"] = tracing.summarize(docs)
            rec["layers"]["cli.startup_s"] = rec["total_s"] - sum(
                end - start for doc in docs
                for name, start, end, parent, _, _ in doc["spans"] if parent < 0)
        return rec

    def measure(self):
        """Passes until --seconds are used; traced passes alternate in."""
        budget = self.args.seconds
        began = time.monotonic()
        plain, traced = [], []
        while True:
            for is_traced in ([False, True] if self.args.trace else [False]):
                rec = self.one_pass(len(plain) + len(traced), is_traced)
                (traced if is_traced else plain).append(rec)
            used = time.monotonic() - began
            cycle = used / len(plain)
            # stop before a cycle would overrun the budget, and early enough
            # that one more slow cycle still ends within the hard limit
            if used + cycle > budget or time.monotonic() - self.started > HARD_LIMIT_S / 2:
                return plain, traced


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def answer_seconds(records, kind=None):
    """Sum over answers (all, or those of one command kind) of each
    answer's median seconds across passes."""
    return sum(statistics.median(r["seconds"][key] for r in records)
               for key in records[0]["seconds"] if kind in (None, key[1]))


def end_to_end_metrics(run, plain):
    values = {
        "total_s": answer_seconds(plain),
        "setup_s": run.setup_s,
        "peak_rss_mb": median_of(plain, "rss_kb") / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer_metrics(plain, traced):
    """Every name in PER_LAYER, read from the passes; absent ones are 0."""
    out = {
        "cli.attempts": median_of(plain, "attempts"),
        "cli.window_retries": median_of(plain, "retries"),
        "cli.retry_s": median_of(plain, "retry_s"),
        "cli.answer_ratio": median_of(plain, "answers") / median_of(plain, "attempts"),
        "cli.max_window": median_of(plain, "max_window"),
        "trace.overhead_s": answer_seconds(traced) - answer_seconds(plain),
    }
    for kind in ("faces", "homology", "pi1", "check"):
        out["cli.%s_s" % kind] = answer_seconds(plain, kind)
    names = set()
    for r in traced:
        names.update(r["layers"])
    for name in names:
        out[name] = statistics.median(r["layers"].get(name, 0) for r in traced)
    sq = out.get("salvetti.poset_elements_sq", 0)
    out["salvetti.relation_hit_ratio"] = out.get("salvetti.relation_pairs", 0) / sq if sq else 0.0
    cells = out.get("category.boundary_cells", 0)
    out["category.boundary_density"] = out.get("category.boundary_nnz", 0) / cells if cells else 0.0
    metrics = {}
    for name, unit in PER_LAYER.items():
        metrics[name] = {"value": out.get(name, 0), "unit": unit}
    return metrics


def report_summary(run, plain, traced, metrics):
    err = sys.stderr
    print("workload %s, seed %d: %d untraced and %d traced passes, %d answers, "
          "%d failed" % (run.args.workload, run.args.seed, len(plain), len(traced),
                         run.attempted, run.failed), file=err)
    print("  untraced pass totals: %s s" % " ".join("%.3f" % r["total_s"] for r in plain),
          file=err)
    if traced:
        print("  traced pass totals: %s s" % " ".join("%.3f" % r["total_s"] for r in traced),
              file=err)
    for line in run.failures[:20]:
        print("  FAILED " + line, file=err)
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]), file=err)
    absent = sorted({a for r in traced for a in r["absent"]})
    if absent:
        print("  absent at this commit: " + ", ".join(absent), file=err)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help="picks each input's box symmetry")
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--family-seed", type=int, default=workloads.DEFAULT_FAMILY_SEED,
                    help="generator seed of the 'generated' workload (held out: %d)"
                    % workloads.HELD_OUT_FAMILY_SEED)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "toricarr", "__init__.py")):
        print("perfbench: no src/toricarr under %s; run from a checkout root" % root,
              file=sys.stderr)
        return 2
    run = Run(root, args)
    try:
        run.setup()
        plain, traced = run.measure()
    finally:
        run.cleanup()
    if args.trace:
        metrics = per_layer_metrics(plain, traced)
    else:
        metrics = end_to_end_metrics(run, plain)
    report_summary(run, plain, traced, metrics)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
