"""Output gate: every command's output on fixed inputs, recorded from one
source tree and compared with another's.

    python tests/gate.py record TREE OUT.jsonl [--only N,..] [--exclude N,..]
    python tests/gate.py diff A.jsonl B.jsonl [--ignore-key KEY]...

`record` imports `toricarr` from TREE/src and calls `cli.run` in-process
with `--format json` and the document on stdin.  It runs `validate`,
`faces`, `layers`, `salvetti`, `homology` in both spaces, `pi1` with and
without `--simplify`, and `check`.  Each run is one JSON line: the
input's name, the command line, the exit code, the stdout and the stderr
without its `elapsed` line.  A run whose `cli.run` raises is recorded
with exit null and the exception's type and message at the end of its
stderr, and recording goes on.  `--only` and `--exclude` keep or drop
inputs by name.

The inputs are fixed: the catalog, the first 12 draws of generator
families 1 and 2 (`perfbench/workloads.generate`), two three-wall cases,
a two-wall case, a non-essential rank-3 spec, a rank-1 spec whose two
sources share their hyperplanes, `r3`, without `pi1 --simplify`, `r4`
with `validate`, `faces`, `layers`, `salvetti` and `pi1` only: its
`homology` and `check` take seconds each, and `d4` with `validate`,
`faces`, `layers` and `salvetti` only: its Salvetti category has 29823
objects and its nerve 12487743 chains, and its `salvetti` takes seconds.

`diff` pairs the runs of two recordings and groups the changed ones by
kind: the command, the exit codes and what differs.  With
`--ignore-key`, a run whose stdout differs only in that top-level key of
its JSON report is listed with the key's two values.  It exits 1 when
some run changed.  Pytest does not collect this file.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COMMANDS = [
    ["validate"], ["faces"], ["layers"], ["salvetti"], ["homology"],
    ["homology", "--space", "face"], ["pi1"], ["pi1", "--simplify"], ["check"],
]


def _hyps(*walls):
    return [{"chi": list(chi), "q": q} for chi, q in walls]


CATALOG = {
    "one_point": (1, _hyps(((1,), "0"))),
    "two_points": (1, _hyps(((1,), "0"), ((1,), "1/2"))),
    "three_points": (1, _hyps(((1,), "0"), ((1,), "1/2"), ((1,), "1/4"))),
    "diagonals": (2, _hyps(((1, 1), "0"), ((1, -1), "0"))),
    "grid": (2, _hyps(((1, 0), "0"), ((1, 0), "1/2"), ((0, 1), "0"), ((0, 1), "1/2"))),
    "coord3": (3, _hyps(((1, 0, 0), "0"), ((0, 1, 0), "0"), ((0, 0, 1), "0"))),
}

OTHERS = {
    "three_walls": (2, _hyps(((1, -1), "0"), ((1, -2), "2/3"), ((1, 2), "0"))),
    "three_walls_2": (2, _hyps(((2, -2), "2/3"), ((-1, 1), "0"), ((2, -1), "2/3"))),
    "two_wall": (2, _hyps(((-1, 1), "1/4"), ((1, -2), "0"))),
    "nonessential": (3, _hyps(((2, 2, 0), "0"), ((0, 2, 2), "1/2"), ((2, 0, -2), "1/3"))),
    "coincident": (1, _hyps(((1,), "0"), ((2,), "0"))),
}

R3 = (3, _hyps(((1, 0, 0), "0"), ((0, 1, 0), "0"), ((0, 0, 1), "0"),
               ((1, 1, 0), "1/2"), ((0, 1, -1), "1/3"), ((1, -1, 1), "0")))

R4 = (4, _hyps(((1, 0, 0, 0), "0"), ((0, 1, 0, 0), "0"), ((0, 0, 1, 0), "0"),
               ((0, 0, 0, 1), "0"), ((1, 1, 0, 0), "1/2"), ((0, 0, 1, -1), "1/3")))

D4 = (4, _hyps(((-2, -2, -2, -1), "1/2"), ((-2, 1, 0, -1), "0"), ((-1, 2, 1, 2), "1/2"),
               ((1, 1, 2, 2), "1/2"), ((2, -2, 2, 1), "2/3"), ((2, -1, 2, -2), "1/4")))


def inputs():
    """(name, document, commands) per input, in recording order."""
    sys.path.insert(0, ROOT)
    try:
        from perfbench.workloads import generate
    finally:
        sys.path.remove(ROOT)
    docs = {name: {"rank": r, "hypersurfaces": h} for name, (r, h) in CATALOG.items()}
    for family in (1, 2):
        docs.update(generate(family, 12))
    docs.update((name, {"rank": r, "hypersurfaces": h}) for name, (r, h) in OTHERS.items())
    out = [(name, doc, COMMANDS) for name, doc in docs.items()]
    out.append(("r3", {"rank": R3[0], "hypersurfaces": R3[1]},
                [c for c in COMMANDS if c != ["pi1", "--simplify"]]))
    out.append(("r4", {"rank": R4[0], "hypersurfaces": R4[1]},
                [["validate"], ["faces"], ["layers"], ["salvetti"], ["pi1"]]))
    out.append(("d4", {"rank": D4[0], "hypersurfaces": D4[1]},
                [["validate"], ["faces"], ["layers"], ["salvetti"]]))
    return out


def _import_tree(tree):
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path.insert(0, src)
    from toricarr import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("toricarr was imported from %s, not %s" % (cli.__file__, src))
    return cli


def _run(cli, argv, doc):
    """(exit, stdout, stderr) of one `cli.run`; a run that raises has exit
    None, and the exception's type and message end its stderr."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception as e:
        code = None
        err.write("%s: %s\n" % (type(e).__name__, e))
    finally:
        sys.stdin = stdin
    stderr = "".join(line for line in err.getvalue().splitlines(True)
                     if not line.startswith("elapsed: "))
    return code, out.getvalue(), stderr


def record(tree, path, only=None, exclude=()):
    cli = _import_tree(tree)
    with open(path, "w", encoding="utf-8") as fh:
        for name, doc, commands in inputs():
            if only is not None and name not in only or name in exclude:
                continue
            for command in commands:
                code, stdout, stderr = _run(cli, command + ["-", "--format", "json"], doc)
                fh.write(json.dumps({"input": name, "command": command, "exit": code,
                                     "stdout": stdout, "stderr": stderr},
                                    sort_keys=True) + "\n")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        runs = [json.loads(line) for line in fh]
    return {(r["input"], " ".join(r["command"])): r for r in runs}


def _report(run, ignore):
    """The run's JSON report without the ignored keys, or None."""
    if run["exit"] != 0:
        return None
    report = json.loads(run["stdout"])
    return {k: v for k, v in report.items() if k not in ignore}


def classify(a, b, ignore):
    """(kind, note) of a run recorded on both sides, or None when it is the
    same."""
    head = "%s, exit %s -> %s" % (" ".join(a["command"]), a["exit"], b["exit"])
    if a["exit"] == b["exit"] and a["stdout"] == b["stdout"] and a["stderr"] == b["stderr"]:
        return None
    if a["exit"] == b["exit"] and a["stderr"] == b["stderr"] and ignore:
        ra, rb = _report(a, ignore), _report(b, ignore)
        if ra is not None and ra == rb:
            before, after = json.loads(a["stdout"]), json.loads(b["stdout"])
            moved = ", ".join("%s %s -> %s" % (k, before.get(k), after.get(k))
                              for k in ignore if before.get(k) != after.get(k))
            return head + ": only " + ", ".join(ignore), moved
    what = [f for f in ("stdout", "stderr") if a[f] != b[f]]
    return head + ": " + " and ".join(what) + " differ", ""


def diff(path_a, path_b, ignore=()):
    """Print the changed runs grouped by kind; return their number."""
    a, b = _load(path_a), _load(path_b)
    groups = {}
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            kind, note = "only in %s" % ("A" if key in a else "B"), ""
        else:
            got = classify(a[key], b[key], ignore)
            if got is None:
                continue
            kind, note = got
        groups.setdefault(kind, []).append(" ".join(key) + (" (%s)" % note if note else ""))
    changed = sum(map(len, groups.values()))
    print("%d of %d runs changed" % (changed, len(set(a) | set(b))))
    for kind in sorted(groups):
        print("\n%d: %s" % (len(groups[kind]), kind))
        for line in groups[kind]:
            print("  " + line)
    return changed


def _names(text):
    return set(text.split(","))


def main(argv):
    usage = __doc__.split("\n\n")[1]
    if len(argv) >= 3 and argv[0] == "record":
        options = dict(zip(argv[3::2], argv[4::2]))
        if len(argv) % 2 == 0 or set(options) - {"--only", "--exclude"}:
            raise SystemExit(usage)
        only = _names(options["--only"]) if "--only" in options else None
        record(argv[1], argv[2], only, _names(options.get("--exclude", "")))
        return 0
    if len(argv) >= 3 and argv[0] == "diff":
        rest = argv[3:]
        if len(rest) % 2 or any(o != "--ignore-key" for o in rest[::2]):
            raise SystemExit(usage)
        return 1 if diff(argv[1], argv[2], tuple(rest[1::2])) else 0
    raise SystemExit(usage)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
