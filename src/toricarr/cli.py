"""Command line interface.

Subcommands: validate, faces, layers, salvetti, homology, pi1, check.
Input is a JSON arrangement document (file path or '-' for stdin); output
is a deterministic report in text or JSON form on stdout.  Without
--window, a command runs at K = 1, 2, ... in this process until one
answers; the arrangement's `window_cap` bounds K, and the report's
"window" is the K used.  Exit codes: 0 success, 1 malformed input or
command line (an explicit --window above the cap included), 2 window too
small (only with an explicit --window; a suggested --window value is
printed on stderr), 3 internal invariant violation (a window error at
the cap included).
"""

import argparse
import gc
import json
import sys
import time

from .errors import SpecError, WindowError, InternalError
from .arrangement import (parse_spec, spec_to_json_dict, is_essential,
                          essentialize, Window, lift_to_window, window_cap)
from .cells import enumerate_faces, quotient_faces, layers
from .category import (check_acyclic, nerve_chains, boundary_matrices,
                       homology, euler_characteristic, verify_dd_zero)
from .salvetti import toric_salvetti, is_thick, cw_census, orbit_chain_counts
from .pi1 import (build_context, presentation_from_context, abelianize,
                  simplify_presentation, quotient_without_meridians)

from math import comb


def _load_spec(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise SpecError("cannot read %s: %s" % (path, e)) from None
    return parse_spec(text)


def _prepare(spec, k):
    """Essentialize if needed and lift into the window [-k, k+1]^n."""
    work, basis = essentialize(spec)
    if work.rank == 0 or not work.hypersurfaces:
        raise SpecError("arrangement has no hypersurfaces after essentialization")
    window = Window.standard(work.rank, k)
    lifted = enumerate_faces(lift_to_window(work, window), window)
    return work, basis, window, lifted


def _alternating(counts):
    return sum((-1) ** k * c for k, c in enumerate(counts))


def _homology_json(h):
    return [{"degree": k, "betti": b, "torsion": t} for k, (b, t) in enumerate(h)]


def _nerve_homology(cat, rank, max_dim):
    """The whole nerve, its chain complex through degree max_dim + 1, and
    the homology in degrees 0..max_dim, which that complex determines."""
    chains = nerve_chains(cat, rank)
    cc = boundary_matrices(chains[:max_dim + 2], cat)
    return chains, cc, homology(cc)[:max_dim + 1]


def cmd_validate(spec, args):
    report = {"arrangement": spec_to_json_dict(spec),
              "essential": is_essential(spec)}
    work, basis = essentialize(spec)
    if work is not spec:
        report["essentialization"] = {
            "rank": work.rank,
            "basis": basis,
            "arrangement": spec_to_json_dict(work),
        }
    return report


def cmd_faces(spec, args):
    work, _, window, lifted = _prepare(spec, args.window)
    fc = quotient_faces(lifted)
    mult = fc.morphism_multiplicities()
    nonid = sum(mult.values())
    return {
        "arrangement": spec_to_json_dict(work),
        "window": args.window,
        "census": fc.census(),
        "nonidentity_morphisms": nonid,
        "euler": _alternating(fc.census()),
    }


def cmd_layers(spec, args):
    work, _, window, lifted = _prepare(spec, args.window)
    lp = layers(work, lifted)
    return {
        "arrangement": spec_to_json_dict(work),
        "window": args.window,
        "counts_by_dim": {str(d): c for d, c in sorted(lp.census().items())},
        "layers": [{"index": l.index, "dim": l.dim} for l in lp.layers],
        "relations": sorted(lp.relations),
    }


def cmd_salvetti(spec, args):
    work, _, window, lifted = _prepare(spec, args.window)
    fc = quotient_faces(lifted)
    z = toric_salvetti(lifted, fc)
    counts, chi = cw_census(z)
    cat = z.as_category()
    max_dim = args.max_dim if args.max_dim is not None else work.rank
    chains = nerve_chains(cat, work.rank)
    return {
        "arrangement": spec_to_json_dict(work),
        "window": args.window,
        "face_census": fc.census(),
        "object_census_by_codim": counts,
        "euler_cw": chi,
        "nerve_chain_counts": [len(d) for d in chains[:max_dim + 1]],
        "euler_nerve": euler_characteristic(chains),
        "thick": is_thick(fc),
    }


def cmd_homology(spec, args):
    work, _, window, lifted = _prepare(spec, args.window)
    fc = quotient_faces(lifted)
    max_dim = args.max_dim if args.max_dim is not None else work.rank
    if args.space == "face":
        cat = fc.as_category()
    else:
        cat = toric_salvetti(lifted, fc).as_category()
    chains, cc, h = _nerve_homology(cat, work.rank, max_dim)
    if not verify_dd_zero(cc):
        raise InternalError("boundary of boundary is nonzero")
    return {
        "arrangement": spec_to_json_dict(work),
        "window": args.window,
        "space": args.space,
        "chain_counts": [len(d) for d in chains[:max_dim + 1]],
        "homology": _homology_json(h),
        "euler": euler_characteristic(chains),
    }


def cmd_pi1(spec, args):
    work, _, window, lifted = _prepare(spec, args.window)
    fc = quotient_faces(lifted)
    ctx = build_context(work, lifted, fc)
    pres = presentation_from_context(ctx)
    betti, torsion = abelianize(pres)
    report = {
        "arrangement": spec_to_json_dict(work),
        "window": args.window,
        "generators": list(pres.names),
        "relators": [list(r) for r in pres.relators],
        "abelianization": {"betti": betti, "torsion": torsion},
    }
    if args.simplify:
        simp = simplify_presentation(pres)
        sb, st = abelianize(simp)
        report["simplified"] = {
            "generators": list(simp.names),
            "relators": [list(r) for r in simp.relators],
            "abelianization": {"betti": sb, "torsion": st},
        }
    return report


def cmd_check(spec, args):
    """Run the arrangement through every structural invariant we know."""
    results = {}
    diagnostics = {}
    work, _, window, lifted = _prepare(spec, args.window)
    n = work.rank
    fc = quotient_faces(lifted)
    results["face_euler_zero"] = _alternating(fc.census()) == 0
    fcat = fc.as_category()
    results["face_category_acyclic"], diagnostics["face_category_acyclic"] = \
        check_acyclic(fcat)
    chains_f, cc_f, h_f = _nerve_homology(fcat, n, n)
    results["face_nerve_dd_zero"] = verify_dd_zero(cc_f)
    results["torus_recovery"] = all(
        h_f[k] == (comb(n, k), []) for k in range(n + 1))
    z = toric_salvetti(lifted, fc)
    zcat = z.as_category()
    results["salvetti_category_acyclic"], diagnostics["salvetti_category_acyclic"] = \
        check_acyclic(zcat)
    counts, chi = cw_census(z)
    chains_z, cc_z, h_z = _nerve_homology(zcat, n, n)
    results["salvetti_nerve_dd_zero"] = verify_dd_zero(cc_z)
    results["euler_cw_matches_nerve"] = chi == euler_characteristic(chains_z)
    results["connected"] = h_z[0] == (1, [])
    results["quotient_commutes_with_nerve"] = \
        orbit_chain_counts(lifted, n) == [len(d) for d in chains_z]
    ctx = build_context(work, lifted, fc)
    pres = presentation_from_context(ctx)
    ab = abelianize(pres)
    results["abelianization_matches_h1"] = (ab[0], list(ab[1])) == \
        (h_z[1][0], list(h_z[1][1]))
    results["meridian_quotient_is_lattice"] = \
        abelianize(quotient_without_meridians(pres)) == (n, [])
    bigger = Window.standard(n, args.window + 1)
    lifted2 = enumerate_faces(lift_to_window(work, bigger), bigger)
    fc2 = quotient_faces(lifted2)
    z2 = toric_salvetti(lifted2, fc2)
    results["window_stable_censuses"] = (fc2.census() == fc.census()
                                         and z2.census() == z.census())
    failed = [k for k, v in results.items() if not v]
    if failed:
        lines = ["invariant check failed: %s" % ", ".join(failed)]
        lines += ["%s: %s" % (k, d) for k in failed for d in diagnostics.get(k, ())]
        raise InternalError("\n  ".join(lines))
    return {
        "arrangement": spec_to_json_dict(work),
        "window": args.window,
        "checks": results,
        "verdict": "pass",
    }


def _render_text(report, out):
    def walk(value, indent=""):
        if isinstance(value, dict):
            for key in value:
                v = value[key]
                if isinstance(v, (dict, list)) and v and not _is_flat(v):
                    out.write("%s%s:\n" % (indent, key))
                    walk(v, indent + "  ")
                else:
                    out.write("%s%s: %s\n" % (indent, key, _flat(v)))
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, (dict, list)):
                    walk(item, indent + "  ")
                else:
                    out.write("%s- %s\n" % (indent, _flat(item)))

    def _is_flat(v):
        if isinstance(v, list):
            return all(not isinstance(x, (dict, list)) for x in v)
        return False

    def _flat(v):
        if isinstance(v, list):
            return "[" + ", ".join(str(x) for x in v) + "]"
        return str(v)

    walk(report)


COMMANDS = {
    "validate": cmd_validate,
    "faces": cmd_faces,
    "layers": cmd_layers,
    "salvetti": cmd_salvetti,
    "homology": cmd_homology,
    "pi1": cmd_pi1,
    "check": cmd_check,
}


def nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


def build_parser():
    ap = argparse.ArgumentParser(
        prog="toricarr",
        description="Cell structures, Salvetti categories and fundamental "
                    "groups of complexified toric arrangements.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", help="JSON arrangement file, or - for stdin")
        p.add_argument("--window", type=int, metavar="K",
                       help="use the box [-K, K+1]^n; K may not exceed the "
                            "arrangement's cap ceil(e)+1 (default: the "
                            "smallest K that works, found in-process up to "
                            "the cap)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if name in ("salvetti", "homology"):
            p.add_argument("--max-dim", type=nonnegative, metavar="D",
                           help="report nerve chains and homology in degrees "
                                "0..D only (default: the rank)")
        if name == "homology":
            p.add_argument("--space", choices=("face", "salvetti"),
                           default="salvetti")
        if name == "pi1":
            p.add_argument("--simplify", action="store_true")
    return ap


def _answer(spec, args):
    """Run the command at the explicit --window, or else at K = 1, 2, ...
    until it answers.  A window error at the cap is a bug; below it,
    K + 1 is the window to try next."""
    command = COMMANDS[args.command]
    cap = window_cap(spec)
    explicit = args.window is not None
    if explicit and args.window > cap:
        raise SpecError("--window %d is above this arrangement's cap %d; "
                        "use a window from 1 to %d" % (args.window, cap, cap))
    for k in [args.window] if explicit else range(1, cap + 1):
        args.window = k
        try:
            return command(spec, args)
        except WindowError as e:
            if k >= cap:
                raise InternalError("window error at the cap %d: %s"
                                    % (cap, e)) from None
            if explicit:
                raise
        gc.collect()  # free the failed attempt's cyclic garbage before the next


def run(argv):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, but 2 means "window too small"
        return 1 if e.code else 0
    started = time.monotonic()
    try:
        spec = _load_spec(args.input)
        report = _answer(spec, args)
    except SpecError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except WindowError as e:
        print("error: %s" % e, file=sys.stderr)
        print("try again with --window %d" % (args.window + 1), file=sys.stderr)
        return 2
    except InternalError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 3
    if args.format == "json":
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    else:
        _render_text(report, sys.stdout)
    print("elapsed: %.3fs" % (time.monotonic() - started), file=sys.stderr)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
