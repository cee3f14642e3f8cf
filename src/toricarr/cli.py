"""Command line interface.

Subcommands: validate, faces, layers, salvetti, homology, pi1, check.
Input is a JSON arrangement document (file path or '-' for stdin); output
is a deterministic report in text or JSON form on stdout.  Every command
reads the torus's face and Salvetti categories, layers and pi1 off the
vertex stars.  `check` compares them with references read off the layer
poset.  Options come anywhere after the command, as --option value or
--option=value, unabbreviated.  Exit codes: 0 success, 1 malformed input
or command line, or a stdout closed by its reader, 3 internal invariant
violation (a failed `check` and any unexpected exception included).
"""

import gc
import json
import os
import sys
import time
import types

from .errors import SpecError, InternalError
from .arrangement import parse_spec, spec_to_json_dict, is_essential, essentialize
from .cells import layers, VertexStars
from .category import (check_acyclic, nerve_chains, boundary_matrices,
                       homology, euler_characteristic, verify_dd_zero)
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


def _essential(spec):
    """The essentialized arrangement; one without hypersurfaces is an error."""
    work, _ = essentialize(spec)
    if work.rank == 0 or not work.hypersurfaces:
        raise SpecError("arrangement has no hypersurfaces after essentialization")
    return work


def _homology_json(h):
    return [{"degree": k, "betti": b, "torsion": t} for k, (b, t) in enumerate(h)]


def _nerve_homology(cat, rank, max_dim):
    """The whole nerve's chain counts, its chain complex through degree
    max_dim + 1, and the homology in degrees 0..max_dim, which that complex
    determines."""
    chains = nerve_chains(cat, rank)
    cc = boundary_matrices(chains[:max_dim + 2], cat)
    return [len(d) for d in chains], cc, homology(cc)[:max_dim + 1]


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
    work = _essential(spec)
    fc = VertexStars(work).face_category()
    return {
        "arrangement": spec_to_json_dict(work),
        "census": fc.census(),
        "nonidentity_morphisms": len(fc.nonidentity()),
        "euler": euler_characteristic(fc.census()),
    }


def cmd_layers(spec, args):
    work = _essential(spec)
    lp = layers(VertexStars(work))
    return {
        "arrangement": spec_to_json_dict(work),
        "counts_by_dim": {str(d): c for d, c in sorted(lp.census().items())},
        "layers": [{"index": l.index, "dim": l.dim} for l in lp.layers],
        "relations": sorted(lp.relations),
    }


def cmd_salvetti(spec, args):
    work = _essential(spec)
    stars = VertexStars(work)
    fc = stars.face_category()
    z = stars.salvetti_category()
    counts = z.census()
    max_dim = args.max_dim if args.max_dim is not None else work.rank
    chain_counts = [len(d) for d in nerve_chains(z, work.rank)]
    return {
        "arrangement": spec_to_json_dict(work),
        "face_census": fc.census(),
        "object_census_by_codim": counts,
        "euler_cw": euler_characteristic(counts),
        "nerve_chain_counts": chain_counts[:max_dim + 1],
        "euler_nerve": euler_characteristic(chain_counts),
        "thick": fc.is_thick(),
    }


def cmd_homology(spec, args):
    work = _essential(spec)
    stars = VertexStars(work)
    max_dim = args.max_dim if args.max_dim is not None else work.rank
    if args.space == "face":
        cat = stars.face_category()
    else:
        cat = stars.salvetti_category()
    chain_counts, cc, h = _nerve_homology(cat, work.rank, max_dim)
    if not verify_dd_zero(cc):
        raise InternalError("boundary of boundary is nonzero")
    return {
        "arrangement": spec_to_json_dict(work),
        "space": args.space,
        "chain_counts": chain_counts[:max_dim + 1],
        "homology": _homology_json(h),
        "euler": euler_characteristic(chain_counts),
    }


def cmd_pi1(spec, args):
    work = _essential(spec)
    stars = VertexStars(work)
    pres = presentation_from_context(build_context(work, stars, stars.face_category()))
    betti, torsion = abelianize(pres)
    report = {
        "arrangement": spec_to_json_dict(work),
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
    """Run the arrangement through every structural invariant we know.

    The face and Salvetti categories and pi1 come from the vertex stars.
    The layer poset, read off the stars' flats, is the reference: the
    nerve's Betti numbers must be its Poincare polynomial's
    (`betti_match_poincare`) and the face census its toric Zaslavsky
    count (`face_census_matches_layers`), and the integral homology has
    no torsion (d'Antonio and Delucchi, Minimality of toric
    arrangements, JEMS 2015)."""
    results = {}
    diagnostics = {}
    work = _essential(spec)
    n = work.rank
    stars = VertexStars(work)
    fc = stars.face_category()
    pres = presentation_from_context(build_context(work, stars, fc))
    results["face_euler_zero"] = euler_characteristic(fc.census()) == 0
    results["face_category_acyclic"], diagnostics["face_category_acyclic"] = \
        check_acyclic(fc)
    _, cc_f, h_f = _nerve_homology(fc, n, n)
    results["face_nerve_dd_zero"] = verify_dd_zero(cc_f)
    results["torus_recovery"] = all(
        h_f[k] == (comb(n, k), []) for k in range(n + 1))
    z = stars.salvetti_category()
    results["salvetti_category_acyclic"], diagnostics["salvetti_category_acyclic"] = \
        check_acyclic(z)
    counts_z, cc_z, h_z = _nerve_homology(z, n, n)
    results["salvetti_nerve_dd_zero"] = verify_dd_zero(cc_z)
    results["euler_cw_matches_nerve"] = \
        euler_characteristic(z.census()) == euler_characteristic(counts_z)
    results["connected"] = h_z[0] == (1, [])
    ab = abelianize(pres)
    results["abelianization_matches_h1"] = (ab[0], list(ab[1])) == \
        (h_z[1][0], list(h_z[1][1]))
    results["meridian_quotient_is_lattice"] = \
        abelianize(quotient_without_meridians(pres, n)) == (n, [])
    lp = layers(stars)
    results["betti_match_poincare"] = [b for b, _ in h_z] == lp.poincare_betti()
    results["face_census_matches_layers"] = fc.census() == lp.face_census()
    results["homology_torsion_free"] = not any(t for _, t in h_z)
    failed = [k for k, v in results.items() if not v]
    if failed:
        lines = ["invariant check failed: %s" % ", ".join(failed)]
        lines += ["%s: %s" % (k, d) for k in failed for d in diagnostics.get(k, ())]
        raise InternalError("\n  ".join(lines))
    return {
        "arrangement": spec_to_json_dict(work),
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


class UsageError(ValueError):
    """The command line does not follow the grammar of the usage text."""


def _integer(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError("expected an integer, got %r" % text) from None


def _nonnegative(text):
    value = _integer(text)
    if value < 0:
        raise ValueError("must be nonnegative, got %d" % value)
    return value


def _one_of(*choices):
    def parse(text):
        if text not in choices:
            raise ValueError("must be %s, got %r" % (" or ".join(choices), text))
        return text
    return parse


# Each command: its function, and the options it takes besides
# COMMON_OPTIONS.
COMMANDS = {
    "validate": (cmd_validate, ()),
    "faces": (cmd_faces, ()),
    "layers": (cmd_layers, ()),
    "salvetti": (cmd_salvetti, ("--max-dim",)),
    "homology": (cmd_homology, ("--max-dim", "--space")),
    "pi1": (cmd_pi1, ("--simplify",)),
    "check": (cmd_check, ()),
}

COMMON_OPTIONS = ("--format",)

# Each option: the parser of its value (None for a flag, which takes no
# value), its default, and the name of its value in the usage text.
OPTIONS = {
    "--format": (_one_of("text", "json"), "text", "text|json"),
    "--max-dim": (_nonnegative, None, "D"),
    "--space": (_one_of("face", "salvetti"), "salvetti", "face|salvetti"),
    "--simplify": (None, False, None),
}

HELP = ("-h", "--help")

USAGE = """\
%s

Cell structures, Salvetti categories and fundamental groups of
complexified toric arrangements.  INPUT is a JSON arrangement file, or -
for stdin.  Options may come anywhere after the command, as --option
value or --option=value, and may not be abbreviated; -- ends them.

  --format text|json     report format (default: text)
  --max-dim D            report nerve chains and homology in degrees 0..D
                         only (default: the rank)
  --space face|salvetti  the nerve whose homology is computed
                         (default: salvetti)
  --simplify             also report a Tietze-simplified presentation
  -h, --help             print this text and exit
"""


def _takes(command):
    return COMMON_OPTIONS + COMMANDS[command][1]


def _synopsis(command):
    """The usage line of one command, or of any when command is not one."""
    if command not in COMMANDS:
        return "usage: toricarr COMMAND INPUT [options]"
    options = [o if OPTIONS[o][2] is None else "%s %s" % (o, OPTIONS[o][2])
               for o in _takes(command)]
    return " ".join(["usage: toricarr", command, "INPUT"] +
                    ["[%s]" % o for o in options])


def parse_args(argv):
    """The command, its input and its options as a namespace, or None when
    argv asks for help.  Raises UsageError on any other command line."""
    if argv and argv[0] in HELP:
        return None
    if not argv or argv[0] not in COMMANDS:
        raise UsageError("%s; the commands are %s" % (
            "unknown command %r" % argv[0] if argv else "no command given",
            ", ".join(COMMANDS)))
    command = argv[0]
    taken = _takes(command)
    values = {o: OPTIONS[o][1] for o in taken}
    inputs = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            inputs.extend(tokens)
        elif token == "-" or not token.startswith("-"):
            inputs.append(token)
        elif token in HELP:
            return None
        else:
            option, has_value, value = token.partition("=")
            if option not in taken:
                raise UsageError("unknown option %s for %s" % (option, command))
            parse = OPTIONS[option][0]
            if parse is None:
                if has_value:
                    raise UsageError("option %s takes no value" % option)
                values[option] = True
                continue
            if not has_value:
                value = next(tokens, None)
                if value is None:
                    raise UsageError("option %s needs a value" % option)
            try:
                values[option] = parse(value)
            except ValueError as e:
                raise UsageError("option %s: %s" % (option, e)) from None
    if len(inputs) != 1:
        raise UsageError("%s takes one INPUT, %s" % (
            command, "a second one is %r" % inputs[1] if inputs else "none given"))
    args = types.SimpleNamespace(command=command, input=inputs[0])
    for option, value in values.items():
        setattr(args, option[2:].replace("-", "_"), value)
    return args


def run(argv):
    try:
        args = parse_args(argv)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        print(_synopsis(argv[0] if argv else None), file=sys.stderr)
        return 1
    if args is None:
        sys.stdout.write(USAGE % "\n".join(_synopsis(c) for c in COMMANDS))
        return 0
    started = time.monotonic()
    try:
        spec = _load_spec(args.input)
        report = COMMANDS[args.command][0](spec, args)
    except SpecError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except InternalError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 3
    except Exception as e:
        # any other exception is a bug too, not bad input
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 3
    if args.format == "json":
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    else:
        _render_text(report, sys.stdout)
    print("elapsed: %.3fs" % (time.monotonic() - started), file=sys.stderr)
    return 0


def main():
    # Everything alive now (the interpreter's start-up objects and the
    # package's modules) lives until exit.  Frozen, it is skipped by every
    # later collection, the ones at exit included.
    gc.freeze()
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point stdout at devnull, so that the
        # flush at exit does not fail again, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
