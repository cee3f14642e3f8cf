"""Outside-in tracing of toricarr's layers.

``Tracer.install`` wraps the layers' public functions inside one toricarr
process without editing the package: every module attribute that binds a
wrapped function is rebound, because callers use ``from .x import f``, and
methods are replaced on their class.  Each call becomes a span: name,
start, end, parent, answer id, plus size counts read from the arguments
or result.  Spans stay in memory and are written as JSON when the process
ends.  ``summarize`` turns the span files of one pass into per-layer
metrics: self time (a span's duration minus its child spans), calls and
summed sizes.

A target missing at some commit (a later change may delete ``mat_mul`` or
rename a method) is reported as absent; its metrics read 0.  So are the
counts of a target whose arguments or result no longer have the shape a
counter reads: ``<stem>.counts`` is reported absent and the call goes on.
"""

import importlib
import json
import sys
import time

# (module, attribute path, span name); the span name's prefix is the layer
TARGETS = [
    ("toricarr.cli", "run", "cli.run"),
    ("toricarr.arrangement", "parse_spec", "arrangement.parse_spec"),
    ("toricarr.arrangement", "essentialize", "arrangement.essentialize"),
    ("toricarr.arrangement", "lift_to_window", "arrangement.lift_to_window"),
    ("toricarr.cells", "enumerate_faces", "cells.enumerate_faces"),
    ("toricarr.cells", "quotient_faces", "cells.quotient_faces"),
    ("toricarr.cells", "LiftedFacePoset.locate", "cells.locate"),
    ("toricarr.salvetti", "toric_salvetti", "salvetti.toric_salvetti"),
    ("toricarr.salvetti", "orbit_chain_counts", "salvetti.orbit_chain_counts"),
    ("toricarr.salvetti", "SalvettiPoset.relation_pairs", "salvetti.relation_pairs"),
    ("toricarr.category", "nerve_chains", "category.nerve_chains"),
    ("toricarr.category", "boundary_matrices", "category.boundary_matrices"),
    ("toricarr.category", "homology", "category.homology"),
    ("toricarr.category", "verify_dd_zero", "category.verify_dd_zero"),
    ("toricarr.category", "check_acyclic", "category.check_acyclic"),
    ("toricarr.exact", "snf", "exact.snf"),
    ("toricarr.exact", "mat_mul", "exact.mat_mul"),
    ("toricarr.exact", "hnf", "exact.hnf"),
    ("toricarr.exact", "solve_affine", "exact.solve_affine"),
    ("toricarr.pi1", "build_context", "pi1.build_context"),
    ("toricarr.pi1", "presentation_from_context", "pi1.presentation_from_context"),
    ("toricarr.pi1", "relations_for_G", "pi1.relations_for_G"),
    ("toricarr.pi1", "delta_word", "pi1.delta_word"),
    ("toricarr.pi1", "positive_minimal_path", "pi1.positive_minimal_path"),
    ("toricarr.pi1", "simplify_presentation", "pi1.simplify_presentation"),
    ("toricarr.pi1", "abelianize", "pi1.abelianize"),
]


def _faces(args, result):
    return {"cells.faces": len(result.faces), "cells.flats": len(result.flats),
            "cells.cut_faces": sum(1 for f in result.faces if f.boundary_cut)}


def _orbits(args, result):
    return {"cells.face_orbits": len(result.orbits),
            "cells.face_morphisms": len(result.morphisms)}


def _salvetti(args, result):
    return {"salvetti.objects": len(result.objects),
            "salvetti.morphisms": len(result.morphisms)}


def _relations(args, result):
    n = len(args[0].elements)
    return {"salvetti.poset_elements": n, "salvetti.poset_elements_sq": n * n,
            "salvetti.relation_pairs": len(result)}


def _chains(args, result):
    return {"category.chains.d%d" % k: len(deg) for k, deg in enumerate(result)}


def _boundaries(args, result):
    nnz = cells = 0
    for b in result.boundaries:
        cells += b.rows * b.cols
        nnz += sum(1 for x in b.entries if x)
    return {"category.boundary_nnz": nnz, "category.boundary_cells": cells}


def _snf_cells(args, result):
    m = args[0]
    return {"exact.snf.max_cells": m.rows * m.cols}


def _presentation(args, result):
    return {"pi1.generators": len(result.names),
            "pi1.relators": len(result.relators),
            "pi1.relator_letters": sum(len(r) for r in result.relators)}


def _hyperplanes(args, result):
    return {"arrangement.hyperplanes": len(result)}


COUNTERS = {
    "arrangement.lift_to_window": _hyperplanes,
    "cells.enumerate_faces": _faces,
    "cells.quotient_faces": _orbits,
    "salvetti.toric_salvetti": _salvetti,
    "salvetti.relation_pairs": _relations,
    "category.nerve_chains": _chains,
    "category.boundary_matrices": _boundaries,
    "exact.snf": _snf_cells,
    "pi1.presentation_from_context": _presentation,
}

# counts combined by maximum rather than by sum
MAX_COUNTS = {"exact.snf.max_cells"}


class Tracer:
    """Span recorder for one process; ``answer`` tags every span."""

    def __init__(self, answer):
        self.answer = answer
        self.spans = []             # [name, start, end, parent, child_s, counts]
        self.stack = []
        self.uncounted = set()

    def wrap(self, fn, stem):
        counter = COUNTERS.get(stem)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            stack.append(len(spans))
            span = [stem, clock(), 0.0, parent, 0.0, None]
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[2] = clock()
                if counter is not None:
                    try:
                        span[5] = counter(args, result)
                    except Exception:   # changed shape: drop the counts, keep going
                        self.uncounted.add(stem + ".counts")
                return result
            finally:
                if not span[2]:
                    span[2] = clock()
                stack.pop()
                # counting is bench work: hide it from the parent's self time
                if parent >= 0:
                    spans[parent][4] += clock() - span[1]

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", stem)
        return traced

    def install(self):
        """Wrap every target; return the stems of targets that are absent."""
        absent = []
        for modname, attr, stem in TARGETS:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                absent.append(stem)
                continue
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None or not callable(original):
                absent.append(stem)
                continue
            wrapped = self.wrap(original, stem)
            setattr(owner, name, wrapped)
            if not path:
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("toricarr"):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)
        return absent

    def dump(self, path, absent):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"answer": self.answer,
                       "absent": absent + sorted(self.uncounted),
                       "spans": self.spans}, fh)


def summarize(docs):
    """Aggregate span documents into {metric: value} and the absent set.

    Per stem: ``<stem>.self_s`` and ``<stem>.calls``; counts are summed
    over spans, except those in MAX_COUNTS.
    """
    out = {}
    absent = set()
    for doc in docs:
        absent.update(doc["absent"])
        for name, start, end, parent, child_s, counts in doc["spans"]:
            key = name + ".self_s"
            out[key] = out.get(key, 0.0) + (end - start) - child_s
            key = name + ".calls"
            out[key] = out.get(key, 0) + 1
            for cname, value in (counts or {}).items():
                if cname in MAX_COUNTS:
                    out[cname] = max(out.get(cname, 0), value)
                else:
                    out[cname] = out.get(cname, 0) + value
    return out, sorted(absent)
