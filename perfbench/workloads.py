"""Benchmark inputs: fixed arrangements, the seeded generator, and the
restatement that makes each run's documents depend on ``--seed``.

A workload's arrangements are fixed (the generated ones by a family
seed); ``--seed`` picks how each is written down: the order of its
hypersurfaces, and for each one whether chi = q appears as chi^-1 = -q.
Both give the same hypersurfaces, hence the same lift and the same
invariants, so the documents the program reads change from seed to seed
while the work per input stays put.  Permuting coordinates or reflecting
x_i -> 1 - x_i would also preserve the geometry, but not the work: the
face enumeration's elimination order and the orbit canonicalization
depend on the coordinates.  In trials such restatements changed the
window some answers need, and single command times by up to a factor of
two.
"""

import random
from fractions import Fraction

# The catalog's 2 x 2 coordinate grid.
GRID = {"rank": 2, "hypersurfaces": [
    {"chi": [1, 0], "q": "0"}, {"chi": [1, 0], "q": "1/2"},
    {"chi": [0, 1], "q": "0"}, {"chi": [0, 1], "q": "1/2"}]}

# 3 x 3 coordinate grid: a larger Salvetti nerve on few faces.
GRID3 = {"rank": 2, "hypersurfaces": [
    {"chi": [1, 0], "q": q} for q in ("0", "1/3", "2/3")] + [
    {"chi": [0, 1], "q": q} for q in ("0", "1/3", "2/3")]}

# Arrangements drawn for the 'generated' workload: three keep a pass near
# 5 s, so that one run's median is taken over several passes.
GENERATED_COUNT = 3

# Family seeds of the generator: the default one, and one held out for
# confirming a claim on inputs not seen while the change was written.
DEFAULT_FAMILY_SEED = 1
HELD_OUT_FAMILY_SEED = 2

Q_VALUES = ("0", "1/2", "1/3", "1/4")
CHI_FIRST = (-1, 0, 1)
CHI_SECOND = (-1, 0, 1, 2)


def generate(family_seed, count):
    """``count`` small arrangements drawn from the generator's family.

    Mostly rank 2 with 2-3 walls, chi entries from {-1,0,1} x {-1,0,1,2}
    and q in {0, 1/2, 1/3, 1/4}; about one draw in five is rank 1.  Draws
    whose characters do not span (such as (0,-1), (0,2)) are kept: they
    exercise essentialization.  A zero character or a repeated
    hypersurface is redrawn.
    """
    rng = random.Random("toricarr-family-%d" % family_seed)
    out = []
    while len(out) < count:
        if rng.random() < 0.2:
            rank, walls = 1, rng.randint(1, 3)
        else:
            rank, walls = 2, rng.randint(2, 3)
        hyps = []
        while len(hyps) < walls:
            if rank == 1:
                chi = [rng.choice((-1, 1, 2))]
            else:
                chi = [rng.choice(CHI_FIRST), rng.choice(CHI_SECOND)]
            if not any(chi):
                continue
            h = {"chi": chi, "q": rng.choice(Q_VALUES)}
            if _canonical(h) in {_canonical(g) for g in hyps}:
                continue
            hyps.append(h)
        out.append(("g%d_%02d" % (family_seed, len(out)),
                    {"rank": rank, "hypersurfaces": hyps}))
    return out


def _canonical(h):
    """The hypersurface chi = q written with chi's first nonzero entry > 0."""
    chi, q = list(h["chi"]), Fraction(h["q"])
    if next(a for a in chi if a) < 0:
        chi, q = [-a for a in chi], -q
    return tuple(chi), q % 1


def restate(doc, rng):
    """The same arrangement, written in an order and form drawn from rng."""
    hyps = []
    for h in doc["hypersurfaces"]:
        chi = list(h["chi"])
        q = Fraction(h["q"])
        if rng.random() < 0.5:
            chi, q = [-a for a in chi], -q
        hyps.append({"chi": chi, "q": str(q % 1)})
    rng.shuffle(hyps)
    return {"rank": doc["rank"], "hypersurfaces": hyps}


# workload -> [(name, document, commands, exact invariants)] before the
# per-run restatement; exact invariants are known in closed form: the k x k
# grid has k^2 vertices, 2k^2 edges and k^2 squares on the torus and
# Poincare polynomial (1+t)^2 + 2k t(1+t) + k^2 t^2.
WORKLOADS = {
    "grids": lambda family_seed: [
        ("grid", GRID, ["homology", "check"],
         {"betti": [1, 6, 9], "census": [4, 8, 4]}),
        ("grid3", GRID3, ["homology"],
         {"betti": [1, 8, 16], "census": [9, 18, 9]})],
    "generated": lambda family_seed: [
        (name, doc, ["faces", "homology", "pi1 --simplify"], {})
        for name, doc in generate(family_seed, GENERATED_COUNT)],
}


def build_inputs(workload, seed, family_seed=DEFAULT_FAMILY_SEED):
    """The workload's inputs, each restated with draws from ``seed``."""
    rng = random.Random("%s-%d" % (workload, seed))
    return [(name, restate(doc, rng), cmds, exact)
            for name, doc, cmds, exact in WORKLOADS[workload](family_seed)]
