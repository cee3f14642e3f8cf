"""Correctness of every answer, checked independently of how it was computed.

The reference invariants come from the layer poset that ``toricarr
layers`` prints, through formulas that share no code path with the cell
complexes the other commands build.  The Poincare polynomial of a
complexified toric arrangement's complement is

    sum over layers X of |mu(T, X)| t^codim(X) (1 + t)^dim(X),

with mu the Moebius function of the layers ordered by reverse inclusion
and T the whole torus (De Concini-Procesi, Topics in Hyperplane
Arrangements, Polytopes and Box-Splines, ch. 14).  The integral homology
has no torsion (d'Antonio-Delucchi, minimality of toric arrangements).
The reference is computed once per benchmark invocation, outside the
timed passes; the per-answer checks below run on every answer.
"""

from math import comb


class Reference:
    """What every answer on one arrangement must agree with."""

    def __init__(self, rank, betti, census):
        self.rank = rank            # rank after essentialization
        self.betti = betti          # Betti numbers, degree 0..rank
        self.census = census        # face orbits (cells) by dimension


def _moebius(top, dims, below):
    """mu(top, X) for every layer X inside ``top``, by reverse inclusion."""
    inside = list(below[top]) + [top]
    mu = {}
    for x in sorted(inside, key=lambda i: -dims[i]):
        mu[x] = 1 if x == top else -sum(
            mu[z] for z in inside if z in mu and x in below[z])
    return mu


def layer_invariants(layers_report):
    """Reference from the layer poset of ``toricarr layers``.

    Betti numbers: the coefficients of the Poincare polynomial above.
    Face census: a k-dimensional layer Y is cut into as many open cells
    as sum over points X in Y of |mu(Y, X)| (the toric Zaslavsky count,
    valid because restrictions of an essential arrangement are
    essential), so f_k sums that over the layers of dimension k.
    """
    n = layers_report["arrangement"]["rank"]
    dims = {l["index"]: l["dim"] for l in layers_report["layers"]}
    below = {i: set() for i in dims}    # Y -> layers strictly inside Y
    for lower, upper in layers_report["relations"]:
        below[upper].add(lower)
    betti = [0] * (n + 1)
    census = [0] * (n + 1)
    for y, dim_y in dims.items():
        mu = _moebius(y, dims, below)
        census[dim_y] += sum(abs(m) for x, m in mu.items() if dims[x] == 0)
        if dim_y == n:
            for x, m in mu.items():
                d = dims[x]
                for i in range(d + 1):
                    betti[n - d + i] += abs(m) * comb(d, i)
    return Reference(n, betti, census)


def check_answer(command, report, ref):
    """Problems with one answer, as a list of strings (empty when fine)."""
    problems = []
    if report.get("arrangement", {}).get("rank") != ref.rank:
        problems.append("rank %r, expected %d"
                        % (report.get("arrangement", {}).get("rank"), ref.rank))
        return problems
    kind = command.split()[0]
    if kind == "faces":
        census = report["census"]
        if sum((-1) ** d * c for d, c in enumerate(census)) != 0 or report["euler"] != 0:
            problems.append("face census %s has nonzero Euler number" % census)
        if census != ref.census:
            problems.append("face census %s, expected %s" % (census, ref.census))
    elif kind == "homology":
        betti = [h["betti"] for h in report["homology"]]
        torsion = [t for h in report["homology"] for t in h["torsion"]]
        if betti[:1] != [1]:
            problems.append("H0 has rank %s, expected Z" % betti[:1])
        if betti != ref.betti:
            problems.append("Betti numbers %s, expected %s" % (betti, ref.betti))
        if torsion:
            problems.append("torsion %s, expected none" % torsion)
    elif kind == "pi1":
        ab = report["abelianization"]
        if (ab["betti"], ab["torsion"]) != (ref.betti[1], []):
            problems.append("abelianization %s, expected H1 = Z^%d"
                            % (ab, ref.betti[1]))
        expected = ref.rank + ref.census[ref.rank - 1]
        if len(report["generators"]) != expected:
            problems.append("%d generators, expected rank + codim-1 orbits = %d"
                            % (len(report["generators"]), expected))
        simp = report.get("simplified")
        if simp is not None and simp["abelianization"] != ab:
            problems.append("simplified abelianization %s differs from %s"
                            % (simp["abelianization"], ab))
    elif kind == "check":
        if report.get("verdict") != "pass" or not all(report["checks"].values()):
            problems.append("check verdict %r" % report.get("verdict"))
    return problems


def check_pass(answers):
    """Cross-answer check within one pass: H1 equals the abelianization.

    ``answers`` maps (arrangement, command kind) to a report; returns a
    list of (arrangement, problem).
    """
    out = []
    for (name, kind), report in answers.items():
        if kind != "pi1" or (name, "homology") not in answers:
            continue
        h1 = answers[(name, "homology")]["homology"][1]
        ab = report["abelianization"]
        if (h1["betti"], h1["torsion"]) != (ab["betti"], ab["torsion"]):
            out.append((name, "H1 %s differs from the abelianization %s" % (h1, ab)))
    return out
