"""Acceptance experiments: seeded corpora and one callable per criterion.

Each experiment returns a dict with ``name``, ``status`` ("pass"/"fail" or
"info" for the reported-only runs) and ``details``.  The pytest acceptance
module asserts on these; the ``repro`` CLI subcommand serializes them.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import combinations, permutations

from .bounds import tw_bound
from .gadgets import (
    gen_gk,
    gen_iso_gadget,
    gen_random_maximal_outerplanar,
    gen_random_partial_ktree,
)
from .graphs import Coloring, DiGraph, Graph, join_with_clique, strong_product
from .ktree import build_ktree
from .outerplanar import _extend_core, color_outerplanar
from .rowtw import color_rtw
from .solver import (
    BudgetExceeded,
    SolverBudget,
    chi_exact,
    chi_iso_exact,
    chi_odd_exact,
    chi_so_exact,
    enumerate_oracle,
    feasible,
)
from .sumcolor import color_sum, color_summand, sum_clique_coloring
from .sums import Sum, SumDesc, Summand, build_sum
from .treewidth import clique_coloring, color_tw
from .verify import (
    is_facially_odd,
    is_odd_coloring,
    is_proper,
    is_strong_odd,
    is_strong_odd_directed,
    is_strong_odd_on_set,
    plane_to_strong_odd,
)

# ---------------------------------------------------------------------------
# Corpora


def random_subdigraph(g: Graph, rng: random.Random, fwd=0.6, bwd=0.4) -> DiGraph:
    arcs = []
    for u, v in g.edge_list():
        if rng.random() < fwd:
            arcs.append((u, v))
        if rng.random() < bwd:
            arcs.append((v, u))
    return DiGraph(g.n, arcs)


def random_subsets(n: int, count: int, rng: random.Random, p=0.4) -> list[frozenset[int]]:
    return [frozenset(v for v in range(n) if rng.random() < p) for _ in range(count)]


def random_sum_desc(w: int, k: int, t: int, n_summands: int, seed: int) -> SumDesc:
    """Seeded (w,k,t)-sum description with random small summands glued along
    random vertices or edges of the partial sum."""
    rng = random.Random(seed)
    summands: list[Summand] = []
    attachments: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    partial: Sum | None = None
    for s in range(n_summands):
        lo = 0 if (k > 0 or t > 0) else 1
        hseq, _ = gen_random_partial_ktree(k, rng.randrange(lo, 4), 1.0,
                                           seed=seed * 97 + s)
        sm = Summand(hseq, rng.randrange(1, 4))
        summands.append(sm)
        if s > 0:
            g = partial.graph
            fg = sm.graph(t)
            size = rng.randrange(0, w + 1)
            host, new = (), ()
            if size == 1 and g.n and fg.n:
                host, new = (rng.randrange(g.n),), (rng.randrange(fg.n),)
            elif size >= 2:
                edges, fedges = g.edge_list(), fg.edge_list()
                if edges and fedges:
                    host = edges[rng.randrange(len(edges))]
                    new = fedges[rng.randrange(len(fedges))]
            attachments.append((tuple(host), tuple(new)))
        partial = build_sum(SumDesc(w, k, t, tuple(summands), tuple(attachments)))
    return SumDesc(w, k, t, tuple(summands), tuple(attachments))


_CONNECTED_CACHE: dict[int, list[Graph]] = {}


def connected_graphs(n_max: int = 6) -> list[Graph]:
    """All connected graphs with at most n_max vertices, one per isomorphism
    class (canonical form = minimum edge bitmask over vertex permutations)."""
    out = []
    for n in range(1, n_max + 1):
        if n in _CONNECTED_CACHE:
            out.extend(_CONNECTED_CACHE[n])
            continue
        pairs = list(combinations(range(n), 2))
        index = {e: i for i, e in enumerate(pairs)}
        tables = []
        for perm in permutations(range(n)):
            tables.append([
                index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs
            ])
        found = []
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph(n, edges)
            if len(g.components()) != 1:
                continue
            minimal = True
            for table in tables:
                remapped = 0
                m = mask
                while m:
                    low = m & -m
                    remapped |= 1 << table[low.bit_length() - 1]
                    m ^= low
                if remapped < mask:
                    minimal = False
                    break
            if minimal:
                found.append(g)
        _CONNECTED_CACHE[n] = found
        out.extend(found)
    return out


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def plane_triangulations(count: int, max_n: int = 7, seed: int = 0):
    """``count`` seeded random maximal outerplanar graphs of 4..max_n
    vertices, each embedded as a polygon triangulation (its triangles plus
    the outer cycle).  These are not triangulations of the sphere, whatever
    the name suggests."""
    out = []
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randrange(4, max_n + 1)
        _, plane = gen_random_maximal_outerplanar(n, seed=seed * 1000 + i,
                                                  with_faces=True)
        out.append(plane)
    return out


# ---------------------------------------------------------------------------
# Criteria


def _verdict(name: str, ok: bool, start: float, **details) -> dict:
    """Result of a pass/fail criterion started at ``start``: its details
    followed by the seconds it took."""
    details["seconds"] = round(time.monotonic() - start, 3)
    return {"name": name, "status": "pass" if ok else "fail", "details": details}


def crit_gadget_exactness(quick=False) -> dict:
    details = {}
    ok = True
    for k in (1, 2):
        g = gen_gk(k)
        start = time.monotonic()
        value, witness = chi_so_exact(g, SolverBudget(time_limit=60))
        elapsed = time.monotonic() - start
        infeasible_below = feasible(g, (1 << k)) is None
        verified = is_strong_odd(g, witness).ok
        details[f"g{k}"] = {
            "value": value, "expected": (1 << k) + 1,
            "witness_ok": verified, "infeasible_at_2^k": infeasible_below,
            "seconds": round(elapsed, 3),
        }
        ok = ok and value == (1 << k) + 1 and verified and infeasible_below \
            and elapsed < 60
    return {"name": "gadget_exactness", "status": "pass" if ok else "fail",
            "details": details}


def crit_gk3_attempt(gk3_seconds: float = 10.0) -> dict:
    """Reported, not required: the k=3 gadget under a bounded budget."""
    g = gen_gk(3)
    budget = SolverBudget(max_colors=9, node_limit=200_000_000,
                          time_limit=gk3_seconds)
    start = time.monotonic()
    try:
        value, witness = chi_so_exact(g, budget)
        detail = {"value": value, "witness_ok": is_strong_odd(g, witness).ok}
    except BudgetExceeded as exc:
        detail = {"inconclusive": True, "lower_bound": exc.lower_bound,
                  "nodes": exc.nodes}
    detail["seconds"] = round(time.monotonic() - start, 3)
    detail["budget_seconds"] = gk3_seconds
    return {"name": "gk3_attempt", "status": "info", "details": detail}


def crit_improper_gadgets(quick=False) -> dict:
    details = {}
    ok = True
    start = time.monotonic()
    for n in (3, 5, 7):
        value, witness = chi_iso_exact(Graph.complete(n), SolverBudget(time_limit=10))
        details[f"k{n}"] = value
        ok = ok and value == n
    details["kn_seconds"] = round(time.monotonic() - start, 3)
    ok = ok and time.monotonic() - start < 10
    for n in (3, 4):
        g = gen_iso_gadget(n)
        degrees_odd = all(g.degree(v) % 2 == 1 for v in range(g.n))
        flat = Coloring({v: 0 for v in range(g.n)})
        iso_one = all(
            not v for v in is_strong_odd(g, flat).violations if v[0] != "edge"
        )
        chromatic, _ = chi_exact(g)
        so_lower = feasible(g, n - 1) is None
        details[f"iso{n}"] = {
            "n_vertices": g.n, "degrees_odd": degrees_odd,
            "iso_value_1": iso_one, "chromatic": chromatic,
            "so_at_least_n": so_lower,
        }
        ok = ok and degrees_odd and iso_one and chromatic == 3 and so_lower
    return {"name": "improper_gadgets", "status": "pass" if ok else "fail",
            "details": details}


def crit_outerplanar(quick=False) -> dict:
    count = 10 if quick else 100
    failures = []
    start = time.monotonic()
    for i in range(count):
        rng = random.Random(31_000 + i)
        n = rng.randrange(3, 31 if quick else 201)
        seq = gen_random_maximal_outerplanar(n, seed=i)
        host = build_ktree(seq)
        mask = Graph(host.n, [e for e in host.edge_list() if rng.random() < rng.random()])
        coloring = color_outerplanar(seq, mask)
        if not all(1 <= c <= 8 for c in coloring.assignment.values()):
            failures.append((i, "palette"))
        elif not is_proper(host, coloring).ok:
            failures.append((i, "host-properness"))
        elif not is_strong_odd(mask, coloring).ok:
            failures.append((i, "strong-odd"))
    ok = not failures and time.monotonic() - start < 300
    return _verdict("outerplanar_le_8", ok, start, instances=count, failures=failures)


def _claim_check_independent(i, j, p, q, vmask, ucol, wcol) -> bool:
    """Postconditions checked from scratch (no shared code with the routine)."""
    pu = [i, 1] + list(ucol)
    pw = [j, 4] + list(wcol)
    for path in (pu, pw):
        for r in range(len(path)):
            for rr in (r + 1, r + 2):
                if rr < len(path) and path[r] == path[rr]:
                    return False
    if any(c == 5 or not 1 <= c <= 8 for c in list(ucol) + list(wcol)):
        return False
    if ucol[0] == 2 or wcol[0] == 3:
        return False
    counts: Counter = Counter()
    for bit, col in ((0, 2), (1, 3), (2, 1), (3, 4)):
        if vmask >> bit & 1:
            counts[col] += 1
    for r in range(p):
        if vmask >> (4 + r) & 1:
            counts[ucol[r]] += 1
    for r in range(q):
        if vmask >> (4 + p + r) & 1:
            counts[wcol[r]] += 1
    return all(cnt % 2 == 1 for cnt in counts.values())


def _claim_color_masks(p: int, q: int, ucol, wcol) -> dict[int, int]:
    """Bit positions of each color over the vmask layout (precolored slots
    then stubs), for fast parity counting."""
    masks = {2: 1, 3: 2, 1: 4, 4: 8}
    for r in range(p):
        masks[ucol[r]] = masks.get(ucol[r], 0) | 1 << (4 + r)
    for r in range(q):
        masks[wcol[r]] = masks.get(wcol[r], 0) | 1 << (4 + p + r)
    return masks


def crit_claim_exhaustive(quick=False) -> dict:
    """Every gadget instance in the guard: both stub lengths 2..6, all legal
    outer colors, and all masks of the center's edges.

    Only center-incident mask edges are enumerated: the extension routine
    reads nothing else and no postcondition mentions any other edge, so the
    remaining mask bits cannot affect the contract.  Properness and path
    cleanliness are checked once per distinct output; the center parity is
    re-counted for every mask from scratch via per-color bitmasks.
    """
    lengths = (2, 3) if quick else (2, 3, 4, 5, 6)
    checked = 0
    failures = 0
    first_failure = None
    start = time.monotonic()
    for p in lengths:
        for q in lengths:
            nbits = 4 + p + q
            for i in (3, 4, 6, 7, 8):
                for j in (1, 2, 6, 7, 8):
                    cache: dict[tuple, tuple[bool, list[int]]] = {}
                    for vmask in range(1 << nbits):
                        ucol, wcol = _extend_core(i, j, p, q, vmask)
                        key = (ucol, wcol)
                        cached = cache.get(key)
                        if cached is None:
                            shape_ok = _claim_check_independent(
                                i, j, p, q, 0, ucol, wcol)
                            masks = list(_claim_color_masks(p, q, ucol, wcol).values())
                            cached = (shape_ok, masks)
                            cache[key] = cached
                        shape_ok, masks = cached
                        ok = shape_ok
                        if ok:
                            for colormask in masks:
                                cnt = (vmask & colormask).bit_count()
                                if cnt and cnt % 2 == 0:
                                    ok = False
                                    break
                        checked += 1
                        if not ok:
                            failures += 1
                            if first_failure is None:
                                first_failure = (i, j, p, q, vmask)
    return _verdict("claim_exhaustive", failures == 0, start, instances=checked,
                    failures=failures, first_failure=first_failure)


def tw_instance(index: int, quick=False):
    rng = random.Random(77_000 + index)
    k = 1 if index % 2 == 0 else 2
    n_steps = rng.randrange(0, (20 if quick else 60) - k)
    seq, mask = gen_random_partial_ktree(k, n_steps, rng.random(), seed=index)
    g = build_ktree(seq)
    ell = rng.randrange(1, 3)
    m = rng.randrange(1, 3)
    digraphs = [random_subdigraph(mask, rng) for _ in range(ell)]
    sets = random_subsets(g.n, m, rng)
    return seq, g, digraphs, sets


def _strong_odd_everywhere(g: Graph, c: Coloring, digraphs, sets) -> bool:
    """Proper on the host ``g``, strong odd on every digraph and on every
    tracked set: the contract of every layered construction."""
    return (is_proper(g, c).ok
            and all(is_strong_odd_directed(d, c).ok for d in digraphs)
            and all(is_strong_odd_on_set(c, m) for m in sets))


def _odd_clique_classes(sigma: dict) -> bool:
    """Every class of the clique coloring ``sigma`` is odd overall and
    among the cliques around every vertex."""
    around = Counter((v, c) for q, c in sigma.items() for v in q)
    return all(n % 2 == 1 for n in (*Counter(sigma.values()).values(), *around.values()))


def crit_tw(quick=False) -> dict:
    count = 20 if quick else 200
    failures = []
    start = time.monotonic()
    for i in range(count):
        seq, g, digraphs, sets = tw_instance(i, quick)
        coloring = color_tw(seq, digraphs, sets)
        bound = tw_bound(seq.k, len(digraphs), len(sets))
        if not (_strong_odd_everywhere(g, coloring, digraphs, sets)
                and bound.at_least(coloring.num_colors())):
            failures.append(i)
    return _verdict("tw_construction", not failures, start, instances=count,
                    failures=failures)


def crit_clique_colorings(quick=False) -> dict:
    count = 20 if quick else 200
    failures = []
    start = time.monotonic()
    for i in range(count):
        rng = random.Random(88_000 + i)
        k = rng.choice([1, 2])
        seq, _ = gen_random_partial_ktree(k, rng.randrange(1, 25), 1.0, seed=i)
        cliques = [seq.represented_clique(v)
                   for v in range(k, seq.n) if rng.random() < 0.6]
        if not _odd_clique_classes(clique_coloring(seq, cliques)):
            failures.append(("tw", i))
    for i in range(count):
        rng = random.Random(99_000 + i)
        w, k, t = rng.choice([1, 2]), rng.choice([0, 1]), rng.choice([0, 1])
        desc = random_sum_desc(w, k, t, rng.randrange(1, 4), seed=i)
        s = build_sum(desc)
        g = s.graph
        if g.n == 0:
            continue
        cliques = set()
        for _ in range(rng.randrange(1, 8)):
            r = rng.random()
            if r < 0.4:
                cliques.add(frozenset([rng.randrange(g.n)]))
            elif g.m:
                e = g.edge_list()[rng.randrange(g.m)]
                if r < 0.8:
                    cliques.add(frozenset(e))
                else:
                    common = g.neighbors(e[0]) & g.neighbors(e[1])
                    if common:
                        cliques.add(frozenset(e) | {min(common)})
        cliques = sorted(cliques, key=sorted)
        if not cliques:
            continue
        if not _odd_clique_classes(sum_clique_coloring(desc, cliques)):
            failures.append(("sum", i))
    return _verdict("clique_colorings", not failures, start, instances=2 * count,
                    failures=failures)


def crit_rtw_and_sums(quick=False) -> dict:
    count = 10 if quick else 100
    failures = []
    start = time.monotonic()
    for i in range(count):
        rng = random.Random(11_000 + i)
        k = rng.choice([0, 1])
        hseq, _ = gen_random_partial_ktree(k, rng.randrange(0, 10), 1.0, seed=i)
        path_len = rng.randrange(1, 7)
        prod = strong_product(build_ktree(hseq), path_len)
        arcs = random_subdigraph(prod, rng)
        sets = random_subsets(prod.n, rng.randrange(0, 3), rng)
        c = color_rtw(hseq, path_len, arcs, sets)
        if not _strong_odd_everywhere(prod, c, [arcs], sets):
            failures.append(("rtw", i))
    for i in range(count):
        rng = random.Random(12_000 + i)
        k, t = rng.choice([0, 1]), rng.randrange(0, 3)
        hseq, _ = gen_random_partial_ktree(k, rng.randrange(0, 8), 1.0, seed=i)
        path_len = rng.randrange(1, 5)
        f = join_with_clique(strong_product(build_ktree(hseq), path_len), t)
        arcs = random_subdigraph(f, rng)
        sets = random_subsets(f.n, rng.randrange(0, 3), rng)
        c = color_summand(hseq, path_len, t, arcs, sets)
        if not _strong_odd_everywhere(f, c, [arcs], sets):
            failures.append(("summand", i))
    for i in range(count):
        rng = random.Random(13_000 + i)
        w, k, t = rng.choice([1, 2]), rng.choice([0, 1]), rng.choice([0, 1])
        desc = random_sum_desc(w, k, t, rng.randrange(1, 6), seed=i)
        s = build_sum(desc)
        g = s.graph
        if g.n > 60 or g.n == 0:
            continue
        arcs = random_subdigraph(g, rng)
        sets = random_subsets(g.n, rng.randrange(0, 3), rng)
        c = color_sum(desc, arcs, sets)
        if not _strong_odd_everywhere(g, c, [arcs], sets):
            failures.append(("sum", i))
    return _verdict("rtw_and_sums", not failures, start, instances=3 * count,
                    failures=failures)


def crit_oracle_equivalence(quick=False) -> dict:
    failures = []
    start = time.monotonic()
    corpus = connected_graphs(5 if quick else 6)
    rng = random.Random(424242)
    rand_count = 20 if quick else 200
    for _ in range(rand_count):
        n = rng.randrange(1, 9)
        corpus.append(random_graph(n, rng.random(), rng))
    for idx, g in enumerate(corpus):
        value, witness = chi_so_exact(g)
        if not is_strong_odd(g, witness).ok:
            failures.append((idx, "witness"))
            continue
        if not enumerate_oracle(g, value):
            failures.append((idx, "oracle-at-value"))
        if value > 1 and enumerate_oracle(g, value - 1):
            failures.append((idx, "oracle-below"))
        chromatic, _ = chi_exact(g)
        odd, odd_witness = chi_odd_exact(g)
        if not (chromatic <= odd <= value):
            failures.append((idx, "chain", chromatic, odd, value))
        if not is_odd_coloring(g, odd_witness).ok:
            failures.append((idx, "odd-witness"))
    return _verdict("oracle_equivalence", not failures, start, graphs=len(corpus),
                    failures=failures[:5])


def crit_facially_odd(quick=False) -> dict:
    count = 5 if quick else 50
    failures = []
    start = time.monotonic()
    for idx, plane in enumerate(plane_triangulations(count, max_n=7, seed=5)):
        augmented, _ = plane_to_strong_odd(plane)
        _, witness = chi_so_exact(augmented)
        if not is_strong_odd(augmented, witness).ok:
            failures.append((idx, "no-witness"))
            continue
        restricted = witness.restrict(range(plane.graph.n))
        if not is_facially_odd(plane, restricted).ok:
            failures.append((idx, "facial"))
    return _verdict("facially_odd_pipeline", not failures, start, instances=count,
                    failures=failures)


def crit_odd_chromatic(quick=False) -> dict:
    details = {}
    ok = True
    for k in (1, 2, 3):
        g = gen_gk(k)
        # G_1, G_2 and G_3 finish in 8, 25 and 51 nodes; a budget-out raises.
        value, witness = chi_odd_exact(
            g, SolverBudget(max_colors=4, node_limit=2_000_000, time_limit=30))
        confirmed = value <= 4 and is_odd_coloring(g, witness).ok
        details[f"g{k}"] = {"value": value, "confirmed": confirmed}
        ok = ok and confirmed
    return {"name": "odd_chromatic_sanity", "status": "pass" if ok else "fail",
            "details": details}


CRITERIA = [
    crit_gadget_exactness,
    crit_improper_gadgets,
    crit_outerplanar,
    crit_claim_exhaustive,
    crit_tw,
    crit_clique_colorings,
    crit_rtw_and_sums,
    crit_oracle_equivalence,
    crit_facially_odd,
    crit_odd_chromatic,
]


def run_all(quick=False) -> dict:
    criteria = [fn(quick=quick) for fn in CRITERIA]
    criteria.append(crit_gk3_attempt())
    return {"criteria": criteria, "quick": quick}
