"""Strong odd 8-colorings of outerplanar graphs.

The host must be an edge-maximal outerplanar graph given as a 2-tree
construction sequence whose BFS layering has the path-layer discipline:
every layer is a disjoint union of paths, one per edge of the previous
layer, and each path splits into two subpaths around the unique vertex with
two neighbors below.

The coloring is built layer by layer.  Around each already-colored path
vertex, the two stubs of uncolored children plus seven colored neighbors
form a fixed precolored gadget; a deterministic extension routine colors the
stubs so the center vertex's masked neighborhood is parity-clean while the
coloring stays proper and distance-2-clean along the relevant paths.  The
host sits on two dummy bottom layers and is kept as parent pairs and
distances only.  Validation makes one pass over the parent pairs and reads
each layer path's record off its shared vertex, the one whose parents are
both below.  Where an instance needs a longer path or stub than the host
has, the planner pads the records with fresh ids, colored like vertices but
never part of the host.  Colors sit in one flat list indexed by host or
padding id.  Each mask bit of an instance is one lookup of a sorted pair in
the mask's own pair set; dummies and padding are in no pair, and they are
stripped from the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count, islice
from typing import Container, Iterable, Iterator, Optional

from .graphs import Coloring, Graph, InputError, InvariantViolated
from .ktree import KTreeSeq


class NotOuterplanarWitness(InputError):
    """The 2-tree sequence lacks the outerplanar path-layer structure."""


class PreconditionViolated(InputError):
    """A gadget precoloring violates the extension routine's assumptions."""


# ---------------------------------------------------------------------------
# The gadget extension routine.
#
# Canonical gadget: triangle x,y,v colored 2,3,5; path [u1,u2,v,w2,w1] with
# u2=1, w2=4 and free colors i=psi(u1), j=psi(w1); two uncolored stubs
# hanging off v: u3..  (adjacent u2) and w3..  (adjacent w2), every stub
# vertex adjacent to v.  Canonical vertex ids:
X, Y, V, U1, U2, W2, W1 = range(7)


@dataclass(frozen=True)
class ClaimGadget:
    """Shape and precoloring of one extension instance."""

    u_len: int
    w_len: int
    u1_color: int
    w1_color: int

    def __post_init__(self):
        if self.u_len < 2 or self.w_len < 2:
            raise PreconditionViolated("stubs need at least two vertices each")
        if not (1 <= self.u1_color <= 8 and 1 <= self.w1_color <= 8):
            raise PreconditionViolated("colors must lie in 1..8")
        if self.u1_color in (1, 2, 5):
            raise PreconditionViolated(f"u1 color {self.u1_color} clashes on its path")
        if self.w1_color in (3, 4, 5):
            raise PreconditionViolated(f"w1 color {self.w1_color} clashes on its path")

    def u_vertex(self, r: int) -> int:
        return 7 + r

    def w_vertex(self, r: int) -> int:
        return 7 + self.u_len + r

    @property
    def n(self) -> int:
        return 7 + self.u_len + self.w_len


def gadget_graph(g: ClaimGadget) -> Graph:
    edges = [
        (X, Y), (X, V), (Y, V),
        (X, U1), (X, U2), (U1, U2), (U2, V),
        (V, W2), (W2, W1), (Y, W2), (Y, W1),
    ]
    prev = U2
    for r in range(g.u_len):
        u = g.u_vertex(r)
        edges += [(prev, u), (V, u)]
        prev = u
    prev = W2
    for r in range(g.w_len):
        w = g.w_vertex(r)
        edges += [(prev, w), (V, w)]
        prev = w
    return Graph(g.n, edges)


# Caller colors for the preliminary roles (6, 7, 8), tried in this order; the
# first with role 6 != i and role 8 != j is taken.
_ROLE_ORDERS = ((6, 7, 8), (6, 8, 7), (7, 6, 8), (8, 6, 7), (7, 8, 6), (8, 7, 6))
_STUB_COLORS = (1, 2, 3, 4, 6, 7, 8)


@lru_cache(maxsize=None)
def _prelim_pattern(i: int, j: int, p: int, q: int):
    """Preliminary stub colors in the caller's palette, plus the vmask
    bitmask of each of the three color classes.

    The u stub repeats roles 6,7,8 and the w stub 8,7,6, with the roles
    assigned to colors 6,7,8 so that the first u stub vertex avoids i and the
    first w stub vertex avoids j.
    """
    roles = next(r for r in _ROLE_ORDERS if r[0] != i and r[2] != j)
    ucol = tuple(roles[r % 3] for r in range(p))
    wcol = tuple(roles[2 - r % 3] for r in range(q))
    masks = dict.fromkeys(roles, 0)
    for r, col in enumerate(ucol + wcol):
        masks[col] |= 1 << (4 + r)
    return ucol, wcol, tuple(masks.values())


def _search_extension(i: int, j: int, p: int, q: int, vmask: int):
    """Exhaustive DFS over the stub positions (u stub, then w stub), colors
    tried in ``_STUB_COLORS`` order.  Returns the flat stub coloring, or None
    when no extension exists.

    The center's masked neighborhood is tracked as two color sets, odd and
    even (positive) counts.  A branch is cut when the even colors outnumber
    the masked positions still to come, since each can fix at most one.  A
    state (position, last two path colors, odd set, even set) determines its
    subtree, so dead states are remembered for the rest of the call.  Stubs
    have no length bound, so the DFS keeps its own stack, one frame per
    colored position.
    """
    total = p + q
    masked = [vmask >> (4 + r) & 1 for r in range(total)]
    left = [0] * total  # masked positions after each position
    for r in range(total - 1, 0, -1):
        left[r - 1] = left[r] + masked[r]
    precolored = 0  # x, y, u2, w2: distinct colors, each counted once
    for bit, col in ((0, 2), (1, 3), (2, 1), (3, 4)):
        if vmask >> bit & 1:
            precolored |= 1 << col
    dead: set[tuple[int, int, int, int, int]] = set()
    out: list[int] = []
    # Frame per open position: its state (last two path colors, odd set,
    # even set) and the index of the next color to try there.
    frames = [[i, 1, precolored, 0, 0]]
    while frames:
        idx = len(out)
        if idx == total:
            return out  # the forward check left no even color
        frame = frames[-1]
        a, b, odd, even, k = frame
        first = 3 if idx == p else 2 if idx == 0 else 0
        while k < len(_STUB_COLORS):
            c = _STUB_COLORS[k]
            k += 1
            if c == a or c == b or c == first:
                continue
            o, e = odd, even
            if masked[idx]:
                bit = 1 << c
                if o & bit:
                    o ^= bit
                    e |= bit
                else:
                    o |= bit
                    e &= ~bit
            if e.bit_count() > left[idx]:
                continue
            na, nb = (j, 4) if idx + 1 == p else (b, c)
            if (idx + 1, na, nb, o, e) in dead:
                continue
            frame[4] = k
            out.append(c)
            frames.append([na, nb, o, e, 0])
            break
        else:
            dead.add((idx, a, b, odd, even))
            frames.pop()
            if out:
                out.pop()
    return None


def _extend_core(
    i: int, j: int, p: int, q: int, vmask: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Color the stubs.  ``vmask`` packs which center edges are masked in:
    bit 0 v-x, bit 1 v-y, bit 2 v-u2, bit 3 v-w2, bits 4.. the u stub, then
    the w stub.  Returns stub colors in canonical palette."""
    ucol, wcol, class_masks = _prelim_pattern(i, j, p, q)
    # The preliminary pattern is proper and distance-2-clean by shape; the
    # precolored neighbors contribute at most one each, so parity at the
    # center reduces to these three class counts.
    for m in class_masks:
        k = (vmask & m).bit_count()
        if k and not k % 2:
            break
    else:
        return ucol, wcol
    flat = _search_extension(i, j, p, q, vmask)
    if flat is None:
        raise InvariantViolated("gadget admits no valid extension")
    return tuple(flat[:p]), tuple(flat[p:])


def _pack_vmask(masked: Container[int], others: Iterable[int]) -> int:
    """``_extend_core``'s vmask: bit r says whether the r-th of ``others``
    (x, y, u2, w2, the u stub, then the w stub) is among ``masked``, the
    center's masked neighbours."""
    vmask = 0
    for r, u in enumerate(others):
        if u in masked:
            vmask |= 1 << r
    return vmask


def claim_extend(g: ClaimGadget, mask_edges: Iterable[tuple[int, int]]) -> Coloring:
    """Extend the gadget precoloring over the stubs.

    The result is proper on the gadget, distance-2-clean on both mixed
    paths, parity-clean at the center vertex for the masked edges, and the
    first stub vertices avoid the colors of x and y respectively.
    """
    host = gadget_graph(g)
    masked = set()
    for u, v in mask_edges:
        if not host.has_edge(u, v):
            raise PreconditionViolated(f"mask edge ({u},{v}) is not a gadget edge")
        if V in (u, v):
            masked.add(v if u == V else u)
    vmask = _pack_vmask(masked, chain(
        (X, Y, U2, W2), map(g.u_vertex, range(g.u_len)), map(g.w_vertex, range(g.w_len))))
    ucol, wcol = _extend_core(g.u1_color, g.w1_color, g.u_len, g.w_len, vmask)
    assignment = {X: 2, Y: 3, V: 5, U1: g.u1_color, U2: 1, W2: 4, W1: g.w1_color}
    for r, col in enumerate(ucol):
        assignment[g.u_vertex(r)] = col
    for r, col in enumerate(wcol):
        assignment[g.w_vertex(r)] = col
    return Coloring(assignment)


# ---------------------------------------------------------------------------
# The augmented host.


class _Host:
    """The original host on top of two dummy layers, kept as each vertex's
    parent pair and distance.  Every edge joins a vertex to one of its
    parents, so vertices a < b are adjacent iff ``a in parents[b]``.

    Original vertex v is vertex v + OFFSET here, and its BFS layer d (see
    ``ktree.bfs_layering``) is the set of vertices at distance d + 3.  A
    vertex's distance is one more than its nearer parent's, so at most one
    parent shares its layer, and validation reads each layer path's record
    off its shared vertex, the one with both parents below.  Padding never
    enters the host: it lives in the planner's path records, with ids from
    ``len(parents)`` on, and the driver keeps the colors of host and padding
    ids in one flat list.  Mask pairs stay in the caller's ids; an instance
    reads a mask bit as the pair (parent - OFFSET, child - OFFSET).
    """

    OFFSET = 5  # dummy ids 0..4: bottom edge a,b; middle path d,v*,e

    def __init__(self, seq: KTreeSeq):
        # 1's parent is 0 (the bottom edge); 2 = middle shared, 3 = middle
        # x-side, 4 = middle y-side; 5, 6 = original initial vertices 0, 1.
        self.parents: list[tuple[int, ...]] = [(), (0,), (0, 1), (0, 2), (1, 2), (2, 3), (2, 5)]
        self.dist: list[int] = [1, 1, 2, 2, 2, 3, 3]
        parents, dist = self.parents, self.dist
        off = self.OFFSET
        # KTreeSeq checked that each parent pair is an edge.
        for _, (a, b) in seq.steps:
            a, b = (a + off, b + off) if a < b else (b + off, a + off)
            parents.append((a, b))
            da, db = dist[a], dist[b]
            dist.append(1 + (da if da < db else db))


# ---------------------------------------------------------------------------
# Structure validation of the witness sequence, read off the augmented host.
#
# In each layer the in-layer edges form a forest: a vertex has at most one
# parent in its layer, and parents come first, so a component's least vertex
# is its root, the one vertex with both parents below.  A non-root vertex's
# parent below is a parent of its in-layer parent as well, so each in-layer
# subtree of the root hangs below one end of the root's parent pair.  Where
# no vertex has three neighbours in its layer, each component is a path,
# recorded by its anchor edge (x, y), x < y, the root's parent pair, as
# (shared, x-side, y-side): the shared vertex is the root, and each side is
# the subpath below that end, read outward from the shared vertex.  x is
# y's in-layer parent, and the record is kept at y.

_Record = tuple[int, list[int], list[int]]


def _original(vs: Iterable[int]) -> list[int]:
    """Host vertices as the caller's vertex ids."""
    return [v - _Host.OFFSET for v in vs]


def validate_outerplanar_structure(seq: KTreeSeq) -> tuple[_Host, list[Optional[_Record]]]:
    """Check the path-layer structure the coloring relies on; return the
    augmented host the check read and, by host vertex y, the record of the
    path anchored at y and its in-layer parent (None where there is none),
    which ``color_outerplanar`` goes on to pad and color.

    Of several faults, the one reported is the first that a layer-by-layer
    check meets: lowest layer first; in it, the least vertex with three
    in-layer neighbours, else the paths by shared vertex, an edge's second
    path before a path whose two sides hang below one end.
    """
    if seq.k != 2:
        raise NotOuterplanarWitness("witness must be a 2-tree sequence")
    host = _Host(seq)
    parents, dist = host.parents, host.dist
    size = len(dist)
    # The middle path and the first layer, as the dummy steps built them.
    # The first layer is the initial edge (5, 6), so it needs no check.
    records: list[Optional[_Record]] = [None] * size
    records[1], records[3] = (2, [3], [4]), (5, [6], [])
    rooted: list[Optional[_Record]] = [None] * size  # each root's record
    side_of: list[Optional[list[int]]] = [None] * size  # each non-root's side
    degree = [0] * size  # neighbours in the layer
    faults: list[tuple] = []  # (layer, 0, vertex) or (layer, 1, root, kind, ...)
    for v in range(7, size):
        a, b = parents[v]
        d = dist[v]
        # The nearer parent is one layer below, so no vertex floats, and
        # at most one parent is in v's layer, so no layer holds a cycle.
        if dist[a] == d:
            up, low = a, b
        elif dist[b] == d:
            up, low = b, a
        else:
            # A root; it is its component's only one (m vertices, m - 1
            # edges, one per non-root), and its parents are an edge.
            rooted[v] = rec = (v, [], [])
            if records[b] is None:
                records[b] = rec
            else:
                faults.append((d, 1, v, 0))
            continue
        degree[up] += 1
        degree[v] = 1
        side = side_of[up]
        if side is None:  # v starts a side of the root up
            rec = rooted[up]
            # low is a parent of up, so the path hangs below (x, y).
            side = rec[1] if low == parents[up][0] else rec[2]
            if side:  # and another side already hangs below that end
                faults.append((d, 1, up, 1, side, new := []))
                side = new
        side.append(v)
        side_of[v] = side
    if faults or max(degree) > 2:
        faults += [(dist[v], 0, v) for v, k in enumerate(degree) if k > 2]
        fault = min(faults)
        v = fault[2]
        if fault[1] == 0:
            raise NotOuterplanarWitness(
                f"layer vertex {v - _Host.OFFSET} has {degree[v]} in-layer neighbors")
        if fault[3] == 0:
            raise NotOuterplanarWitness(
                f"edge {_original(parents[v])} carries two layer paths")
        one, two = fault[4:]
        # Named as walked from its lesser end.
        path = one[::-1] + [v] + two if one[-1] < two[-1] else two[::-1] + [v] + one
        raise NotOuterplanarWitness(f"path {_original(path)} mixes its two subpaths")
    return host, records


# ---------------------------------------------------------------------------
# The layer-by-layer driver.

# One instance: (center, x, y, u1, u2, w2, w1, u stub, w stub), the ids in
# their gadget roles.
_Slots = tuple[int, int, int, int, int, int, int, list[int], list[int]]


def _plan_path(
    rec: _Record, parents: list[tuple[int, ...]], records: list[Optional[_Record]],
    fresh: Iterator[int],
) -> list[_Slots]:
    """Plan the sweep over one layer path, padding its record and the
    records of its child paths as needed.

    The sweep colors around the shared vertex first, then walks out along
    the y-side, then along the x-side.  Around the shared vertex, u2 and u1
    are the x-side's first two vertices, w2 and w1 the y-side's, and each
    stub is the shared child and inner side of the child path on that
    side's first edge.  Around a side vertex, the child path of its inner
    edge (toward the shared vertex) gives u2, u1 and the u stub, and the
    child path of its outer edge the w stub.  Returns the instances in
    processing order, none when no vertex of the path has children.
    """
    shared, xside, yside = rec
    xkids = [records[v] for v in xside]
    ykids = [records[v] for v in yside]
    if not (any(xkids) or any(ykids)):
        return []
    x, y = parents[shared]
    plan: list[_Slots] = []
    for side, anchor, kids in ((yside, y, ykids), (xside, x, xkids)):
        # kids[k]: the child path of side[k]'s inner edge.  Its shared child
        # and inner side go to the instance at k - 1, its outer side to the
        # one at k; the outermost instances so given work bound the sweep.
        reach = 0
        for k, kid in enumerate(kids):
            if kid is not None:
                reach = k + 1 if kid[2] else k
        # Padding: the side two positions beyond its last instance; each
        # instance's stubs at least two long (shared child included), and
        # its u1 from the stub on its inner edge.
        if len(side) < reach + 2:
            side.extend(islice(fresh, reach + 2 - len(side)))
        kids += [None] * (reach + 1 - len(kids))
        for k in range(reach + 1):
            if k >= len(side):
                raise InvariantViolated(f"path padding left no edge at position {k}")
            kid = kids[k]
            if kid is None:
                kids[k] = kid = (next(fresh), [], [])
            _, inner, outer = kid
            if not inner:
                inner.append(next(fresh))
            if k < reach and len(outer) < 2:
                outer.extend(islice(fresh, 2 - len(outer)))
        if len(side) < reach + 2:
            raise InvariantViolated("path padding failed")
        inner = shared
        for k in range(reach):
            v = side[k]
            u2, near, u_ext = kids[k]
            s, w_near, _ = kids[k + 1]
            if len(u_ext) < 2 or not w_near:
                raise InvariantViolated("stub padding failed")
            plan.append((v, inner, anchor, near[0], u2, side[k + 1], side[k + 2],
                         u_ext, [s] + w_near))
            inner = v
    (u2, u_near, _), (w2, w_near, _) = xkids[0], ykids[0]
    if not (u_near and w_near):
        raise InvariantViolated("stub padding failed")
    plan.insert(0, (shared, x, y, xside[1], xside[0], yside[0], yside[1],
                    [u2] + u_near, [w2] + w_near))
    return plan


def color_outerplanar(seq: KTreeSeq, mask: Iterable[tuple[int, int]] | Graph) -> Coloring:
    """8-coloring of the host whose restriction to the masked subgraph is
    strong odd.  ``mask`` is the subgraph's edge set (or a Graph on the host's
    vertices with a subset of its edges)."""
    host, records = validate_outerplanar_structure(seq)
    n = seq.n
    if isinstance(mask, Graph):
        if mask.n != n:
            raise NotOuterplanarWitness("mask graph has a different vertex count")
        mask_edges = mask.edges
    else:
        mask_edges = frozenset(tuple(sorted(e)) for e in mask)
    # Each pair is sorted, u <= v; instances look their pairs up as they are.
    off = _Host.OFFSET
    parents = host.parents
    for u, v in mask_edges:
        if not (0 <= u and v < n and u + off in parents[v + off]):
            raise NotOuterplanarWitness(f"mask edge ({u},{v}) is not a host edge")

    # Plan the paths top down, so that padding of a path is in its record
    # before the layer below reads it as stubs; color bottom up.  A child
    # path's record is kept at a vertex of its parent path, a later id than
    # the parent's own, so in id order every path follows its parent.
    paths = [rec for rec in records if rec is not None]
    fresh = count(len(parents))
    plans = [_plan_path(rec, parents, records, fresh) for rec in reversed(paths)]

    psi = [0] * next(fresh)  # by host or padding id; 0 while uncolored
    psi[0], psi[1] = 1, 2
    # Middle layer: 3,4,5 repeated along the (possibly padded) path.
    shared, left, right = paths[0]
    for p, v in enumerate(left[::-1] + [shared] + right):
        psi[v] = 3 + p % 3

    for plan in reversed(plans):
        for inst in plan:
            _apply_instance(inst, psi, mask_edges, n)

    return Coloring(dict(enumerate(psi[off:off + n])))


@lru_cache(maxsize=None)
def _slot_renaming(cols: tuple[int, int, int, int, int]):
    """Renaming of the caller's palette that sends the colors of x, y, the
    center, u2 and w2 to the canonical 2, 3, 5, 1, 4 and the other three, in
    order, to 6, 7, 8; returns it and its inverse as byte tables indexed by
    color (up to 6,720 of them are cached, so they are kept small)."""
    if len(set(cols)) != 5:
        raise InvariantViolated(f"precolored slots collide: {list(cols)}")
    rename = dict(zip(cols, (2, 3, 5, 1, 4)))
    rename.update(zip(sorted(set(range(1, 9)) - set(cols)), (6, 7, 8)))
    inverse = [0] * 9
    for src, dst in rename.items():
        inverse[dst] = src
    return bytes(rename.get(c, 0) for c in range(9)), bytes(inverse)


def _apply_instance(
    inst: _Slots, psi: list[int], mask_edges: Container[tuple[int, int]], n: int
) -> None:
    """Color one instance's stubs.  ``mask_edges`` holds the mask's sorted
    pairs in the caller's ids, and the host has ``n`` vertices."""
    center, x, y, u1, u2, w2, w1, u_ext, w_ext = inst
    rename, inverse = _slot_renaming((psi[x], psi[y], psi[center], psi[u2], psi[w2]))
    i = rename[psi[u1]]
    j = rename[psi[w1]]
    if i in (1, 2, 5):
        raise InvariantViolated("u1 precondition violated")
    if j in (3, 4, 5):
        raise InvariantViolated("w1 precondition violated")

    # x and y are parents of the center, the rest its children or padding,
    # so each pair below is sorted as written.  Dummies (negative ids) and
    # padding (ids from n on) are in no mask pair, and a stub's padding
    # follows its real vertices.
    off = _Host.OFFSET
    c = center - off
    vmask = ((x - off, c) in mask_edges) | ((y - off, c) in mask_edges) << 1 \
        | ((c, u2 - off) in mask_edges) << 2 | ((c, w2 - off) in mask_edges) << 3
    p = len(u_ext)
    for first, stub in ((4, u_ext), (4 + p, w_ext)):
        for r, u in enumerate(stub, first):
            u -= off
            if u >= n:
                break
            if (c, u) in mask_edges:
                vmask |= 1 << r
    ucol, wcol = _extend_core(i, j, p, len(w_ext), vmask)
    for u, col in zip(u_ext, ucol):
        if psi[u]:
            raise InvariantViolated("stub vertex colored twice")
        psi[u] = inverse[col]
    for w, col in zip(w_ext, wcol):
        if psi[w]:
            raise InvariantViolated("stub vertex colored twice")
        psi[w] = inverse[col]
