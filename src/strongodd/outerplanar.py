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
distances only.  Validation records each layer path once; where an instance
needs a longer path or stub than the host has, the planner pads the records
with fresh ids, colored like vertices but never part of the host.  Dummies
and padding carry no mask edges and are stripped from the result.
"""

from __future__ import annotations

from collections import defaultdict
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
    if all((vmask & m).bit_count() % 2 or not (vmask & m) for m in class_masks):
        # The preliminary pattern is proper and distance-2-clean by shape;
        # the precolored neighbors contribute at most one each, so parity at
        # the center reduces to these three class counts.
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
    ``ktree.bfs_layering``) is the set of vertices at distance d + 3.
    Padding never enters the host; it lives in the planner's path records.
    """

    OFFSET = 5  # dummy ids 0..4: bottom edge a,b; middle path d,v*,e

    def __init__(self, seq: KTreeSeq):
        # 1's parent is 0 (the bottom edge); 2 = middle shared, 3 = middle
        # x-side, 4 = middle y-side; 5, 6 = original initial vertices 0, 1.
        self.parents: list[tuple[int, ...]] = [(), (0,), (0, 1), (0, 2), (1, 2), (2, 3), (2, 5)]
        self.dist: list[int] = [1, 1, 2, 2, 2, 3, 3]
        parents, dist = self.parents, self.dist
        off = self.OFFSET
        for _, (a, b) in seq.steps:
            a, b = (a + off, b + off) if a < b else (b + off, a + off)
            if a not in parents[b]:
                raise NotOuterplanarWitness(f"attachment pair ({a},{b}) is not an edge")
            parents.append((a, b))
            da, db = dist[a], dist[b]
            dist.append(1 + (da if da < db else db))

    def layers(self) -> list[list[int]]:
        """Vertices by distance, distance 1 first, each in increasing order."""
        out: list[list[int]] = [[] for _ in range(max(self.dist))]
        for v, dv in enumerate(self.dist):
            out[dv - 1].append(v)
        return out


# ---------------------------------------------------------------------------
# Structure validation of the witness sequence, read off the augmented host.
#
# Each layer path is recorded by its anchor edge (x, y), x < y, the edge of
# the layer below that it hangs from: (shared, x-side, y-side), where the
# shared vertex is adjacent to x and y, and each side is the subpath
# anchored at that end, read outward from the shared vertex.


def _original(vs: Iterable[int]) -> list[int]:
    """Host vertices as the caller's vertex ids."""
    return [v - _Host.OFFSET for v in vs]


def _layer_paths(layer: list[int], inside: list[list[int]]) -> list[list[int]]:
    """Split one layer of the host into its paths, ordered by least vertex
    and read from the lesser end; ``inside`` holds each vertex's neighbours
    in its layer.  Raise if a component is not a path; of several vertices
    with more than two neighbours in the layer, the least is named."""
    for v in layer:
        if len(inside[v]) > 2:
            raise NotOuterplanarWitness(
                f"layer vertex {v - _Host.OFFSET} has {len(inside[v])} in-layer neighbors"
            )
    # Walk each path from its lesser end; a vertex no walk reaches has two
    # neighbours in the layer, as has all of its component: a cycle.
    paths = []
    on_path: set[int] = set()
    for end in layer:
        if end in on_path or len(inside[end]) == 2:
            continue
        path, prev, cur = [end], None, end
        while True:
            nb = inside[cur]
            if len(nb) == 2:
                cur, prev = (nb[1] if nb[0] == prev else nb[0]), cur
            elif nb and nb[0] != prev:
                cur, prev = nb[0], cur
            else:
                break
            path.append(cur)
        on_path.update(path)
        paths.append(path)
    if len(on_path) < len(layer):
        start = next(v for v in layer if v not in on_path)
        cycle, todo = {start}, [start]
        while todo:
            for w in inside[todo.pop()]:
                if w not in cycle:
                    cycle.add(w)
                    todo.append(w)
        raise NotOuterplanarWitness(
            f"layer component {_original(sorted(cycle))} is not a path"
        )
    paths.sort(key=min)
    return paths


_Paths = dict[tuple[int, int], tuple[int, list[int], list[int]]]


def validate_outerplanar_structure(seq: KTreeSeq) -> tuple[_Host, _Paths]:
    """Check the path-layer structure the coloring relies on; return the
    augmented host the check read and its path records, bottom layer first,
    which ``color_outerplanar`` goes on to pad and color."""
    if seq.k != 2:
        raise NotOuterplanarWitness("witness must be a 2-tree sequence")
    host = _Host(seq)
    parents, dist = host.parents, host.dist
    # A parent lies one layer below its child or in the child's layer.
    inside: list[list[int]] = [[] for _ in dist]
    below: list[tuple[int, ...]] = [()] * len(dist)
    for v in range(2, len(dist)):
        a, b = parents[v]
        dv = dist[v]
        if dist[a] == dv:
            inside[a].append(v)
            inside[v].append(a)
            below[v] = (b,)
        elif dist[b] == dv:
            inside[b].append(v)
            inside[v].append(b)
            below[v] = (a,)
        else:
            below[v] = (a, b)
    layers = host.layers()[2:]  # the original BFS layers
    first = layers[0]
    if len(first) != 2 or first[0] not in parents[first[1]]:
        raise NotOuterplanarWitness("first layer is not an edge")
    # The middle path and the first layer, as the dummy steps built them.
    paths: _Paths = {(0, 1): (2, [3], [4]), (2, 3): (5, [6], [])}
    for layer in layers[1:]:
        for path in _layer_paths(layer, inside):
            down = [below[v] for v in path]
            anchors = sorted(set().union(*down))
            shared = [v for v, d in zip(path, down) if len(d) == 2]
            if len(anchors) != 2 or anchors[0] not in parents[anchors[1]]:
                raise NotOuterplanarWitness(
                    f"path {_original(path)} hangs below {_original(anchors)}, not an edge"
                )
            edge = x, y = tuple(anchors)
            if edge in paths:
                raise NotOuterplanarWitness(
                    f"edge {_original(anchors)} carries two layer paths"
                )
            if len(shared) != 1:
                raise NotOuterplanarWitness(
                    f"path {_original(path)} has {len(shared)} vertices with two neighbors below"
                )
            if () in down:
                raise NotOuterplanarWitness(f"path {_original(path)} has a floating vertex")
            # One side is all-x, the other all-y (either orientation).
            s = path.index(shared[0])
            left, right = path[s - 1::-1] if s else [], path[s + 1:]
            la = {below[v][0] for v in left}
            ra = {below[v][0] for v in right}
            if len(la) > 1 or len(ra) > 1 or (la and la == ra):
                raise NotOuterplanarWitness(f"path {_original(path)} mixes its two subpaths")
            paths[edge] = (shared[0], left, right) if x in la or y in ra else \
                (shared[0], right, left)
    return host, paths


# ---------------------------------------------------------------------------
# The layer-by-layer driver.


@dataclass
class _Instance:
    center: int
    x: int
    y: int
    u1: int
    u2: int
    w2: int
    w1: int
    u_ext: list[int]
    w_ext: list[int]


def _pad(side: list[int], length: int, fresh: Iterator[int]) -> None:
    """Extend a path record's side to ``length`` with fresh padding ids."""
    if len(side) < length:
        side.extend(islice(fresh, length - len(side)))


def _plan_path(x: int, y: int, paths: _Paths, fresh: Iterator[int]) -> Optional[list[_Instance]]:
    """Plan the sweep over the layer path anchored at (x, y), padding its
    record and the records of its child paths as needed.

    Position 0 is the shared vertex, positions -1, -2.. its x-side and
    +1, +2.. its y-side.  Returns the instance list in processing order
    (0, +1.., then -1..), or None when no vertex of the path has children
    to color.
    """
    shared, left, right = paths[x, y]
    pos = left[::-1] + [shared] + right
    base = len(left)  # index of position 0 in pos
    # Child path of edge (p_t, p_{t+1}) by t: shared child, t-side,
    # (t+1)-side.  Its shared child and near side go to the instance closer
    # to position 0, its far side, if any, to the other one; the outermost
    # instances so given work bound the sweep.
    stubs: dict[int, tuple[int, list[int], list[int]]] = {}
    t_min = t_max = 0
    for k in range(len(pos) - 1):
        a, b = pos[k], pos[k + 1]
        child = paths.get((a, b) if a < b else (b, a))
        if child is None:
            continue
        s, cx, cy = child
        near, far = (cx, cy) if a < b else (cy, cx)
        t = k - base
        stubs[t] = (s, near, far)
        if t >= 0:
            t_max = max(t_max, t + 1 if far else t)
        else:
            t_min = min(t_min, t if near else t + 1)
    if not stubs:
        return None

    # Path padding: two positions beyond each processed end.
    _pad(left, -t_min + 2, fresh)
    _pad(right, t_max + 2, fresh)
    pos = left[::-1] + [shared] + right
    base = len(left)

    # Stub padding: each instance needs both its stubs at least two long
    # (shared child included) and its u1 from the stub on its inner edge.
    for t in range(t_min - 1, t_max + 1):
        if not (0 <= base + t and base + t + 1 < len(pos)):
            raise InvariantViolated(f"path padding left no edge at position {t}")
        if t not in stubs:
            stubs[t] = (next(fresh), [], [])
        _, near, far = stubs[t]
        _pad(near, 1 if t >= 0 else 2 if t >= t_min else 0, fresh)
        _pad(far, (2 if t < t_max else 0) if t >= 0 else 1, fresh)

    instances = []
    for t in chain(range(t_max + 1), range(-1, t_min - 1, -1)):
        c = base + t
        if c < 2 or c + 2 >= len(pos):
            raise InvariantViolated("path padding failed")
        if t == 0:
            s_l, _, far_l = stubs[-1]   # edge (p_-1, p_0)
            s_r, near_r, _ = stubs[0]   # edge (p_0, p_1)
            inst = _Instance(shared, x, y, pos[c - 2], pos[c - 1], pos[c + 1], pos[c + 2],
                             [s_l] + far_l, [s_r] + near_r)
        elif t > 0:
            s_l, near_l, far_l = stubs[t - 1]
            s_r, near_r, _ = stubs[t]
            inst = _Instance(pos[c], pos[c - 1], y, near_l[0], s_l, pos[c + 1], pos[c + 2],
                             far_l, [s_r] + near_r)
        else:
            s_r, near_r, far_r = stubs[t]    # edge (p_t, p_{t+1})
            s_l, _, far_l = stubs[t - 1]     # edge (p_{t-1}, p_t)
            inst = _Instance(pos[c], pos[c + 1], x, far_r[0], s_r, pos[c - 1], pos[c - 2],
                             near_r, [s_l] + far_l)
        if len(inst.u_ext) < 2 or len(inst.w_ext) < 2:
            raise InvariantViolated("stub padding failed")
        instances.append(inst)
    return instances


def color_outerplanar(seq: KTreeSeq, mask: Iterable[tuple[int, int]] | Graph) -> Coloring:
    """8-coloring of the host whose restriction to the masked subgraph is
    strong odd.  ``mask`` is the subgraph's edge set (or a Graph on the host's
    vertices with a subset of its edges)."""
    host, paths = validate_outerplanar_structure(seq)
    n = seq.n
    if isinstance(mask, Graph):
        if mask.n != n:
            raise NotOuterplanarWitness("mask graph has a different vertex count")
        mask_edges = mask.edges
    else:
        mask_edges = frozenset(tuple(sorted(e)) for e in mask)
    # Masked neighbours per host vertex; dummies and padding carry no mask
    # edges.  Each pair is sorted, u <= v.
    off = _Host.OFFSET
    parents = host.parents
    masked: defaultdict[int, set[int]] = defaultdict(set)
    for u, v in mask_edges:
        if not (0 <= u and v < n and u + off in parents[v + off]):
            raise NotOuterplanarWitness(f"mask edge ({u},{v}) is not a host edge")
        masked[u + off].add(v + off)
        masked[v + off].add(u + off)

    # Plan the paths top down, so that padding of a path is in its record
    # before the layer below reads it as stubs; color bottom up.
    fresh = count(len(parents))
    plans = [_plan_path(x, y, paths, fresh) for x, y in reversed(paths)]

    psi: dict[int, int] = {0: 1, 1: 2}
    # Middle layer: 3,4,5 repeated along the (possibly padded) path.
    shared, left, right = paths[0, 1]
    for p, v in enumerate(left[::-1] + [shared] + right):
        psi[v] = 3 + p % 3

    unmasked: frozenset[int] = frozenset()
    for plan in reversed(plans):
        for inst in plan or ():
            _apply_instance(inst, psi, masked.get(inst.center, unmasked))

    return Coloring({v: psi[v + off] for v in range(n)})


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


def _apply_instance(inst: _Instance, psi: dict[int, int], masked: Container[int]) -> None:
    """Color one instance's stubs; ``masked`` holds the center's masked
    neighbours."""
    rename, inverse = _slot_renaming(
        (psi[inst.x], psi[inst.y], psi[inst.center], psi[inst.u2], psi[inst.w2]))
    i = rename[psi[inst.u1]]
    j = rename[psi[inst.w1]]
    if i in (1, 2, 5):
        raise InvariantViolated("u1 precondition violated")
    if j in (3, 4, 5):
        raise InvariantViolated("w1 precondition violated")

    vmask = _pack_vmask(masked, chain(
        (inst.x, inst.y, inst.u2, inst.w2), inst.u_ext, inst.w_ext))
    ucol, wcol = _extend_core(i, j, len(inst.u_ext), len(inst.w_ext), vmask)
    for u, col in zip(inst.u_ext, ucol):
        if u in psi:
            raise InvariantViolated("stub vertex colored twice")
        psi[u] = inverse[col]
    for w, col in zip(inst.w_ext, wcol):
        if w in psi:
            raise InvariantViolated("stub vertex colored twice")
        psi[w] = inverse[col]
