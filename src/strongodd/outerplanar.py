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
host is first augmented with two dummy bottom layers and with dummy path
extensions so that every gadget instance is complete; dummies never carry
mask edges and are stripped from the result.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Container, Iterable, Optional

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
    """Mutable augmented 2-tree: the original host on top of two dummy
    layers, extended with path and stub padding as instances require.

    Original vertex v is vertex v + OFFSET here, and its BFS layer d (see
    ``ktree.bfs_layering``) is the set of vertices at distance d + 3.
    """

    OFFSET = 5  # dummy ids 0..4: bottom edge a,b; middle path d,v*,e

    def __init__(self, seq: KTreeSeq):
        self.parents: list[Optional[tuple[int, int]]] = [None, None]
        self.adj: list[set[int]] = [{1}, {0}]
        self.dist: list[int] = [1, 1]
        self.childs: dict[tuple[int, int], list[int]] = {}
        self.attach(0, 1)          # 2 = middle shared
        self.attach(0, 2)          # 3 = middle x-side
        self.attach(1, 2)          # 4 = middle y-side
        self.attach(2, 3)          # 5 = original initial vertex 0
        self.attach(2, 5)          # 6 = original initial vertex 1
        off = self.OFFSET
        for _, (a, b) in seq.steps:
            self.attach(a + off, b + off)

    def attach(self, a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        adj = self.adj
        if b not in adj[a]:
            raise NotOuterplanarWitness(f"attachment pair ({a},{b}) is not an edge")
        v = len(adj)
        adj.append({a, b})
        adj[a].add(v)
        adj[b].add(v)
        self.parents.append(key)
        dist = self.dist
        da, db = dist[a], dist[b]
        dist.append(1 + (da if da < db else db))
        kids = self.childs.get(key)
        if kids is None:
            self.childs[key] = [v]
        else:
            kids.append(v)
        return v

    def children_of(self, a: int, b: int) -> list[int]:
        return self.childs.get((a, b) if a < b else (b, a), [])

    def chain(self, start: int, anchor: int) -> list[int]:
        """Successive children of (current, anchor) starting at ``start``."""
        out = []
        cur = start
        while True:
            kids = self.children_of(cur, anchor)
            if len(kids) > 1:
                raise InvariantViolated("branching chain; host is not simple")
            if not kids:
                return out
            cur = kids[0]
            out.append(cur)

    def layers(self) -> list[list[int]]:
        """Vertices by distance, distance 1 first, each in increasing order."""
        top = max(self.dist)
        out: list[list[int]] = [[] for _ in range(top)]
        for v, dv in enumerate(self.dist):
            out[dv - 1].append(v)
        return out


# ---------------------------------------------------------------------------
# Structure validation of the witness sequence, read off the augmented host.


def _original(vs: Iterable[int]) -> list[int]:
    """Host vertices as the caller's vertex ids."""
    return [v - _Host.OFFSET for v in vs]


def _layer_paths(host: _Host, layer: list[int]):
    """Split one layer of the host into its paths, ordered by least vertex
    and read from the lesser end, and give each layer vertex its neighbours
    in the layer below.  Raise if a component is not a path; of several
    vertices with more than two neighbours in the layer, the least is named."""
    adj, dist = host.adj, host.dist
    d = dist[layer[0]]
    inside: dict[int, list[int]] = {}
    below: dict[int, list[int]] = {}
    for v in layer:
        same, down = [], []
        for w in adj[v]:
            if dist[w] == d:
                same.append(w)
            elif dist[w] == d - 1:
                down.append(w)
        if len(same) > 2:
            raise NotOuterplanarWitness(
                f"layer vertex {v - _Host.OFFSET} has {len(same)} in-layer neighbors"
            )
        inside[v] = same
        below[v] = down
    # Walk each path from its lesser end; a vertex no walk reaches has two
    # neighbours in the layer, as has all of its component: a cycle.
    paths = []
    on_path: set[int] = set()
    for end in layer:
        if end in on_path or len(inside[end]) == 2:
            continue
        path, prev = [end], None
        while True:
            nxt = [w for w in inside[path[-1]] if w != prev]
            if not nxt:
                break
            prev = path[-1]
            path.append(nxt[0])
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
    return paths, below


def validate_outerplanar_structure(seq: KTreeSeq) -> _Host:
    """Check the path-layer structure the coloring relies on; return the
    augmented host the check read, which ``color_outerplanar`` goes on to
    pad and color."""
    if seq.k != 2:
        raise NotOuterplanarWitness("witness must be a 2-tree sequence")
    host = _Host(seq)
    layers = host.layers()[2:]  # the original BFS layers
    first = layers[0]
    if len(first) != 2 or first[1] not in host.adj[first[0]]:
        raise NotOuterplanarWitness("first layer is not an edge")
    claimed_edges = set()
    for layer in layers[1:]:
        paths, below = _layer_paths(host, layer)
        for path in paths:
            anchors = sorted({a for v in path for a in below[v]})
            if len(anchors) != 2 or anchors[1] not in host.adj[anchors[0]]:
                raise NotOuterplanarWitness(
                    f"path {_original(path)} hangs below {_original(anchors)}, not an edge"
                )
            edge = tuple(anchors)
            if edge in claimed_edges:
                raise NotOuterplanarWitness(
                    f"edge {_original(anchors)} carries two layer paths"
                )
            claimed_edges.add(edge)
            shared = [v for v in path if len(below[v]) == 2]
            if len(shared) != 1:
                raise NotOuterplanarWitness(
                    f"path {_original(path)} has {len(shared)} vertices with two neighbors below"
                )
            if any(not below[v] for v in path):
                raise NotOuterplanarWitness(f"path {_original(path)} has a floating vertex")
            # One side is all-x, the other all-y (either orientation).
            s = path.index(shared[0])
            la = {below[v][0] for v in path[:s]}
            ra = {below[v][0] for v in path[s + 1:]}
            if len(la) > 1 or len(ra) > 1 or (la and la == ra):
                raise NotOuterplanarWitness(f"path {_original(path)} mixes its two subpaths")
    return host


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


def _plan_path(host: _Host, shared: int, x: int, y: int) -> Optional[list[_Instance]]:
    """Plan the sweep over one layer path, padding as needed.

    Returns the instance list in processing order (0, +1.., then -1..), or
    None when no vertex of the path has children to color.
    """
    left = host.chain(shared, x)   # negative side, outward
    right = host.chain(shared, y)  # positive side, outward

    def path_at(t: int) -> Optional[int]:
        if t == 0:
            return shared
        if t > 0:
            return right[t - 1] if t - 1 < len(right) else None
        return left[-t - 1] if -t - 1 < len(left) else None

    def edge_at(t: int) -> Optional[tuple[int, int]]:
        a, b = path_at(t), path_at(t + 1)
        return None if a is None or b is None else (a, b)

    # One (shared child, t-side, (t+1)-side) entry per edge (p_t, p_{t+1}),
    # walked once; stub padding grows the entry in place.
    stubs: dict[int, tuple[Optional[int], list[int], list[int]]] = {}

    def stub(t: int) -> tuple[Optional[int], list[int], list[int]]:
        """Child path of edge (p_t, p_{t+1}): shared child, t-side, (t+1)-side."""
        entry = stubs.get(t)
        if entry is not None:
            return entry
        e = edge_at(t)
        if e is None:
            return None, [], []  # not cached: path padding may add the edge
        kids = host.children_of(*e)
        if len(kids) > 1:
            raise InvariantViolated("two shared children on one edge")
        if kids:
            s = kids[0]
            entry = s, host.chain(s, e[0]), host.chain(s, e[1])
        else:
            entry = None, [], []
        stubs[t] = entry
        return entry

    # Responsibilities: the shared child and near side of edge (t, t+1) go to
    # the instance closer to position 0, the far side to the other one.
    lo = -len(left)
    hi = len(right)
    resp: dict[int, int] = {}
    for t in range(lo, hi):
        s, near_t, near_t1 = stub(t)
        count = (0 if s is None else 1) + len(near_t) + len(near_t1)
        if count == 0:
            continue
        closer, farther = (t, t + 1) if t >= 0 else (t + 1, t)
        closer_side = near_t if closer == t else near_t1
        farther_side = near_t1 if closer == t else near_t
        if s is not None or closer_side:
            resp[closer] = resp.get(closer, 0) + 1 + len(closer_side)
        if farther_side:
            resp[farther] = resp.get(farther, 0) + len(farther_side)
    if not resp:
        return None
    t_min = min(min(resp), 0)
    t_max = max(max(resp), 0)

    # Path padding: two vertices beyond each processed end.
    while len(right) < t_max + 2:
        end = right[-1] if right else shared
        right.append(host.attach(end, y))
    while len(left) < -t_min + 2:
        end = left[-1] if left else shared
        left.append(host.attach(end, x))

    def grown_stub(t: int, need_near: int, need_far: int):
        e = edge_at(t)
        if e is None:
            raise InvariantViolated(f"path padding left no edge at position {t}")
        s, near, far = stub(t)
        if s is None:
            s = host.attach(*e)
            near, far = [], []
            stubs[t] = s, near, far
        while len(near) < need_near:
            near.append(host.attach(near[-1] if near else s, e[0]))
        while len(far) < need_far:
            far.append(host.attach(far[-1] if far else s, e[1]))

    # Stub padding per instance, then assemble.
    for t in range(0, t_max + 1):
        grown_stub(t, 1, 2 if t + 1 <= t_max else 0)
    grown_stub(-1, 0, 1)  # edge (-1, 0): shared + one on the 0 side
    for t in range(-1, t_min - 1, -1):
        grown_stub(t, 2, 1)      # u-ext on the t side, anchor on the t+1 side
        grown_stub(t - 1, 0, 1)  # w-ext: shared + one on the t side

    instances = []
    for t in list(range(0, t_max + 1)) + list(range(-1, t_min - 1, -1)):
        if t == 0:
            s_l, near_l, far_l = stub(-1)   # edge (p_-1, p_0)
            s_r, near_r, far_r = stub(0)    # edge (p_0, p_1)
            inst = _Instance(
                center=shared, x=x, y=y,
                u1=path_at(-2), u2=path_at(-1), w2=path_at(1), w1=path_at(2),
                u_ext=[s_l] + far_l, w_ext=[s_r] + near_r,
            )
        elif t > 0:
            s_l, near_l, far_l = stub(t - 1)
            s_r, near_r, far_r = stub(t)
            inst = _Instance(
                center=path_at(t), x=path_at(t - 1), y=y,
                u1=near_l[0], u2=s_l, w2=path_at(t + 1), w1=path_at(t + 2),
                u_ext=list(far_l), w_ext=[s_r] + near_r,
            )
        else:
            s_r, near_r, far_r = stub(t)      # edge (p_t, p_{t+1})
            s_l, near_l, far_l = stub(t - 1)  # edge (p_{t-1}, p_t)
            inst = _Instance(
                center=path_at(t), x=path_at(t + 1), y=x,
                u1=far_r[0], u2=s_r, w2=path_at(t - 1), w1=path_at(t - 2),
                u_ext=list(near_r), w_ext=[s_l] + far_l,
            )
        if len(inst.u_ext) < 2 or len(inst.w_ext) < 2:
            raise InvariantViolated("stub padding failed")
        if None in (inst.u1, inst.u2, inst.w2, inst.w1):
            raise InvariantViolated("path padding failed")
        instances.append(inst)
    return instances


def color_outerplanar(seq: KTreeSeq, mask: Iterable[tuple[int, int]] | Graph) -> Coloring:
    """8-coloring of the host whose restriction to the masked subgraph is
    strong odd.  ``mask`` is the subgraph's edge set (or a Graph on the host's
    vertices with a subset of its edges)."""
    host = validate_outerplanar_structure(seq)
    if isinstance(mask, Graph):
        if mask.n != seq.n:
            raise NotOuterplanarWitness("mask graph has a different vertex count")
        mask_edges = mask.edges
    else:
        mask_edges = frozenset(tuple(sorted(e)) for e in mask)
    # Masked neighbours per host vertex; dummies carry no mask edges.
    off = _Host.OFFSET
    masked: defaultdict[int, set[int]] = defaultdict(set)
    for u, v in mask_edges:
        if not (0 <= u < seq.n and 0 <= v < seq.n and v + off in host.adj[u + off]):
            raise NotOuterplanarWitness(f"mask edge ({u},{v}) is not a host edge")
        masked[u + off].add(v + off)
        masked[v + off].add(u + off)

    # Plan instances layer by layer, top down, so padding at one layer is
    # visible to the spans of the layer below before its plan is drawn.
    # Padding while planning layer idx adds vertices only at layers idx and
    # idx + 1, so the membership of the layers below can be read up front.
    plans: dict[int, list[_Instance]] = {}
    layers = host.layers()
    parents, dist = host.parents, host.dist
    for idx in range(len(layers) - 1, 0, -1):
        plan = []
        shareds = []
        for v in layers[idx]:
            a, b = parents[v]
            if dist[a] == dist[b] == idx:
                shareds.append((v, a, b))
        for v, a, b in shareds:
            x, y = (a, b) if a < b else (b, a)
            instances = _plan_path(host, v, x, y)
            if instances:
                plan.extend(instances)
        if plan:
            plans[idx] = plan

    psi: dict[int, int] = {0: 1, 1: 2}
    # Middle layer: 3,4,5 repeated along the (possibly padded) path.
    middle = host.chain(2, 0)[::-1] + [2] + host.chain(2, 1)
    for pos, v in enumerate(middle):
        psi[v] = 3 + pos % 3

    unmasked: frozenset[int] = frozenset()
    for idx in sorted(plans):
        for inst in plans[idx]:
            _apply_instance(inst, psi, masked.get(inst.center, unmasked))

    out = {}
    for v in range(seq.n):
        out[v] = psi[v + off]
    return Coloring(out)


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
