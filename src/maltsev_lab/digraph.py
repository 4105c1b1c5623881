"""Digraph predicates and constructions for loop-lemma style checks.

Vertices are sortable labels, either plain integers or tuples of elements.
A walk is a sequence of steps ((u, v), direction) where direction +1
traverses the edge u -> v forward and -1 traverses it backward; its net
length is the number of forward steps minus the number of backward steps.

``is_admissible``, whether a relation is closed under an algebra's
operations, is ``subpower``'s, beside the one closedness check
``is_closed``, which it calls with the trivial group; it is re-exported
here.  {()} is all of A^0, so it is admissible.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional

from .errors import AlgebraFormatError, ConsistencyError
from .subpower import is_admissible  # noqa: F401  re-exported

WalkStep = tuple  # ((u, v), +1 | -1)


@dataclass(frozen=True)
class Digraph:
    vertices: tuple
    edges: frozenset

    def __post_init__(self):
        vset = set(self.vertices)
        for u, v in self.edges:
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex set")

    @staticmethod
    def from_edges(edges: Iterable[tuple], vertices: Iterable = ()) -> "Digraph":
        edges = frozenset((u, v) for u, v in edges)
        vs = set(vertices)
        for u, v in edges:
            vs.add(u)
            vs.add(v)
        return Digraph(vertices=tuple(sorted(vs)), edges=edges)


def is_smooth(g: Digraph) -> bool:
    """Every vertex has at least one outgoing and one incoming edge."""
    outs = {u for u, _ in g.edges}
    ins = {v for _, v in g.edges}
    return all(v in outs and v in ins for v in g.vertices)


def has_loop(g: Digraph):
    """Least vertex carrying a self-edge, or None."""
    loops = [v for v in g.vertices if (v, v) in g.edges]
    return min(loops) if loops else None


def replay_walk(g: Digraph, start, steps) -> tuple:
    """Validate a walk and return (end_vertex, net_length).

    Raises ValueError when a step uses a missing edge or does not connect.
    """
    at = start
    net = 0
    for (u, v), direction in steps:
        if (u, v) not in g.edges:
            raise ValueError(f"walk uses missing edge ({u}, {v})")
        if direction == 1:
            if at != u:
                raise ValueError(f"forward step ({u}, {v}) does not start at {at}")
            at = v
        elif direction == -1:
            if at != v:
                raise ValueError(f"backward step ({u}, {v}) does not start at {at}")
            at = u
        else:
            raise ValueError(f"bad step direction {direction}")
        net += direction
    return at, net


def _invert(steps):
    return [(edge, -d) for edge, d in reversed(steps)]


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def has_algebraic_length_one(g: Digraph) -> tuple[bool, Optional[tuple]]:
    """Is there a closed walk of net length one; if so, produce one.

    A loop answers immediately.  Otherwise each weakly connected component
    gets integer potentials along a spanning tree (+1 forward, -1 backward);
    the closed-walk net lengths through the component form d*Z where d is the
    gcd of the potential discrepancies of the non-tree edges, so the answer
    is "yes" exactly when some component reaches d = 1.  The certificate is a
    concrete closed walk (start vertex, steps) assembled from fundamental
    walks of the witnessing discrepancies and replay-verified.
    """
    loop = has_loop(g)
    if loop is not None:
        cert = (loop, (((loop, loop), 1),))
        return True, cert
    edges = sorted(g.edges)
    # each vertex's neighbours with the step to each: out-steps, then in-steps
    neighbours: dict = {v: [] for v in g.vertices}
    for u, v in edges:
        neighbours[u].append((v, ((u, v), 1)))
    for u, v in edges:
        neighbours[v].append((u, ((u, v), -1)))
    potential: dict = {}  # also the set of visited vertices
    parent: dict = {}  # vertex -> (previous vertex, step); None at a root
    chords_of: dict = {}  # vertex -> its component's list of chords
    components = []  # (root, chords), in root order
    for root in g.vertices:
        if root in potential:
            continue
        chords: list = []
        components.append((root, chords))
        potential[root] = 0
        parent[root] = None
        chords_of[root] = chords
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, step in neighbours[u]:
                if v not in potential:
                    potential[v] = potential[u] + step[1]
                    parent[v] = (u, step)
                    chords_of[v] = chords
                    queue.append(v)
    # a tree edge's discrepancy is 0, so it is never a chord
    for u, v in edges:
        disc = potential[u] + 1 - potential[v]
        if disc != 0:
            chords_of[u].append(((u, v), disc))
    for root, chords in components:
        if gcd(*(disc for _, disc in chords)) != 1:
            continue

        def path_from_root(v):
            steps = []
            while parent[v] is not None:
                prev, step = parent[v]
                steps.append(step)
                v = prev
            steps.reverse()
            return steps

        # integer combination of chord discrepancies equal to one
        coeffs: dict[int, int] = {}
        g_val = 0
        for i, (_, disc) in enumerate(chords):
            g_val2, x, y = _extended_gcd(g_val, disc)
            coeffs = {j: c * x for j, c in coeffs.items()}
            coeffs[i] = y
            g_val = g_val2
            if g_val == 1:
                break
        walk: list = []
        for i, c in sorted(coeffs.items()):
            if c == 0:
                continue
            (u, v), _ = chords[i]
            fundamental = (
                path_from_root(u) + [((u, v), 1)] + _invert(path_from_root(v))
            )
            piece = fundamental if c > 0 else _invert(fundamental)
            walk.extend(piece * abs(c))
        end, net = replay_walk(g, root, walk)
        if end != root or net != 1:
            raise ConsistencyError("assembled walk failed replay")
        return True, (root, tuple(walk))
    return False, None


def build_S(rel, n: int) -> frozenset:
    """Project a relation of (n+1)-wide blocks onto its per-block scalar slots.

    The input tuples are read as k consecutive blocks, each an n-wide prefix
    followed by one scalar.  A tuple contributes the k-tuple of its scalars
    exactly when all k prefixes coincide.
    """
    if n < 1:
        raise ValueError("block prefix width n must be at least 1")
    out = set()
    for t in map(tuple, rel):
        if len(t) % (n + 1) != 0:
            raise ValueError(
                f"tuple width {len(t)} is not divisible by block width {n + 1}"
            )
        k = len(t) // (n + 1)
        blocks = [t[i * (n + 1): (i + 1) * (n + 1)] for i in range(k)]
        prefix = blocks[0][:n]
        if all(b[:n] == prefix for b in blocks):
            out.add(tuple(b[n] for b in blocks))
    return frozenset(out)


def build_G(s_tuples) -> Digraph:
    """The window-shift digraph of a tuple set.

    For tuples of width w >= 3, vertices are the (w-2)-wide windows and
    each tuple (v1, ..., vw) contributes the edge
    (v1, ..., v_{w-2}) -> (v2, ..., v_{w-1}); edge endpoints are added to
    the vertex set even when they are not prefixes themselves.
    """
    tuples = [tuple(t) for t in s_tuples]
    if not tuples:
        raise ValueError("tuple set must be nonempty")
    w = len(tuples[0])
    if any(len(t) != w for t in tuples):
        raise ValueError("tuples must have equal width")
    if w < 3:
        raise ValueError(f"tuple width must be at least 3, got {w}")
    vertices = {t[: w - 2] for t in tuples}
    edges = set()
    for t in tuples:
        edges.add((t[: w - 2], t[1: w - 1]))
    return Digraph.from_edges(edges, vertices)


def parse_digraph(text: str) -> Digraph:
    """Parse the edge-list exchange format.

    Header line "digraph <n_vertices>" declares vertices 0..n-1, then one
    "u v" pair per line.  Lines starting with "#" and blank lines are skipped.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line.split()))
    if not rows:
        raise AlgebraFormatError("empty digraph file")
    lineno, header = rows[0]
    if len(header) != 2 or header[0] != "digraph":
        raise AlgebraFormatError("expected header 'digraph <n_vertices>'", lineno)
    try:
        count = int(header[1])
    except ValueError:
        raise AlgebraFormatError(f"bad vertex count {header[1]!r}", lineno) from None
    if count < 0:
        raise AlgebraFormatError("vertex count must be nonnegative", lineno)
    edges = set()
    for lineno, parts in rows[1:]:
        if len(parts) != 2:
            raise AlgebraFormatError("expected an edge line 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise AlgebraFormatError("edge endpoints must be integers", lineno) from None
        if not (0 <= u < count and 0 <= v < count):
            raise AlgebraFormatError(
                f"edge ({u}, {v}) outside vertex range 0..{count - 1}", lineno
            )
        edges.add((u, v))
    return Digraph(vertices=tuple(range(count)), edges=frozenset(edges))


def format_digraph(g: Digraph) -> str:
    """Serialize a digraph on the vertices 0..count-1 in the exchange format.

    The format declares exactly those vertices, so any other labels would
    not parse back as the same digraph.
    """
    if any(isinstance(v, bool) or not isinstance(v, int) for v in g.vertices):
        raise ValueError("only integer-labeled digraphs can be serialized")
    count = len(set(g.vertices))
    if set(g.vertices) != set(range(count)):
        raise ValueError(
            f"only digraphs on the vertices 0..{count - 1} can be serialized"
        )
    lines = [f"digraph {count}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
