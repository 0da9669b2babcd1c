"""Graphs on submodule vertices, with adjacency given by essential sums.

Vertices are nontrivial submodules, addressed by their canonical lattice id.
Two distinct vertices are adjacent exactly when their sum is an essential
submodule. The full graph takes all nontrivial submodules; the proper variant
keeps only the non-essential ones.

Adjacency is one relation per lattice, held once as
SubmoduleLattice.essential_sums, a bitmask int per lattice id over lattice
ids, so graph and lattice share one index space. S(M) and N(M), S(M)
induced on the non-essential vertices, differ only in their vertex sets.
Every row is read through EssGraph.row, the table row masked to the
graph's own vertices (0 for a non-vertex), and counted once through it, at
build time, into the list deg that every degree reader reads.

Adjacency is monotone in the submodule order: if u <= u' are vertices,
u ~ v and v != u', then u' ~ v, since u' + v contains the essential u + v.
Balls therefore grow through the rows of the maximal vertices alone, and
eccentricity falls as a vertex grows, so the diameter is the largest
eccentricity of an atom: ball walks start from the atoms only.

DOT is written to a binary handle a block of rows at a time, at most
_CHUNK_BYTES unpacked bytes of adjacency per block (write_dot), so it holds
one block, not the text; export_dot returns the same bytes as a string.
"""
from __future__ import annotations

import io
import json
import math
from collections import Counter
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import HypothesisNotMet
from .lattice import SubmoduleLattice
from .modules import _iter_bits, bits_from_mask

INF = math.inf

# Unpacked bytes of adjacency per block of rows in write_dot:
# max(1, _CHUNK_BYTES // L) rows at a time
_CHUNK_BYTES = 2**16


class EssGraph:
    def __init__(self, lattice: SubmoduleLattice, kind: str):
        """S(M) (kind "s") on the nontrivial submodules or N(M) (kind "n") on
        the non-essential ones, each reading lattice.essential_sums through
        row, masked to its own vertices; the first graph builds the table."""
        if kind not in ("s", "n"):
            raise ValueError("kind must be 's' or 'n'")
        self.lattice = lattice
        self.kind = kind
        bits = lattice.down[lattice.full_id] & ~(1 << lattice.full_id | 1 << lattice.zero_id)
        if kind == "n":
            bits &= ~lattice.up[lattice.socle_id]
        self.vertex_bits = bits
        self.vertex_ids = tuple(_iter_bits(bits))
        # 1 at each vertex id; has_vertex and row test lid >= 0 first, as -1 reads the last id
        self._is_vertex = bits_from_mask(bits, lattice.count).tobytes()
        self.n_vertices = len(self.vertex_ids)
        # the coatoms in S, the maximal non-essential submodules in N
        self._top_bits = sum(1 << top for top in lattice.maximal(bits))

        self._components: int | None = None
        self._diameter: float | None = None
        self._girth: float | None = None

        self._sums = lattice.essential_sums
        self.deg = [0] * lattice.count
        for lid in self.vertex_ids:
            self.deg[lid] = self.row(lid).bit_count()

    # -- basics ---------------------------------------------------------------

    def has_vertex(self, lid: int) -> bool:
        return lid >= 0 and self._is_vertex[lid] == 1

    def row(self, lid: int) -> int:
        """Neighbours of lid as a bit-int over lattice ids, 0 for a non-vertex."""
        return self._sums[lid] & self.vertex_bits if lid >= 0 and self._is_vertex[lid] else 0

    @property
    def rows(self) -> list[int]:
        """Every row(lid), in lattice-id order, built anew on each read."""
        return [self.row(lid) for lid in range(self.lattice.count)]

    def degree(self, lid: int) -> int:
        return self.deg[lid]

    def degrees(self) -> dict[int, int]:
        return {lid: self.deg[lid] for lid in self.vertex_ids}

    def neighbors(self, lid: int) -> list[int]:
        return list(_iter_bits(self.row(lid)))

    def adjacent(self, a: int, b: int) -> bool:
        return bool(self.row(a) >> b & 1)

    def n_edges(self) -> int:
        return sum(self.deg) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for a in self.vertex_ids:
            for b in _iter_bits(self.row(a) >> (a + 1)):
                yield (a, a + 1 + b)

    # -- traversal metrics ------------------------------------------------------

    def _balls(self, lid: int) -> Iterator[int]:
        """Balls of radius 1, 2, ... around a vertex, while they grow.

        By monotonicity, a maximal vertex m above a vertex u at distance
        d >= 1 is itself at distance <= d, and every neighbor of u is m or
        a neighbor of m. So ORing in the rows of the maximal vertices
        inside a ball widens it by one.
        """
        ball = 1 << lid | self.row(lid)
        while True:
            yield ball
            grown = ball
            for top in _iter_bits(ball & self._top_bits):
                grown |= self.row(top)
            if grown == ball:
                return
            ball = grown

    def component_count(self) -> int:
        if self._components is not None:
            return self._components
        seen = 0
        parts = 0
        for lid in self.vertex_ids:
            if seen >> lid & 1:
                continue
            parts += 1
            for ball in self._balls(lid):
                pass
            seen |= ball
        self._components = parts
        return parts

    def is_connected(self) -> bool:
        return self.component_count() <= 1

    def diameter(self) -> float:
        """Max eccentricity; inf when disconnected, 0 below two vertices.

        Only the atoms that are vertices start a ball walk. Eccentricity is
        antitone in the submodule order: for vertices u <= u', a shortest
        path from u stays a walk from u' after swapping its first vertex for
        u' (monotonicity), and d(u', u) <= 2 <= ecc(u), or u' ~ u when
        ecc(u) = 1; so ecc(u') <= ecc(u). Every vertex lies above an atom
        that is itself a vertex (in N, an essential atom is the socle, and a
        submodule above it is essential), so the largest eccentricity is an
        atom's. An atom's ball that misses a vertex means disconnected.
        """
        if self._diameter is not None:
            return self._diameter
        worst = 0
        if self.n_vertices > 1:
            for lid in _iter_bits(self.vertex_bits & self.lattice.atom_mask):
                radius = 0
                for ball in self._balls(lid):
                    radius += 1
                if ball != self.vertex_bits:
                    worst = INF
                    break
                worst = max(worst, radius)
        self._diameter = worst
        return worst

    def triangle(self) -> tuple[int, int, int] | None:
        """Some triangle as lattice ids, or None."""
        for a in self.vertex_ids:
            ra = self.row(a)
            for q in _iter_bits(ra >> (a + 1)):
                b = a + 1 + q
                common = ra & self.row(b)
                if common:
                    return (a, b, next(_iter_bits(common)))
        return None

    def triangle_free(self) -> bool:
        return self.triangle() is None

    def girth(self) -> float:
        """Length of a shortest cycle, inf for forests."""
        if self._girth is not None:
            return self._girth
        self._girth = self._compute_girth()
        return self._girth

    def _compute_girth(self) -> float:
        if self.triangle() is not None:
            return 3
        # no triangles: a 4-cycle exists iff some pair shares two neighbors
        ids = self.vertex_ids
        for i, a in enumerate(ids):
            ra = self.row(a)
            for b in ids[i + 1 :]:
                if (ra & self.row(b)).bit_count() >= 2:
                    return 4
        # sparse leftover: per-edge shortest alternative path
        best = INF
        for a, b in self.edges():
            alt = self._dist_avoiding_edge(a, b)
            if alt >= 0:
                best = min(best, alt + 1)
        return best

    def _dist_avoiding_edge(self, a: int, b: int) -> int:
        frontier = 1 << a
        seen = frontier
        d = 0
        while frontier:
            nxt = 0
            for p in _iter_bits(frontier):
                r = self.row(p)
                if p == a:
                    r &= ~(1 << b)
                nxt |= r
            nxt &= ~seen
            d += 1
            if nxt >> b & 1:
                return d
            seen |= nxt
            frontier = nxt
        return -1

    # -- shape predicates -------------------------------------------------------

    def is_complete(self) -> bool:
        return len(self.universal_vertices()) == self.n_vertices

    def k_regular(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        if not self.n_vertices:
            return 0
        degs = {self.deg[lid] for lid in self.vertex_ids}
        return degs.pop() if len(degs) == 1 else None

    def is_tree(self) -> bool:
        return self.component_count() == 1 and self.n_edges() == self.n_vertices - 1

    def is_star(self) -> bool:
        """A tree with a center adjacent to everything else; K1 and K2 count."""
        return self.is_tree() and bool(self.universal_vertices())

    def star_centers(self) -> list[int]:
        return self.universal_vertices() if self.is_star() else []

    def star_center(self) -> int | None:
        """Canonically first center of a star graph, None for non-stars."""
        centers = self.star_centers()
        return centers[0] if centers else None

    def universal_vertices(self) -> list[int]:
        return [lid for lid in self.vertex_ids if self.deg[lid] == self.n_vertices - 1]

    def is_clique(self, lids: Iterable[int]) -> bool:
        lids = list(lids)
        return all(self.row(a) >> b & 1 for i, a in enumerate(lids) for b in lids[i + 1 :])

    def is_independent_set(self, lids: Iterable[int]) -> bool:
        group = 0
        for lid in lids:
            group |= 1 << lid
        return not any(self.row(lid) & group for lid in _iter_bits(group))

    def complement_components(self) -> list[list[int]]:
        """Vertex classes of the complement graph, as lattice-id lists."""
        seen = 0
        out = []
        for lid in self.vertex_ids:
            if seen >> lid & 1:
                continue
            group = 1 << lid
            frontier = group
            seen |= group
            while frontier:
                nxt = 0
                for q in _iter_bits(frontier):
                    nxt |= self.vertex_bits & ~self.row(q)
                nxt &= ~seen
                group |= nxt
                seen |= nxt
                frontier = nxt
            out.append(list(_iter_bits(group)))
        return out

    # -- reporting ---------------------------------------------------------------

    def label_of(self, lid: int) -> str:
        return self.lattice.subs[lid].label

    def report(self) -> "GraphReport":
        degs = self.degrees()
        return GraphReport(
            kind=self.kind,
            vertex_count=self.n_vertices,
            edge_count=self.n_edges(),
            degrees=degs,
            degree_histogram=dict(sorted(Counter(degs.values()).items())),
            min_degree=min(degs.values(), default=0),
            max_degree=max(degs.values(), default=0),
            n_components=self.component_count(),
            is_connected=self.is_connected(),
            diameter=self.diameter(),
            girth=self.girth(),
            is_complete=self.is_complete(),
            k_regular=self.k_regular(),
            triangle_free=self.triangle_free(),
            is_tree=self.is_tree(),
            star_center=self.star_center(),
            universal_vertices=tuple(self.universal_vertices()),
        )

    def export_dot(self, name: str | None = None) -> str:
        """The graph as DOT text (write_dot)."""
        out = io.BytesIO()
        self.write_dot(out, name)
        return out.getvalue().decode("ascii")

    def write_dot(self, fh: BinaryIO, name: str | None = None) -> None:
        """Write the graph as DOT to the binary handle fh: one labelled node
        line per vertex, then one line per edge a -- b, a < b, by ascending
        a and then b. The text is ASCII: labels are quoted JSON strings.

        Node lines and edges are written a block of vertices at a time, with
        rows x L <= _CHUNK_BYTES unpacked bytes of adjacency, so what is held
        at once is bounded by the block, not by the text. Per block, the
        rows cleared at and below their own vertex are unpacked, the edge
        ends read by one flatnonzero and gathered as the existing name
        objects (no object made per edge), and each row's edges joined into
        one bytes object.
        """
        gname = name or f"{self.kind}_graph"
        subs = self.lattice.subs
        count = self.lattice.count
        nbytes = (count + 7) // 8
        names = np.array([b"v%d" % lid for lid in range(count)], dtype=object)
        row, ids = self.row, self.vertex_ids
        block = max(1, _CHUNK_BYTES // count)
        fh.write(b"graph %s {\n" % _quoted(gname))
        for lo in range(0, len(ids), block):
            part = ids[lo : lo + block]
            fh.write(b"".join([b"  v%d [label=%s];\n" % (a, _quoted(subs[a].label)) for a in part]))
        for lo in range(0, len(ids), block):
            part = ids[lo : lo + block]
            raw = b"".join([(row(a) >> (a + 1) << (a + 1)).to_bytes(nbytes, "little") for a in part])
            bits = np.unpackbits(
                np.frombuffer(raw, dtype=np.uint8).reshape(len(part), nbytes),
                axis=1,
                count=count,
                bitorder="little",
            )
            counts = np.count_nonzero(bits, axis=1).tolist()
            ends = names[np.flatnonzero(bits) % count].tolist()
            lines = []
            pos = 0
            for a, k in zip(part, counts):
                if k:
                    head = b"  v%d -- " % a
                    lines.append(head + (b";\n" + head).join(ends[pos : pos + k]) + b";\n")
                    pos += k
            fh.write(b"".join(lines))
        fh.write(b"}\n")


def _quoted(text: str) -> bytes:
    """text as a JSON string literal, non-ASCII characters escaped."""
    return encode_basestring_ascii(text).encode("ascii")


@dataclass(frozen=True)
class GraphReport:
    kind: str
    vertex_count: int
    edge_count: int
    degrees: dict[int, int]
    degree_histogram: dict[int, int]
    min_degree: int
    max_degree: int
    n_components: int
    is_connected: bool
    diameter: float
    girth: float
    is_complete: bool
    k_regular: int | None
    triangle_free: bool
    is_tree: bool
    star_center: int | None
    universal_vertices: tuple[int, ...]

    def as_dict(self) -> dict:
        """JSON-ready dict in field order: dict keys as strings in ascending
        order, tuples as lists, inf as \"inf\"."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, dict):
                v = {str(k): x for k, x in sorted(v.items())}
            elif isinstance(v, tuple):
                v = list(v)
            elif isinstance(v, float) and math.isinf(v):
                v = "inf"
            out[f.name] = v
        return out


@dataclass(frozen=True)
class NPartiteWitness:
    """Either an n-part independent partition or an (n+1)-clique refuting it."""

    kind: str  # "partition" or "clique"
    parts: tuple[tuple[int, ...], ...] | None
    clique: tuple[int, ...] | None
    valid: bool
    detail: str


def n_partite_witness(lattice: SubmoduleLattice, s_graph: EssGraph) -> NPartiteWitness:
    """Constructive side of the n-partiteness dichotomy over the coatoms.

    Semisimple case: class vertex A into the part of the first coatom
    containing it, so a coatom's part is the vertices of its down-set that
    no earlier coatom took; parts are checked nonempty and independent.
    Otherwise the radical is nonzero and {complement-of-radical, coatoms} is
    checked to be an (n+1)-clique, which rules any n-partition out. When the
    radical is essential it has no nonzero complement, but it is then itself
    adjacent to every coatom, so it serves as the extra clique vertex.
    """
    coatoms = lattice.coatoms
    n = len(coatoms)
    if n < 2:
        raise HypothesisNotMet(f"need at least 2 maximal submodules, have {n}")
    if lattice.radical_id == lattice.zero_id:
        parts: list[tuple[int, ...]] = []
        left = s_graph.vertex_bits
        for c in coatoms:
            parts.append(tuple(_iter_bits(left & lattice.down[c])))
            left &= ~lattice.down[c]
        if left:
            return NPartiteWitness(
                "partition", None, None, False,
                f"vertex {next(_iter_bits(left))} lies in no maximal submodule",
            )
        for k, part in enumerate(parts):
            if not part:
                return NPartiteWitness(
                    "partition", None, None, False, f"part {k} empty"
                )
            if not s_graph.is_independent_set(part):
                return NPartiteWitness(
                    "partition", None, None, False, f"part {k} has an internal edge"
                )
        return NPartiteWitness("partition", tuple(parts), None, True, f"{n} independent parts")

    rad = lattice.radical_id
    if lattice.is_essential(rad):
        extra = rad
    else:
        extra = lattice.complements_of(rad)[0]
    members = (extra,) + tuple(coatoms)
    if len(set(members)) != len(members) or not all(
        s_graph.has_vertex(v) for v in members
    ):
        return NPartiteWitness("clique", None, members, False, "degenerate witness set")
    ok = s_graph.is_clique(members)
    return NPartiteWitness(
        "clique", None, members, ok,
        f"{n + 1}-clique over the maximal submodules" if ok else "witness set not a clique",
    )


def sum_essential_graph(lattice: SubmoduleLattice) -> EssGraph:
    return EssGraph(lattice, "s")


def proper_sum_essential_graph(lattice: SubmoduleLattice) -> EssGraph:
    """N(M), S(M) induced on the non-essential submodules."""
    return EssGraph(lattice, "n")


def export_dot(graph: EssGraph, name: str | None = None) -> str:
    return graph.export_dot(name)


def export_json(graph: EssGraph) -> str:
    return json.dumps(graph.report().as_dict(), indent=2) + "\n"
