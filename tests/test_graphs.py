"""Graph construction, invariants (with networkx as oracle), and exports."""
import contextlib
import hashlib
import json
import math
import sys
import tracemalloc
from dataclasses import fields

import networkx as nx
import pytest

from sumess import (
    ModuleAnalysis,
    abelian_presentations,
    build_module,
    enumerate_lattice,
    export_json,
    integer_module,
    matrix_ring_presentation,
    n_partite_witness,
    proper_sum_essential_graph,
    sum_essential_graph,
)
from sumess import graphs as graphs_module
from test_lattice import F2C2C2, T4F2, _naive_dot

INF = float("inf")


def _nx_graph(g):
    G = nx.Graph()
    G.add_nodes_from(g.vertex_ids)
    G.add_edges_from(g.edges())
    return G


def _check_degree_invariants(g, G, name):
    """The degree readers against networkx, and every report field against
    the method it reports."""
    n = G.number_of_nodes()
    degrees = dict(G.degree())
    assert g.degrees() == degrees, name
    assert g.n_edges() == G.number_of_edges(), name
    assert g.universal_vertices() == sorted(v for v, d in degrees.items() if d == n - 1), name
    assert g.k_regular() == (next(iter(degrees.values())) if nx.is_regular(G) else None), name
    assert g.is_complete() == (G.number_of_edges() == n * (n - 1) // 2), name
    assert g.is_tree() == nx.is_tree(G), name
    rep = g.report()
    assert list(rep.degree_histogram) == sorted(rep.degree_histogram), name
    assert {f.name: getattr(rep, f.name) for f in fields(rep)} == {
        "kind": g.kind,
        "vertex_count": g.n_vertices,
        "edge_count": g.n_edges(),
        "degrees": g.degrees(),
        "degree_histogram": {d: c for d, c in enumerate(nx.degree_histogram(G)) if c},
        "min_degree": min(degrees.values()),
        "max_degree": max(degrees.values()),
        "n_components": g.component_count(),
        "is_connected": g.is_connected(),
        "diameter": g.diameter(),
        "girth": g.girth(),
        "is_complete": g.is_complete(),
        "k_regular": g.k_regular(),
        "triangle_free": g.triangle_free(),
        "is_tree": g.is_tree(),
        "star_center": g.star_center(),
        "universal_vertices": tuple(g.universal_vertices()),
    }, name


def _label_degrees(az, g):
    return {az.lattice.subs[v].label: g.degree(v) for v in g.vertex_ids}


# -- frozen examples -----------------------------------------------------------------


def test_z8z2_proper_graph_frozen(z8z2):
    n = z8z2.n_graph
    assert n.n_vertices == 7
    assert n.n_edges() == 15
    assert _label_degrees(z8z2, n) == {
        "<(4,0)>": 2,
        "<(0,1)>": 6,
        "<(4,1)>": 6,
        "<(2,0)>": 3,
        "<(2,1)>": 5,
        "<(1,0)>": 4,
        "<(1,1)>": 4,
    }
    assert n.is_connected()
    assert n.diameter() == 2
    assert n.girth() == 3


def test_z8z2_full_graph_frozen(z8z2):
    s = z8z2.s_graph
    assert s.n_vertices == 9
    assert s.girth() == 3
    assert s.is_connected()
    # universal vertices of S are essential or simple
    lat = z8z2.lattice
    for v in s.universal_vertices():
        assert lat.is_essential(v) or v in lat.atoms


def test_z4z3_path(z4z3):
    n = z4z3.n_graph
    assert n.n_vertices == 3
    assert n.n_edges() == 2
    assert sorted(n.degrees().values()) == [1, 1, 2]
    assert n.is_tree()
    assert n.is_star()
    center = n.star_center()
    assert z4z3.lattice.subs[center].size == 3  # the order-3 factor
    assert n.girth() == INF


def test_z4z9_four_cycle(z4z9):
    n = z4z9.n_graph
    assert n.n_vertices == 4
    assert n.k_regular() == 2
    assert n.girth() == 4
    assert not n.is_tree()
    assert n.triangle_free()
    assert n.diameter() == 2


def test_z8z3_star(z8z3):
    n = z8z3.n_graph
    assert n.is_star()
    assert n.girth() == INF
    centers = n.star_centers()
    assert len(centers) == 1
    assert z8z3.lattice.subs[centers[0]].size == 3


def test_z2z3z5_degrees(z2z3z5):
    n = z2z3z5.n_graph
    assert sorted(n.degrees().values()) == [1, 1, 1, 3, 3, 3]
    assert n.diameter() == 3
    assert n.n_vertices == 6


def test_matrix_ring_triangle():
    lat = enumerate_lattice(build_module(matrix_ring_presentation()))
    s = sum_essential_graph(lat)
    n = proper_sum_essential_graph(lat)
    assert s.n_vertices == n.n_vertices == 3
    assert s.is_complete() and n.is_complete()
    assert s.k_regular() == 2


# -- oracles over the corpus ----------------------------------------------------------


def test_n_rows_from_s_rows_match_lattice_rows(corpus_analyses, ring_presentations):
    """N(M) read from the lattice's essential-sum table, as ModuleAnalysis
    builds it and on its own, against the definition: u ~ v iff u != v are
    non-essential nonzero submodules whose join is essential; non-vertex
    ids keep zero rows."""
    analyses = list(corpus_analyses.values())
    analyses += [ModuleAnalysis(pres) for pres, _ in ring_presentations]
    for az in analyses:
        lat, n = az.lattice, az.n_graph
        name = lat.module.presentation.name
        vertices = [
            i for i in range(lat.count)
            if i not in (lat.zero_id, lat.full_id) and not lat.is_essential(i)
        ]
        assert list(n.vertex_ids) == vertices, name
        want = [0] * lat.count
        for u in vertices:
            for v in vertices:
                if u != v and lat.is_essential(lat.join(u, v)):
                    want[u] |= 1 << v
        assert n.rows == want, name
        assert proper_sum_essential_graph(lat).rows == want, name


def test_row_is_zero_off_the_vertices(corpus_analyses):
    """row(v) is the lattice's essential-sum row masked to the graph's own
    vertices: 0 for every non-vertex (the essential ids in N), rows[v]
    everywhere, and in N S's row without the essential ids. The ids -2, -1
    and L index no submodule: has_vertex and row give False and 0 or raise
    IndexError, never another id's answer, as an unguarded lookup by
    position would."""
    for name, az in corpus_analyses.items():
        lat, s, n = az.lattice, az.s_graph, az.n_graph
        s_rows, n_rows = s.rows, n.rows
        for g, rows in ((s, s_rows), (n, n_rows)):
            for v in range(lat.count):
                assert g.row(v) == rows[v], (name, g.kind, v)
                if not g.has_vertex(v):
                    assert g.row(v) == 0, (name, g.kind, v)
            for v in (-2, -1, lat.count):
                for read, off in ((g.has_vertex, False), (g.row, 0)):
                    with contextlib.suppress(IndexError):
                        assert read(v) == off, (name, g.kind, v, read.__name__)
        for v in n.vertex_ids:
            assert n.row(v) == s.row(v) & n.vertex_bits, (name, v)
        assert n.deg == [row.bit_count() for row in n_rows], name


def test_graph_build_holds_no_rows():
    """On Z4 x Z2^5 (L = 5,276) the lattice holds the one essential-sum
    table, and a graph built after another graph of the same lattice copies
    none of it: N(M) after S(M), and S(M) after N(M) on a fresh lattice.
    Past a tenth of the table's row bytes, the build may hold 81 bytes per
    lattice id for the graph's own per-id tables: a vertex-tuple slot and
    its int (40), a degree-list slot and its int (40), and a byte of the
    vertex table (1). sys.getsizeof on CPython 3.11 gives 72.5 bytes per id
    for these three at this L, and the traced peak of either build is 75.4
    bytes per id; a second copy of the rows would add 728."""
    def traced_peak(build, lat):
        tracemalloc.start()
        try:
            graph = build(lat)
            return graph, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def z4z2_5():
        return enumerate_lattice(build_module(integer_module("z4z2^5", 4, 2, 2, 2, 2, 2)))

    lat = z4z2_5()
    sum_essential_graph(lat)
    n, n_peak = traced_peak(proper_sum_essential_graph, lat)
    fresh = z4z2_5()
    proper_sum_essential_graph(fresh)
    s, s_peak = traced_peak(sum_essential_graph, fresh)
    assert lat.count == fresh.count == 5_276
    assert (n.n_vertices, s.n_vertices) == (lat.count - 3, lat.count - 2)
    row_bytes = sum(map(sys.getsizeof, lat.essential_sums))
    bound = row_bytes / 10 + 81 * lat.count
    assert n_peak < bound and s_peak < bound, (n_peak, s_peak, bound)


def test_invariants_match_networkx(corpus_analyses):
    for name, az in corpus_analyses.items():
        for g in (az.s_graph, az.n_graph):
            if g.n_vertices == 0:
                continue
            G = _nx_graph(g)
            _check_degree_invariants(g, G, name)
            assert g.is_connected() == nx.is_connected(G), name
            assert g.component_count() == nx.number_connected_components(G), name
            if g.is_connected() and g.n_vertices > 1:
                assert g.diameter() == nx.diameter(G), name
            nx_girth = nx.girth(G)
            assert g.girth() == nx_girth, name
            tri = sum(nx.triangles(G).values()) > 0
            assert (not g.triangle_free()) == tri, name


def test_traversals_match_networkx_past_corpus(ring_presentations):
    """Order-64 groups and the nine generated families against networkx.

    No corpus graph is disconnected (thm-1.5), so the inf branch of diameter
    meets no natural case here; the comparison would still catch one.
    """
    # networkx alone takes seconds on the two largest lattices of order 64
    slow = {"z4z2z2z2z2", "z2z2z2z2z2z2"}
    order64 = [
        p for p in abelian_presentations(64) if math.prod(p.moduli) == 64 and p.name not in slow
    ]
    assert len(order64) == 9
    for pres in order64 + [p for p, _ in ring_presentations]:
        lat = enumerate_lattice(build_module(pres))
        for g in (sum_essential_graph(lat), proper_sum_essential_graph(lat)):
            if g.n_vertices == 0:
                continue
            G = _nx_graph(g)
            connected = nx.is_connected(G)
            assert g.is_connected() == connected, pres.name
            assert g.component_count() == nx.number_connected_components(G), pres.name
            assert g.diameter() == (nx.diameter(G) if connected else INF), pres.name
            assert g.girth() == nx.girth(G), pres.name
            _check_degree_invariants(g, G, pres.name)


def test_adjacency_is_essential_sum(corpus_analyses):
    for name in ("z8z2", "z4z9", "z2z2z3", "m2f2"):
        az = corpus_analyses[name]
        lat = az.lattice
        for g in (az.s_graph, az.n_graph):
            for a in g.vertex_ids:
                for b in g.vertex_ids:
                    if a == b:
                        continue
                    assert g.adjacent(a, b) == lat.is_essential(lat.join(a, b))


def test_proper_graph_is_induced_subgraph(corpus_analyses):
    for name, az in corpus_analyses.items():
        lat, s, n = az.lattice, az.s_graph, az.n_graph
        expect_vertices = [v for v in s.vertex_ids if not lat.is_essential(v)]
        assert list(n.vertex_ids) == expect_vertices, name
        keep = set(expect_vertices)
        expect_edges = {(a, b) for a, b in s.edges() if a in keep and b in keep}
        assert set(n.edges()) == expect_edges, name


def test_degree_monotone_under_containment(corpus_analyses):
    """A submodule's graph neighborhood only grows when the submodule grows.

    For vertices x <= a: x ~ v and v != a imply a ~ v. This is what lets
    `EssGraph` grow balls through the rows of the maximal vertices alone.
    """
    for name in ("z8z2", "z2z3z5", "z4z9", "z2z2z3", "z2z2z2", "m2f2"):
        az = corpus_analyses[name]
        lat = az.lattice
        for g in (az.s_graph, az.n_graph):
            for x in g.vertex_ids:
                for a in g.vertex_ids:
                    if x != a and lat.leq(x, a):
                        nx_, na = set(g.neighbors(x)), set(g.neighbors(a))
                        assert nx_ - {a} <= na | {x}


def _bfs_eccentricities(g):
    """Eccentricity of every vertex, by a breadth-first search from each.

    Each level is the OR of the rows of every vertex in the one before; inf
    for a vertex that does not reach them all.
    """
    ecc = {}
    for v in g.vertex_ids:
        seen = frontier = 1 << v
        depth = 0
        while True:
            level = 0
            for u in g.vertex_ids:
                if frontier >> u & 1:
                    level |= g.row(u)
            level &= ~seen
            if not level:
                break
            seen |= level
            frontier = level
            depth += 1
        ecc[v] = depth if seen == g.vertex_bits else INF
    return ecc


def test_diameter_matches_all_vertex_bfs(corpus_analyses):
    """diameter, walked from the atoms only, against a BFS from every vertex.

    Covers every S and N graph of the default corpus and of Z4 x Z2^4
    (L = 681), which the networkx comparison skips as too slow.
    """
    lattices = [az.lattice for az in corpus_analyses.values()]
    lattices.append(enumerate_lattice(build_module(integer_module("z4z2^4", 4, 2, 2, 2, 2))))
    for lat in lattices:
        for g in (sum_essential_graph(lat), proper_sum_essential_graph(lat)):
            ecc = _bfs_eccentricities(g)
            want = max(ecc.values()) if g.n_vertices > 1 else 0
            assert g.diameter() == want, (lat.module.presentation.name, g.kind)


def test_eccentricity_antitone_under_containment(corpus_analyses):
    """For vertices u <= u', ecc(u') <= ecc(u): why atoms give the diameter."""
    for name in ("z8z2", "z2z3z5", "z4z9", "z2z2z3", "z2z2z2", "m2f2"):
        az = corpus_analyses[name]
        lat = az.lattice
        for g in (az.s_graph, az.n_graph):
            ecc = _bfs_eccentricities(g)
            for u in g.vertex_ids:
                for w in g.vertex_ids:
                    if lat.leq(u, w):
                        assert ecc[w] <= ecc[u], (name, g.kind, u, w)


# -- searches -------------------------------------------------------------------------


def test_triangle_returns_real_triangle(z8z2):
    n = z8z2.n_graph
    t = n.triangle()
    assert t is not None
    a, b, c = t
    assert n.adjacent(a, b) and n.adjacent(b, c) and n.adjacent(a, c)


def test_npartite_witness_semisimple(corpus_analyses):
    az = corpus_analyses["z2z2z3"]
    w = n_partite_witness(az.lattice, az.s_graph)
    assert w.kind == "partition"
    assert w.valid
    assert len(w.parts) == len(az.lattice.coatoms)


def test_npartite_witness_clique(z8z2):
    w = n_partite_witness(z8z2.lattice, z8z2.s_graph)
    assert w.kind == "clique"
    assert w.valid
    assert len(w.clique) == len(z8z2.lattice.coatoms) + 1


# -- exports --------------------------------------------------------------------------


def test_dot_deterministic_and_wellformed(z8z2):
    s = z8z2.s_graph
    d1 = s.export_dot("z8z2_s")
    d2 = s.export_dot("z8z2_s")
    assert d1 == d2
    assert d1.startswith("graph ")
    assert d1.count(" -- ") == s.n_edges()
    assert d1.count("label=") == s.n_vertices


@pytest.mark.parametrize(
    "pres",
    [
        integer_module("z4z2z2z2z2", 4, 2, 2, 2, 2),
        integer_module("z2z2z2z2z2", 2, 2, 2, 2, 2),
        T4F2,
        F2C2C2,
    ],
    ids=lambda pres: pres.name,
)
def test_dot_row_blocks_match_one_row_at_a_time(pres, monkeypatch):
    """DOT text made a block of rows at a time, against one row per block
    and against the naive per-edge writer."""
    az = ModuleAnalysis(pres)
    graphs = (az.s_graph, az.n_graph)
    blocked = [g.export_dot(pres.name) for g in graphs]
    if pres.name == "z4z2z2z2z2":
        block = max(1, graphs_module._CHUNK_BYTES // az.lattice.count)
        assert az.lattice.count == 681 and az.s_graph.n_vertices > 5 * block
    monkeypatch.setattr(graphs_module, "_CHUNK_BYTES", 1)
    for g, text in zip(graphs, blocked):
        assert g.export_dot(pres.name) == text, g.kind
        assert text == _naive_dot(g, pres.name), g.kind


def _decoded_label(sub):
    """The label with every generator decoded and formatted on each call."""
    if sub.is_zero:
        return "0"
    if sub.is_full:
        return "M"
    parts = []
    for g in sub.gens:
        coords = sub.module.decode(g)
        parts.append("(" + ",".join(str(c) for c in coords) + ")")
    return "<" + ",".join(parts) + ">"


def test_label_matches_decoded_generators(corpus_analyses, ring_presentations):
    """Cached labels from per-element texts, for lattice and ad-hoc submodules."""
    lattices = [az.lattice for az in corpus_analyses.values()]
    lattices += [enumerate_lattice(build_module(pres)) for pres, _ in ring_presentations]
    for lat in lattices:
        mod = lat.module
        ad_hoc = [mod.submodule_from_mask(s.mask) for s in lat.subs]
        ad_hoc += [mod.cyclic_submodule(x) for x in range(mod.n)]
        for sub in lat.subs + ad_hoc:
            want = _decoded_label(sub)
            assert sub.label == want, (mod.presentation.name, sub.mask)


class _DigestSink:
    """A binary handle that keeps only a running digest of what is written."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, data):
        self.digest.update(data)


def test_export_dot_peak_memory(corpus_analyses, monkeypatch):
    """write_dot streams the DOT text a block of rows at a time: the bytes
    it writes are export_dot's text, and its traced peak is bounded by the
    block size and L, not by the size of the text."""
    g = corpus_analyses["z2z2z2z2z2"].s_graph
    text = g.export_dot("z2z2z2z2z2_s")  # labels made
    monkeypatch.setattr(graphs_module, "_CHUNK_BYTES", 2**12)
    bound = 32 * graphs_module._CHUNK_BYTES + 64 * g.lattice.count
    assert bound < len(text) / 2, (bound, len(text))
    sink = _DigestSink()
    tracemalloc.start()
    try:
        g.write_dot(sink, "z2z2z2z2z2_s")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.digest.digest() == hashlib.sha256(text.encode("ascii")).digest()
    assert peak <= bound, (peak, bound)


def test_json_report_roundtrip(z4z3):
    n = z4z3.n_graph
    data = json.loads(export_json(n))
    assert data["vertex_count"] == 3
    assert data["edge_count"] == 2
    assert data["girth"] == "inf"
    assert data["is_tree"] is True
    s = json.loads(export_json(z4z3.s_graph))
    assert s["kind"] == "s"


def test_report_histogram(z2z3z5):
    rep = z2z3z5.n_graph.report()
    assert rep.degree_histogram == {1: 3, 3: 3}
    assert rep.min_degree == 1
    assert rep.max_degree == 3
