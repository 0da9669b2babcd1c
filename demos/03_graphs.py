"""
The sum-essential graph and its proper part
===========================================

Vertices of S are the nontrivial submodules; two are adjacent when their
sum is essential. N is the subgraph induced on the non-essential vertices,
and it is where the interesting shapes live.
"""

from sumess import (
    build_module,
    enumerate_lattice,
    export_dot,
    export_json,
    integer_module,
    load_spec,
    proper_sum_essential_graph,
    sum_essential_graph,
)

lat = enumerate_lattice(build_module(integer_module("z8z2", 8, 2)))
s = sum_essential_graph(lat)
n = proper_sum_essential_graph(lat)

print("S: %d vertices, %d edges" % (s.n_vertices, s.n_edges()))
print("N: %d vertices, %d edges" % (n.n_vertices, n.n_edges()))

# Degrees, keyed by the generator label of each vertex.
for v in n.vertex_ids:
    print(f"  deg {n.label_of(v):10s} = {n.degree(v)}")

print("N connected:", n.is_connected(), " diameter:", n.diameter())
print("N girth:", n.girth(), " triangle:", [n.label_of(v) for v in n.triangle()])

# Different moduli, different shapes. A 4-cycle:
lat49 = enumerate_lattice(build_module(integer_module("z4z9", 4, 9)))
n49 = proper_sum_essential_graph(lat49)
print("z4z9 N is", n49.k_regular(), "regular with girth", n49.girth())

# A star whose center is the unique neighbor of every leaf:
lat83 = enumerate_lattice(build_module(integer_module("z8z3", 8, 3)))
n83 = proper_sum_essential_graph(lat83)
center = n83.star_center()
print("z8z3 N is a star:", n83.is_star(), " center", n83.label_of(center))

# A module from a spec file. Both exports are deterministic: DOT for
# rendering, JSON for diffing.
lat43 = enumerate_lattice(build_module(load_spec("demos/specs/z4z3.modspec")))
n43 = proper_sum_essential_graph(lat43)
print()
print(export_dot(n43, "z4z3_n"))
print(export_json(n43))
