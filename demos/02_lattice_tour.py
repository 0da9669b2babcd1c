"""
A tour of the submodule lattice
===============================

Everything downstream (graphs, checkers) works off one enumeration of all
submodules, ordered by size then membership so ids are reproducible.
"""

from sumess import build_module, enumerate_lattice, integer_module

mod = build_module(integer_module("z8z2", 8, 2))
lat = enumerate_lattice(mod)

print(mod.presentation.name, "has", lat.count, "submodules")
for i in range(lat.count):
    s = lat.sub(i)
    marks = []
    if i in lat.atoms:
        marks.append("atom")
    if i in lat.coatoms:
        marks.append("coatom")
    if lat.is_essential(i):
        marks.append("essential")
    print(f"  id {i}: size {s.size:2d}  {s.label:10s}", " ".join(marks))

# Socle and radical sit at the two ends of the lattice.
print("socle id", lat.socle_id, "size", lat.sub(lat.socle_id).size)
print("radical id", lat.radical_id, "size", lat.sub(lat.radical_id).size)

# Two routes to essentiality: the fast test via the socle, and the
# definitional one quantifying over all nonzero submodules. They agree.
for i in range(lat.count):
    assert lat.is_essential(i) == lat.is_essential_definitional(i)
print("fast and definitional essential tests agree on all", lat.count, "ids")

# Join, meet, complements. A complement of U is maximal among submodules
# meeting U trivially; the join with each complement is essential.
a, b = lat.atoms[0], lat.atoms[1]
print("join of atoms", a, "and", b, "is id", lat.join(a, b))
print("complements of atom", a, ":", lat.complements_of(a))

# Uniform dimension equals the size of a maximal independent family of
# atoms; Z8 x Z2 decomposes into two uniform pieces.
print("uniform dimension", lat.uniform_dimension())
print("is chain:", lat.is_chain(), " is semisimple:", lat.is_semisimple())

# Strongly disjoint pairs get two independent verdicts: one from the
# lattice order (atoms below the sum) and an elementwise annihilator
# comparison. They must agree.
rep = lat.strongly_disjoint(a, b)
print("atoms strongly disjoint:", rep.lattice_verdict, "(routes agree:", rep.agree, ")")

# The text dump is deterministic, good for diffing runs.
print()
print(lat.dump_text())
