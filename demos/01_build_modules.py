"""
Building finite modules and poking at their elements
====================================================

A module here is a finite abelian group given by its moduli, plus a scalar
action: either the integers acting coordinatewise, or a set of generator
matrices whose closure under sum and composition forms the action ring.
"""

from sumess import build_module, integer_module, load_spec, count_homs, is_isomorphic

# The quickest route: name the moduli.
pres = integer_module("z8z2", 8, 2)
mod = build_module(pres)
print("module", mod.presentation.name, "order", mod.n)
print("moduli", mod.moduli, "action ring size", mod.endo_count)

# Elements are coordinate tuples; indices run in mixed-radix order.
x = mod.encode((4, 1))
print("element (4, 1) has index", x, "and decodes back to", mod.decode(x))

# The annihilator of an element collects every endomorphism killing it.
# Its size times the size of the element's orbit is the action ring size.
ann = mod.annihilator(mod.element((4, 1)))
print("|ann (4,1)| =", len(ann), "of", mod.endo_count, "endomorphisms")

# Cyclic submodules come from single elements.
c = mod.cyclic_submodule(mod.element((2, 0)))
print("cyclic <(2,0)> has", c.size, "elements, label", c.label)

# Hom counting from a cyclic submodule. For cyclic groups the count is a gcd,
# which makes a handy external check.
z12 = build_module(integer_module("z12", 12))
a = z12.cyclic_submodule(z12.element((4,)))   # copy of Z3
b = z12.cyclic_submodule(z12.element((2,)))   # copy of Z6
print("homs Z3 -> Z6:", count_homs(a, b), "(gcd(3, 6) = 3)")

# Isomorphism testing powers the twin detection used by the degree-one
# characterization checks.
u = mod.cyclic_submodule(mod.element((4, 0)))
v = mod.cyclic_submodule(mod.element((0, 1)))
print("<(4,0)> iso <(0,1)>:", is_isomorphic(u, v))

# The same module can come from a description file.
from_file = build_module(load_spec("demos/specs/z8z2.modspec"))
print("from file:", from_file.presentation.name, "order", from_file.n)
