"""Per-module analysis bundle: module, lattice, graphs, atom classes.

Checkers and the CLI go through this object so the lattice, both graphs and
the isomorphism classes of the atoms are built once per module and shared;
S(M) and N(M) each read the lattice's one table of essential sums through
their own vertex masks. The submodule predicates read the lattice
order's bit-sets. Isomorphism tests and hom counts read the annihilator
tables on each call: the catalog seldom asks for one pair twice.
"""
from __future__ import annotations

import json
from functools import cached_property

from .errors import Caps
from .graphs import EssGraph, proper_sum_essential_graph, sum_essential_graph
from .lattice import SubmoduleLattice
from .modules import FiniteModule, ModulePresentation, _iter_bits, count_homs, is_isomorphic


class ModuleAnalysis:
    def __init__(self, presentation: ModulePresentation, caps: Caps | None = None):
        self.module = FiniteModule(presentation, caps)

    @cached_property
    def lattice(self) -> SubmoduleLattice:
        return SubmoduleLattice(self.module)

    @cached_property
    def s_graph(self) -> EssGraph:
        return sum_essential_graph(self.lattice)

    @cached_property
    def n_graph(self) -> EssGraph:
        return proper_sum_essential_graph(self.lattice)

    @property
    def is_simple_module(self) -> bool:
        return self.lattice.count == 2

    def iso(self, a: int, b: int) -> bool:
        return is_isomorphic(self.lattice.subs[a], self.lattice.subs[b])

    def homs(self, a: int, b: int) -> int:
        return count_homs(self.lattice.subs[a], self.lattice.subs[b])

    def sub_is_semisimple(self, i: int) -> bool:
        """A submodule is semisimple iff it lies in the socle, since
        soc(N) = N ∩ soc(M)."""
        return self.lattice.leq(i, self.lattice.socle_id)

    @cached_property
    def atom_iso_classes(self) -> list[list[int]]:
        """Atoms grouped by isomorphism, each class in canonical order.

        An isomorphism keeps each element's annihilator, and Rx ≅ R/Ann(x):
        two simple submodules with one annihilator class in common are
        isomorphic, so the class sets of two atoms are equal or disjoint.
        Each atom is keyed by the least class id of its nonzero members.
        """
        cls = self.module.ann_class_ids()
        classes: dict[int, list[int]] = {}
        for a in self.lattice.atoms:
            classes.setdefault(int(cls[self.lattice.subs[a].members[1:]].min()), []).append(a)
        return list(classes.values())

    @cached_property
    def n_edge_not_strongly_disjoint(self) -> tuple[int, int] | None:
        """The first edge of N(M) whose ends are not strongly disjoint (element
        route), or None: one walk over the edges, shared by the checkers."""
        lat = self.lattice
        return next(
            ((a, b) for a, b in self.n_graph.edges() if not lat.element_disjoint(a, b)),
            None,
        )

    def has_isomorphic_twin(self, a: int) -> bool:
        """True iff some other submodule of M is isomorphic to the simple
        submodule subs[a]. A submodule isomorphic to a simple one is simple,
        so the answer is whether a's class in atom_iso_classes has another
        member; a non-atom raises ValueError."""
        if not self.lattice.atom_mask >> a & 1:
            raise ValueError(f"submodule {a} is not simple")
        return any(a in cls and len(cls) > 1 for cls in self.atom_iso_classes)

    def report_dict(self) -> dict:
        """Full JSON-ready analysis report; field order fixed."""
        mod = self.module
        lat = self.lattice
        return {
            "module": {
                "name": mod.presentation.name,
                "moduli": list(mod.moduli),
                "action": mod.presentation.action.kind,
                "order": mod.n,
                "action_ring_size": mod.endo_count,
            },
            "lattice": {
                "submodule_count": lat.count,
                "atoms": list(lat.atoms),
                "coatoms": list(lat.coatoms),
                "socle": lat.socle_id,
                "radical": lat.radical_id,
                "essential_ids": list(_iter_bits(lat.up[lat.socle_id])),
                "is_semisimple": lat.is_semisimple(),
                "is_uniform": lat.is_uniform_module(),
                "uniform_dimension": lat.uniform_dimension(),
                "is_chain": lat.is_chain(),
                "labels": {str(i): lat.subs[i].label for i in range(lat.count)},
            },
            "graphs": {
                "s": self.s_graph.report().as_dict(),
                "n": self.n_graph.report().as_dict(),
            },
        }

    def report_json(self) -> str:
        return json.dumps(self.report_dict(), indent=2) + "\n"
