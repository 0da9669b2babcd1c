"""Submodule lattice enumeration and lattice-theoretic predicates.

Enumeration works by cyclic steps. Every submodule is a sum of cyclic
submodules, so starting from {0} and joining each submodule found with each
distinct nonzero cyclic submodule it does not already contain reaches the
whole lattice, with about L x #cyclics joins. Submodules are ordered
canonically by (cardinality, member tuple) and addressed by their position
in that order (canonical_id).

The order is stored once, as two bit-ints per canonical id: down[i] has bit
j set iff subs[j] <= subs[i], and up[i] has bit j set iff subs[i] <= subs[j].
Each step S -> S + C of the enumeration is recorded, and every containment
S <= T is a chain of such steps (add the cyclics of T one at a time), so
the two sets are the transitive closure of the steps. Ids ascend with size,
so the join of i and j is the lowest set bit of up[i] & up[j] and their
meet the highest set bit of down[i] & down[j]; the other queries are a few
bit operations each (Ait-Kaci, Boyer, Lincoln and Nasr, "Efficient
implementation of lattice operations", ACM TOPLAS 11(1), 1989).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import Caps, LatticeCapExceeded
from .modules import FiniteModule, Submodule, indices_from_mask


@dataclass(frozen=True)
class StronglyDisjointReport:
    """Two independent verdicts for one pair of submodules.

    lattice_verdict: trivial intersection, and every nonzero submodule of the
    sum meets one of the two.
    element_verdict: no nonzero a in A and b in B share an annihilator.
    The two are provably equivalent; their agreement is asserted by the test
    suite, never assumed by construction.
    """

    a_id: int
    b_id: int
    lattice_verdict: bool
    element_verdict: bool

    @property
    def agree(self) -> bool:
        return self.lattice_verdict == self.element_verdict


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SubmoduleLattice:
    def __init__(self, module: FiniteModule, caps: Caps | None = None):
        self.module = module
        self.caps = caps or module.caps
        self._index_structure(self._enumerate())
        self._complement_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        self._class_set_cache: dict[int, frozenset[int]] = {}

    # -- enumeration ---------------------------------------------------------

    def _enumerate(self) -> list[tuple[int, int]]:
        """Find every submodule; return the steps S -> S + C taken, as id pairs."""
        mod = self.module
        cyclics = list(dict.fromkeys(mod.cyclic_mask(x) for x in range(1, mod.n)))
        masks: dict[int, None] = {1: None}
        work = [1]
        steps: list[tuple[int, int]] = []
        for m in work:
            for j in {mod.join_masks(m, c) for c in cyclics if c & m != c}:
                steps.append((m, j))
                if j not in masks:
                    if len(masks) >= self.caps.max_lattice:
                        raise LatticeCapExceeded(
                            f"lattice exceeds cap {self.caps.max_lattice}"
                        )
                    masks[j] = None
                    work.append(j)

        ordered = sorted(
            masks, key=lambda m: (m.bit_count(), tuple(indices_from_mask(m, mod.n)))
        )
        self.subs: list[Submodule] = []
        self.id_of_mask: dict[int, int] = {}
        for i, m in enumerate(ordered):
            s = Submodule(mod, m)
            s.canonical_id = i
            self.subs.append(s)
            self.id_of_mask[m] = i
        self.count = len(self.subs)
        self.zero_id = self.id_of_mask[1]
        self.full_id = self.id_of_mask[(1 << mod.n) - 1]
        ids = self.id_of_mask
        return [(ids[a], ids[b]) for a, b in steps]

    def _index_structure(self, steps: list[tuple[int, int]]) -> None:
        L = self.count
        # a step always goes to a strictly larger submodule, so a higher id:
        # closing down-sets in ascending target order and up-sets in
        # descending source order reads only finished sets
        down = [1 << i for i in range(L)]
        up = list(down)
        steps.sort(key=lambda s: s[1])
        for a, b in steps:
            down[b] |= down[a]
        steps.sort(key=lambda s: s[0], reverse=True)
        for a, b in steps:
            up[a] |= up[b]
        self.down = down
        self.up = up

        zero_bit = 1 << self.zero_id
        full_bit = 1 << self.full_id
        self.atoms = tuple(i for i in range(L) if down[i] & ~zero_bit == 1 << i)
        self.coatoms = tuple(i for i in range(L) if up[i] & ~full_bit == 1 << i)
        self.atom_mask = sum(1 << a for a in self.atoms)

        above_atoms = up[self.zero_id]
        for a in self.atoms:
            above_atoms &= up[a]
        self.socle_id = _low_bit(above_atoms)
        below_coatoms = down[self.full_id]
        for c in self.coatoms:
            below_coatoms &= down[c]
        self.radical_id = below_coatoms.bit_length() - 1

    # -- basic access --------------------------------------------------------

    def sub(self, i: int) -> Submodule:
        return self.subs[i]

    def join(self, i: int, j: int) -> int:
        return _low_bit(self.up[i] & self.up[j])

    def meet(self, i: int, j: int) -> int:
        return (self.down[i] & self.down[j]).bit_length() - 1

    def leq(self, i: int, j: int) -> bool:
        return bool(self.down[j] >> i & 1)

    def nontrivial_ids(self) -> list[int]:
        return list(range(self.zero_id + 1, self.full_id))

    # -- essentiality --------------------------------------------------------

    def is_essential(self, i: int) -> bool:
        """Fast path: essential iff the submodule contains the socle."""
        return bool(self.up[self.socle_id] >> i & 1)

    def is_essential_definitional(self, i: int) -> bool:
        """Quantifier form: meets every nonzero submodule nontrivially."""
        mi = self.subs[i].mask
        for s in self.subs:
            if not s.is_zero and (mi & s.mask) == 1:
                return False
        return True

    # -- predicates ----------------------------------------------------------

    def is_semisimple(self) -> bool:
        return self.socle_id == self.full_id

    def atoms_below(self, i: int) -> list[int]:
        return list(_iter_bits(self.down[i] & self.atom_mask))

    def is_uniform(self, i: int) -> bool:
        """Nonzero with exactly one atom below: any two nonzero submodules meet."""
        return (self.down[i] & self.atom_mask).bit_count() == 1

    def is_uniform_module(self) -> bool:
        return self.is_uniform(self.full_id)

    def uniform_dimension(self) -> int:
        picked = self._independent_atom_family()
        return len(picked)

    def _independent_atom_family(self) -> list[int]:
        """Greedy maximal family of atoms with pairwise-direct join.

        Choice-independent: the direct join of any maximal family is the
        socle, so the product of the sizes always equals |socle| (checked).
        """
        picked: list[int] = []
        acc = self.zero_id
        for a in self.atoms:
            if not self.leq(a, acc):
                picked.append(a)
                acc = self.join(acc, a)
        sizes = prod(self.subs[a].size for a in picked) if picked else 1
        if sizes != self.subs[self.socle_id].size:
            raise AssertionError("independent family does not span the socle")
        return picked

    def is_chain(self) -> bool:
        # ids ascend with size, so a chain has down[i] = {0, ..., i}
        return all(d == (2 << i) - 1 for i, d in enumerate(self.down))

    def maximal(self, downset: int) -> list[int]:
        """Maximal elements of a set of ids, ascending.

        The highest id left is maximal: anything above it has a higher id
        and has been taken, along with everything below it.
        """
        out = []
        while downset:
            top = downset.bit_length() - 1
            out.append(top)
            downset &= ~self.down[top]
        return out[::-1]

    # -- complements ---------------------------------------------------------

    def complements_within(self, i: int, ambient: int) -> tuple[int, ...]:
        """Maximal submodules of `ambient` meeting subs[i] trivially.

        Canonically ordered. The join of subs[i] with each complement is an
        essential submodule of the ambient (checked).
        """
        key = (i, ambient)
        cached = self._complement_cache.get(key)
        if cached is not None:
            return cached
        # a submodule meets subs[i] trivially iff it contains no atom below i
        meeting = 0
        for a in _iter_bits(self.down[i] & self.atom_mask):
            meeting |= self.up[a]
        result = tuple(self.maximal(self.down[ambient] & ~meeting))
        ambient_atoms = self.down[ambient] & self.atom_mask
        for c in result:
            if ambient_atoms & ~self.down[self.join(i, c)]:
                raise AssertionError("complement join not essential")
        self._complement_cache[key] = result
        return result

    def complements_of(self, i: int) -> tuple[int, ...]:
        return self.complements_within(i, self.full_id)

    # -- strongly disjoint ----------------------------------------------------

    def _ann_class_set(self, i: int) -> frozenset[int]:
        cached = self._class_set_cache.get(i)
        if cached is None:
            cls = self.module.ann_class_ids()
            cached = frozenset(int(cls[x]) for x in self.subs[i].members if x != 0)
            self._class_set_cache[i] = cached
        return cached

    def element_disjoint(self, i: int, j: int) -> bool:
        """No nonzero element of one has the same annihilator as one of the other."""
        return not (self._ann_class_set(i) & self._ann_class_set(j))

    def strongly_disjoint(self, i: int, j: int) -> StronglyDisjointReport:
        # a nonzero submodule of the sum missing both holds an atom missing both
        down = self.down
        lattice_ok = self.meet(i, j) == self.zero_id and not (
            down[self.join(i, j)] & self.atom_mask & ~down[i] & ~down[j]
        )
        return StronglyDisjointReport(i, j, lattice_ok, self.element_disjoint(i, j))

    # -- text dump -------------------------------------------------------------

    def lower_covers(self, i: int) -> list[int]:
        return self.maximal(self.down[i] & ~(1 << i))

    def dump_text(self) -> str:
        lines = []
        for i, s in enumerate(self.subs):
            covers = ",".join(str(c) for c in self.lower_covers(i))
            lines.append(f"id={i} size={s.size} gens={s.label} covers=[{covers}]")
        return "\n".join(lines) + "\n"


def enumerate_lattice(module: FiniteModule, caps: Caps | None = None) -> SubmoduleLattice:
    return SubmoduleLattice(module, caps)
