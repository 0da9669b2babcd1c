"""Submodule lattice enumeration and lattice-theoretic predicates.

Enumeration works by cyclic steps. Every submodule is a sum of cyclic
submodules, so starting from {0} and joining each submodule found with each
distinct nonzero cyclic submodule reaches the whole lattice. All the sums
S + C of one submodule S are found at once, by a gather of S's bit-vector
through the addition table and an OR over each cyclic's rows. The work list
is taken as a frontier of B submodules at a time, B = max(1, 2^18 // n^2),
so one chunk costs a few numpy calls and no array exceeds max(2^18, n^2)
bytes. The cyclic submodules of all elements come from one scatter of the
action ring's tables (FiniteModule.cyclic_masks). Submodules are ordered
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

The labels come from the same order. The generating set of subs[i]
(modules.irredundant_gens) holds each span as a lattice id and grows it by
joining cyclic_ids[x], the id of the cyclic submodule of x, so a label
costs a few bit operations per generator and no sum of elements. The
submodules read these tables through a JoinIndex, which holds no
Submodule, so lattice and submodules form no reference cycle.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import Caps, LatticeCapExceeded
from .modules import (
    FiniteModule,
    Submodule,
    indices_from_mask,
    irredundant_gens,
)

# Bytes of boolean work per frontier chunk: B = max(1, _CHUNK_BYTES // n^2)
# submodules at a time, one at the 512-element cap
_CHUNK_BYTES = 2**18


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


def _cyclic_blocks(mod: FiniteModule, cyclics: list[int]):
    """Split the cyclics into blocks of at most 8n members in all.

    Each block is (lo, hi, rows, starts): rows lists the members of
    cyclics[lo:hi], one cyclic after the other, and starts holds the first
    row of each cyclic.
    """
    n = mod.n
    groups: list[list[int]] = [[]]
    size = 0
    for c in cyclics:
        if groups[-1] and size + c.bit_count() > 8 * n:
            groups.append([])
            size = 0
        groups[-1].append(c)
        size += c.bit_count()
    blocks = []
    lo = 0
    for group in groups:
        members = [indices_from_mask(c, n) for c in group]
        starts = np.cumsum([0] + [len(m) for m in members[:-1]])
        blocks.append((lo, lo + len(group), np.concatenate(members), starts))
        lo += len(group)
    return blocks


class JoinIndex:
    """What the generating sets of a lattice's submodules read of it.

    up, the masks and cyclic_ids, by lattice id, and zero_id. It holds no
    Submodule, so each submodule can keep it (Submodule.joins) without a
    reference cycle back through the lattice.
    """

    __slots__ = ("up", "masks", "cyclic_ids", "zero_id")

    def __init__(self, up: list[int], masks: list[int], cyclic_ids: list[int], zero_id: int):
        self.up = up
        self.masks = masks
        self.cyclic_ids = cyclic_ids
        self.zero_id = zero_id

    def gens_of(self, i: int) -> tuple[int, ...]:
        """Irredundant generating set of submodule i, spans held as lattice ids."""
        up, cyclic = self.up, self.cyclic_ids
        return irredundant_gens(
            self.masks[i],
            self.zero_id,
            lambda span, x: _low_bit(up[span] & up[cyclic[x]]),
            self.masks.__getitem__,
        )


class SubmoduleLattice:
    def __init__(self, module: FiniteModule, caps: Caps | None = None):
        self.module = module
        self.caps = caps or module.caps
        self._index_structure(self._enumerate())
        joins = JoinIndex(self.up, [s.mask for s in self.subs], self.cyclic_ids, self.zero_id)
        for s in self.subs:
            s.joins = joins
        self._complement_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        self._class_set_cache: dict[int, frozenset[int]] = {}

    # -- enumeration ---------------------------------------------------------

    def _enumerate(self) -> tuple[np.ndarray, np.ndarray]:
        """Find every submodule; return the steps S -> S + C taken, as id arrays.

        y lies in S + C iff y + c lies in S for some c in C (C = -C). So
        one gather of S's bit-vector through add gives every translate S - y
        as a packed row, and OR-ing the rows of the members of each cyclic C
        gives all the sums S + C at once; the distinct ones other than S are
        the steps from S. The work list is taken B submodules at a time, with
        B = max(1, _CHUNK_BYTES // n^2) fixed by n alone: one unpack, one
        gather and one pack per chunk, then one reduceat per block of
        cyclics of at most 8n rows. So no array made here is larger than
        max(_CHUNK_BYTES, n^2) bytes, which at the 512-element cap is n^2,
        a quarter of add. Sums stay bytes until they are new: one set of
        byte strings per submodule dedupes its sums, and one dict for the
        whole build gives each distinct submodule its discovery index.
        """
        mod = self.module
        n = mod.n
        per_element = mod.cyclic_masks()
        cyclics = list(dict.fromkeys(per_element[1:]))
        blocks = _cyclic_blocks(mod, cyclics)
        nbytes = (n + 7) // 8
        chunk = max(1, _CHUNK_BYTES // (n * n))
        ncyc = len(cyclics)
        sums = np.empty((chunk, ncyc, nbytes), dtype=np.uint8)
        width = ncyc * nbytes
        cuts = [slice(k, k + nbytes) for k in range(0, width, nbytes)]
        keys = [(1).to_bytes(nbytes, "little")]  # submodules in discovery order
        index = {keys[0]: 0}
        sources, targets = array("i"), array("i")  # steps, as discovery indices
        pos = 0
        while pos < len(keys):
            part = keys[pos : pos + chunk]
            b = len(part)
            raw = np.frombuffer(b"".join(part), dtype=np.uint8).reshape(b, nbytes)
            bits = np.unpackbits(raw, axis=1, count=n, bitorder="little").view(bool)
            translates = np.packbits(
                bits[:, mod.add].reshape(b * n, n), axis=1, bitorder="little"
            ).reshape(b, n, nbytes)
            for lo, hi, rows, starts in blocks:
                np.bitwise_or.reduceat(
                    translates[:, rows], starts, axis=1, out=sums[:b, lo:hi]
                )
            packed = sums[:b].tobytes()
            for k, key in enumerate(part):
                row = packed[k * width : (k + 1) * width]
                found = set(map(row.__getitem__, cuts))
                found.discard(key)
                for f in found:
                    j = index.get(f)
                    if j is None:
                        if len(keys) >= self.caps.max_lattice:
                            raise LatticeCapExceeded(
                                f"lattice exceeds cap {self.caps.max_lattice}"
                            )
                        j = index[f] = len(keys)
                        keys.append(f)
                    sources.append(pos + k)
                    targets.append(j)
            pos += b

        masks = [int.from_bytes(key, "little") for key in keys]
        # for masks of one size, ascending member tuples are descending
        # bit-reversed masks
        ordered = sorted(
            masks, key=lambda m: (m.bit_count(), -int(format(m, f"0{n}b")[::-1], 2))
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
        # cyclic_ids[x]: the id of the cyclic submodule generated by x
        self.cyclic_ids = [ids[m] for m in per_element]
        id_of = np.array([ids[m] for m in masks], dtype=np.intc)
        return id_of[np.frombuffer(sources, np.intc)], id_of[np.frombuffer(targets, np.intc)]

    def _index_structure(self, steps: tuple[np.ndarray, np.ndarray]) -> None:
        L = self.count
        sources, targets = steps
        # a step always goes to a strictly larger submodule, so a higher id:
        # closing down-sets in ascending target order and up-sets in
        # descending source order reads only finished sets
        down = [1 << i for i in range(L)]
        up = list(down)
        order = np.argsort(targets)
        for a, b in zip(memoryview(sources[order]), memoryview(targets[order])):
            down[b] |= down[a]
        order = np.argsort(sources)[::-1]
        for a, b in zip(memoryview(sources[order]), memoryview(targets[order])):
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
        self._inessential_tops = sum(
            1 << w for w in self.maximal(down[self.full_id] & ~up[self.socle_id])
        )

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

    def inessential_sums(self, i: int) -> int:
        """Ids j with subs[i] + subs[j] not essential, as a bit-int.

        The sum is not essential iff it lies below a maximal non-essential
        submodule w, that is iff both i and j lie below such a w.
        """
        out = 0
        for w in _iter_bits(self.up[i] & self._inessential_tops):
            out |= self.down[w]
        return out

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

    def meeting(self, i: int) -> int:
        """Ids of the submodules meeting subs[i] nontrivially, as a bit-int.

        A nonzero intersection holds an atom, so these are the up-sets of
        the atoms below i.
        """
        out = 0
        for a in _iter_bits(self.down[i] & self.atom_mask):
            out |= self.up[a]
        return out

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
        result = tuple(self.maximal(self.down[ambient] & ~self.meeting(i)))
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
