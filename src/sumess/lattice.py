"""Submodule lattice enumeration and lattice-theoretic predicates.

Enumeration works by cyclic steps. Every submodule is a sum of cyclic
submodules, so starting from {0} and joining each submodule found with each
distinct nonzero cyclic submodule reaches the whole lattice. S + Rx depends
only on the coset x + S, so each submodule S makes one sum per coset of S
that holds a generator of some cyclic, at most min(#cyclics, [M:S]) - 1
sums, and none for cyclics already inside S. Cosets are named by their
least elements, one minimum.reduceat over the addition rows of S's members
names them all, and a sum is the union of the cosets its cyclic's members
meet. The work list is taken as a frontier of B submodules at a time,
B = max(1, 2^18 // n^2), and the sums of a chunk in blocks, so one chunk
costs a few numpy calls and no array exceeds about max(2^18, n^2) entries.
The cyclic submodules of all elements come from one scatter of the action
ring's tables (FiniteModule.cyclic_masks). Submodules are ordered
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
implementation of lattice operations", ACM TOPLAS 11(1), 1989). Both
graphs read one relation of the lattice, u ~ v iff u + v is essential, held
once as essential_sums, a bit-int row per id built on first read.

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
from functools import cached_property, reduce
from math import prod

import numpy as np

from .errors import LatticeCapExceeded
from .modules import FiniteModule, Submodule, _iter_bits, irredundant_gens

# Work per frontier chunk: B = max(1, _CHUNK_BYTES // n^2) submodules at a
# time, one at the 512-element cap, and their sums in blocks of
# max(1, _CHUNK_BYTES // (8 (n + w))), w the size of the largest cyclic
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
    def __init__(self, module: FiniteModule):
        self.module = module
        self._index_structure(self._enumerate())
        joins = JoinIndex(self.up, [s.mask for s in self.subs], self.cyclic_ids, self.zero_id)
        for s in self.subs:
            s.joins = joins
        self._complement_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    # -- enumeration ---------------------------------------------------------

    def _enumerate(self) -> tuple[np.ndarray, np.ndarray]:
        """Find every submodule; return the steps S -> S + C taken, as id arrays.

        S + Rx depends only on the coset x + S, and it is the union of the
        cosets that the members of Rx meet. A coset is named by its least
        element, so per submodule S one row cmin[y] = min(S + y), a
        minimum.reduceat over the rows add[s], s in S, names every coset.
        Each distinct cyclic has one generator; per S, one generator is
        kept for each coset other than S that some generator lies in, so S
        makes at most min(#cyclics, [M:S]) - 1 sums. A sum's bit row is
        hit[cmin], where hit marks the cosets named by cmin at the members
        of the cyclic, read from a member table padded with 0 (0 lies in
        every cyclic, and its coset S in every sum).

        The work list is taken B = max(1, _CHUNK_BYTES // n^2) submodules at
        a time, and the sums of a chunk max(1, _CHUNK_BYTES // (8 (n + w)))
        at a time, w the width of the member table. At the 512-element cap
        that is one submodule, whose add rows take at most n^2 ints. Sums
        stay bytes (trailing zero bytes dropped) until they are new: one
        dict for the whole build gives each distinct submodule its
        discovery index. Two cosets can still give one sum, so a step may
        be recorded twice; _index_structure drops the repeats.
        """
        mod = self.module
        n, add, cap = mod.n, mod.add, mod.caps.max_lattice
        per_element = mod.cyclic_masks()
        nbytes = (n + 7) // 8
        mask_bytes = np.dtype(f"S{nbytes}")  # trailing zero bytes dropped on reading
        # the least generator of each distinct nonzero cyclic
        first = dict(zip(reversed(per_element), range(n - 1, -1, -1)))
        del first[1]
        gens = np.array(list(first.values()), dtype=np.intp)
        ncyc = len(gens)
        # table[i]: the members of the cyclic of gens[i], ascending and
        # padded in front with 0 to the width w of the largest cyclic
        table = np.where(
            np.unpackbits(
                np.array([c.to_bytes(nbytes, "little") for c in first], dtype=mask_bytes)
                .view(np.uint8)
                .reshape(ncyc, nbytes),
                axis=1,
                count=n,
                bitorder="little",
            ),
            np.arange(n, dtype=np.min_scalar_type(n)),
            0,
        )
        table.sort(axis=1)
        w = max(map(int.bit_count, first))
        table = table[:, n - w :]
        chunk = max(1, _CHUNK_BYTES // (n * n))
        block = max(1, _CHUNK_BYTES // (8 * (n + w)))
        cyc_ids = np.arange(ncyc)
        keys = [b"\x01"]  # submodules in discovery order
        index = {keys[0]: 0}
        sources, targets = [], array("i")  # steps, as discovery indices
        pos = 0
        while pos < len(keys):
            part = keys[pos : pos + chunk]
            b = len(part)
            bits = np.unpackbits(
                np.array(part, dtype=mask_bytes).view(np.uint8).reshape(b, nbytes),
                axis=1,
                count=n,
                bitorder="little",
            )
            inside = bits.nonzero()[1]  # the members of each S in turn, 0 first
            cmin = np.minimum.reduceat(add[inside], (inside == 0).nonzero()[0], axis=0)
            # owner[S * n + c]: a generator in the coset named c, else ncyc
            # (of several, the scatter keeps any: they give one sum); arrays
            # of rows are flat, row r starting at r * n
            owner = np.full(b * n, ncyc)
            owner[np.arange(0, b * n, n)[:, None] + cmin.take(gens, axis=1)] = cyc_ids
            owner[::n] = ncyc
            pairs = (owner < ncyc).nonzero()[0]
            src = pairs // n
            cyc = owner[pairs]
            flat = cmin.ravel()
            sums = []
            for lo in range(0, len(pairs), block):
                s, c = src[lo : lo + block], cyc[lo : lo + block]
                starts = np.arange(0, len(s) * n, n)[:, None]
                hit = np.zeros(len(s) * n, dtype=bool)
                hit[starts + flat[(s * n)[:, None] + table[c]]] = True
                rows = hit[starts + cmin[s]]
                sums.append(np.packbits(rows, axis=1, bitorder="little").tobytes())
            found = np.frombuffer(b"".join(sums), dtype=mask_bytes).tolist()
            new = set(found).difference(index)
            if len(keys) + len(new) > cap:
                raise LatticeCapExceeded(f"lattice exceeds cap {cap}")
            for f in new:
                index[f] = len(keys)
                keys.append(f)
            sources.append(src + pos)
            targets.extend(map(index.__getitem__, found))
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
        return id_of[np.concatenate(sources)], id_of[np.frombuffer(targets, np.intc)]

    def _index_structure(self, steps: tuple[np.ndarray, np.ndarray]) -> None:
        L = self.count
        # a step always goes to a strictly larger submodule, so a higher id:
        # closing down-sets in ascending target order and up-sets in
        # descending source order reads only finished sets. The steps are
        # sorted by target, repeats dropped.
        key = np.sort(steps[1].astype(np.int64) * L + steps[0])
        targets, sources = np.divmod(key[np.diff(key, prepend=-1) != 0], L)
        down = [1 << i for i in range(L)]
        up = list(down)
        for a, b in zip(memoryview(sources), memoryview(targets)):
            down[b] |= down[a]
        order = np.argsort(sources)[::-1]
        for a, b in zip(memoryview(sources[order]), memoryview(targets[order])):
            up[a] |= up[b]
        self.down = down
        self.up = up

        zero, full = self.zero_id, self.full_id
        # the lowest nonzero id left is an atom: a nonzero submodule below
        # it has a lower id, so it was cleared as lying above an atom taken
        # earlier, and then so would the lowest id have been
        atoms = []
        rest = up[zero] & ~(1 << zero)
        while rest:
            a = _low_bit(rest)
            atoms.append(a)
            rest &= ~up[a]
        self.atoms = tuple(atoms)
        self.coatoms = tuple(self.maximal(down[full] & ~(1 << full)))
        self.atom_mask = sum(1 << a for a in self.atoms)
        self.socle_id = reduce(self.join, self.atoms, zero)
        self.radical_id = reduce(self.meet, self.coatoms, full)

    # -- basic access --------------------------------------------------------

    def sub(self, i: int) -> Submodule:
        return self.subs[i]

    def join(self, i: int, j: int) -> int:
        return _low_bit(self.up[i] & self.up[j])

    def meet(self, i: int, j: int) -> int:
        return (self.down[i] & self.down[j]).bit_length() - 1

    def leq(self, i: int, j: int) -> bool:
        return bool(self.down[j] >> i & 1)

    # -- essentiality --------------------------------------------------------

    def is_essential(self, i: int) -> bool:
        """Fast path: essential iff the submodule contains the socle."""
        return bool(self.up[self.socle_id] >> i & 1)

    @cached_property
    def essential_sums(self) -> list[int]:
        """Row i: the nontrivial j != i with subs[i] + subs[j] essential, as
        a bit-int (0 for 0 and M). A sum is not essential iff both lie below
        one maximal non-essential w, so row i drops the down-sets of the w
        above i. Built on first read, by the lattice's first EssGraph."""
        up, down = self.up, self.down
        nontrivial = down[self.full_id] & ~(1 << self.full_id | 1 << self.zero_id)
        tops = sum(1 << w for w in self.maximal(nontrivial & ~up[self.socle_id]))
        rows = [0] * self.count
        for i in _iter_bits(nontrivial):
            below = 0
            for w in _iter_bits(up[i] & tops):
                below |= down[w]
            rows[i] = nontrivial & ~(1 << i) & ~below
        return rows

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

    def element_disjoint(self, i: int, j: int) -> bool:
        """No nonzero element of one has the same annihilator as one of the
        other: the class ids of members[1:] (0 is always first) do not meet."""
        cls = self.module.ann_class_ids()
        ids = set(cls[self.subs[i].members[1:]].tolist())
        return ids.isdisjoint(cls[self.subs[j].members[1:]].tolist())

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


def enumerate_lattice(module: FiniteModule) -> SubmoduleLattice:
    return SubmoduleLattice(module)
