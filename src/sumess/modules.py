"""Finite modules over a concrete action ring.

A module is presented as a finite abelian group Z_{d1} + ... + Z_{dk}
(mixed-radix coordinates) together with an action: either the integers
acting by scalars, or a generated action given by k-by-k integer matrices.
The generator tables (gen_tables, one function table per matrix, none for
the integers) are the working action: a subgroup closed under them is a
submodule, so the closure check of cyclic submodules reads them only. The
action ring is materialized too, as endomorphism function tables: the
additive span of the identity and all composites of the generator tables,
enumerated one coset of a new word at a time. It always contains the
identity and the zero map; for the integer action it is the scalars
0..exponent-1. It serves the scatter of the cyclic submodules, the
annihilator class ids and class order, and the ring size (endo_count).
Maps are asked of cyclic submodules only (every simple module is cyclic),
and count_homs and is_isomorphic read Hom(Rx, N) off those two tables.

Elements are addressed by a dense index: index = sum(c_i * stride_i) with
stride_0 = 1 and stride_i = stride_{i-1} * d_{i-1}, so the first coordinate
varies fastest. Submodules are bit-vectors over element indices.

A submodule's label lists an irredundant generating set (irredundant_gens).
For a submodule registered in a lattice, spans are lattice ids joined
through the lattice's up-sets; for an ad-hoc one (cyclic_submodule,
submodule_from_mask), spans are masks summed by join_masks. Each label is
formatted once, from per-element coordinate texts made on first use.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import lcm, prod

import numpy as np

from .errors import (
    ActionRingCapExceeded,
    Caps,
    ElementCapExceeded,
    IllFormedGenerator,
    InvalidModuli,
)


@dataclass(frozen=True)
class IntegerAction:
    """Scalar action of the integers; the ring image is Z/exponent."""

    kind: str = field(default="integers", init=False)


@dataclass(frozen=True)
class GeneratedAction:
    """Action generated by integer matrices acting on coordinate columns.

    Matrix G sends the element with coordinates x to the element with
    coordinates y_i = sum_j G[i][j] * x_j mod d_i. G is well formed iff
    d_i divides G[i][j] * d_j for all i, j (the image of a generator of
    order d_j must have order dividing d_j); anything else raises
    IllFormedGenerator.
    """

    generators: tuple[tuple[tuple[int, ...], ...], ...]
    kind: str = field(default="generated", init=False)


@dataclass(frozen=True)
class ModulePresentation:
    name: str
    moduli: tuple[int, ...]
    action: IntegerAction | GeneratedAction


@dataclass(frozen=True)
class Element:
    coords: tuple[int, ...]
    index: int


def integer_module(name: str, *moduli: int) -> ModulePresentation:
    return ModulePresentation(name, tuple(moduli), IntegerAction())


def generated_module(name: str, moduli, matrices) -> ModulePresentation:
    gens = tuple(tuple(tuple(int(v) for v in row) for row in g) for g in matrices)
    return ModulePresentation(name, tuple(moduli), GeneratedAction(gens))


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_from_bits(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def bits_from_mask(mask: int, n: int) -> np.ndarray:
    """Boolean membership vector of length n."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def indices_from_mask(mask: int, n: int) -> np.ndarray:
    return np.flatnonzero(bits_from_mask(mask, n)).astype(np.int32)


def irredundant_gens(mask: int, zero, step, mask_of) -> tuple[int, ...]:
    """Irredundant generating set of the submodule with this mask.

    Greedy over ascending element index: the next generator is the lowest
    member outside the span of the ones before it. Then one pass drops each
    generator the others kept still span the submodule without: a drop only
    shrinks the others' span, so a kept generator stays needed, and the
    last one, outside the span of those before it, is never tried. The
    caller picks how a span is held: `zero` is the span of nothing,
    step(span, x) joins the cyclic submodule of x into it, and mask_of(span)
    gives its members.
    """
    gens: list[int] = []
    span = zero
    missing = mask & ~mask_of(span)
    while missing:
        x = (missing & -missing).bit_length() - 1
        gens.append(x)
        span = step(span, x)
        missing = mask & ~mask_of(span)
    for g in gens[:-1]:
        rest = [h for h in gens if h != g]
        if mask_of(functools.reduce(step, rest, zero)) == mask:
            gens = rest
    return tuple(gens)


class Submodule:
    """A submodule as a bit-vector of element indices.

    canonical_id (position in the order sorted by (cardinality, member
    tuple)) and joins are set by the lattice that registers the submodule;
    both are None for ad-hoc submodules. Spans are read from joins
    (lattice.JoinIndex: up-sets, masks and cyclic ids), not from a
    back-reference to the lattice, so no reference cycle keeps the lattice's
    tables alive, and a submodule still gives its label after its lattice is
    dropped. members (the ascending element indices), gens and label are
    computed on first use and kept; members is read where a question runs
    over elements: the hom counts, isomorphism tests and annihilator class
    sets.
    """

    __slots__ = ("module", "mask", "size", "canonical_id", "joins", "_gens", "_members", "_label")

    def __init__(self, module: "FiniteModule", mask: int):
        self.module = module
        self.mask = mask
        self.size = mask.bit_count()
        self.canonical_id = None
        self.joins = None
        self._gens = None
        self._members = None
        self._label = None

    @property
    def members(self) -> np.ndarray:
        if self._members is None:
            self._members = indices_from_mask(self.mask, self.module.n)
        return self._members

    def __eq__(self, other):
        return isinstance(other, Submodule) and self.module is other.module and self.mask == other.mask

    def __hash__(self):
        return hash((id(self.module), self.mask))

    def __repr__(self):
        return f"Submodule({self.label}, size={self.size})"

    def contains(self, index: int) -> bool:
        return bool((self.mask >> index) & 1)

    @property
    def is_zero(self) -> bool:
        return self.size == 1

    @property
    def is_full(self) -> bool:
        return self.size == self.module.n

    @property
    def gens(self) -> tuple[int, ...]:
        """Irredundant generating set, greedy over ascending element index."""
        if self._gens is None:
            if self.joins is not None:
                self._gens = self.joins.gens_of(self.canonical_id)
            else:
                mod = self.module
                self._gens = irredundant_gens(
                    self.mask,
                    1,
                    lambda span, x: mod.join_masks(span, mod.cyclic_mask(x)),
                    lambda span: span,
                )
        return self._gens

    @property
    def label(self) -> str:
        """"0", "M", or the coordinates of gens, as "<(1,0),(0,2)>"."""
        if self._label is None:
            if self.is_zero:
                self._label = "0"
            elif self.is_full:
                self._label = "M"
            else:
                self._label = "<" + ",".join(map(self.module.element_text, self.gens)) + ">"
        return self._label


class FiniteModule:
    """Concrete finite module: arithmetic tables, generator tables, action ring."""

    def __init__(self, presentation: ModulePresentation, caps: Caps | None = None):
        self.caps = caps or Caps()
        self.presentation = presentation
        moduli = presentation.moduli
        if len(moduli) == 0:
            raise InvalidModuli("moduli list must be nonempty")
        for d in moduli:
            if not isinstance(d, int) or d < 2:
                raise InvalidModuli(f"modulus {d!r} is not an integer >= 2")
        self.moduli = tuple(moduli)
        self.k = len(moduli)
        n = prod(moduli)
        if n > self.caps.max_elements:
            raise ElementCapExceeded(f"module has {n} elements, cap is {self.caps.max_elements}")
        self.n = n
        self.exponent = lcm(*moduli)

        strides = [1] * self.k
        for i in range(1, self.k):
            strides[i] = strides[i - 1] * moduli[i - 1]
        self._strides = np.array(strides, dtype=np.int64)
        self._mod_arr = np.array(moduli, dtype=np.int64)

        idxs = np.arange(n, dtype=np.int64)
        coords = np.empty((n, self.k), dtype=np.int64)
        for j in range(self.k):
            coords[:, j] = (idxs // strides[j]) % moduli[j]
        self._coords = coords

        s = (coords[:, None, :] + coords[None, :, :]) % self._mod_arr
        self.add = (s @ self._strides).astype(np.int32)

        action = presentation.action
        self.gen_tables = (
            [self._matrix_table(g) for g in action.generators] if isinstance(action, GeneratedAction) else []
        )
        self.endos = self._build_action_ring()

        self._element_texts: dict[int, str] = {}
        self._cyclics = None
        self._ann = None

    @property
    def endo_count(self) -> int:
        return self.endos.shape[0]

    # -- construction ------------------------------------------------------

    def _matrix_table(self, g) -> np.ndarray:
        mat = np.asarray(g, dtype=np.int64)
        if mat.shape != (self.k, self.k):
            raise IllFormedGenerator(f"generator must be a {self.k}x{self.k} matrix, got shape {mat.shape}")
        for i in range(self.k):
            for j in range(self.k):
                if (mat[i, j] * self.moduli[j]) % self.moduli[i] != 0:
                    raise IllFormedGenerator(
                        f"entry [{i}][{j}]={int(mat[i, j])}: {self.moduli[i]} does not divide "
                        f"{int(mat[i, j])}*{self.moduli[j]}, map is not additive"
                    )
        img = (self._coords @ mat.T) % self._mod_arr
        table = (img @ self._strides).astype(np.int32)
        self._assert_additive(table)
        return table

    def _assert_additive(self, table: np.ndarray) -> None:
        # exhaustive additivity check: e(x+y) == e(x)+e(y) for all pairs
        lhs = table[self.add]
        rhs = self.add[table[:, None], table[None, :]]
        if not np.array_equal(lhs, rhs):
            raise IllFormedGenerator("generator table is not additive")

    def _build_action_ring(self) -> np.ndarray:
        """The subring of End(M) generated by gen_tables, one table per row.

        That subring is the additive span of the words in the generator
        tables (the empty word is the identity): words are closed under
        composition, and composition is additive in both arguments. The span
        S starts at {0}; each word w not yet in S grows it by the cosets
        S + w, ..., S + kw, (k + 1)w the first multiple of w in S, made by
        one gather, and then queues w o g for each generator g. So S ends
        closed under right composition by the generators, and contains every
        word. With no generators (the integer action) the rows are the
        scalars 0, 1, ..., exponent - 1 in order. Sums and composites of
        additive maps are additive, so only the generator tables need the
        exhaustive check in _matrix_table.
        """
        cap, n, add = self.caps.max_action_ring, self.n, self.add
        key = f"S{4 * n}"  # a table as one fixed-width string
        span = np.zeros((1, n), dtype=np.int32)
        keys = {span.view(key).item()}
        queue = [np.arange(n, dtype=np.int32)]
        while queue:
            w = queue.pop()
            if w.view(key).item() in keys:
                continue
            multiples = [w]
            while (m := add[multiples[-1], w]).view(key).item() not in keys:
                multiples.append(m)
            s = span.shape[0]
            if s * (len(multiples) + 1) > cap:
                # the size a coset-by-coset build reaches at its first overrun
                raise ActionRingCapExceeded(
                    f"action ring has at least {s * (max(cap // s, 1) + 1)} endomorphisms, cap is {cap}"
                )
            cosets = add[span[None], np.array(multiples)[:, None]].reshape(-1, n)
            keys.update(cosets.view(key).ravel().tolist())
            span = np.concatenate([span, cosets])
            queue.extend(w[g] for g in self.gen_tables)
        return span

    # -- elements ----------------------------------------------------------

    def encode(self, coords) -> int:
        if len(coords) != self.k:
            raise ValueError(f"expected {self.k} coordinates, got {len(coords)}")
        return int(sum(int(c) % d * s for c, d, s in zip(coords, self.moduli, self._strides)))

    def decode(self, index: int) -> tuple[int, ...]:
        return tuple(self._coords[self._as_index(index)].tolist())

    def element_text(self, index: int) -> str:
        """Coordinates of an element as text, "(c0,c1,...)"; made on first use."""
        text = self._element_texts.get(index)
        if text is None:
            text = self._element_texts[index] = "(" + ",".join(map(str, self.decode(index))) + ")"
        return text

    def element(self, coords) -> Element:
        idx = self.encode(coords)
        return Element(self.decode(idx), idx)

    def _as_index(self, m) -> int:
        """The element index of m, an Element or an index in [0, n)."""
        index = m.index if isinstance(m, Element) else int(m)
        if not 0 <= index < self.n:
            raise ValueError(f"element index {index} outside [0, {self.n})")
        return index

    # -- annihilators ------------------------------------------------------

    def annihilator(self, m) -> frozenset[int]:
        """The endo ids e with e(m) = 0, read off the ring column of m."""
        return frozenset(np.flatnonzero(self.endos[:, self._as_index(m)] == 0).tolist())

    def ann_class_ids(self) -> np.ndarray:
        """Array mapping element index -> annihilator-class id.

        Made on first use, with ann_order, by one packbits of the ring's
        zero tests: column x has the bits, over endo ids, of the endos
        killing x. The distinct columns are numbered in first-seen order,
        which is the order of their least element. Class a lies below class
        b when no endo kills the least element of a but not that of b: one
        product of the zero tests of those elements counts such endos.
        """
        if self._ann is None:
            packed = np.packbits(self.endos == 0, axis=0, bitorder="little")
            # fixed-width strings: the trailing zero bytes they drop change no value
            columns = np.ascontiguousarray(packed.T).view(f"S{packed.shape[0]}").ravel().tolist()
            classes: dict[bytes, int] = {}
            ids = np.array([classes.setdefault(c, len(classes)) for c in columns], dtype=np.int32)
            kills = (self.endos[:, np.unique(ids, return_index=True)[1]] == 0).astype(np.float64)
            self._ann = ids, kills.T @ (1 - kills) == 0
        return self._ann[0]

    def ann_order(self) -> np.ndarray:
        """Bool class x class matrix (ann_class_ids): [a, b] iff Ann(a) ⊆ Ann(b)."""
        self.ann_class_ids()
        return self._ann[1]

    # -- submodules --------------------------------------------------------

    def submodule_from_mask(self, mask: int) -> Submodule:
        return Submodule(self, mask)

    def cyclic_mask(self, m) -> int:
        """Mask of the cyclic submodule of m, an Element or an index in [0, n)."""
        return self.cyclic_masks()[self._as_index(m)]

    def cyclic_masks(self) -> list[int]:
        """Masks of the cyclic submodules of all n elements, by element index.

        Made on first use. One scatter of the endo tables sets bit e(x) of
        row x of an n x n bit matrix for every endo e, and one packbits turns
        the rows into masks. The scatter takes a slice of elements at a time,
        so that its index array holds at most n x n bytes. Each distinct
        orbit is then checked to be a submodule: closed under + and under
        the generator tables, which is closure under the ring. It is one
        already, because the action ring is closed under + and o; the check
        runs anyway.
        """
        if self._cyclics is not None:
            return self._cyclics
        n, endos, add = self.n, self.endos, self.add
        bits = np.zeros((n, n), dtype=bool)
        flat = bits.reshape(-1)
        step = max(1, n * n // (8 * self.endo_count))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            flat[endos[:, lo:hi] + np.arange(lo * n, hi * n, n)] = True
        raw = np.packbits(bits, axis=1, bitorder="little").tobytes()
        nbytes = (n + 7) // 8
        masks = [int.from_bytes(raw[x * nbytes : (x + 1) * nbytes], "little") for x in range(n)]
        for x in dict(zip(masks, range(n))).values():  # one element per distinct orbit
            row = bits[x]
            orbit = np.flatnonzero(row)
            if not row[add[orbit[:, None], orbit]].all():
                raise AssertionError("orbit not closed under +")
            if not all(row[g[orbit]].all() for g in self.gen_tables):
                raise AssertionError("orbit not closed under action")
        self._cyclics = masks
        return masks

    def cyclic_submodule(self, m) -> Submodule:
        return Submodule(self, self.cyclic_mask(m))

    def join_masks(self, mask_a: int, mask_b: int) -> int:
        """Sum of two submodules, as a mask.

        y lies in A + B iff y + b lies in A for some b in B (B = -B): one
        gather of A's bit-vector through the rows add[b], b over the smaller
        submodule.
        """
        if mask_a == mask_b:
            return mask_a
        if mask_b.bit_count() > mask_a.bit_count():
            mask_a, mask_b = mask_b, mask_a
        rows = self.add[indices_from_mask(mask_b, self.n)]
        return _mask_from_bits(bits_from_mask(mask_a, self.n)[rows].any(axis=0))


def build_module(presentation: ModulePresentation, caps: Caps | None = None) -> FiniteModule:
    return FiniteModule(presentation, caps)


# -- homomorphisms ----------------------------------------------------------


def _cyclic_generator(sub: Submodule) -> int | None:
    """An element generating sub, or None if sub is not cyclic."""
    cyclics = sub.module.cyclic_masks()
    return next((x for x in sub.members.tolist() if cyclics[x] == sub.mask), None)


def count_homs(dom: Submodule, cod: Submodule) -> int:
    """Number of module maps from the cyclic submodule dom = Rx to cod.

    A map is fixed by the image y of x, and rx -> ry is well defined iff
    Ann(x) ⊆ Ann(y): the count is the number of such y in cod, read from
    the annihilator table. A non-cyclic dom raises ValueError.
    """
    module = dom.module
    if cod.module is not module:
        raise ValueError("count_homs requires submodules of the same module")
    x = _cyclic_generator(dom)
    if x is None:
        raise ValueError(f"count_homs needs a cyclic domain, {dom.label} is not cyclic")
    cls = module.ann_class_ids()
    return int(module.ann_order()[cls[x], cls[cod.members]].sum())


def is_isomorphic(a: Submodule, b: Submodule) -> bool:
    """True iff a and b are isomorphic; at least one must be cyclic.

    Rx and Ry are isomorphic iff Ann(x) = Ann(y). So a cyclic side Rx is
    isomorphic to the other side iff the two have one size and the other
    holds some y with Ann(y) = Ann(x): then Ry lies in it and has its size.
    Two non-cyclic sides raise ValueError.
    """
    module = a.module
    if b.module is not module:
        raise ValueError("is_isomorphic requires submodules of the same module")
    if a.mask == b.mask:
        return True
    x = _cyclic_generator(a)
    if x is None:
        a, b = b, a
        x = _cyclic_generator(a)
    if x is None:
        raise ValueError(f"is_isomorphic needs a cyclic side, neither {b.label} nor {a.label} is cyclic")
    cls = module.ann_class_ids()
    return a.size == b.size and bool((cls[b.members] == cls[x]).any())
