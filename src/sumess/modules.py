"""Finite modules over a concrete action ring.

A module is presented as a finite abelian group Z_{d1} + ... + Z_{dk}
(mixed-radix coordinates) together with an action: either the integers
acting by scalars, or a generated action given by k-by-k integer matrices.
The action ring is materialized as endomorphism function tables: the additive
span of the identity and all composites of the generator tables, enumerated
one coset of a new word at a time. It always contains the identity and the
zero map; for the integer action it is the scalars 0..exponent-1.

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
import itertools
from dataclasses import dataclass, field
from math import lcm, prod

import numpy as np

from .errors import (
    ActionRingCapExceeded,
    Caps,
    ElementCapExceeded,
    HomSearchCapExceeded,
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
    member outside the span of the ones before it. Then, while the others
    span the whole submodule without some generator, the first such
    generator is dropped. The caller picks how a span is held: `zero` is
    the span of nothing, step(span, x) joins the cyclic submodule of x into
    it, and mask_of(span) gives its members.
    """
    gens: list[int] = []
    span = zero
    missing = mask & ~mask_of(span)
    while missing:
        x = (missing & -missing).bit_length() - 1
        gens.append(x)
        span = step(span, x)
        missing = mask & ~mask_of(span)
    changed = True
    while changed and len(gens) > 1:
        changed = False
        for g in gens:
            rest = [h for h in gens if h != g]
            if mask_of(functools.reduce(step, rest, zero)) == mask:
                gens = rest
                changed = True
                break
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
    computed on first use and kept; only the hom and iso searches and the
    annihilator class sets read members.
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

    def leq(self, other: "Submodule") -> bool:
        return self.mask & other.mask == self.mask

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
    """Concrete finite module: arithmetic tables plus the action ring."""

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
        self.neg = (((-coords) % self._mod_arr) @ self._strides).astype(np.int32)

        self.endos = self._build_action_ring(presentation.action)
        self.endo_count = self.endos.shape[0]

        self._element_texts: dict[int, str] = {}
        self._cyclic_mask_cache: dict[int, int] = {}
        self._closed_orbits: set[int] = set()
        self._ann_mask_cache: dict[int, int] = {}
        self._ann_class_cache = None

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

    def _build_action_ring(self, action) -> np.ndarray:
        """The subring of End(M) generated by the action, one table per row.

        That subring is the additive span of the words in the generator
        tables (the empty word is the identity): words are closed under
        composition, and composition is additive in both arguments. The span
        S starts at {0}; each word w not yet in S grows it coset by coset,
        S, S + w, S + 2w, ..., until the next multiple of w lies in S, and
        then queues w o g for each generator g. So S ends closed under right
        composition by the generators, and contains every word. With no
        generators (the integer action) the rows are the scalars
        0, 1, ..., exponent - 1 in order. Sums and composites of additive
        maps are additive, so only the generator tables need the exhaustive
        check in _matrix_table.
        """
        gens = []
        if isinstance(action, GeneratedAction):
            gens = [self._matrix_table(g) for g in action.generators]
        cap = self.caps.max_action_ring
        span = np.zeros((1, self.n), dtype=np.int32)
        keys = {span[0].tobytes()}
        queue = [np.arange(self.n, dtype=np.int32)]
        while queue:
            w = queue.pop()
            if w.tobytes() in keys:
                continue
            cosets = [span]
            multiple = w
            while multiple.tobytes() not in keys:
                size = len(keys) + span.shape[0]
                if size > cap:
                    raise ActionRingCapExceeded(
                        f"action ring has at least {size} endomorphisms, cap is {cap}"
                    )
                coset = self.add[span, multiple]
                keys.update(row.tobytes() for row in coset)
                cosets.append(coset)
                multiple = self.add[multiple, w]
            span = np.concatenate(cosets)
            queue.extend(w[g] for g in gens)
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

    def ann_mask(self, m) -> int:
        """Bitmask over endo ids e with e(m) = 0."""
        idx = self._as_index(m)
        cached = self._ann_mask_cache.get(idx)
        if cached is None:
            bits = (self.endos[:, idx] == 0).astype(np.uint8)
            cached = _mask_from_bits(bits)
            self._ann_mask_cache[idx] = cached
        return cached

    def annihilator(self, m) -> frozenset[int]:
        idx = self._as_index(m)
        return frozenset(int(e) for e in np.nonzero(self.endos[:, idx] == 0)[0])

    def ann_class_ids(self) -> np.ndarray:
        """Array mapping element index -> annihilator-class id."""
        if self._ann_class_cache is None:
            classes: dict[int, int] = {}
            out = np.empty(self.n, dtype=np.int32)
            for x in range(self.n):
                key = self.ann_mask(x)
                out[x] = classes.setdefault(key, len(classes))
            self._ann_class_cache = out
        return self._ann_class_cache

    # -- submodules --------------------------------------------------------

    def submodule_from_mask(self, mask: int) -> Submodule:
        return Submodule(self, mask)

    def cyclic_mask(self, index: int) -> int:
        cached = self._cyclic_mask_cache.get(index)
        if cached is None:
            bits = np.zeros(self.n, dtype=bool)
            bits[self.endos[:, index]] = True
            cached = _mask_from_bits(bits)
            self._check_closed(cached, bits)
            self._cyclic_mask_cache[index] = cached
        return cached

    def cyclic_masks(self) -> list[int]:
        """Masks of the cyclic submodules of all n elements, by element index.

        One scatter of the endo tables sets bit e(x) of row x of an n x n bit
        matrix for every endo e, and one packbits turns the rows into masks.
        The scatter takes a slice of elements at a time, so that its index
        array holds at most n x n bytes. Fills the cache of cyclic_mask.
        """
        n, endos = self.n, self.endos
        bits = np.zeros((n, n), dtype=bool)
        flat = bits.reshape(-1)
        step = max(1, n * n // (8 * self.endo_count))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            flat[endos[:, lo:hi] + np.arange(lo * n, hi * n, n)] = True
        raw = np.packbits(bits, axis=1, bitorder="little").tobytes()
        nbytes = (n + 7) // 8
        masks = []
        for x in range(n):
            mask = int.from_bytes(raw[x * nbytes : (x + 1) * nbytes], "little")
            self._check_closed(mask, bits[x])
            masks.append(mask)
        self._cyclic_mask_cache.update(enumerate(masks))
        return masks

    def _check_closed(self, mask: int, bits: np.ndarray) -> None:
        """Check an endo orbit, given as mask and membership vector, is a submodule.

        It is one already, because the action ring is closed under + and o;
        the check runs anyway, once per distinct orbit.
        """
        if mask in self._closed_orbits:
            return
        orbit = np.flatnonzero(bits)
        if not bits[self.add[orbit[:, None], orbit]].all():
            raise AssertionError("orbit not closed under +")
        if not bits[self.endos[:, orbit]].all():
            raise AssertionError("orbit not closed under action")
        self._closed_orbits.add(mask)

    def cyclic_submodule(self, m) -> Submodule:
        return Submodule(self, self.cyclic_mask(self._as_index(m)))

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


def _propagate(module: FiniteModule, gens, images) -> list[int] | None:
    """Close gen images under sums and endo images; None on conflict.

    The returned table is defined (≠ -1) exactly on the submodule generated
    by `gens`; entries elsewhere stay -1.
    """
    f = [-1] * module.n
    f[0] = 0
    queue = [0]

    def assign(x: int, v: int) -> bool:
        if f[x] == -1:
            f[x] = v
            queue.append(x)
            return True
        return f[x] == v

    for g, img in zip(gens, images):
        if not assign(g, img):
            return None
    add = module.add
    endos = module.endos
    r = module.endo_count
    decided: list[int] = []
    pos = 0
    while pos < len(queue):
        x = queue[pos]
        pos += 1
        decided.append(x)
        fx = f[x]
        for y in decided:
            if not assign(int(add[x, y]), int(add[fx, f[y]])):
                return None
        for e in range(r):
            if not assign(int(endos[e, x]), int(endos[e, fx])):
                return None
    return f


def _extend_hom(module: FiniteModule, dom: Submodule, gens, images) -> list[int] | None:
    """Extend gen images to a map total on dom, or None if inconsistent."""
    f = _propagate(module, gens, images)
    if f is None or any(f[int(x)] == -1 for x in dom.members):
        return None
    return f


def count_homs(dom: Submodule, cod: Submodule) -> int:
    """Number of additive maps dom -> cod commuting with every action endo.

    Brute force over assignments of images to dom's generating set, each
    candidate verified by extension.
    """
    module = dom.module
    if cod.module is not module:
        raise ValueError("count_homs requires submodules of the same module")
    gens = dom.gens
    t = len(gens)
    total = cod.size**t
    if total > module.caps.max_hom_search:
        raise HomSearchCapExceeded(
            f"hom search space {cod.size}^{t} = {total} exceeds cap {module.caps.max_hom_search}"
        )
    members = [int(x) for x in cod.members]
    count = 0
    for images in itertools.product(members, repeat=t):
        if _extend_hom(module, dom, gens, images) is not None:
            count += 1
    return count


def is_isomorphic(a: Submodule, b: Submodule) -> bool:
    """True iff there is a bijective module homomorphism a -> b.

    Backtracking over generator images, one generator at a time. Candidate
    images are restricted to b-elements with the same annihilator as the
    generator (an isomorphism preserves annihilators exactly), and each
    partial assignment is propagated and pruned on injectivity before the
    next generator is tried. The search keeps a stack of candidate
    iterators, one per generator placed: a recursive closure would reach
    itself through its own cell, a reference cycle that holds the module
    until a cyclic collection.
    """
    module = a.module
    if b.module is not module:
        raise ValueError("is_isomorphic requires submodules of the same module")
    if a.mask == b.mask:
        return True
    if a.size != b.size:
        return False
    cls = module.ann_class_ids()
    if sorted(int(cls[x]) for x in a.members) != sorted(int(cls[x]) for x in b.members):
        # annihilator multisets are isomorphism invariants
        return False
    gens = a.gens
    t = len(gens)
    candidates = [
        [int(x) for x in b.members if cls[x] == cls[g]] for g in gens
    ]
    budget = module.caps.max_hom_search
    nodes = 0
    a_members = [int(x) for x in a.members]

    def injective_so_far(f: list[int]) -> bool:
        seen = set()
        for x in a_members:
            v = f[x]
            if v == -1:
                continue
            if v in seen:
                return False
            seen.add(v)
        return True

    images: list[int] = []  # the images of gens[:len(tries) - 1]
    tries = [iter(candidates[0])]
    while tries:
        img = next(tries[-1], None)
        if img is None:
            tries.pop()
            if images:
                images.pop()
            continue
        nodes += 1
        if nodes > budget:
            raise HomSearchCapExceeded(
                f"iso search exceeded cap {budget} for |{a.size}| pair"
            )
        depth = len(images) + 1
        f = _propagate(module, gens[:depth], images + [img])
        if f is None or not injective_so_far(f):
            continue
        if depth == t:
            # every generator placed: an isomorphism iff the map is total on a
            if all(f[x] != -1 for x in a_members):
                return True
            continue
        images.append(img)
        tries.append(iter(candidates[depth]))
    return False
