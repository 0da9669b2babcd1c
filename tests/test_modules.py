"""Module construction, action rings, annihilators, hom counting, isomorphism."""
import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumess import (
    ActionRingCapExceeded,
    Caps,
    CorpusSpec,
    ElementCapExceeded,
    FiniteModule,
    IllFormedGenerator,
    InvalidModuli,
    SubmoduleLattice,
    build_module,
    count_homs,
    enumerate_corpus,
    generated_module,
    integer_module,
    is_isomorphic,
)
from sumess.modules import _mask_from_bits

moduli_lists = st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=3)


def _mod(*moduli) -> FiniteModule:
    return build_module(integer_module("m", *moduli))


def _mod_within_cap(moduli) -> FiniteModule | None:
    """The module, or None after checking that it is refused past the cap.

    moduli_lists reaches 9^3 = 729 elements, beyond the default cap of 512.
    """
    if math.prod(moduli) > Caps().max_elements:
        with pytest.raises(ElementCapExceeded):
            _mod(*moduli)
        return None
    return _mod(*moduli)


def test_mod_within_cap_draws_past_the_cap():
    assert _mod_within_cap([7, 9, 9]) is None
    assert _mod_within_cap([8, 8, 8]).n == 512


# -- additive structure ---------------------------------------------------------


@settings(derandomize=True, max_examples=40, deadline=None)
@given(moduli_lists, st.data())
def test_encode_decode_roundtrip(moduli, data):
    m = _mod_within_cap(moduli)
    if m is None:
        return
    coords = tuple(
        data.draw(st.integers(min_value=0, max_value=d - 1)) for d in moduli
    )
    idx = m.encode(coords)
    assert m.decode(idx) == coords
    assert 0 <= idx < m.n


@settings(derandomize=True, max_examples=25, deadline=None)
@given(moduli_lists, st.data())
def test_group_axioms(moduli, data):
    m = _mod_within_cap(moduli)
    if m is None:
        return
    x = data.draw(st.integers(min_value=0, max_value=m.n - 1))
    y = data.draw(st.integers(min_value=0, max_value=m.n - 1))
    z = data.draw(st.integers(min_value=0, max_value=m.n - 1))
    add = m.add
    assert add[x, y] == add[y, x]
    assert add[add[x, y], z] == add[x, add[y, z]]
    assert add[x, 0] == x
    assert (add[x] == 0).any()  # x has an inverse


def test_invalid_moduli():
    with pytest.raises(InvalidModuli):
        _mod(1)
    with pytest.raises(InvalidModuli):
        _mod()
    with pytest.raises(InvalidModuli):
        build_module(integer_module("m", 4, 0))
    # coordinates must match the moduli in number, not be cut to fit
    m = _mod(4, 2)
    for wrong in ((1,), (1, 1, 7)):
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            m.encode(wrong)
        with pytest.raises(ValueError, match="expected 2 coordinates"):
            m.element(wrong)


def test_element_index_out_of_range():
    """Indices outside [0, n) raise ValueError, not wrap round or IndexError."""
    m = _mod(4, 2)
    assert m.n == 8
    for bad in (-1, 8, 100):
        with pytest.raises(ValueError, match="outside"):
            m.cyclic_submodule(bad)
        with pytest.raises(ValueError, match="outside"):
            m.decode(bad)
        with pytest.raises(ValueError, match="outside"):
            m.annihilator(bad)
        with pytest.raises(ValueError, match="outside"):
            m.cyclic_mask(bad)
    assert m.cyclic_submodule(7).mask == m.cyclic_mask(7)
    assert m.decode(7) == (3, 1)


def test_element_cap():
    with pytest.raises(ElementCapExceeded):
        build_module(integer_module("m", *([2] * 10)))
    # same module fits under a raised cap
    m = build_module(integer_module("m", *([2] * 10)), caps=Caps(max_elements=2048))
    assert m.n == 1024


# -- action ring ------------------------------------------------------------------


def test_integer_action_ring_size_is_exponent():
    # scalars act through Z modulo the exponent of the group, endo s being s*x
    for moduli in [(6,), (4, 2), (8, 2), (2, 3, 5), (9, 3)]:
        m = _mod(*moduli)
        assert m.endo_count == math.lcm(*moduli)
        for s in range(m.endo_count):
            for x in range(m.n):
                want = tuple(s * c for c in m.decode(x))
                assert int(m.endos[s, x]) == m.encode(want)


def test_generated_identity_matches_integer_action():
    k = 2
    ident = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    a = build_module(integer_module("a", 4, 2))
    b = build_module(generated_module("b", (4, 2), [ident]))
    assert a.endo_count == b.endo_count
    assert sorted(a.endos[i].tobytes() for i in range(a.endo_count)) == sorted(
        b.endos[i].tobytes() for i in range(b.endo_count)
    )


def test_ill_formed_generator_rejected():
    # sending the order-2 generator onto the order-4 one is not additive
    g = [[0, 1], [0, 0]]
    with pytest.raises(IllFormedGenerator):
        build_module(generated_module("bad", (4, 2), [g]))


def test_action_ring_closed():
    m = build_module(generated_module("m", (2, 2), [[[0, 1], [1, 0]], [[1, 1], [0, 1]]]))
    tables = {m.endos[i].tobytes() for i in range(m.endo_count)}
    for i in range(m.endo_count):
        for j in range(m.endo_count):
            comp = m.endos[i][m.endos[j]]
            s = m.add[m.endos[i], m.endos[j]]
            assert comp.astype(np.int32).tobytes() in tables
            assert s.astype(np.int32).tobytes() in tables


def test_action_ring_orders_closed_form(ring_presentations):
    for pres, order in ring_presentations:
        m = build_module(pres)
        assert m.endo_count == order, pres.name
        assert len({m.endos[i].tobytes() for i in range(m.endo_count)}) == order


def _pairwise_closure(pres):
    """Tables of the ring generated by pres's matrices: {id, 0, gens} closed
    under composition and pointwise addition by brute force, with tables and
    addition built here from coordinates (first coordinate fastest)."""
    moduli = np.array(pres.moduli)
    coords = np.array([c[::-1] for c in itertools.product(*[range(d) for d in pres.moduli[::-1]])])
    strides = np.cumprod([1, *pres.moduli[:-1]])
    add = ((coords[:, None, :] + coords[None, :, :]) % moduli) @ strides
    n = len(coords)
    seeds = [np.arange(n), np.zeros(n, dtype=int)]
    seeds += [((coords @ np.array(g).T) % moduli) @ strides for g in pres.action.generators]
    seen = {}
    for t in seeds:
        seen.setdefault(tuple(t), t)
    frontier = list(seen.values())
    while frontier:
        new = []
        for a in frontier:
            for b in list(seen.values()):
                for t in (a[b], b[a], add[a, b]):
                    if tuple(t) not in seen:
                        seen[tuple(t)] = t
                        new.append(t)
        frontier = new
    return set(seen)


def _conjugated(pres, p, seed):
    """pres with every generator replaced by P g P^-1, P random invertible mod p.

    An invertible k-by-k matrix over F_p has order at most p^k - 1, so P^-1
    is the power of P just before the identity; a P with no such power is
    singular and is drawn again."""
    rng = random.Random(seed)
    k = len(pres.moduli)
    ident = np.eye(k, dtype=int)
    while True:
        mat = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(k)])
        power, inverse = mat, ident
        for _ in range(p**k):
            if (power == ident).all():
                break
            inverse = power
            power = (power @ mat) % p
        if (power == ident).all():
            break
    gens = [(mat @ np.array(g) @ inverse) % p for g in pres.action.generators]
    return generated_module(pres.name + "_conj", pres.moduli, gens)


def test_action_ring_matches_pairwise_closure(ring_presentations):
    by_name = {pres.name: pres for pres, _ in ring_presentations}
    m2f2 = next(p for p in enumerate_corpus(CorpusSpec()) if p.name == "m2f2")
    for pres in (m2f2, by_name["f2c2c2"], _conjugated(by_name["m2f3_sq"], 3, 5)):
        m = build_module(pres)
        tables = {tuple(int(v) for v in m.endos[i]) for i in range(m.endo_count)}
        assert len(tables) == m.endo_count
        assert tables == _pairwise_closure(pres), pres.name


def test_action_ring_cap(ring_presentations):
    t4f2 = next(pres for pres, _ in ring_presentations if pres.name == "t4f2")
    with pytest.raises(ActionRingCapExceeded):
        build_module(t4f2, caps=Caps(max_action_ring=1023))
    assert build_module(t4f2, caps=Caps(max_action_ring=1024)).endo_count == 1024
    z64 = integer_module("z64", 64)
    with pytest.raises(ActionRingCapExceeded):
        build_module(z64, caps=Caps(max_action_ring=63))
    assert build_module(z64, caps=Caps(max_action_ring=64)).endo_count == 64


def _coset_by_coset_overrun(m, cap):
    """The size a ring build adding one coset S + jw at a time reports at
    its first overrun of cap (None if it never overruns), run on the
    built module's tables."""
    span = np.zeros((1, m.n), dtype=np.int32)
    keys = {span[0].tobytes()}
    queue = [np.arange(m.n, dtype=np.int32)]
    while queue:
        w = queue.pop()
        if w.tobytes() in keys:
            continue
        cosets = [span]
        multiple = w
        while multiple.tobytes() not in keys:
            size = len(keys) + span.shape[0]
            if size > cap:
                return size
            coset = m.add[span, multiple]
            keys.update(row.tobytes() for row in coset)
            cosets.append(coset)
            multiple = m.add[multiple, w]
        span = np.concatenate(cosets)
        queue.extend(w[g] for g in m.gen_tables)
    return None


def test_action_ring_cap_message_matches_coset_by_coset_build(ring_presentations):
    presentations = [pres for pres, _ in ring_presentations]
    presentations += [integer_module("z64", 64), integer_module("z8z2", 8, 2)]
    for pres in presentations:
        m = build_module(pres)
        r = m.endo_count
        for cap in sorted({r - 1, r // 3, 2, 1, 0}):
            size = _coset_by_coset_overrun(m, cap)
            message = f"action ring has at least {size} endomorphisms, cap is {cap}"
            with pytest.raises(ActionRingCapExceeded) as err:
                build_module(pres, caps=Caps(max_action_ring=cap))
            assert str(err.value) == message, pres.name


# -- annihilators --------------------------------------------------------------


def test_annihilator_size_integer_action():
    # over the integers, ann(m) has index ord(m) in Z/exponent
    for moduli in [(12,), (8, 2), (4, 9)]:
        m = _mod(*moduli)
        e = m.exponent
        for x in range(m.n):
            order = 1
            y = x
            while y != 0:
                y = int(m.add[y, x])
                order += 1
            assert len(m.annihilator(x)) * order == e


def _ring_ann_masks(m) -> list[int]:
    """Each element's annihilator as a mask over endo ids, read off its ring column."""
    return [_mask_from_bits(m.endos[:, x] == 0) for x in range(m.n)]


def test_ann_classes_partition_elements():
    m = _mod(8, 2)
    cls = m.ann_class_ids()
    masks = _ring_ann_masks(m)
    for x in range(m.n):
        for y in range(m.n):
            assert (cls[x] == cls[y]) == (masks[x] == masks[y])
    # classes are numbered in the order of their least element
    first: dict[int, int] = {}
    assert cls.tolist() == [first.setdefault(masks[x], len(first)) for x in range(m.n)]


def _unique_rank_classes(m):
    """Annihilator classes by one np.unique over the packed zero columns,
    ranked by the least element of each class."""
    columns = np.packbits(m.endos == 0, axis=0).T
    _, first, inverse = np.unique(columns, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int32)
    rank[np.argsort(first)] = np.arange(len(first), dtype=np.int32)
    return rank[inverse.reshape(-1)]


def _ring_modules(corpus_analyses, ring_presentations):
    return [az.module for az in corpus_analyses.values()] + [
        build_module(pres) for pres, _ in ring_presentations
    ]


def test_annihilator_table_matches_per_element_columns(corpus_analyses, ring_presentations):
    """ann_class_ids against the np.unique rank numbering, annihilator
    against each element's ring column, and ann_order against containment
    of those columns, on the default corpus and the nine generated
    families."""
    for m in _ring_modules(corpus_analyses, ring_presentations):
        name = m.presentation.name
        cls = m.ann_class_ids()
        assert cls.dtype == np.int32 and cls.tolist() == _unique_rank_classes(m).tolist(), name
        for x in range(m.n):
            column = m.endos[:, x] == 0
            assert m.annihilator(x) == frozenset(np.flatnonzero(column).tolist()), (name, x)
        # the mask of each class, from the ring column of its least element
        masks = _ring_ann_masks(m)
        first = {c: masks[x] for x, c in reversed(list(enumerate(cls.tolist())))}
        want = [[first[a] & ~first[b] == 0 for b in range(len(first))] for a in range(len(first))]
        order = m.ann_order()
        assert order.dtype == bool and order.tolist() == want, name


def _restart_loop_gens(mask, zero, step, mask_of):
    """Greedy generating set, then pruned by dropping the first generator
    the others span the submodule without, restarting after each drop.
    Returns the greedy set too."""
    greedy = []
    span = zero
    while mask & ~mask_of(span):
        missing = mask & ~mask_of(span)
        greedy.append((missing & -missing).bit_length() - 1)
        span = step(span, greedy[-1])
    gens = list(greedy)
    changed = True
    while changed and len(gens) > 1:
        changed = False
        for g in gens:
            rest = [h for h in gens if h != g]
            if mask_of(functools.reduce(step, rest, zero)) == mask:
                gens = rest
                changed = True
                break
    return tuple(greedy), tuple(gens)


def test_one_pass_prune_matches_restart_loop(corpus_analyses, ring_presentations):
    """Generating sets of every lattice submodule (spans as lattice ids) and
    of every cyclic submodule (spans as masks) of the default corpus and the
    nine generated families against the restart-loop prune."""
    pruned = 0
    for m in _ring_modules(corpus_analyses, ring_presentations):
        lat = SubmoduleLattice(m)
        up, cyclic, masks = lat.up, lat.cyclic_ids, [s.mask for s in lat.subs]

        def join_ids(span, x):
            both = up[span] & up[cyclic[x]]
            return (both & -both).bit_length() - 1

        for sub in lat.subs:
            greedy, want = _restart_loop_gens(sub.mask, lat.zero_id, join_ids, masks.__getitem__)
            assert sub.gens == want, (m.presentation.name, sub.canonical_id)
            pruned += greedy != want

        def join_masks(span, x):
            return m.join_masks(span, m.cyclic_mask(x))

        for x in range(m.n):
            sub = m.cyclic_submodule(x)
            greedy, want = _restart_loop_gens(sub.mask, 1, join_masks, lambda span: span)
            assert sub.gens == want, (m.presentation.name, x)
            pruned += greedy != want
    assert pruned  # the prune drops a generator somewhere


# -- cyclic submodules and spans -------------------------------------------------


@settings(derandomize=True, max_examples=25, deadline=None)
@given(moduli_lists, st.data())
def test_cyclic_submodule_is_least(moduli, data):
    m = _mod_within_cap(moduli)
    if m is None:
        return
    x = data.draw(st.integers(min_value=0, max_value=m.n - 1))
    sub = m.cyclic_submodule(x)
    assert sub.contains(x)
    # closed under addition and the action
    mem = list(sub.members)
    for a in mem:
        for b in mem:
            assert sub.contains(int(m.add[a, b]))
        for e in range(m.endo_count):
            assert sub.contains(int(m.endos[e, a]))
    # least: sums of multiples of x (integer action) recover every member
    reach = {0}
    y = x
    while y not in reach or y == x and len(reach) == 1:
        reach.add(y)
        y = int(m.add[y, x])
        if y in reach:
            break
    assert reach == set(int(v) for v in sub.members)


def test_span_join_agree():
    """The join of two cyclic submodules is the set of sums of their members."""
    m = _mod(4, 6)
    a, b = m.cyclic_submodule(3), m.cyclic_submodule(7)
    span = {int(m.add[x, y]) for x in a.members for y in b.members}
    assert m.join_masks(a.mask, b.mask) == sum(1 << x for x in span)


# -- hom counting ---------------------------------------------------------------


def test_count_homs_gcd_identities(z12):
    """|Hom(Z_a, Z_b)| = gcd(a, b): the classical count, used as an oracle."""
    m = z12.module
    lat = z12.lattice
    by_size = {lat.subs[i].size: i for i in range(lat.count)}
    for a_size in (2, 3, 4, 6, 12):
        for b_size in (2, 3, 4, 6, 12):
            a, b = lat.subs[by_size[a_size]], lat.subs[by_size[b_size]]
            assert count_homs(a, b) == math.gcd(a_size, b_size)


def test_count_homs_matrix_sizes():
    # maps F2 -> Z2^2 are the 4 columns; Z2^2 is not cyclic, so it is no domain
    m = _mod(2, 2)
    full = m.submodule_from_mask((1 << m.n) - 1)
    sub = m.cyclic_submodule(1)
    assert count_homs(sub, full) == 4
    assert count_homs(sub, sub) == 2
    with pytest.raises(ValueError, match=r"cyclic domain, M is not cyclic"):
        count_homs(full, full)
    with pytest.raises(ValueError, match="cyclic domain"):
        count_homs(full, sub)


def test_count_homs_annihilator_oracle(z12):
    """Cyclic source: images are exactly the elements killed by ann(generator)."""
    m = z12.module
    lat = z12.lattice
    masks = _ring_ann_masks(m)
    for i in range(lat.count):
        a = lat.subs[i]
        gens = a.gens
        if len(gens) != 1:
            continue
        g = gens[0]
        for j in range(lat.count):
            b = lat.subs[j]
            ok = sum(1 for y in b.members.tolist() if masks[g] & ~masks[y] == 0)
            assert count_homs(a, b) == ok


def test_count_homs_from_zero_and_non_cyclic():
    m = _mod(4, 2)
    zero = m.submodule_from_mask(1)
    full = m.submodule_from_mask((1 << m.n) - 1)
    z4 = m.cyclic_submodule(m.encode((1, 0)))
    assert count_homs(zero, full) == count_homs(zero, zero) == 1
    assert count_homs(z4, zero) == 1
    assert count_homs(z4, full) == 8  # Ann = 4Z: every element of Z4 x Z2
    with pytest.raises(ValueError, match="cyclic domain"):
        count_homs(full, zero)


def _ring_homs(dom, cod, x) -> list[tuple[int, ...]]:
    """Image tables on dom.members of the maps dom -> cod, by brute force on the ring.

    dom is the cyclic submodule of x, so each member of dom is e(x) for some
    row e of the action ring; one such e is fixed per member. For each image
    y in cod, the candidate map sends e(x) to e(y); it is kept when it sends
    x to y, is additive, and commutes with every row of the ring on dom's
    members. All candidates and rows are checked at once. Neither the
    generator tables nor the annihilator table is used.
    """
    m = dom.module
    add, endos = m.add, m.endos
    row_of = {}
    for e, z in enumerate(endos[:, x].tolist()):
        row_of.setdefault(z, e)
    members, ys = dom.members, cod.members
    f = np.zeros((len(ys), m.n), dtype=np.int64)
    f[:, members] = endos[[row_of[z] for z in members.tolist()]][:, ys].T
    ok = f[:, x] == ys
    ok &= (f[:, endos[:, members]] == endos[:, f[:, members]].swapaxes(0, 1)).all(axis=(1, 2))
    f = f[ok]  # the additivity check, the costliest, runs on the rest only
    ok = np.ones(len(f), dtype=bool)
    for z in members.tolist():
        ok &= (f[:, add[z, members]] == add[f[:, [z]], f[:, members]]).all(axis=1)
    return [tuple(r) for r in f[ok][:, members].tolist()]


def _ring_generator(sub) -> int | None:
    """A member x of sub whose orbit under the whole action ring is sub, or None."""
    endos = sub.module.endos
    return next((x for x in sub.members.tolist() if np.unique(endos[:, x]).size == sub.size), None)


def test_hom_and_iso_search_match_ring_oracle(ring_presentations):
    """count_homs and is_isomorphic, which read the annihilator table, agree
    with maps checked against the whole action ring on every pair with a
    cyclic side, on the generated families and on integer modules whose
    cyclic submodules need several greedy generators. A pair of non-cyclic
    sides is refused."""
    integer = [
        integer_module("z8z2", 8, 2),
        integer_module("z4z4", 4, 4),
        integer_module("z4z2z2", 4, 2, 2),
        integer_module("z3z3", 3, 3),
        integer_module("z9z3", 9, 3),
        integer_module("z2^4", 2, 2, 2, 2),
        integer_module("z2z3", 2, 3),
    ]
    compared = refused = 0
    for pres in [pres for pres, _ in ring_presentations] + integer:
        lat = SubmoduleLattice(build_module(pres))
        gen = {s.mask: _ring_generator(s) for s in lat.subs}
        for a in lat.subs:
            for b in lat.subs:
                if gen[a.mask] is None:
                    with pytest.raises(ValueError, match="cyclic domain"):
                        count_homs(a, b)
                    if gen[b.mask] is None and a != b:
                        with pytest.raises(ValueError, match="cyclic side"):
                            is_isomorphic(a, b)
                        refused += 1
                    continue
                maps = _ring_homs(a, b, gen[a.mask])
                assert count_homs(a, b) == len(maps), (pres.name, a.label, b.label)
                onto = set(b.members.tolist())
                bijective = a.size == b.size and any(set(t) == onto for t in maps)
                assert is_isomorphic(a, b) == is_isomorphic(b, a) == bijective, (pres.name, a.label, b.label)
                compared += 1
    assert compared > 1000 and refused > 100


# -- isomorphism ----------------------------------------------------------------


def test_is_isomorphic_basic(z12):
    lat = z12.lattice
    by_size = {lat.subs[i].size: i for i in range(lat.count)}
    subs = lat.subs
    # reflexive
    for i in range(lat.count):
        assert is_isomorphic(subs[i], subs[i])
    # different sizes never isomorphic
    assert not is_isomorphic(subs[by_size[2]], subs[by_size[3]])
    # symmetric on a nontrivial pair
    a, b = subs[by_size[4]], subs[by_size[6]]
    assert is_isomorphic(a, b) == is_isomorphic(b, a) == False


def test_is_isomorphic_distinguishes_shape():
    m = _mod(4, 2)
    lat_subs = []
    # size-4 submodules: the cyclic <(1,0)> (shape Z4) and <(2,0),(0,1)> (shape Z2xZ2)
    z4 = m.cyclic_submodule(m.encode((1, 0)))
    klein = m.submodule_from_mask(
        m.join_masks(m.cyclic_mask(m.encode((2, 0))), m.cyclic_mask(m.encode((0, 1))))
    )
    assert z4.size == klein.size == 4
    assert not is_isomorphic(z4, klein)
    other_z4 = m.cyclic_submodule(m.encode((1, 1)))
    assert is_isomorphic(z4, other_z4)


def test_is_isomorphic_equivalence_on_corpus_atoms(corpus_analyses):
    az = corpus_analyses["z2z2z3"]
    lat = az.lattice
    atoms = lat.atoms
    for a in atoms:
        for b in atoms:
            ab = az.iso(a, b)
            ba = az.iso(b, a)
            assert ab == ba
            same_size = lat.subs[a].size == lat.subs[b].size
            assert ab == same_size  # simple modules over Z: iso iff same prime


def test_atom_iso_classes_match_pairwise_is_isomorphic(corpus_analyses, ring_analyses):
    """atom_iso_classes, keyed by annihilator class with no isomorphism test,
    against is_isomorphic on every pair of atoms of the default corpus and
    the nine generated families: two atoms share a class iff they are
    isomorphic, and the classes come in canonical order of their first
    atom, each in canonical order."""
    pairs = 0
    for az in [*corpus_analyses.values(), *ring_analyses]:
        subs, atoms = az.lattice.subs, az.lattice.atoms
        classes = az.atom_iso_classes
        assert sorted(sum(classes, [])) == sorted(atoms)
        firsts = [c[0] for c in classes]
        assert all(c == sorted(c) for c in classes) and firsts == sorted(firsts)
        class_of = {a: k for k, c in enumerate(classes) for a in c}
        name = az.module.presentation.name
        for a in atoms:
            for b in atoms:
                assert (class_of[a] == class_of[b]) == is_isomorphic(subs[a], subs[b]), (name, a, b)
                pairs += 1
    assert pairs > 1000


def test_is_isomorphic_needs_a_cyclic_side():
    """Two distinct non-cyclic sides are refused; one cyclic side decides."""
    m = _mod(2, 2, 2)
    # two planes of F2^3: <(1,0,0),(0,1,0)> and <(1,0,0),(0,0,1)>
    planes = [m.submodule_from_mask(sum(1 << x for x in xs)) for xs in ((0, 1, 2, 3), (0, 1, 4, 5))]
    with pytest.raises(ValueError, match=r"neither <\(1,0,0\),\(0,1,0\)> nor <\(1,0,0\),\(0,0,1\)> is cyclic"):
        is_isomorphic(*planes)
    assert is_isomorphic(planes[0], planes[0])
    line = m.cyclic_submodule(1)
    assert not is_isomorphic(line, planes[0]) and not is_isomorphic(planes[1], line)
