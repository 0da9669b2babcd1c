"""Module construction, action rings, annihilators, hom counting, isomorphism."""
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
    build_module,
    count_homs,
    enumerate_corpus,
    generated_module,
    integer_module,
    is_isomorphic,
)

moduli_lists = st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=3)


def _mod(*moduli) -> FiniteModule:
    return build_module(integer_module("m", *moduli))


# -- additive structure ---------------------------------------------------------


@settings(derandomize=True, max_examples=40, deadline=None)
@given(moduli_lists, st.data())
def test_encode_decode_roundtrip(moduli, data):
    m = _mod(*moduli)
    coords = tuple(
        data.draw(st.integers(min_value=0, max_value=d - 1)) for d in moduli
    )
    idx = m.encode(coords)
    assert m.decode(idx) == coords
    assert 0 <= idx < m.n


@settings(derandomize=True, max_examples=25, deadline=None)
@given(moduli_lists, st.data())
def test_group_axioms(moduli, data):
    m = _mod(*moduli)
    x = data.draw(st.integers(min_value=0, max_value=m.n - 1))
    y = data.draw(st.integers(min_value=0, max_value=m.n - 1))
    z = data.draw(st.integers(min_value=0, max_value=m.n - 1))
    add = m.add
    assert add[x, y] == add[y, x]
    assert add[add[x, y], z] == add[x, add[y, z]]
    assert add[x, 0] == x
    assert add[x, m.neg[x]] == 0


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


def test_ann_classes_partition_elements():
    m = _mod(8, 2)
    cls = m.ann_class_ids()
    for x in range(m.n):
        for y in range(m.n):
            same = m.ann_mask(x) == m.ann_mask(y)
            assert (cls[x] == cls[y]) == same


# -- cyclic submodules and spans -------------------------------------------------


@settings(derandomize=True, max_examples=25, deadline=None)
@given(moduli_lists, st.data())
def test_cyclic_submodule_is_least(moduli, data):
    m = _mod(*moduli)
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
    m = _mod(4, 6)
    a, b = 3, 7
    assert m.span_mask([a, b]) == m.join_masks(m.cyclic_mask(a), m.cyclic_mask(b))


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
    # maps Z2^2 -> Z2^2 are 2x2 matrices over F2
    m = _mod(2, 2)
    full = m.full_submodule()
    assert count_homs(full, full) == 16
    sub = m.cyclic_submodule(1)
    assert count_homs(sub, full) == 4
    assert count_homs(full, sub) == 4


def test_count_homs_annihilator_oracle(z12):
    """Cyclic source: images are exactly the elements killed by ann(generator)."""
    m = z12.module
    lat = z12.lattice
    for i in range(lat.count):
        a = lat.subs[i]
        gens = a.gens
        if len(gens) != 1:
            continue
        g = gens[0]
        for j in range(lat.count):
            b = lat.subs[j]
            ok = sum(
                1
                for y in b.members
                if m.ann_mask(g) & ~m.ann_mask(int(y)) == 0
            )
            assert count_homs(a, b) == ok


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
        m.span_mask([m.encode((2, 0)), m.encode((0, 1))])
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
