"""Submodule lattice enumeration, structure maps, and their oracles."""
import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from sumess import (
    Caps,
    LatticeCapExceeded,
    SubmoduleLattice,
    build_module,
    enumerate_lattice,
    integer_module,
    matrix_ring_presentation,
    proper_sum_essential_graph,
    sum_essential_graph,
)


def _lat(*moduli, caps=None) -> SubmoduleLattice:
    return enumerate_lattice(build_module(integer_module("m", *moduli), caps=caps), caps=caps)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# -- enumeration oracles ----------------------------------------------------------


def test_subgroup_count_two_generator_oracle():
    """#subgroups of Z_m x Z_n equals the sum of gcd(i, j) over divisor pairs."""
    for m, n in [(8, 2), (4, 2), (4, 9), (2, 2), (9, 3), (4, 6)]:
        lat = _lat(m, n)
        want = sum(math.gcd(i, j) for i in _divisors(m) for j in _divisors(n))
        assert lat.count == want, (m, n)


def test_cyclic_subgroup_count_is_divisor_count():
    for n in (6, 8, 12, 27, 30):
        lat = _lat(n)
        assert lat.count == len(_divisors(n))


def test_brute_force_enumeration_small():
    """Every add-and-action-closed subset containing 0 appears, for tiny modules."""
    for moduli in [(4, 3), (2, 2, 3), (8,), (2, 5)]:
        mod = build_module(integer_module("m", *moduli))
        lat = enumerate_lattice(mod)
        found = 0
        n = mod.n
        for bits in range(1 << n):
            if not bits & 1:
                continue
            mem = [x for x in range(n) if bits >> x & 1]
            closed = all(
                bits >> int(mod.add[a, b]) & 1 for a in mem for b in mem
            ) and all(
                bits >> int(mod.endos[e, a]) & 1
                for a in mem
                for e in range(mod.endo_count)
            )
            if closed:
                found += 1
                assert bits in lat.id_of_mask
        assert found == lat.count


def test_frozen_counts(z8z2, z4z9, z12):
    assert z8z2.lattice.count == 11
    assert z4z9.lattice.count == 9
    assert z12.lattice.count == 6


def _q_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_galois_numbers_elementary_abelian(k):
    """Z2^k has sum_j [k j]_2 subgroups, one per subspace of F2^k."""
    want = sum(_q_binomial(k, j, 2) for j in range(k + 1))
    assert want == {2: 5, 3: 16, 4: 67, 5: 374, 6: 2825}[k]
    assert _lat(*(2,) * k).count == want


def test_matrix_ring_lattice():
    mod = build_module(matrix_ring_presentation())
    lat = enumerate_lattice(mod)
    assert lat.count == 5
    assert sorted(lat.subs[i].size for i in range(lat.count)) == [1, 4, 4, 4, 16]
    assert len(lat.atoms) == 3
    assert lat.is_semisimple()


def test_lattice_cap():
    caps = Caps(max_lattice=10)
    with pytest.raises(LatticeCapExceeded):
        _lat(2, 2, 2, 2, caps=caps)


# -- order structure --------------------------------------------------------------


def test_canonical_order_and_ids(z8z2):
    lat = z8z2.lattice
    sizes = [lat.subs[i].size for i in range(lat.count)]
    assert sizes == sorted(sizes)
    assert lat.zero_id == 0
    assert lat.full_id == lat.count - 1
    for i in range(lat.count):
        assert lat.id_of_mask[lat.subs[i].mask] == i


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from([(8, 2), (4, 3), (2, 2, 2)]), st.data())
def test_lattice_laws(moduli, data):
    lat = _lat(*moduli)
    i = data.draw(st.integers(min_value=0, max_value=lat.count - 1))
    j = data.draw(st.integers(min_value=0, max_value=lat.count - 1))
    k = data.draw(st.integers(min_value=0, max_value=lat.count - 1))
    assert lat.join(i, j) == lat.join(j, i)
    assert lat.meet(i, j) == lat.meet(j, i)
    assert lat.join(lat.join(i, j), k) == lat.join(i, lat.join(j, k))
    assert lat.meet(i, lat.join(i, j)) == i
    assert lat.join(i, lat.meet(i, j)) == i
    assert lat.leq(i, j) == (lat.join(i, j) == j)
    assert lat.leq(i, j) == (lat.meet(i, j) == i)


def test_atoms_are_minimal(z8z2, z4z9):
    for az in (z8z2, z4z9):
        lat = az.lattice
        for a in lat.atoms:
            for i in range(lat.count):
                if i not in (lat.zero_id, a) and lat.leq(i, a):
                    pytest.fail(f"atom {a} contains {i}")


def test_coatoms_are_maximal(z12):
    lat = z12.lattice
    for c in lat.coatoms:
        for i in range(lat.count):
            if i not in (lat.full_id, c) and lat.leq(c, i):
                pytest.fail(f"coatom {c} below {i}")


def test_lower_covers(z12):
    lat = z12.lattice
    assert sorted(lat.lower_covers(lat.full_id)) == sorted(lat.coatoms)
    assert lat.lower_covers(lat.zero_id) == []


# -- socle, radical, essential -----------------------------------------------------


def test_socle_is_join_of_atoms(z8z2):
    lat = z8z2.lattice
    acc = lat.zero_id
    for a in lat.atoms:
        acc = lat.join(acc, a)
    assert acc == lat.socle_id
    assert lat.subs[lat.socle_id].size == 4


def test_radical_is_meet_of_coatoms(z12):
    lat = z12.lattice
    masks = [lat.subs[c].mask for c in lat.coatoms]
    acc = masks[0]
    for m in masks[1:]:
        acc &= m
    assert lat.subs[lat.radical_id].mask == acc


def test_socle_and_radical_endo_invariant(z8z2, z4z9):
    for az in (z8z2, z4z9):
        mod, lat = az.module, az.lattice
        for sid in (lat.socle_id, lat.radical_id):
            sub = lat.subs[sid]
            for x in sub.members:
                for e in range(mod.endo_count):
                    assert sub.contains(int(mod.endos[e, int(x)]))


def test_essential_fast_path_equals_definition(z8z2, z4z9, z12, z2z3z5):
    """Socle containment against the literal quantifier, every submodule."""
    for az in (z8z2, z4z9, z12, z2z3z5):
        lat = az.lattice
        for i in range(lat.count):
            assert lat.is_essential(i) == lat.is_essential_definitional(i), i


def test_essential_counts_frozen(z8z2):
    lat = z8z2.lattice
    ess_proper = [
        i
        for i in range(lat.count)
        if lat.is_essential(i) and i != lat.full_id
    ]
    assert len(ess_proper) == 2


def test_socle_always_essential(corpus_analyses):
    for name, az in corpus_analyses.items():
        assert az.lattice.is_essential(az.lattice.socle_id), name


# -- uniformity and chains ----------------------------------------------------------


def test_uniform_dimension_frozen(z8z2, z2z3z5, z12):
    assert z8z2.lattice.uniform_dimension() == 2
    assert z2z3z5.lattice.uniform_dimension() == 3
    assert z12.lattice.uniform_dimension() == 2


def test_uniform_modules():
    assert _lat(27).is_uniform_module()
    assert _lat(8).is_uniform_module()
    assert not _lat(8, 2).is_uniform_module()
    assert not _lat(2, 3).is_uniform_module()


def test_atoms_are_uniform(z8z2):
    lat = z8z2.lattice
    for a in lat.atoms:
        assert lat.is_uniform(a)


def test_udim_equals_socle_decomposition(corpus_analyses):
    for name, az in corpus_analyses.items():
        lat = az.lattice
        fam = lat._independent_atom_family()
        assert lat.uniform_dimension() == len(fam), name
        sizes = 1
        for a in fam:
            sizes *= lat.subs[a].size
        assert sizes == lat.subs[lat.socle_id].size, name


def test_is_chain():
    assert _lat(27).is_chain()
    assert _lat(8).is_chain()
    assert not _lat(8, 2).is_chain()
    assert not _lat(2, 3).is_chain()  # two incomparable atoms


# -- complements --------------------------------------------------------------------


def test_complements_properties(z8z2, z4z9):
    for az in (z8z2, z4z9):
        lat = az.lattice
        for i in range(lat.count):
            for c in lat.complements_of(i):
                assert lat.meet(i, c) == lat.zero_id
                assert lat.is_essential(lat.join(i, c))
                # maximality: no strictly larger disjoint submodule
                for j in range(lat.count):
                    if j != c and lat.leq(c, j):
                        assert lat.meet(i, j) != lat.zero_id


def test_complement_of_zero_is_full(z12):
    lat = z12.lattice
    assert lat.complements_of(lat.zero_id) == (lat.full_id,)


def test_semisimple_complements_are_direct(corpus_analyses):
    az = corpus_analyses["z2z2z3"]
    lat = az.lattice
    for i in range(lat.count):
        for c in lat.complements_of(i):
            assert lat.join(i, c) == lat.full_id


# -- strongly disjoint pairs ---------------------------------------------------------


def test_strongly_disjoint_routes_agree_small(z8z2, z4z3):
    for az in (z8z2, z4z3):
        lat = az.lattice
        for i in range(lat.count):
            for j in range(lat.count):
                rep = lat.strongly_disjoint(i, j)
                assert rep.agree, (i, j)


def test_strongly_disjoint_routes_agree_matrix_action():
    lat = enumerate_lattice(build_module(matrix_ring_presentation()))
    for i in range(lat.count):
        for j in range(lat.count):
            assert lat.strongly_disjoint(i, j).agree


def test_strongly_disjoint_known_pairs(z4z3):
    lat = z4z3.lattice
    # the two atoms of Z4 x Z3 have coprime element orders
    a, b = lat.atoms
    assert lat.element_disjoint(a, b)
    # a submodule is never strongly disjoint from itself (shared annihilators)
    assert not lat.element_disjoint(a, a)


def test_dump_text_deterministic(z12):
    lat = z12.lattice
    text = lat.dump_text()
    assert text == z12.lattice.dump_text()
    for i in range(lat.count):
        assert f"id={i} " in text


# -- raw-mask oracle --------------------------------------------------------------


ORACLE_MODULES = {
    "z12": integer_module("z12", 12),
    "z8z2": integer_module("z8z2", 8, 2),
    "z2z2z2": integer_module("z2z2z2", 2, 2, 2),
    "z4z2z2": integer_module("z4z2z2", 4, 2, 2),
    "z3z3": integer_module("z3z3", 3, 3),
    "m2f2": matrix_ring_presentation(),
}


def _maximal_masks(masks, ids):
    """Ids in `ids` whose mask lies strictly inside no other mask of `ids`."""
    return sorted(
        j
        for j in ids
        if not any(k != j and masks[j] & masks[k] == masks[j] for k in ids)
    )


@pytest.mark.parametrize("name", sorted(ORACLE_MODULES))
def test_order_queries_match_raw_masks(name):
    """Every lattice query against sums, intersections and inclusions of masks."""
    mod = build_module(ORACLE_MODULES[name])
    lat = enumerate_lattice(mod)
    masks = [s.mask for s in lat.subs]
    ids = range(lat.count)
    full = (1 << mod.n) - 1

    def leq(i, j):
        return masks[i] & masks[j] == masks[i]

    def join(i, j):
        return lat.id_of_mask[mod.join_masks(masks[i], masks[j])]

    for i in ids:
        for j in ids:
            assert lat.join(i, j) == join(i, j), (name, i, j)
            assert lat.meet(i, j) == lat.id_of_mask[masks[i] & masks[j]], (name, i, j)
            assert lat.leq(i, j) == leq(i, j), (name, i, j)

    nonzero = [i for i in ids if masks[i] != 1]
    proper = [i for i in ids if masks[i] != full]
    assert list(lat.atoms) == sorted(
        i for i in nonzero if not any(j != i and leq(j, i) for j in nonzero)
    )
    assert list(lat.coatoms) == sorted(
        i for i in proper if not any(j != i and leq(i, j) for j in proper)
    )
    for i in ids:
        below = [j for j in ids if j != i and leq(j, i)]
        assert lat.lower_covers(i) == _maximal_masks(masks, below), (name, i)
        for amb in ids:
            disjoint = [j for j in ids if leq(j, amb) and masks[j] & masks[i] == 1]
            want = tuple(_maximal_masks(masks, disjoint))
            assert lat.complements_within(i, amb) == want, (name, i, amb)

    essential = [lat.is_essential_definitional(i) for i in ids]
    for g in (sum_essential_graph(lat), proper_sum_essential_graph(lat)):
        want_vertices = [
            i
            for i in ids
            if masks[i] not in (1, full) and (g.kind == "s" or not essential[i])
        ]
        assert list(g.vertex_ids) == want_vertices, (name, g.kind)
        for u in want_vertices:
            want = [v for v in want_vertices if v != u and essential[join(u, v)]]
            assert g.neighbors(u) == want, (name, g.kind, u)
            for v in want_vertices:
                assert g.adjacent(u, v) == (v in want), (name, g.kind, u, v)
