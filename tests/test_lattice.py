"""Submodule lattice enumeration, structure maps, and their oracles."""
import gc
import json
import math
import random
import tracemalloc
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumess import (
    Caps,
    LatticeCapExceeded,
    ModuleAnalysis,
    SubmoduleLattice,
    abelian_presentations,
    build_module,
    enumerate_lattice,
    generated_module,
    integer_module,
    matrix_ring_presentation,
    proper_sum_essential_graph,
    sum_essential_graph,
)
from sumess import lattice as lattice_module
from sumess.modules import bits_from_mask, indices_from_mask
from sumess.theorems import REGISTRY, _disjoints_inside_socle, _meets_imply_socle, run_catalog


def _lat(*moduli, caps=None) -> SubmoduleLattice:
    return enumerate_lattice(build_module(integer_module("m", *moduli), caps=caps))


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


def _unit(k, i, j):
    return [[int(r == i and c == j) for c in range(k)] for r in range(k)]


# T4(F2) on its column space F2^4, generated by the units e_ij, i <= j
T4F2 = generated_module(
    "t4f2", (2,) * 4, [_unit(4, i, j) for i in range(4) for j in range(i, 4)]
)
# F2[C2 x C2] on itself: the permutation matrices of left multiplication
# by the two generators, basis (0,0), (0,1), (1,0), (1,1)
C2C2 = list(product((0, 1), repeat=2))
F2C2C2 = generated_module(
    "f2c2c2",
    (2,) * 4,
    [
        [[int(C2C2.index(((g[0] + h[0]) % 2, (g[1] + h[1]) % 2)) == r) for h in C2C2] for r in range(4)]
        for g in ((1, 0), (0, 1))
    ],
)


def _generator_tables(pres):
    """Index tables of the generator matrices, first coordinate fastest."""
    moduli = pres.moduli
    strides = [math.prod(moduli[:i]) for i in range(len(moduli))]
    coords = [
        [x // s % d for s, d in zip(strides, moduli)] for x in range(math.prod(moduli))
    ]
    gens = getattr(pres.action, "generators", ())
    return [
        [
            sum(sum(a * c for a, c in zip(row, cs)) % d * s for row, d, s in zip(g, moduli, strides))
            for cs in coords
        ]
        for g in gens
    ]


@pytest.mark.parametrize(
    "pres",
    [
        integer_module("z16", 16),
        integer_module("z4z4", 4, 4),
        integer_module("z2z8", 2, 8),
        integer_module("z2z2z2z2", 2, 2, 2, 2),
        matrix_ring_presentation(),
        F2C2C2,
        T4F2,
    ],
    ids=lambda pres: pres.name,
)
def test_lattice_matches_closed_subsets(pres):
    """Masks equal the subsets holding 0 and closed under + and each generator.

    Every subset of the n <= 16 elements is tested at once, one boolean
    vector per element over all candidate subsets.
    """
    mod = build_module(pres)
    n = mod.n
    assert n <= 16
    subsets = np.arange(1 << (n - 1), dtype=np.int64) * 2 + 1
    bit = [(subsets >> x & 1).astype(bool) for x in range(n)]
    closed = np.ones(subsets.size, dtype=bool)
    for a in range(n):
        for b in range(a, n):
            closed &= ~(bit[a] & bit[b]) | bit[int(mod.add[a, b])]
    for table in _generator_tables(pres):
        for x in range(n):
            closed &= ~bit[x] | bit[table[x]]
    want = {int(m) for m in subsets[closed]}
    assert {s.mask for s in enumerate_lattice(mod).subs} == want


def test_coordinate_subspaces_over_many_cyclic_blocks():
    """F2^7 under the diagonal idempotents: submodules are the 2^7 coordinate
    subspaces. The 3^7 - 1 cyclic members pad to a table of width 2^7, and
    the 7 atoms, one frontier chunk, make 7 x (2^6 - 1) sums, more than one
    block of sums holds."""
    k = 7
    pres = generated_module("f2^7", (2,) * k, [_unit(k, i, i) for i in range(k)])
    mod = build_module(pres)
    cyclics = list(dict.fromkeys(mod.cyclic_mask(x) for x in range(1, mod.n)))
    assert sum(c.bit_count() for c in cyclics) == 3**k - 1
    assert max(c.bit_count() for c in cyclics) == 2**k
    assert lattice_module._CHUNK_BYTES // mod.n**2 >= k
    assert k * (2 ** (k - 1) - 1) > lattice_module._CHUNK_BYTES // (8 * (mod.n + 2**k))
    want = {
        sum(1 << x for x in range(mod.n) if x & ~support == 0) for support in range(1 << k)
    }
    assert {s.mask for s in enumerate_lattice(mod).subs} == want


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


def _conjugate(parts):
    return [sum(1 for part in parts if part > i) for i in range(max(parts, default=0))]


def _contained_conjugates(bound, cap=None):
    """Every nonincreasing sequence nu' with nu'_i <= bound[i], as a tuple."""
    if not bound:
        yield ()
        return
    top = bound[0] if cap is None else min(bound[0], cap)
    for first in range(top, -1, -1):
        for rest in _contained_conjugates(bound[1:], first):
            yield (first,) + rest


def _birkhoff_count(parts, p):
    """Subgroups of the abelian p-group of type parts (Birkhoff 1935).

    A group of type lambda has prod_i p^(nu'_{i+1} (lambda'_i - nu'_i))
    [lambda'_i - nu'_{i+1} choose nu'_i - nu'_{i+1}]_p subgroups of type
    nu, ' the conjugate partition; summed over every nu inside lambda.
    """
    lam = _conjugate(parts)
    total = 0
    for nu in _contained_conjugates(lam):
        nu = nu + (0,)
        term = 1
        for i, a in enumerate(lam):
            term *= p ** (nu[i + 1] * (a - nu[i])) * _q_binomial(a - nu[i + 1], nu[i] - nu[i + 1], p)
        total += term
    return total


def _abelian_oracle(types):
    """(L, |V(N)|) of the abelian group with these p-group types, {p: parts}.

    L is multiplicative over the Sylow subgroups. A subgroup is essential
    exactly when it holds the socle, so the essential ones are the
    subgroups of G / socle, of the types with every part lowered by one;
    V(N) is the rest but 0.
    """
    count = math.prod(_birkhoff_count(parts, p) for p, parts in types.items())
    above_socle = math.prod(
        _birkhoff_count([part - 1 for part in parts if part > 1], p) for p, parts in types.items()
    )
    return count, count - above_socle - 1


def _prime_power_types(moduli):
    types = {}
    for m in moduli:
        p = next(d for d in range(2, m + 1) if m % d == 0)
        types.setdefault(p, []).append(next(k for k in range(1, m) if p**k == m))
    return {p: sorted(parts, reverse=True) for p, parts in types.items()}


def test_abelian_counts_match_birkhoff_formula():
    """L and |V(N)| of every abelian group of order 4..64 but the primes,
    and of the 15 of order 128 (Z2^7's L = 29,212 the largest), against the
    closed form, and the order-256 values from the formula."""
    presentations = abelian_presentations(64)
    assert len(presentations) == 98
    order128 = [p for p in abelian_presentations(128) if math.prod(p.moduli) == 128]
    assert len(order128) == 15
    presentations += order128
    for pres in presentations:
        lat = enumerate_lattice(build_module(pres))
        want = _abelian_oracle(_prime_power_types(pres.moduli))
        assert (lat.count, proper_sum_essential_graph(lat).n_vertices) == want, pres.name
    # past the lattice cap, and the largest lattice of order 256
    assert _abelian_oracle({2: [1] * 8})[0] == 417_199
    assert _abelian_oracle({2: [2] + [1] * 6}) == (55_599, 55_596)


def test_matrix_ring_lattice():
    mod = build_module(matrix_ring_presentation())
    lat = enumerate_lattice(mod)
    assert lat.count == 5
    assert sorted(lat.subs[i].size for i in range(lat.count)) == [1, 4, 4, 4, 16]
    assert len(lat.atoms) == 3
    assert lat.is_semisimple()


@pytest.mark.parametrize(
    "pres, count",
    [
        # a chain of 10
        (integer_module("z512", 512), 10),
        # (p + 1) * b + 2 subgroups, p = 2, b = 8
        (integer_module("z2z256", 2, 256), 26),
        # the 2^9 coordinate subspaces, reached by 19,171 cyclic steps
        (generated_module("f2^9", (2,) * 9, [_unit(9, i, i) for i in range(9)]), 512),
    ],
    ids=["z512", "z2z256", "f2^9"],
)
def test_lattice_memory_at_element_cap(pres, count):
    """Peak traced memory of the build stays within 3 x the addition table."""
    mod = build_module(pres)
    assert mod.n == Caps().max_elements
    tracemalloc.start()
    try:
        lat = SubmoduleLattice(mod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lat.count == count
    assert peak <= 3 * mod.add.nbytes, (peak, mod.add.nbytes)


def _lattice_by_all_cyclics(mod):
    """Masks in canonical order, down, up and cyclic_ids, by joining each
    submodule found with every distinct nonzero cyclic.

    y lies in S + C iff y + c lies in S for some c in C (C = -C): the rows
    of S's bit-vector gathered through add are the translates S - y, and
    the OR of the rows of C's members is S + C. Each distinct sum other
    than S is a step; down and up are the transitive closure of the steps.
    """
    n = mod.n
    per_element = [mod.cyclic_mask(x) for x in range(n)]
    cyclics = list(dict.fromkeys(per_element[1:]))
    members = [indices_from_mask(c, n) for c in cyclics]
    rows = np.concatenate(members)
    starts = np.cumsum([0] + [len(m) for m in members[:-1]])
    found = {1: None}
    queue = [1]
    steps = set()
    for mask in queue:
        translates = np.packbits(bits_from_mask(mask, n)[mod.add], axis=1, bitorder="little")
        sums = np.bitwise_or.reduceat(translates[rows], starts, axis=0)
        for row in sums:
            total = int.from_bytes(row.tobytes(), "little")
            if total != mask:
                steps.add((mask, total))
                if total not in found:
                    found[total] = None
                    queue.append(total)
    masks = sorted(found, key=lambda m: (m.bit_count(), [x for x in range(n) if m >> x & 1]))
    ids = {m: i for i, m in enumerate(masks)}
    down = [1 << i for i in range(len(masks))]
    up = list(down)
    pairs = [(ids[a], ids[b]) for a, b in steps]
    for a, b in sorted(pairs, key=lambda p: p[1]):
        down[b] |= down[a]
    for a, b in sorted(pairs, key=lambda p: -p[0]):
        up[a] |= up[b]
    return masks, down, up, [ids[m] for m in per_element]


def _abelian_up_to(order):
    """One integer module per abelian group of order 2..order."""
    primes = [p for p in range(2, order + 1) if all(p % d for d in range(2, p))]
    return [integer_module(f"z{p}", p) for p in primes] + abelian_presentations(order)


def test_coset_sums_match_all_cyclic_sums(ring_presentations):
    """The enumeration by one sum per coset builds the masks, down, up and
    cyclic_ids that joining every submodule with every cyclic builds, on
    every abelian group of order <= 64, the nine generated families, and
    F2^9 under its diagonal idempotents."""
    presentations = _abelian_up_to(64) + [pres for pres, _ in ring_presentations]
    presentations.append(generated_module("f2^9", (2,) * 9, [_unit(9, i, i) for i in range(9)]))
    assert len(presentations) == 116 + 9 + 1  # 116 abelian groups of order 2..64
    for pres in presentations:
        mod = build_module(pres)
        lat = enumerate_lattice(mod)
        masks, down, up, cyclic_ids = _lattice_by_all_cyclics(mod)
        assert [s.mask for s in lat.subs] == masks, pres.name
        assert lat.down == down, pres.name
        assert lat.up == up, pres.name
        assert lat.cyclic_ids == cyclic_ids, pres.name


@pytest.mark.parametrize(
    "pres",
    [
        integer_module("z4z2z2z2z2", 4, 2, 2, 2, 2),
        integer_module("z2z2z2z2z2", 2, 2, 2, 2, 2),
        T4F2,
        F2C2C2,
    ],
    ids=lambda pres: pres.name,
)
def test_frontier_chunks_match_one_submodule_at_a_time(pres, monkeypatch):
    """The frontier taken in chunks builds the lattice it builds one by one."""
    chunked = enumerate_lattice(build_module(pres))
    chunk = max(1, lattice_module._CHUNK_BYTES // chunked.module.n**2)
    if pres.name == "z4z2z2z2z2":
        assert chunked.count == 681 and chunked.count > 5 * chunk
    monkeypatch.setattr(lattice_module, "_CHUNK_BYTES", 1)
    single = enumerate_lattice(build_module(pres))
    assert [s.mask for s in chunked.subs] == [s.mask for s in single.subs]
    assert chunked.up == single.up
    assert chunked.down == single.down
    assert chunked.cyclic_ids == single.cyclic_ids


def test_analyses_freed_without_cyclic_gc():
    """Analyses leave nothing for the cyclic garbage collector.

    Lattice and submodules, and the iso search, form no reference cycle, so
    reference counting frees a module's tables as soon as its analysis is
    dropped. A submodule kept from a dropped lattice still gives its label.
    """
    presentations = (integer_module("z8z2", 8, 2), matrix_ring_presentation(), T4F2, F2C2C2)
    gc.collect()
    gc.disable()
    try:
        for pres in presentations:
            az = ModuleAnalysis(pres)
            run_catalog(az, tuple(REGISTRY))
            az.s_graph.export_dot("s")
            az.n_graph.export_dot("n")
            del az
        kept = enumerate_lattice(build_module(presentations[0])).subs[5]
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
    assert kept.label == ModuleAnalysis(presentations[0]).lattice.subs[5].label == "<(4,0),(0,1)>"


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


def _set_sum(mod, mask_a, mask_b):
    """Mask of {a + b : a in A, b in B}, element by element."""
    n = mod.n
    members_a = [x for x in range(n) if mask_a >> x & 1]
    members_b = [x for x in range(n) if mask_b >> x & 1]
    return sum({1 << int(mod.add[a, b]) for a in members_a for b in members_b})


@pytest.mark.parametrize(
    "pres",
    [
        integer_module("z8z2", 8, 2),
        integer_module("z4z2z2", 4, 2, 2),
        matrix_ring_presentation(),
        F2C2C2,
    ],
    ids=lambda pres: pres.name,
)
def test_join_masks_matches_set_sums(pres):
    """join_masks against the set sum, on random pairs of submodules.

    Every pair of non-cyclic submodules is added (m2f2 has none: every left
    ideal of M2(F2) is principal).
    """
    mod = build_module(pres)
    masks = [s.mask for s in enumerate_lattice(mod).subs]
    rng = random.Random(5)
    pairs = [(rng.choice(masks), rng.choice(masks)) for _ in range(60)]
    cyclic = {mod.cyclic_mask(x) for x in range(mod.n)}
    non_cyclic = [m for m in masks if m not in cyclic]
    pairs += [(a, b) for a in non_cyclic for b in non_cyclic]
    for a, b in pairs:
        assert mod.join_masks(a, b) == _set_sum(mod, a, b), (pres.name, a, b)


def _gens_by_set_sums(mod, mask):
    """Greedy-and-prune generating set of a submodule, spans as set sums.

    Greedy over ascending members: keep x when it lies outside the span of
    the generators kept so far. Then drop the first generator whose removal
    leaves the span whole, until none can be dropped.
    """
    if mask == 1:
        return ()
    orbits = {}

    def span(xs):
        out = 1
        for x in xs:
            if x not in orbits:
                orbits[x] = sum(1 << v for v in set(mod.endos[:, x].tolist()))
            out = _set_sum(mod, out, orbits[x])
        return out

    gens = []
    acc = 1
    for x in range(mod.n):
        if mask >> x & 1 and not acc >> x & 1:
            gens.append(x)
            acc = span(gens)
    changed = True
    while changed and len(gens) > 1:
        changed = False
        for g in gens:
            rest = [h for h in gens if h != g]
            if span(rest) == mask:
                gens = rest
                changed = True
                break
    return tuple(gens)


def test_gens_match_set_sum_oracle(corpus_analyses, ring_presentations):
    """Labels' generating sets, from lattice joins, against set sums.

    Covers every submodule of the default corpus and of the nine generated
    families; ad-hoc submodules (joined by join_masks) are checked on z4z4.
    """
    lattices = [az.lattice for az in corpus_analyses.values()]
    lattices += [enumerate_lattice(build_module(pres)) for pres, _ in ring_presentations]
    for lat in lattices:
        mod = lat.module
        for sub in lat.subs:
            assert sub.gens == _gens_by_set_sums(mod, sub.mask), (
                mod.presentation.name,
                sub.canonical_id,
            )
    lat = corpus_analyses["z4z4"].lattice
    for sub in lat.subs:
        ad_hoc = lat.module.submodule_from_mask(sub.mask)
        assert ad_hoc.gens == sub.gens


def _label_by_set_sums(mod, mask):
    if mask == 1:
        return "0"
    if mask == (1 << mod.n) - 1:
        return "M"
    coords = [mod.decode(g) for g in _gens_by_set_sums(mod, mask)]
    return "<" + ",".join("(" + ",".join(map(str, c)) + ")" for c in coords) + ">"


def _naive_dot(graph, name):
    """One f-string per vertex and per adjacent pair a < b."""
    mod = graph.lattice.module
    lines = [f"graph {json.dumps(name)} {{"]
    for v in graph.vertex_ids:
        label = _label_by_set_sums(mod, graph.lattice.subs[v].mask)
        lines.append(f"  v{v} [label={json.dumps(label)}];")
    ids = graph.vertex_ids
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if graph.adjacent(a, b):
                lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_export_dot_matches_naive_writer(corpus_analyses, ring_presentations):
    families = {pres.name: pres for pres, _ in ring_presentations}
    analyses = [corpus_analyses[name] for name in ("z8z2", "z4z4", "z2z2z2z2", "m2f2")]
    analyses += [ModuleAnalysis(families[name]) for name in ("t3f3", "f2s3")]
    for az in analyses:
        name = az.module.presentation.name
        for graph in (az.s_graph, az.n_graph):
            assert graph.export_dot(name) == _naive_dot(graph, name), (name, graph.kind)


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
        return lat.id_of_mask[_set_sum(mod, masks[i], masks[j])]

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


def test_lattice_extremes_match_raw_masks(ring_presentations):
    """Atoms, coatoms, socle and radical against the raw masks: the minimal
    nonzero and maximal proper masks, the set sum of the atoms and the
    intersection of the coatoms, on every abelian group of order <= 64 but
    z2^6 and on the nine generated families."""
    presentations = [p for p in _abelian_up_to(64) if p.moduli != (2,) * 6]
    presentations += [pres for pres, _ in ring_presentations]
    for pres in presentations:
        lat = enumerate_lattice(build_module(pres))
        mod = lat.module
        masks = [s.mask for s in lat.subs]
        full = (1 << mod.n) - 1
        bits = np.array([bits_from_mask(m, mod.n) for m in masks], dtype=np.float32)
        # inside[i, j]: subs[i] lies strictly inside subs[j]
        inside = (bits @ (1 - bits).T == 0) & ~np.eye(len(masks), dtype=bool)
        nonzero = np.array([m != 1 for m in masks])
        proper = np.array([m != full for m in masks])
        atoms = np.flatnonzero(nonzero & ~(inside & nonzero[:, None]).any(axis=0)).tolist()
        coatoms = np.flatnonzero(proper & ~(inside & proper).any(axis=1)).tolist()
        assert list(lat.atoms) == atoms, pres.name
        assert list(lat.coatoms) == coatoms, pres.name
        socle = reduce(lambda a, b: _set_sum(mod, a, b), (masks[a] for a in atoms), 1)
        radical = reduce(lambda a, b: a & b, (masks[c] for c in coatoms), full)
        assert masks[lat.socle_id] == socle, pres.name
        assert masks[lat.radical_id] == radical, pres.name


def _meets_imply_socle_scan(lat, u):
    """Every E meeting U with U + E essential holds the socle, by scanning E."""
    mod, masks = lat.module, [s.mask for s in lat.subs]
    soc = masks[lat.socle_id]
    for mask in masks:
        if masks[u] & mask == 1:
            continue
        total = lat.id_of_mask[_set_sum(mod, masks[u], mask)]
        if lat.is_essential_definitional(total) and mask & soc != soc:
            return False
    return True


def _disjoints_inside_socle_scan(lat, u):
    """Every E meeting U trivially lies inside the socle, by scanning E."""
    soc = lat.subs[lat.socle_id].mask
    return all(
        s.mask & soc == s.mask for s in lat.subs if lat.subs[u].mask & s.mask == 1
    )


@pytest.mark.parametrize("name", sorted(ORACLE_MODULES))
def test_socle_conditions_match_scans(name):
    """The thm-2.13 socle conditions against a scan over all submodules, for
    each vertex of N(M), the ids thm-2.13 asks them of."""
    az = ModuleAnalysis(ORACLE_MODULES[name])
    lat = az.lattice
    for u in az.n_graph.vertex_ids:
        meeting = lat.meeting(u)
        assert _meets_imply_socle(az, u, meeting) == _meets_imply_socle_scan(lat, u), (name, u)
        assert _disjoints_inside_socle(az, meeting) == _disjoints_inside_socle_scan(lat, u), (name, u)
