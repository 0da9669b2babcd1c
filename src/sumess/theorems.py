"""Checkers for the structural results on sum-essential graphs.

Each checker evaluates every side of one characterization independently on a
concrete finite module and reports agreement as a TheoremVerdict. Checkers
never raise on unmet hypotheses; they return an inapplicable verdict, so a
catalog run over a corpus always completes.

Each numbered statement is defined once, as its own checker. The composite
suites `deg1-S`, `deg1-interactions`, `complete` and `trianglefree` are
ordered tuples of parts: numbered statements plus a few local sides, each
giving one side of the composite (see `_composite`).

Catalog keys are stable strings used by the command line (`verify`) and the
corpus CSV. `run_catalog(analysis, "all")` runs the nine composite suites.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .analysis import ModuleAnalysis
from .errors import HypothesisNotMet, UnknownTheoremId
from .graphs import EssGraph, n_partite_witness
from .lattice import SubmoduleLattice
from .modules import _iter_bits


@dataclass(frozen=True)
class TheoremVerdict:
    theorem_id: str
    applicable: bool
    sides: dict[str, bool]
    passed: bool
    witness: str | None

    def as_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "applicable": self.applicable,
            "sides": dict(self.sides),
            "pass": self.passed,
            "witness": self.witness,
        }


def _inapplicable(tid: str, reason: str) -> TheoremVerdict:
    return TheoremVerdict(tid, False, {}, False, reason)


def _asserted(tid: str, sides: dict[str, bool], witness: str | None) -> TheoremVerdict:
    ok = all(sides.values())
    return TheoremVerdict(tid, True, sides, ok, None if ok else witness or _auto_witness(sides))


def _equivalent(tid: str, sides: dict[str, bool], witness: str | None = None) -> TheoremVerdict:
    ok = len(set(sides.values())) <= 1
    return TheoremVerdict(tid, True, sides, ok, None if ok else witness or _auto_witness(sides))


def _auto_witness(sides: dict[str, bool]) -> str:
    return "sides disagree: " + ", ".join(f"{k}={v}" for k, v in sides.items())


def _composite(tid: str, az: ModuleAnalysis, parts) -> TheoremVerdict:
    """Assert the parts of a composite in order.

    A part is (side, check): the side holds when check's verdict passes or
    does not apply. A side of None splices in the verdict's own sides, for
    an assertion-style statement whose sides are the composite's. The
    witness is the first failing part's.
    """
    sides: dict[str, bool] = {}
    witness = None
    for side, check in parts:
        v = check(az)
        failed = v.applicable and not v.passed
        if side is None:
            sides.update(v.sides)
        else:
            sides[side] = not failed
        if failed and witness is None:
            witness = v.witness
    return _asserted(tid, sides, witness)


def _lbl(az: ModuleAnalysis, i: int) -> str:
    return az.lattice.subs[i].label


# -- shared sub-predicates ------------------------------------------------------


def _unique_semisimple_complement(az: ModuleAnalysis, u: int) -> bool:
    comps = az.lattice.complements_of(u)
    return len(comps) == 1 and az.sub_is_semisimple(comps[0])


def _elementwise_separation(az: ModuleAnalysis, u: int) -> bool:
    """For every simple F not below U and nonzero f in F, u' in U, some action
    element kills u' but not f. It fails iff ann(u') <= ann(f) for some such
    f and u': f's class lies above one of U's in the annihilator order."""
    mod, lat = az.module, az.lattice
    cls, order = mod.ann_class_ids(), mod.ann_order()
    above = set(order[cls[lat.subs[u].members[1:]]].any(axis=0).nonzero()[0].tolist())
    for f_id in lat.atoms:
        if not lat.leq(f_id, u) and not above.isdisjoint(cls[lat.subs[f_id].members[1:]].tolist()):
            return False
    return True


def _meets_imply_socle(az: ModuleAnalysis, u: int, meeting: int) -> bool:
    """Every E meeting U nontrivially with U+E essential contains the socle.

    U is a vertex of N(M) and meeting is lattice.meeting(u): the E that fail
    are the neighbours of U meeting it.
    """
    return not (meeting & az.n_graph.row(u))


def _disjoints_inside_socle(az: ModuleAnalysis, meeting: int) -> bool:
    """Every E meeting U trivially lies inside the socle; meeting is
    lattice.meeting(u)."""
    lat = az.lattice
    return not (lat.down[lat.full_id] & ~meeting & ~lat.down[lat.socle_id])


def _socle_meet_unique_complement(az: ModuleAnalysis, u: int) -> bool:
    lat = az.lattice
    s = lat.meet(u, lat.socle_id)
    return len(lat.complements_within(s, lat.socle_id)) == 1


def _atom_pair(az: ModuleAnalysis, top: int) -> tuple[int, int] | None:
    """Two simple submodules summing to subs[top], or None. Such a sum is
    direct, so subs[top] has length 2 and any two of its atoms sum to it:
    the first two atoms below top are the pair when their join is top."""
    lat = az.lattice
    pair = lat.atoms_below(top)[:2]
    return tuple(pair) if len(pair) == 2 and lat.join(*pair) == top else None


def _simple_nonessentials_two_simple_socle(az: ModuleAnalysis) -> bool:
    """Every non-essential nonzero submodule is simple, and the socle is a
    sum of two simples."""
    lat = az.lattice
    nonessential = lat.down[lat.full_id] & ~(1 << lat.zero_id) & ~lat.up[lat.socle_id]
    return not (nonessential & ~lat.atom_mask) and _atom_pair(az, lat.socle_id) is not None


def _is_atom(lat: SubmoduleLattice, i: int) -> bool:
    return bool(lat.atom_mask >> i & 1)


def _degree_one(g: EssGraph) -> list[int]:
    return [v for v in g.vertex_ids if g.deg[v] == 1]


def _short_chain(az: ModuleAnalysis) -> bool:
    lat = az.lattice
    # a chain 0 < A < B < M: two nontrivial submodules
    return lat.is_chain() and lat.count == 4


# -- corpus gates ------------------------------------------------------------------


def check_connectivity_diameter(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "thm-1.5"
    s, n = az.s_graph, az.n_graph
    if s.n_vertices == 0:
        return _inapplicable(tid, "module is simple, no vertices")
    sides = {
        "s_connected": s.is_connected(),
        "s_diameter_le_3": s.diameter() <= 3,
        "n_connected": n.is_connected(),
        "n_diameter_le_3": n.n_vertices == 0 or n.diameter() <= 3,
    }
    return _asserted(
        tid, sides, f"diameter(S)={s.diameter()}, diameter(N)={n.diameter() if n.n_vertices else 'empty'}"
    )


def check_girth_s(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "thm-girth-S"
    s = az.s_graph
    if s.n_vertices == 0:
        return _inapplicable(tid, "module is simple, no vertices")
    g = s.girth()
    return _asserted(tid, {"girth_in_3_inf": g == 3 or math.isinf(g)}, f"girth(S)={g}")


def check_girth_n(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "thm-girth-N"
    n = az.n_graph
    if n.n_vertices == 0:
        return _inapplicable(tid, "proper graph empty (module is uniform)")
    g = n.girth()
    return _asserted(
        tid, {"girth_in_3_4_inf": g in (3, 4) or math.isinf(g)}, f"girth(N)={g}"
    )


# -- numbered statements (also run alone by `verify`) -------------------------------


def _check_thm_3_7(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "thm-3.7"
    lat, s = az.lattice, az.s_graph
    if s.n_vertices < 2:
        return _inapplicable(tid, "full graph has fewer than two vertices")
    # by Krull-Schmidt every decomposition into two simples has the same
    # isomorphism types, so the first pair decides
    pair = _atom_pair(az, lat.full_id)
    sides = {
        "triangle_free": s.triangle_free(),
        "is_k2": s.n_vertices == 2 and s.n_edges() == 1,
        "two_nonisomorphic_simples_or_short_chain": (
            pair is not None and not az.iso(*pair)
        )
        or _short_chain(az),
    }
    return _equivalent(tid, sides)


def _check_thm_3_11(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "thm-3.11"
    lat, n = az.lattice, az.n_graph
    if n.n_vertices == 0:
        return _inapplicable(tid, "proper graph empty (module is uniform)")
    bad = az.n_edge_not_strongly_disjoint
    sd_all = bad is None
    sides = {
        "triangle_free": n.triangle_free(),
        "udim2_and_strongly_disjoint": lat.uniform_dimension() == 2 and sd_all,
        "strongly_disjoint": sd_all,
    }
    wit = None
    if not sd_all:
        wit = f"adjacent pair {_lbl(az, bad[0])}, {_lbl(az, bad[1])} not strongly disjoint"
    return _equivalent(tid, sides, wit)


def _check_thm_3_12(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "thm-3.12"
    lat, n = az.lattice, az.n_graph
    if n.n_vertices == 0:
        return _inapplicable(tid, "proper graph empty (module is uniform)")
    # every edge strongly disjoint with a simple end: the non-simple
    # vertices are independent
    non_simple = [v for v in n.vertex_ids if not _is_atom(lat, v)]
    sides = {
        "is_tree": n.is_tree(),
        "strongly_disjoint_with_simple_side": az.n_edge_not_strongly_disjoint is None
        and n.is_independent_set(non_simple),
        "star_with_simple_center": n.is_star()
        and any(_is_atom(lat, c) for c in n.star_centers()),
    }
    return _equivalent(tid, sides)


def _check_thm_3_2(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "thm-3.2"
    lat, s = az.lattice, az.s_graph
    if az.is_simple_module:
        return _inapplicable(tid, "module is simple, no vertices")
    sides = {
        "is_complete": s.is_complete(),
        "uniform_or_simple_nonessentials_with_two_simple_socle": lat.is_uniform_module()
        or _simple_nonessentials_two_simple_socle(az),
    }
    return _equivalent(tid, sides)


def _check_cor_3_4(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "cor-3.4"
    lat, n = az.lattice, az.n_graph
    if not lat.is_semisimple() or az.is_simple_module:
        return _inapplicable(tid, "module not semisimple or simple")
    sides = {
        "proper_graph_complete": n.is_complete() and n.n_vertices > 0,
        "has_universal_vertex": bool(n.universal_vertices()),
        "two_simple_summands": _atom_pair(az, lat.full_id) is not None,
    }
    return _equivalent(tid, sides)


def _check_thm_3_6(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "thm-3.6"
    s = az.s_graph
    if az.is_simple_module:
        return _inapplicable(tid, "module is simple, no vertices")
    k = s.k_regular()
    sides = {
        "k_regular": k is not None,
        "complete_with_k_plus_1_vertices": s.is_complete()
        and (k is None or s.n_vertices == k + 1),
    }
    return _equivalent(tid, sides)


def _check_prop_2_5(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "prop-2.5"
    lat, s = az.lattice, az.s_graph
    if not lat.is_semisimple() or az.is_simple_module:
        return _inapplicable(tid, "module not semisimple or simple")
    for b in s.vertex_ids:
        s1 = s.degree(b) == 1
        atom = _is_atom(lat, b)
        # complements are only asked of atoms: s2 is False for the rest
        comps = lat.complements_of(b) if atom else ()
        s2 = atom and len(comps) == 1 and comps[0] != lat.zero_id
        s3 = atom and not az.has_isomorphic_twin(b)
        if not (s1 == s2 == s3):
            return _equivalent(
                tid,
                {"degree_one": s1, "unique_nonzero_complement": s2, "no_isomorphic_twin": s3},
                f"vertex {_lbl(az, b)}",
            )
    return _asserted(tid, {"all_vertices_agree": True}, None)


def _check_cor_2_7(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "cor-2.7"
    lat, s = az.lattice, az.s_graph
    if az.is_simple_module:
        return _inapplicable(tid, "module is simple, no vertices")
    sides = {
        "has_degree_one_vertex": bool(_degree_one(s)),
        "multiplicity_free_simple_or_short_chain": (
            lat.is_semisimple()
            and any(not az.has_isomorphic_twin(a) for a in lat.atoms)
        )
        or _short_chain(az),
    }
    return _equivalent(tid, sides)


def _check_prop_2_17(az: ModuleAnalysis) -> TheoremVerdict:
    """Pairs of degree-1 vertices of N(M): disjoint ones are non-isomorphic
    simples, meeting ones sum to a degree-1 vertex, and an essential sum is
    the socle of two non-isomorphic simples."""
    tid = "prop-2.17"
    lat, n = az.lattice, az.n_graph
    if n.n_vertices == 0:
        return _inapplicable(tid, "proper graph empty (module is uniform)")
    deg1 = _degree_one(n)
    disjoint = meeting = essential = None  # the first failing pair of each side
    for i, a in enumerate(deg1):
        for b in deg1[i + 1 :]:
            j = lat.join(a, b)
            simples = _is_atom(lat, a) and _is_atom(lat, b) and not az.iso(a, b)
            if lat.meet(a, b) == lat.zero_id:
                if not simples:
                    disjoint = disjoint or (a, b)
            elif not (n.has_vertex(j) and n.degree(j) == 1):
                meeting = meeting or (a, b)
            if lat.is_essential(j) and not (simples and j == lat.socle_id):
                essential = essential or (a, b)
    sides = {
        "disjoint_pairs_are_nonisomorphic_simples": disjoint is None,
        "meeting_pairs_sum_to_degree_one": meeting is None,
        "essential_sums_are_socle": essential is None,
    }
    witness = None
    if disjoint:
        witness = f"disjoint degree-1 pair {_lbl(az, disjoint[0])}, {_lbl(az, disjoint[1])}"
    elif meeting:
        witness = f"meeting degree-1 pair {_lbl(az, meeting[0])}, {_lbl(az, meeting[1])}: sum degree not 1"
    elif essential:
        witness = f"essential-sum degree-1 pair {_lbl(az, essential[0])}, {_lbl(az, essential[1])}"
    return _asserted(tid, sides, witness)


def _check_thm_2_18(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "thm-2.18"
    lat, n = az.lattice, az.n_graph
    if n.n_vertices == 0:
        return _inapplicable(tid, "proper graph empty (module is uniform)")
    deg1 = _degree_one(n)
    ok = True
    if not all(_is_atom(lat, v) for v in deg1):
        deg1_bits = sum(1 << v for v in deg1)
        largest = [v for v in deg1 if not deg1_bits & ~lat.down[v]]
        ok = len(largest) == 1
    return _asserted(
        tid,
        {"all_simple_or_unique_largest": ok},
        "no unique largest degree-1 vertex despite a non-simple one",
    )


def _check_cor_2_11(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "cor-2.11"
    lat, n = az.lattice, az.n_graph
    if n.n_vertices == 0:
        return _inapplicable(tid, "proper graph empty (module is uniform)")
    ok = all(lat.down[v] & lat.atom_mask for v in _degree_one(n))
    return _asserted(
        tid, {"degree_one_contains_simple": ok}, "a degree-1 vertex contains no simple submodule"
    )


# -- local sides of the composites -----------------------------------------------------


def _degree_one_shape(az: ModuleAnalysis) -> TheoremVerdict:
    """A degree-1 vertex of S(M) is simple, or one of two vertices with a
    simple one below it."""
    tid = "shape"
    lat, s = az.lattice, az.s_graph
    for b in _degree_one(s):
        if _is_atom(lat, b):
            continue
        if not (s.n_vertices == 2 and any(s.has_vertex(a) for a in lat.atoms_below(b))):
            return _asserted(
                tid,
                {"degree_one_shape": False},
                f"degree-1 vertex {_lbl(az, b)} is neither simple nor half of a 2-vertex graph",
            )
    return _asserted(tid, {"degree_one_shape": True}, None)


def _semisimple_complete(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "semisimple-complete"
    lat = az.lattice
    if not lat.is_semisimple():
        return _inapplicable(tid, "module not semisimple")
    sides = {
        "is_complete": az.s_graph.is_complete(),
        "two_simple_summands": _atom_pair(az, lat.full_id) is not None,
    }
    return _equivalent(tid, sides)


def _proper_complete(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "proper-complete"
    if az.lattice.is_uniform_module():
        return _inapplicable(tid, "proper graph empty (module is uniform)")
    sides = {
        "proper_graph_complete": az.n_graph.is_complete(),
        "simple_nonessentials_with_two_simple_socle": _simple_nonessentials_two_simple_socle(az),
        "full_graph_complete": az.s_graph.is_complete(),
    }
    return _equivalent(tid, sides)


def _hom_count(az: ModuleAnalysis) -> TheoremVerdict:
    """M = S1 (+) S2 with simple S1, S2: both graphs have |Hom(S1, S2)| + 1
    vertices."""
    tid = "hom-count"
    s, n = az.s_graph, az.n_graph
    pair = _atom_pair(az, az.lattice.full_id)
    if pair is None:
        return _inapplicable(tid, "module not a sum of two simples")
    want = az.homs(*pair) + 1
    return _asserted(
        tid,
        {"vertex_count_is_hom_count_plus_one": s.n_vertices == want and n.n_vertices == want},
        f"|V| = {s.n_vertices}, hom count predicts {want}",
    )


def _universal_simple(az: ModuleAnalysis) -> TheoremVerdict:
    lat = az.lattice
    ok = all(
        lat.is_essential(v) or _is_atom(lat, v) for v in az.s_graph.universal_vertices()
    )
    return _asserted(
        "universal-simple",
        {"nonessential_universal_vertices_simple": ok},
        "a nonessential universal vertex is not simple",
    )


# -- catalog checkers ----------------------------------------------------------------


def check_semisimple_equalities(az: ModuleAnalysis) -> TheoremVerdict:
    """Semisimplicity <=> S(M) equals N(M) <=> some vertex has equal degrees.

    S(M) and N(M) read the lattice's one essential-sum table, each through
    its own vertex mask, so N(M) is the subgraph of S(M) induced on V(N).
    The graphs are then equal exactly when the vertex sets and the degree
    lists each graph counts are equal.
    """
    tid = "prop-semisimple"
    if az.is_simple_module:
        return _inapplicable(tid, "module is simple, no vertices")
    lat, s, n = az.lattice, az.s_graph, az.n_graph
    # both graphs index their degrees by lattice id; an induced subgraph on
    # the same vertices with the same degrees has every edge
    graphs_equal = s.vertex_bits == n.vertex_bits and s.deg == n.deg
    shared = any(s.degree(x) == n.degree(x) for x in n.vertex_ids)
    sides = {
        "is_semisimple": lat.is_semisimple(),
        "graphs_equal": graphs_equal,
        "some_vertex_same_degree_in_both": shared,
    }
    return _equivalent(tid, sides)


def check_example_degree_formula(az: ModuleAnalysis) -> TheoremVerdict:
    """Multiplicity-free semisimple: vertex degrees are 2^{#atoms below} - 1."""
    tid = "ex-1.2"
    lat = az.lattice
    if not lat.is_semisimple():
        return _inapplicable(tid, "module not semisimple")
    if len(lat.atoms) < 2:
        return _inapplicable(tid, "fewer than two simple summands")
    if any(len(c) > 1 for c in az.atom_iso_classes):
        return _inapplicable(tid, "isomorphic simple summands present")
    n_atoms = len(lat.atoms)
    s = az.s_graph
    formula_ok = True
    witness = None
    for v in s.vertex_ids:
        k = len(lat.atoms_below(v))
        want = 2**k - 1
        if s.degree(v) != want:
            formula_ok = False
            witness = f"deg({_lbl(az, v)}) = {s.degree(v)}, expected {want}"
            break
    degrees = s.degrees().values()
    coatom_deg = 2 ** (n_atoms - 1) - 1
    extremes_ok = (
        max(degrees) == coatom_deg
        and min(degrees) == 1
        and all(s.degree(c) == coatom_deg for c in lat.coatoms)
        and all(s.degree(a) == 1 for a in lat.atoms)
    )
    sides = {
        "subset_bijection": lat.count == 2**n_atoms,
        "degree_formula": formula_ok,
        "extreme_degrees": extremes_ok,
    }
    return _asserted(tid, sides, witness)


_DEG1_S_PARTS = (
    ("degree_one_shape", _degree_one_shape),
    ("semisimple_three_way", _check_prop_2_5),
    ("degree_one_dichotomy", _check_cor_2_7),
)


def check_deg1_in_S(az: ModuleAnalysis) -> TheoremVerdict:
    """Degree-1 vertices of the full graph: shape, semisimple case, dichotomy."""
    if az.is_simple_module:
        return _inapplicable("deg1-S", "module is simple, no vertices")
    return _composite("deg1-S", az, _DEG1_S_PARTS)


def check_deg1_in_N(az: ModuleAnalysis) -> TheoremVerdict:
    """Four-way characterization of degree-1 vertices of the proper graph."""
    tid = "thm-2.13"
    lat, n = az.lattice, az.n_graph
    if n.n_vertices == 0:
        return _inapplicable(tid, "proper graph empty (module is uniform)")
    witness = None

    agree_ok = True
    iso_restate_ok = True
    for u in n.vertex_ids:
        meeting = lat.meeting(u)
        meets_ok = _meets_imply_socle(az, u, meeting)
        cond_i = lat.is_uniform(u) and _unique_semisimple_complement(az, u)
        s1 = n.degree(u) == 1
        s2 = cond_i and _elementwise_separation(az, u)
        s3 = cond_i and meets_ok
        s4_iii = lat.is_uniform(u) and _socle_meet_unique_complement(az, u)
        s4 = _disjoints_inside_socle(az, meeting) and meets_ok and s4_iii
        if not (s1 == s2 == s3 == s4):
            agree_ok = False
            witness = (
                f"vertex {_lbl(az, u)}: degree_one={s1}, element_condition={s2}, "
                f"socle_condition={s3}, lattice_conditions={s4}"
            )
            break
        # restatement: unique complement of U∩soc inside soc <=> no other
        # submodule of M isomorphic to U∩soc (both under uniformity)
        s4_iii_prime = lat.is_uniform(u) and not az.has_isomorphic_twin(
            lat.meet(u, lat.socle_id)
        )
        if s4_iii != s4_iii_prime:
            iso_restate_ok = False
            witness = (
                f"vertex {_lbl(az, u)}: unique_complement_form={s4_iii}, "
                f"isomorphism_form={s4_iii_prime}"
            )
            break

    consequences_ok = True
    neighbor_ok = True
    if agree_ok and iso_restate_ok:
        for u in n.vertex_ids:
            if n.degree(u) != 1:
                continue
            if not lat.is_uniform(u):
                consequences_ok = False
                witness = f"degree-1 vertex {_lbl(az, u)} not uniform"
                break
            below = [b for b in _iter_bits(lat.down[u] & n.vertex_bits) if n.degree(b) != 1]
            if below:
                consequences_ok = False
                witness = f"vertex {_lbl(az, below[0])} below degree-1 {_lbl(az, u)} has degree {n.degree(below[0])}"
                break
            comps = lat.complements_of(u)
            if not all(az.sub_is_semisimple(c) for c in comps):
                consequences_ok = False
                witness = f"complement of {_lbl(az, u)} not semisimple"
                break
            s_meet = lat.meet(u, lat.socle_id)
            neighbor = n.neighbors(u)[0]
            c_pred = lat.zero_id
            for a in lat.atoms:
                if a != s_meet:
                    c_pred = lat.join(c_pred, a)
            if neighbor != c_pred:
                neighbor_ok = False
                witness = (
                    f"unique neighbor of {_lbl(az, u)} is {_lbl(az, neighbor)}, "
                    f"expected sum of other simples {_lbl(az, c_pred)}"
                )
                break

    sides = {
        "four_conditions_agree": agree_ok,
        "isomorphism_restatement_agrees": iso_restate_ok,
        "degree_one_consequences": consequences_ok,
        "unique_neighbor_is_sum_of_other_simples": neighbor_ok,
    }
    return _asserted(tid, sides, witness)


_DEG1_INTERACTIONS_PARTS = (
    (None, _check_prop_2_17),
    ("all_simple_or_unique_largest", _check_thm_2_18),
    ("degree_one_contains_simple", _check_cor_2_11),
)


def check_deg1_interactions(az: ModuleAnalysis) -> TheoremVerdict:
    """How degree-1 vertices of the proper graph interact pairwise/globally."""
    if az.n_graph.n_vertices == 0:
        return _inapplicable("deg1-interactions", "proper graph empty (module is uniform)")
    return _composite("deg1-interactions", az, _DEG1_INTERACTIONS_PARTS)


_COMPLETE_PARTS = (
    ("complete_iff_uniform_or_two_simple_socle", _check_thm_3_2),
    ("semisimple_complete_iff_two_simples", _semisimple_complete),
    ("proper_graph_complete_iff_same", _proper_complete),
    ("semisimple_universal_equivalence", _check_cor_3_4),
    ("vertex_count_is_hom_count_plus_one", _hom_count),
    ("k_regular_iff_complete", _check_thm_3_6),
    ("nonessential_universal_vertices_simple", _universal_simple),
)


def check_complete_characterizations(az: ModuleAnalysis) -> TheoremVerdict:
    """Complete/k-regular characterizations of both graphs."""
    if az.is_simple_module:
        return _inapplicable("complete", "module is simple, no vertices")
    return _composite("complete", az, _COMPLETE_PARTS)


_TRIANGLEFREE_PARTS = (
    ("s_trianglefree_iff_k2", _check_thm_3_7),
    ("n_trianglefree_iff_strongly_disjoint", _check_thm_3_11),
    ("n_tree_iff_star_with_simple_center", _check_thm_3_12),
    ("s_girth_in_3_inf", check_girth_s),
    ("n_girth_in_3_4_inf", check_girth_n),
)


def check_trianglefree_tree_girth(az: ModuleAnalysis) -> TheoremVerdict:
    """Triangle-free and tree characterizations plus girth membership."""
    if az.s_graph.n_vertices < 2 and az.n_graph.n_vertices == 0:
        return _inapplicable(
            "trianglefree", "full graph below two vertices and proper graph empty"
        )
    return _composite("trianglefree", az, _TRIANGLEFREE_PARTS)


def check_npartite(az: ModuleAnalysis) -> TheoremVerdict:
    """n maximal submodules: the full graph is n-partite iff semisimple."""
    tid = "npartite"
    lat = az.lattice
    try:
        w = n_partite_witness(lat, az.s_graph)
    except HypothesisNotMet as exc:
        return _inapplicable(tid, str(exc))
    ss = lat.is_semisimple()
    sides = {
        "witness_branch_matches_semisimplicity": (w.kind == "partition") == ss,
        "witness_valid": w.valid,
    }
    return _asserted(tid, sides, w.detail if not w.valid else None)


def _subspace_count(k: int, q: int) -> int:
    """Subspaces of F_q^k: the sum over b of the Gaussian binomials [k, b]_q."""
    total, term = 0, 1
    for b in range(k + 1):
        total += term
        # [k, b + 1]_q = [k, b]_q (q^(k-b) - 1) / (q^(b+1) - 1)
        term = term * (q ** (k - b) - 1) // (q ** (b + 1) - 1)
    return total


def _isotypic_count(az: ModuleAnalysis) -> int:
    """Submodules of a semisimple M = (+)_i S_i^(k_i), counted from module maps.

    Each isotypic component S_i^(k_i), the join of S_i's atom class, is a
    k_i-dimensional space over End(S_i), a finite division ring and so a
    field of q_i = |End(S_i)| elements (Wedderburn), and a submodule is the
    sum of one subspace of each component.
    """
    lat = az.lattice
    total = 1
    for cls in az.atom_iso_classes:
        simple = lat.subs[cls[0]].size
        k = round(math.log(lat.subs[reduce(lat.join, cls)].size, simple))
        total *= _subspace_count(k, az.homs(cls[0], cls[0]))
    return total


def check_finiteness_conditions(az: ModuleAnalysis) -> TheoremVerdict:
    """Finiteness characterization: the two substantive branches of (4).

    A semisimple module has as many submodules as its isotypic components
    predict; a non-semisimple one has a proper essential socle, read from
    the order: the atoms' up-sets (lattice.meeting) cover every nonzero id.
    socle_essential reads it by quantifier (is_essential_definitional); the
    fast path is_essential would test the socle against itself.
    """
    tid = "finiteness"
    lat = az.lattice
    socle_essential = lat.is_essential_definitional(lat.socle_id)
    witness = None
    if lat.is_semisimple():
        predicted = _isotypic_count(az)
        branch = lat.count == predicted
        if not branch:
            witness = f"{lat.count} submodules, isotypic count predicts {predicted}"
    else:
        nonzero = lat.down[lat.full_id] & ~(1 << lat.zero_id)
        branch = not (nonzero & ~lat.meeting(lat.socle_id))
        if not branch:
            witness = "no proper essential submodule found in non-semisimple module"
    sides = {
        "socle_essential": socle_essential,
        "condition_four_branch": branch,
    }
    return _asserted(tid, sides, witness)


# -- catalog -------------------------------------------------------------------------

CATALOG_ALL = (
    "prop-semisimple",
    "ex-1.2",
    "deg1-S",
    "thm-2.13",
    "deg1-interactions",
    "complete",
    "trianglefree",
    "npartite",
    "finiteness",
)

CORPUS_GATES = ("thm-1.5", "thm-girth-S", "thm-girth-N")

REGISTRY = {
    "prop-semisimple": check_semisimple_equalities,
    "ex-1.2": check_example_degree_formula,
    "deg1-S": check_deg1_in_S,
    "thm-2.13": check_deg1_in_N,
    "deg1-interactions": check_deg1_interactions,
    "complete": check_complete_characterizations,
    "trianglefree": check_trianglefree_tree_girth,
    "npartite": check_npartite,
    "finiteness": check_finiteness_conditions,
    "thm-1.5": check_connectivity_diameter,
    "thm-girth-S": check_girth_s,
    "thm-girth-N": check_girth_n,
    "thm-3.7": _check_thm_3_7,
    "thm-3.11": _check_thm_3_11,
    "thm-3.12": _check_thm_3_12,
    "thm-3.2": _check_thm_3_2,
    "cor-3.4": _check_cor_3_4,
    "thm-3.6": _check_thm_3_6,
    "prop-2.5": _check_prop_2_5,
    "cor-2.7": _check_cor_2_7,
    "prop-2.17": _check_prop_2_17,
    "thm-2.18": _check_thm_2_18,
    "cor-2.11": _check_cor_2_11,
}


def selected_ids(ids="all") -> tuple[str, ...]:
    """The checker ids named by ids, in order: "all" (CATALOG_ALL), one id,
    or an iterable of ids; unknown ids raise UnknownTheoremId."""
    if ids == "all":
        selected = CATALOG_ALL
    elif isinstance(ids, str):
        selected = (ids,)
    else:
        selected = tuple(ids)
    for tid in selected:
        if tid not in REGISTRY:
            raise UnknownTheoremId(f"unknown theorem id {tid!r}")
    return selected


def run_catalog(az: ModuleAnalysis, ids="all") -> list[TheoremVerdict]:
    """Run the selected checkers in fixed order; unknown ids raise."""
    return [REGISTRY[tid](az) for tid in selected_ids(ids)]
