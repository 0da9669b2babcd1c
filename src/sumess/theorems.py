"""Checkers for the structural results on sum-essential graphs.

Each checker evaluates every side of one characterization independently on a
concrete finite module and reports agreement as a TheoremVerdict. Checkers
never raise on unmet hypotheses; they return an inapplicable verdict, so a
catalog run over a corpus always completes.

Catalog keys are stable strings used by the command line (`verify`) and the
corpus CSV. `run_catalog(analysis, "all")` runs the nine composite suites.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import ModuleAnalysis
from .errors import HypothesisNotMet, UnknownTheoremId
from .graphs import n_partite_witness


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


def _lbl(az: ModuleAnalysis, i: int) -> str:
    return az.lattice.subs[i].label


# -- shared sub-predicates ------------------------------------------------------


def _unique_semisimple_complement(az: ModuleAnalysis, u: int) -> bool:
    comps = az.lattice.complements_of(u)
    return len(comps) == 1 and az.sub_is_semisimple(comps[0])


def _elementwise_separation(az: ModuleAnalysis, u: int) -> bool:
    """For every simple F not below U and nonzero f in F, u' in U, some action
    element kills u' but not f. Annihilator containment ann(u') <= ann(f) is
    exactly the failure of that, so the check runs over annihilator classes."""
    mod, lat = az.module, az.lattice
    mu = lat.subs[u].mask
    u_anns = {mod.ann_mask(int(x)) for x in lat.subs[u].members if x != 0}
    for f_id in lat.atoms:
        mf = lat.subs[f_id].mask
        if mf & mu == mf:
            continue
        for f in lat.subs[f_id].members:
            if f == 0:
                continue
            ann_f = mod.ann_mask(int(f))
            for ann_u in u_anns:
                if ann_u & ~ann_f == 0:
                    return False
    return True


def _meets_imply_socle(az: ModuleAnalysis, u: int) -> bool:
    """Every E meeting U nontrivially with U+E essential contains the socle."""
    lat = az.lattice
    return not (lat.meeting(u) & ~lat.inessential_sums(u) & ~lat.up[lat.socle_id])


def _disjoints_inside_socle(az: ModuleAnalysis, u: int) -> bool:
    """Every E meeting U trivially lies inside the socle."""
    lat = az.lattice
    return not (lat.down[lat.full_id] & ~lat.meeting(u) & ~lat.down[lat.socle_id])


def _socle_meet_unique_complement(az: ModuleAnalysis, u: int) -> bool:
    lat = az.lattice
    s = lat.meet(u, lat.socle_id)
    return len(lat.complements_within(s, lat.socle_id)) == 1


def _two_simple_socle(az: ModuleAnalysis) -> bool:
    """socle = S1 (+) S2 for distinct simple S1, S2, and essential."""
    lat = az.lattice
    atoms = lat.atoms
    for i, a in enumerate(atoms):
        for b in atoms[i + 1 :]:
            if lat.meet(a, b) == lat.zero_id and lat.join(a, b) == lat.socle_id:
                return lat.is_essential(lat.socle_id)
    return False


def _two_simple_module(az: ModuleAnalysis, require_noniso: bool = False) -> bool:
    """M itself is a direct sum of two simples (optionally non-isomorphic)."""
    lat = az.lattice
    atoms = lat.atoms
    for i, a in enumerate(atoms):
        for b in atoms[i + 1 :]:
            if lat.meet(a, b) == lat.zero_id and lat.join(a, b) == lat.full_id:
                if not require_noniso or not az.iso(a, b):
                    return True
    return False


def _adjacent_pairs_sd(az: ModuleAnalysis) -> tuple[bool, str | None]:
    """All adjacent pairs of the proper graph strongly disjoint (element route)."""
    lat, g = az.lattice, az.n_graph
    for a, b in g.edges():
        if not lat.element_disjoint(a, b):
            return False, f"adjacent pair {_lbl(az, a)}, {_lbl(az, b)} not strongly disjoint"
    return True, None


def _adjacent_pairs_sd_with_simple(az: ModuleAnalysis) -> tuple[bool, str | None]:
    lat, g = az.lattice, az.n_graph
    atoms = set(lat.atoms)
    for a, b in g.edges():
        if not lat.element_disjoint(a, b) or (a not in atoms and b not in atoms):
            return False, f"pair {_lbl(az, a)}, {_lbl(az, b)} violates"
    return True, None


# -- composite checkers ----------------------------------------------------------


def check_semisimple_equalities(az: ModuleAnalysis) -> TheoremVerdict:
    """Semisimplicity <=> S(M) equals N(M) <=> some vertex has equal degrees."""
    tid = "prop-semisimple"
    if az.is_simple_module:
        return _inapplicable(tid, "module is simple, no vertices")
    lat, s, n = az.lattice, az.s_graph, az.n_graph
    # both graphs list their vertices in ascending lattice id, so equal
    # vertex tuples make rows at the same position describe the same vertex
    graphs_equal = s.vertex_ids == n.vertex_ids and s.rows == n.rows
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
    if any(len(c) > 1 for c in az.atom_iso_classes()):
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
    rep = s.report()
    coatom_deg = 2 ** (n_atoms - 1) - 1
    extremes_ok = (
        rep.max_degree == coatom_deg
        and rep.min_degree == 1
        and all(s.degree(c) == coatom_deg for c in lat.coatoms)
        and all(s.degree(a) == 1 for a in lat.atoms)
    )
    sides = {
        "subset_bijection": lat.count == 2**n_atoms,
        "degree_formula": formula_ok,
        "extreme_degrees": extremes_ok,
    }
    return _asserted(tid, sides, witness)


def check_deg1_in_S(az: ModuleAnalysis) -> TheoremVerdict:
    """Degree-1 vertices of the full graph: shape, semisimple case, dichotomy."""
    tid = "deg1-S"
    if az.is_simple_module:
        return _inapplicable(tid, "module is simple, no vertices")
    lat, s = az.lattice, az.s_graph
    atoms = set(lat.atoms)
    witness = None

    shape_ok = True
    for b in s.vertex_ids:
        if s.degree(b) != 1:
            continue
        if b in atoms:
            continue
        inner = [a for a in lat.atoms if lat.leq(a, b)]
        if not (
            len(s.vertex_ids) == 2
            and any(a != b and a in s.vertex_ids for a in inner)
        ):
            shape_ok = False
            witness = f"degree-1 vertex {_lbl(az, b)} is neither simple nor half of a 2-vertex graph"
            break

    threeway_ok = True
    if lat.is_semisimple():
        for b in s.vertex_ids:
            s1 = s.degree(b) == 1
            comps = lat.complements_of(b)
            s2 = b in atoms and len(comps) == 1 and comps[0] != lat.zero_id
            s3 = b in atoms and not az.is_simple_module and not az.has_isomorphic_twin(b)
            if not (s1 == s2 == s3):
                threeway_ok = False
                witness = (
                    f"vertex {_lbl(az, b)}: degree_one={s1}, "
                    f"unique_nonzero_complement={s2}, no_isomorphic_twin={s3}"
                )
                break

    has_deg1 = any(s.degree(v) == 1 for v in s.vertex_ids)
    semis_branch = lat.is_semisimple() and any(
        not az.has_isomorphic_twin(a) for a in lat.atoms if a != lat.full_id
    )
    chain_branch = lat.is_chain() and len(lat.nontrivial_ids()) == 2
    dichotomy_ok = has_deg1 == (semis_branch or chain_branch)
    if not dichotomy_ok and witness is None:
        witness = (
            f"has_degree_one={has_deg1} but semisimple_branch={semis_branch}, "
            f"chain_branch={chain_branch}"
        )

    sides = {
        "degree_one_shape": shape_ok,
        "semisimple_three_way": threeway_ok,
        "degree_one_dichotomy": dichotomy_ok,
    }
    return _asserted(tid, sides, witness)


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
        cond_i = lat.is_uniform(u) and _unique_semisimple_complement(az, u)
        s1 = n.degree(u) == 1
        s2 = cond_i and _elementwise_separation(az, u)
        s3 = cond_i and _meets_imply_socle(az, u)
        s4_iii = lat.is_uniform(u) and _socle_meet_unique_complement(az, u)
        s4 = (
            _disjoints_inside_socle(az, u)
            and _meets_imply_socle(az, u)
            and s4_iii
        )
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
            below = [
                b for b in n.vertex_ids if lat.leq(b, u) and n.degree(b) != 1
            ]
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


def check_deg1_interactions(az: ModuleAnalysis) -> TheoremVerdict:
    """How degree-1 vertices of the proper graph interact pairwise/globally."""
    tid = "deg1-interactions"
    lat, n = az.lattice, az.n_graph
    if n.n_vertices == 0:
        return _inapplicable(tid, "proper graph empty (module is uniform)")
    deg1 = [v for v in n.vertex_ids if n.degree(v) == 1]
    atoms = set(lat.atoms)
    witness = None

    disjoint_ok = meeting_ok = essential_ok = True
    for i, a in enumerate(deg1):
        for b in deg1[i + 1 :]:
            j = lat.join(a, b)
            if lat.meet(a, b) == lat.zero_id:
                if not (a in atoms and b in atoms and not az.iso(a, b)):
                    disjoint_ok = False
                    witness = f"disjoint degree-1 pair {_lbl(az, a)}, {_lbl(az, b)}"
            else:
                if not (n.has_vertex(j) and n.degree(j) == 1):
                    meeting_ok = False
                    witness = f"meeting degree-1 pair {_lbl(az, a)}, {_lbl(az, b)}: sum degree not 1"
            if lat.is_essential(j):
                if not (
                    a in atoms
                    and b in atoms
                    and not az.iso(a, b)
                    and j == lat.socle_id
                ):
                    essential_ok = False
                    witness = f"essential-sum degree-1 pair {_lbl(az, a)}, {_lbl(az, b)}"

    largest_ok = True
    if deg1 and not all(v in atoms for v in deg1):
        largest = [v for v in deg1 if all(lat.leq(w, v) for w in deg1)]
        largest_ok = len(largest) == 1
        if not largest_ok:
            witness = "no unique largest degree-1 vertex despite a non-simple one"

    contain_ok = all(any(lat.leq(a, v) for a in lat.atoms) for v in deg1)
    if not contain_ok and witness is None:
        witness = "a degree-1 vertex contains no simple submodule"

    sides = {
        "disjoint_pairs_are_nonisomorphic_simples": disjoint_ok,
        "meeting_pairs_sum_to_degree_one": meeting_ok,
        "essential_sums_are_socle": essential_ok,
        "all_simple_or_unique_largest": largest_ok,
        "degree_one_contains_simple": contain_ok,
    }
    return _asserted(tid, sides, witness)


def check_complete_characterizations(az: ModuleAnalysis) -> TheoremVerdict:
    """Complete/k-regular characterizations of both graphs."""
    tid = "complete"
    if az.is_simple_module:
        return _inapplicable(tid, "module is simple, no vertices")
    lat, s, n = az.lattice, az.s_graph, az.n_graph
    witness = None

    complete_s = s.is_complete()
    all_nonessential_simple = all(
        lat.is_essential(i) or i in set(lat.atoms)
        for i in range(lat.count)
        if i != lat.zero_id
    )
    structure = lat.is_uniform_module() or (
        all_nonessential_simple and _two_simple_socle(az)
    )
    thm_complete = complete_s == structure
    if not thm_complete:
        witness = f"complete(S)={complete_s} but structural side={structure}"

    semis_complete = True
    if lat.is_semisimple():
        semis_complete = complete_s == _two_simple_module(az)
        if not semis_complete and witness is None:
            witness = "semisimple completeness mismatch"

    proper_iff = True
    if not lat.is_uniform_module():
        cond = all_nonessential_simple and _two_simple_socle(az)
        proper_iff = (n.is_complete() == cond) and (n.is_complete() == complete_s)
        if not proper_iff and witness is None:
            witness = f"complete(N)={n.is_complete()}, structural={cond}, complete(S)={complete_s}"

    universal_equiv = True
    hom_count_ok = True
    if lat.is_semisimple():
        a_side = n.is_complete()
        b_side = bool(n.universal_vertices())
        c_side = _two_simple_module(az)
        universal_equiv = a_side == b_side == c_side
        if not universal_equiv and witness is None:
            witness = (
                f"complete(N)={a_side}, universal_vertex={b_side}, two_simples={c_side}"
            )
        if c_side:
            pair = None
            for i, a in enumerate(lat.atoms):
                for b in lat.atoms[i + 1 :]:
                    if lat.meet(a, b) == lat.zero_id and lat.join(a, b) == lat.full_id:
                        pair = (a, b)
                        break
                if pair:
                    break
            want = az.homs(pair[0], pair[1]) + 1
            hom_count_ok = s.n_vertices == want and n.n_vertices == want
            if not hom_count_ok and witness is None:
                witness = f"|V| = {s.n_vertices}, hom count predicts {want}"

    k = s.k_regular()
    regular_iff = (k is not None) == complete_s and (
        k is None or k == s.n_vertices - 1
    )
    if not regular_iff and witness is None:
        witness = f"k_regular={k}, complete(S)={complete_s}, |V|={s.n_vertices}"

    universal_atoms = all(
        lat.is_essential(v) or v in set(lat.atoms) for v in s.universal_vertices()
    )
    if not universal_atoms and witness is None:
        witness = "a nonessential universal vertex is not simple"

    sides = {
        "complete_iff_uniform_or_two_simple_socle": thm_complete,
        "semisimple_complete_iff_two_simples": semis_complete,
        "proper_graph_complete_iff_same": proper_iff,
        "semisimple_universal_equivalence": universal_equiv,
        "vertex_count_is_hom_count_plus_one": hom_count_ok,
        "k_regular_iff_complete": regular_iff,
        "nonessential_universal_vertices_simple": universal_atoms,
    }
    return _asserted(tid, sides, witness)


def check_trianglefree_tree_girth(az: ModuleAnalysis) -> TheoremVerdict:
    """Triangle-free and tree characterizations plus girth membership."""
    tid = "trianglefree"
    lat, s, n = az.lattice, az.s_graph, az.n_graph
    if s.n_vertices < 2 and n.n_vertices == 0:
        return _inapplicable(tid, "full graph below two vertices and proper graph empty")
    witness = None

    s_equiv = True
    if s.n_vertices >= 2:
        tf = s.triangle_free()
        is_k2 = s.n_vertices == 2 and s.n_edges() == 1
        structure = _two_simple_module(az, require_noniso=True) or (
            lat.is_chain() and len(lat.nontrivial_ids()) == 2
        )
        s_equiv = tf == is_k2 == structure
        if not s_equiv:
            witness = f"triangle_free(S)={tf}, K2={is_k2}, structure={structure}"

    n_equiv = True
    tree_equiv = True
    if n.n_vertices:
        sd_all, sd_wit = _adjacent_pairs_sd(az)
        tf_n = n.triangle_free()
        two_dim = lat.uniform_dimension() == 2
        n_equiv = tf_n == (two_dim and sd_all) == sd_all
        if not n_equiv and witness is None:
            witness = sd_wit or f"triangle_free(N)={tf_n}, udim2={two_dim}, sd={sd_all}"

        sd_simple, sds_wit = _adjacent_pairs_sd_with_simple(az)
        tree = n.is_tree()
        star_atom = n.is_star() and any(
            c in set(lat.atoms) for c in n.star_centers()
        )
        tree_equiv = tree == sd_simple == star_atom
        if not tree_equiv and witness is None:
            witness = sds_wit or f"tree={tree}, sd_with_simple={sd_simple}, star_atom_center={star_atom}"

    g_s = s.girth()
    s_girth_ok = g_s == 3 or math.isinf(g_s)
    g_n = n.girth()
    n_girth_ok = g_n in (3, 4) or math.isinf(g_n)
    if not (s_girth_ok and n_girth_ok) and witness is None:
        witness = f"girth(S)={g_s}, girth(N)={g_n}"

    sides = {
        "s_trianglefree_iff_k2": s_equiv,
        "n_trianglefree_iff_strongly_disjoint": n_equiv,
        "n_tree_iff_star_with_simple_center": tree_equiv,
        "s_girth_in_3_inf": s_girth_ok,
        "n_girth_in_3_4_inf": n_girth_ok,
    }
    return _asserted(tid, sides, witness)


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


def check_finiteness_conditions(az: ModuleAnalysis) -> TheoremVerdict:
    """Finiteness characterization: the two substantive branches of (4)."""
    tid = "finiteness"
    lat = az.lattice
    witness = None
    if lat.is_semisimple():
        family = lat._independent_atom_family()
        acc = lat.zero_id
        direct = True
        for a in family:
            if lat.meet(acc, a) != lat.zero_id:
                direct = False
            acc = lat.join(acc, a)
        decomposition_ok = direct and acc == lat.full_id
        if not decomposition_ok:
            witness = "greedy simple decomposition not direct or not spanning"
        for i, a in enumerate(family):
            for b in family[i + 1 :]:
                az.homs(a, b)
        branch = decomposition_ok
    else:
        branch = lat.socle_id != lat.full_id and lat.is_essential(lat.socle_id)
        if not branch:
            witness = "no proper essential submodule found in non-semisimple module"
    sides = {
        "finite_enumeration_recorded": True,
        "socle_essential": lat.is_essential(lat.socle_id),
        "condition_four_branch": branch,
    }
    return _asserted(tid, sides, witness)


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


# -- fine-grained checkers (single statements, for `verify`) -------------------------


def _check_thm_3_7(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "thm-3.7"
    lat, s = az.lattice, az.s_graph
    if s.n_vertices < 2:
        return _inapplicable(tid, "full graph has fewer than two vertices")
    sides = {
        "triangle_free": s.triangle_free(),
        "is_k2": s.n_vertices == 2 and s.n_edges() == 1,
        "two_nonisomorphic_simples_or_short_chain": _two_simple_module(
            az, require_noniso=True
        )
        or (lat.is_chain() and len(lat.nontrivial_ids()) == 2),
    }
    return _equivalent(tid, sides)


def _check_thm_3_11(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "thm-3.11"
    lat, n = az.lattice, az.n_graph
    if n.n_vertices == 0:
        return _inapplicable(tid, "proper graph empty (module is uniform)")
    sd_all, wit = _adjacent_pairs_sd(az)
    sides = {
        "triangle_free": n.triangle_free(),
        "udim2_and_strongly_disjoint": lat.uniform_dimension() == 2 and sd_all,
        "strongly_disjoint": sd_all,
    }
    return _equivalent(tid, sides, wit)


def _check_thm_3_12(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "thm-3.12"
    lat, n = az.lattice, az.n_graph
    if n.n_vertices == 0:
        return _inapplicable(tid, "proper graph empty (module is uniform)")
    sd_simple, wit = _adjacent_pairs_sd_with_simple(az)
    sides = {
        "is_tree": n.is_tree(),
        "strongly_disjoint_with_simple_side": sd_simple,
        "star_with_simple_center": n.is_star()
        and any(c in set(lat.atoms) for c in n.star_centers()),
    }
    return _equivalent(tid, sides, wit)


def _check_thm_3_2(az: ModuleAnalysis) -> TheoremVerdict:
    tid = "thm-3.2"
    lat, s = az.lattice, az.s_graph
    if az.is_simple_module:
        return _inapplicable(tid, "module is simple, no vertices")
    all_nonessential_simple = all(
        lat.is_essential(i) or i in set(lat.atoms)
        for i in range(lat.count)
        if i != lat.zero_id
    )
    sides = {
        "is_complete": s.is_complete(),
        "uniform_or_simple_nonessentials_with_two_simple_socle": lat.is_uniform_module()
        or (all_nonessential_simple and _two_simple_socle(az)),
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
        "two_simple_summands": _two_simple_module(az),
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
    atoms = set(lat.atoms)
    for b in s.vertex_ids:
        s1 = s.degree(b) == 1
        comps = lat.complements_of(b)
        s2 = b in atoms and len(comps) == 1 and comps[0] != lat.zero_id
        s3 = b in atoms and not az.has_isomorphic_twin(b)
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
        "has_degree_one_vertex": any(s.degree(v) == 1 for v in s.vertex_ids),
        "multiplicity_free_simple_or_short_chain": (
            lat.is_semisimple()
            and any(not az.has_isomorphic_twin(a) for a in lat.atoms if a != lat.full_id)
        )
        or (lat.is_chain() and len(lat.nontrivial_ids()) == 2),
    }
    return _equivalent(tid, sides)


def _check_prop_2_17(az: ModuleAnalysis) -> TheoremVerdict:
    v = check_deg1_interactions(az)
    sides = {
        k: val
        for k, val in v.sides.items()
        if k
        in (
            "disjoint_pairs_are_nonisomorphic_simples",
            "meeting_pairs_sum_to_degree_one",
            "essential_sums_are_socle",
        )
    }
    if not v.applicable:
        return _inapplicable("prop-2.17", v.witness or "hypothesis not met")
    return _asserted("prop-2.17", sides, v.witness)


def _check_thm_2_18(az: ModuleAnalysis) -> TheoremVerdict:
    v = check_deg1_interactions(az)
    if not v.applicable:
        return _inapplicable("thm-2.18", v.witness or "hypothesis not met")
    sides = {"all_simple_or_unique_largest": v.sides["all_simple_or_unique_largest"]}
    return _asserted("thm-2.18", sides, v.witness)


def _check_cor_2_11(az: ModuleAnalysis) -> TheoremVerdict:
    v = check_deg1_interactions(az)
    if not v.applicable:
        return _inapplicable("cor-2.11", v.witness or "hypothesis not met")
    sides = {"degree_one_contains_simple": v.sides["degree_one_contains_simple"]}
    return _asserted("cor-2.11", sides, v.witness)


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


def run_catalog(az: ModuleAnalysis, ids="all") -> list[TheoremVerdict]:
    """Run the selected checkers in fixed order; unknown ids raise."""
    if ids == "all":
        selected = CATALOG_ALL
    elif isinstance(ids, str):
        selected = (ids,)
    else:
        selected = tuple(ids)
    for tid in selected:
        if tid not in REGISTRY:
            raise UnknownTheoremId(f"unknown theorem id {tid!r}")
    return [REGISTRY[tid](az) for tid in selected]
