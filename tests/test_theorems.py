"""Checker catalog: verdict structure, known instances, corpus-wide passes."""
import pytest

from sumess import (
    CATALOG_ALL,
    Caps,
    CorpusSpec,
    LatticeCapExceeded,
    ModuleAnalysis,
    REGISTRY,
    SubmoduleLattice,
    UnknownTheoremId,
    enumerate_corpus,
    generated_module,
    integer_module,
    is_isomorphic,
    run_catalog,
)
from sumess.modules import _mask_from_bits
from sumess.theorems import (
    _COMPLETE_PARTS,
    _DEG1_INTERACTIONS_PARTS,
    _DEG1_S_PARTS,
    _TRIANGLEFREE_PARTS,
    _asserted,
    _atom_pair,
    _composite,
    _elementwise_separation,
    _equivalent,
    _inapplicable,
)

COMPOSITE_PARTS = {
    "deg1-S": _DEG1_S_PARTS,
    "deg1-interactions": _DEG1_INTERACTIONS_PARTS,
    "complete": _COMPLETE_PARTS,
    "trianglefree": _TRIANGLEFREE_PARTS,
}


def _az(*moduli):
    name = "".join(f"z{m}" for m in moduli)
    return ModuleAnalysis(integer_module(name, *moduli))


# -- verdict plumbing -----------------------------------------------------------


def test_verdict_helpers():
    v = _equivalent("x", {"a": True, "b": True})
    assert v.passed and v.witness is None
    v = _equivalent("x", {"a": False, "b": False})
    assert v.passed  # both sides false still means the equivalence holds
    v = _equivalent("x", {"a": True, "b": False})
    assert not v.passed and v.witness is not None
    v = _asserted("x", {"a": True, "b": False}, None)
    assert not v.passed and "b=False" in v.witness
    v = _inapplicable("x", "why")
    assert not v.applicable and not v.passed and v.sides == {} and v.witness == "why"


def _stub(tid, passed=True, applicable=True):
    def check(az):
        if not applicable:
            return _inapplicable(tid, f"{tid} does not apply")
        return _asserted(tid, {f"{tid}_side": passed}, f"{tid} failed")

    return check


def test_composite_reports_first_failing_part():
    parts = (
        ("a", _stub("a")),
        ("b", _stub("b", passed=False)),
        ("c", _stub("c", passed=False)),
        ("d", _stub("d", passed=False, applicable=False)),
    )
    v = _composite("x", None, parts)
    assert v.sides == {"a": True, "b": False, "c": False, "d": True}
    assert not v.passed and v.witness == "b failed"
    v = _composite("x", None, parts[::-1])
    assert v.witness == "c failed"
    # a side of None splices in the part's own sides
    v = _composite("x", None, ((None, _stub("a")), (None, _stub("b", passed=False))))
    assert v.sides == {"a_side": True, "b_side": False}
    assert v.witness == "b failed"
    v = _composite("x", None, parts[:1] + parts[3:])
    assert v.passed and v.witness is None


def test_verdict_invariant_everywhere(corpus_analyses):
    """pass implies applicable; witness present exactly when not passing."""
    ids = list(REGISTRY)
    for name, az in corpus_analyses.items():
        for v in run_catalog(az, ids):
            if v.passed:
                assert v.applicable, (name, v.theorem_id)
                assert v.witness is None, (name, v.theorem_id)
            else:
                assert v.witness, (name, v.theorem_id)
            if not v.applicable:
                assert v.sides == {}, (name, v.theorem_id)
            d = v.as_dict()
            assert d["pass"] == v.passed
            assert d["theorem_id"] == v.theorem_id


def test_run_catalog_all_order(z8z2):
    verdicts = run_catalog(z8z2, "all")
    assert [v.theorem_id for v in verdicts] == list(CATALOG_ALL)
    assert len(verdicts) == 9


def test_run_catalog_unknown_id(z8z2):
    with pytest.raises(UnknownTheoremId):
        run_catalog(z8z2, ["no-such-theorem"])


def test_run_catalog_single_string(z8z2):
    (v,) = run_catalog(z8z2, "thm-1.5")
    assert v.theorem_id == "thm-1.5"


def test_run_catalog_deterministic(z4z9):
    a = run_catalog(z4z9, "all")
    b = run_catalog(z4z9, "all")
    assert [v.as_dict() for v in a] == [v.as_dict() for v in b]


# -- corpus-wide ground truth ------------------------------------------------------


def test_every_applicable_verdict_passes(corpus_analyses):
    ids = list(REGISTRY)
    failures = []
    for name, az in corpus_analyses.items():
        for v in run_catalog(az, ids):
            if v.applicable and not v.passed:
                failures.append((name, v.theorem_id, v.witness))
    assert failures == []


def test_composite_sides_match_statements(corpus_analyses):
    """A statement-backed side of a composite holds exactly when its statement
    passes or does not apply; spliced sides are the statement's own."""
    statement_of = {check: tid for tid, check in REGISTRY.items()}
    compared = 0
    for name, az in corpus_analyses.items():
        for cid, parts in COMPOSITE_PARTS.items():
            v = REGISTRY[cid](az)
            if not v.applicable:
                continue
            for side, check in parts:
                tid = statement_of.get(check)
                if tid is None:
                    continue
                stmt = REGISTRY[tid](az)
                if side is None:
                    assert stmt.sides.items() <= v.sides.items(), (name, cid, tid)
                else:
                    holds = stmt.passed or not stmt.applicable
                    assert v.sides[side] == holds, (name, cid, side)
                compared += 1
    assert compared > 500


def test_composite_side_names_stable(z8z3):
    assert {cid: list(REGISTRY[cid](z8z3).sides) for cid in COMPOSITE_PARTS} == {
        "deg1-S": ["degree_one_shape", "semisimple_three_way", "degree_one_dichotomy"],
        "deg1-interactions": [
            "disjoint_pairs_are_nonisomorphic_simples",
            "meeting_pairs_sum_to_degree_one",
            "essential_sums_are_socle",
            "all_simple_or_unique_largest",
            "degree_one_contains_simple",
        ],
        "complete": [
            "complete_iff_uniform_or_two_simple_socle",
            "semisimple_complete_iff_two_simples",
            "proper_graph_complete_iff_same",
            "semisimple_universal_equivalence",
            "vertex_count_is_hom_count_plus_one",
            "k_regular_iff_complete",
            "nonessential_universal_vertices_simple",
        ],
        "trianglefree": [
            "s_trianglefree_iff_k2",
            "n_trianglefree_iff_strongly_disjoint",
            "n_tree_iff_star_with_simple_center",
            "s_girth_in_3_inf",
            "n_girth_in_3_4_inf",
        ],
    }


# -- individual checkers on known modules --------------------------------------------


def test_semisimple_equalities_sides(corpus_analyses):
    v = REGISTRY["prop-semisimple"](corpus_analyses["z2z2z3"])
    assert v.sides == {
        "is_semisimple": True,
        "graphs_equal": True,
        "some_vertex_same_degree_in_both": True,
    }
    v = REGISTRY["prop-semisimple"](corpus_analyses["z8z2"])
    assert set(v.sides.values()) == {False}
    assert v.passed


def test_semisimple_equalities_inapplicable_on_simple():
    v = REGISTRY["prop-semisimple"](_az(5))
    assert not v.applicable


def test_example_degree_formula(z2z3z5, corpus_analyses):
    v = REGISTRY["ex-1.2"](z2z3z5)
    assert v.applicable and v.passed
    assert v.sides["subset_bijection"]
    # isomorphic summands break the hypothesis
    v = REGISTRY["ex-1.2"](corpus_analyses["z2z2"])
    assert not v.applicable
    # non-semisimple module breaks it too
    v = REGISTRY["ex-1.2"](corpus_analyses["z4z3"])
    assert not v.applicable


def test_deg1_S_chain_branch():
    az = _az(27)
    v = REGISTRY["deg1-S"](az)
    assert v.applicable and v.passed
    s = az.s_graph
    assert all(s.degree(x) == 1 for x in s.vertex_ids)


def test_deg1_S_twin_atoms_have_no_degree_one(corpus_analyses):
    az = corpus_analyses["z2z2"]
    assert REGISTRY["deg1-S"](az).passed
    assert all(az.s_graph.degree(x) == 2 for x in az.s_graph.vertex_ids)


def test_prop_2_5_verdict(corpus_analyses):
    az = corpus_analyses["z2z2z3"]
    v = REGISTRY["prop-2.5"](az)
    assert v.applicable and v.passed
    # the order-3 atom is the only degree-1 vertex: no isomorphic twin
    lat, s = az.lattice, az.s_graph
    deg1 = [x for x in s.vertex_ids if s.degree(x) == 1]
    assert [lat.subs[x].size for x in deg1] == [3]


def test_prop_2_5_inapplicable_nonsemisimple(z8z2):
    assert not REGISTRY["prop-2.5"](z8z2).applicable


def _twin_by_scan(az, i):
    """Some other submodule isomorphic to subs[i], scanning every submodule."""
    subs = az.lattice.subs
    return any(
        j != i and s.size == subs[i].size and is_isomorphic(subs[i], s)
        for j, s in enumerate(subs)
    )


def _semisimple_by_join_fold(az, i):
    """subs[i] is the join of the atoms below it, folded one join at a time."""
    lat = az.lattice
    acc = lat.zero_id
    for a in lat.atoms_below(i):
        acc = lat.join(acc, a)
    return acc == i


def test_analysis_predicates_match_scans(corpus_analyses, ring_analyses):
    """has_isomorphic_twin, which asks the atoms only, against a scan of every
    submodule; sub_is_semisimple, which reads containment in the socle,
    against the join of the atoms below; for every id of the default corpus
    and the nine generated families."""
    for az in [*corpus_analyses.values(), *ring_analyses]:
        lat = az.lattice
        name = lat.module.presentation.name
        for i in range(lat.count):
            assert az.sub_is_semisimple(i) == _semisimple_by_join_fold(az, i), (name, i)
            if i in lat.atoms:
                assert az.has_isomorphic_twin(i) == _twin_by_scan(az, i), (name, i)
            else:
                with pytest.raises(ValueError):
                    az.has_isomorphic_twin(i)


def _separation_by_triple_loop(az, u, masks) -> bool:
    """thm-2.13's elementwise separation by the triple loop: over each atom F
    not below U, each nonzero f in F and each annihilator of a nonzero member
    of U, fail when ann(u') <= ann(f). masks[x] is the annihilator of x over
    endo ids."""
    lat = az.lattice
    mu = lat.subs[u].mask
    u_anns = {masks[x] for x in lat.subs[u].members.tolist() if x != 0}
    for f_id in lat.atoms:
        mf = lat.subs[f_id].mask
        if mf & mu == mf:
            continue
        for f in lat.subs[f_id].members.tolist():
            if f != 0 and any(ann_u & ~masks[f] == 0 for ann_u in u_anns):
                return False
    return True


# T2(F2) on P + S2: P = F2^2 the columns, uniserial with top S2, the simple
# module on which an upper triangular matrix acts by its (2,2) entry. The
# generator of P has an annihilator inside that of S2, not the other way
# round, so this module tells the two directions of containment apart.
T2F2_P_S2 = generated_module(
    "t2f2_p_s2",
    (2, 2, 2),
    [[[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 1]]],
)


def test_elementwise_separation_matches_triple_loop(corpus_analyses, ring_analyses):
    """_elementwise_separation, which reads the annihilator order between
    classes, against the triple loop over annihilators read off the ring
    columns, on every N(M) vertex of the default corpus, the nine generated
    families and T2(F2) on P + S2."""
    seen = {True: 0, False: 0}
    for az in [*corpus_analyses.values(), *ring_analyses, ModuleAnalysis(T2F2_P_S2)]:
        mod = az.module
        masks = [_mask_from_bits(mod.endos[:, x] == 0) for x in range(mod.n)]
        for u in az.n_graph.vertex_ids:
            want = _separation_by_triple_loop(az, u, masks)
            assert _elementwise_separation(az, u) == want, (mod.presentation.name, u)
            seen[want] += 1
    assert min(seen.values()) > 50, seen


def test_thm_2_13_star_module(z8z3):
    v = REGISTRY["thm-2.13"](z8z3)
    assert v.passed
    assert v.sides["four_conditions_agree"]
    assert v.sides["unique_neighbor_is_sum_of_other_simples"]
    n = z8z3.n_graph
    deg1 = [x for x in n.vertex_ids if n.degree(x) == 1]
    assert len(deg1) == 3
    # every degree-1 vertex points at the order-3 simple factor
    center = z8z3.lattice.subs[n.star_centers()[0]]
    for u in deg1:
        assert n.neighbors(u) == [z8z3.lattice.id_of_mask[center.mask]]


def test_thm_2_13_inapplicable_uniform():
    v = REGISTRY["thm-2.13"](_az(27))
    assert not v.applicable
    assert "uniform" in v.witness


def test_deg1_interactions_meeting_chain(z8z3):
    v = REGISTRY["deg1-interactions"](z8z3)
    assert v.passed
    # non-simple degree-1 vertices exist, so a unique largest one must
    n, lat = z8z3.n_graph, z8z3.lattice
    deg1 = [x for x in n.vertex_ids if n.degree(x) == 1]
    largest = [v_ for v_ in deg1 if all(lat.leq(w, v_) for w in deg1)]
    assert len(largest) == 1
    assert lat.subs[largest[0]].size == 8


def test_deg1_interactions_disjoint_pair(corpus_analyses):
    az = corpus_analyses["z2z3"]
    v = REGISTRY["deg1-interactions"](az)
    assert v.passed
    assert v.sides["disjoint_pairs_are_nonisomorphic_simples"]
    assert v.sides["essential_sums_are_socle"]


def test_complete_on_two_simples(corpus_analyses):
    for name, homs in [("z2z2", 2), ("z2z3", 1), ("z3z3", 3), ("z5z5", 5)]:
        az = corpus_analyses[name]
        v = REGISTRY["complete"](az)
        assert v.passed, (name, v.witness)
        assert az.s_graph.is_complete()
        assert az.s_graph.n_vertices == homs + 1, name


def test_complete_uniform_single_vertex():
    az = _az(4)
    v = REGISTRY["complete"](az)
    assert v.passed
    assert az.s_graph.is_complete()


def test_complete_fails_nowhere_but_sides_differ(z8z2):
    v = REGISTRY["complete"](z8z2)
    assert v.passed
    assert not z8z2.s_graph.is_complete()


def test_thm_3_6_regular(corpus_analyses):
    v = REGISTRY["thm-3.6"](corpus_analyses["m2f2"])
    assert v.passed
    assert corpus_analyses["m2f2"].s_graph.k_regular() == 2


def test_trianglefree_sides(corpus_analyses, z4z9):
    v = REGISTRY["trianglefree"](corpus_analyses["z4z2"])
    assert v.passed  # triangle exists and an adjacent non-disjoint pair exists
    v = REGISTRY["thm-3.11"](corpus_analyses["z4z2"])
    assert v.passed and set(v.sides.values()) == {False}
    v = REGISTRY["thm-3.11"](z4z9)
    assert v.passed and set(v.sides.values()) == {True}
    v = REGISTRY["thm-3.12"](z4z9)
    assert v.passed and set(v.sides.values()) == {False}  # a 4-cycle is no tree


def test_thm_3_7_k2(corpus_analyses):
    v = REGISTRY["thm-3.7"](corpus_analyses["z2z3"])
    assert v.passed and set(v.sides.values()) == {True}
    v = REGISTRY["thm-3.7"](corpus_analyses["z2z2"])
    assert v.passed and set(v.sides.values()) == {False}


def test_thm_3_7_chain_branch():
    v = REGISTRY["thm-3.7"](_az(27))
    assert v.passed and set(v.sides.values()) == {True}


def test_npartite_partition_and_clique(corpus_analyses, z8z2, z4z9):
    v = REGISTRY["npartite"](corpus_analyses["z2z2z3"])
    assert v.passed and v.sides["witness_branch_matches_semisimplicity"]
    v = REGISTRY["npartite"](z8z2)
    assert v.passed  # refuting clique found, matching non-semisimplicity
    v = REGISTRY["npartite"](z4z9)
    assert v.passed  # essential radical branch
    v = REGISTRY["npartite"](_az(27))
    assert not v.applicable  # single maximal submodule


def test_finiteness_branches(z8z2, corpus_analyses):
    v = REGISTRY["finiteness"](z8z2)
    assert v.passed and v.sides["socle_essential"]
    v = REGISTRY["finiteness"](corpus_analyses["z2z2"])
    assert v.passed
    v = REGISTRY["finiteness"](corpus_analyses["m2f2"])
    assert v.passed


def test_finiteness_cap_overrun_propagates():
    """A cap overrun inside a checker is a cap-exceeded outcome, not a failed verdict."""
    az = ModuleAnalysis(integer_module("z2z2", 2, 2), caps=Caps(max_lattice=2))
    with pytest.raises(LatticeCapExceeded, match="lattice exceeds cap 2"):
        REGISTRY["finiteness"](az)


def test_finiteness_reads_socle_essentiality_by_quantifier(monkeypatch):
    """The socle_essential side comes from the quantifier route alone: with
    it answering False, the verdict fails on both branches, whose own route
    still holds."""
    monkeypatch.setattr(SubmoduleLattice, "is_essential_definitional", lambda self, i: False)
    v = REGISTRY["finiteness"](_az(8, 2))
    assert not v.passed and v.sides == {"socle_essential": False, "condition_four_branch": True}
    v = REGISTRY["finiteness"](_az(2, 2))
    assert not v.passed and v.sides == {"socle_essential": False, "condition_four_branch": True}


def test_finiteness_branch_reads_the_atoms_up_sets(monkeypatch):
    """On a non-semisimple module the branch is read from the order: the
    up-sets of the atoms below the socle must cover every nonzero id. A
    meeting that drops one atom's up-set fails the verdict."""

    def dropping(self, i):
        out = 0
        for a in self.atoms_below(i)[1:]:
            out |= self.up[a]
        return out

    monkeypatch.setattr(SubmoduleLattice, "meeting", dropping)
    for az in (_az(8, 2), _az(4)):
        v = REGISTRY["finiteness"](az)
        assert not v.passed and v.sides == {"socle_essential": True, "condition_four_branch": False}
        assert v.witness == "no proper essential submodule found in non-semisimple module"


def test_finiteness_isotypic_count_oracle(ring_presentations):
    """The submodule count predicted from End(S_i) and the isotypic
    multiplicities equals L on every semisimple module of the --deep corpus
    and the nine generated families."""
    presentations = enumerate_corpus(CorpusSpec(max_order=64))
    presentations += [pres for pres, _ in ring_presentations]
    semisimple = []
    for pres in presentations:
        az = ModuleAnalysis(pres)
        v = REGISTRY["finiteness"](az)
        assert v.passed, (pres.name, v.witness)
        if az.lattice.is_semisimple():
            semisimple.append(pres.name)
    assert len(semisimple) == 46 + 4, semisimple


def test_finiteness_count_mutants_fail(monkeypatch):
    """A wrong field size or a wrong lattice count fails the semisimple branch."""
    az = _az(3, 3)
    assert REGISTRY["finiteness"](az).passed
    with monkeypatch.context() as m:
        m.setattr(ModuleAnalysis, "homs", lambda self, a, b: 2)
        v = REGISTRY["finiteness"](az)
    assert not v.passed and v.witness == "6 submodules, isotypic count predicts 5"
    monkeypatch.setattr(az.lattice, "count", az.lattice.count + 1)
    v = REGISTRY["finiteness"](az)
    assert not v.passed and v.witness == "7 submodules, isotypic count predicts 6"


def _atom_pair_by_scan(lat, top):
    """The first pair of atoms below top, in id order, whose join is top."""
    atoms = lat.atoms_below(top)
    for i, a in enumerate(atoms):
        for b in atoms[i + 1 :]:
            if lat.join(a, b) == top:
                return a, b
    return None


def test_atom_pair_matches_pairwise_scan(corpus_analyses, ring_analyses):
    """_atom_pair takes the first two atoms below an id, against a scan of
    every pair of atoms, on every id of the default corpus and the nine
    generated families."""
    found = 0
    for az in list(corpus_analyses.values()) + list(ring_analyses):
        lat = az.lattice
        for top in range(lat.count):
            want = _atom_pair_by_scan(lat, top)
            assert _atom_pair(az, top) == want, (lat.module.presentation.name, top)
            found += want is not None
    assert found


def test_gates(z8z2, z4z9, z8z3):
    v = REGISTRY["thm-1.5"](z8z2)
    assert v.passed and v.sides["s_diameter_le_3"]
    v = REGISTRY["thm-girth-N"](z4z9)
    assert v.passed  # girth 4 allowed for the proper graph
    v = REGISTRY["thm-girth-S"](z8z3)
    assert v.passed
    v = REGISTRY["thm-girth-N"](_az(27))
    assert not v.applicable


def test_cor_3_4_inapplicable_and_pass(corpus_analyses, z8z2):
    assert not REGISTRY["cor-3.4"](z8z2).applicable
    v = REGISTRY["cor-3.4"](corpus_analyses["z2z2"])
    assert v.passed and set(v.sides.values()) == {True}
    v = REGISTRY["cor-3.4"](corpus_analyses["z2z2z3"])
    assert v.passed and set(v.sides.values()) == {False}


def test_fine_grained_deg1_wrappers(z8z3):
    for tid in ("prop-2.17", "thm-2.18", "cor-2.11"):
        v = REGISTRY[tid](z8z3)
        assert v.applicable and v.passed, tid
    for tid in ("prop-2.17", "thm-2.18", "cor-2.11"):
        assert not REGISTRY[tid](_az(27)).applicable
