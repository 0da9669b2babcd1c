import itertools

import pytest

from sumess import CorpusSpec, ModuleAnalysis, enumerate_corpus, generated_module, integer_module

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def corpus_analyses():
    """Analyses for every default corpus item, built once per session."""
    out = {}
    for pres in enumerate_corpus(CorpusSpec()):
        out[pres.name] = ModuleAnalysis(pres)
    return out


@pytest.fixture(scope="session")
def ring_analyses(ring_presentations):
    """Analyses for the nine generated families, built once per session."""
    return [ModuleAnalysis(pres) for pres, _ in ring_presentations]


@pytest.fixture(scope="session")
def z8z2():
    return ModuleAnalysis(integer_module("z8z2", 8, 2))


@pytest.fixture(scope="session")
def z4z3():
    return ModuleAnalysis(integer_module("z4z3", 4, 3))


@pytest.fixture(scope="session")
def z4z9():
    return ModuleAnalysis(integer_module("z4z9", 4, 9))


@pytest.fixture(scope="session")
def z8z3():
    return ModuleAnalysis(integer_module("z8z3", 8, 3))


@pytest.fixture(scope="session")
def z2z3z5():
    return ModuleAnalysis(integer_module("z2z3z5", 2, 3, 5))


@pytest.fixture(scope="session")
def z12():
    return ModuleAnalysis(integer_module("z12", 12))


# Matrix presentations of rings with known orders (triangular and full matrix
# rings, group algebras, F_p[x]/(f)). Each generator acts on coordinate columns.


def _unit(k, i, j):
    return [[int(r == i and c == j) for c in range(k)] for r in range(k)]


def _block_diag(mat, copies):
    k = len(mat)
    return [
        [mat[r % k][c % k] if r // k == c // k else 0 for c in range(k * copies)]
        for r in range(k * copies)
    ]


def _companion(coeffs, p):
    """x acting on F_p[x]/(x^d + sum coeffs[i] x^i), basis 1, x, ..., x^(d-1)."""
    d = len(coeffs)
    return [
        [(-coeffs[r]) % p if c == d - 1 else int(r == c + 1) for c in range(d)]
        for r in range(d)
    ]


def _left_regular(elements, mul, gens):
    """Permutation matrices of left multiplication by each g in gens."""
    pos = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    return [
        [[int(pos[mul(g, elements[c])] == r) for c in range(n)] for r in range(n)]
        for g in gens
    ]


@pytest.fixture(scope="session")
def ring_presentations():
    """(presentation, closed-form ring order) for the nine generated families."""
    upper = lambda k: [_unit(k, i, j) for i in range(k) for j in range(i, k)]
    full = lambda k: [_unit(k, i, j) for i in range(k) for j in range(k)]
    s3 = list(itertools.permutations(range(3)))
    c2c2 = list(itertools.product((0, 1), repeat=2))
    return [
        # T_k(F_q): q^(k(k+1)/2); M_k(F_q) acting faithfully: q^(k^2)
        (generated_module("t3f3", (3,) * 3, upper(3)), 3**6),
        (generated_module("t4f2", (2,) * 4, upper(4)), 2**10),
        (generated_module("m3f2", (2,) * 3, full(3)), 2**9),
        (generated_module("m2f3_sq", (3,) * 4, [_block_diag(g, 2) for g in full(2)]), 3**4),
        (generated_module("m2f2_cube", (2,) * 6, [_block_diag(g, 3) for g in full(2)]), 2**4),
        # a group algebra acts faithfully on itself: 2^|G|
        (
            generated_module(
                "f2s3",
                (2,) * 6,
                _left_regular(s3, lambda g, h: tuple(g[h[i]] for i in range(3)), [(1, 0, 2), (1, 2, 0)]),
            ),
            2**6,
        ),
        (
            generated_module(
                "f2c2c2",
                (2,) * 4,
                _left_regular(c2c2, lambda g, h: ((g[0] + h[0]) % 2, (g[1] + h[1]) % 2), [(1, 0), (0, 1)]),
            ),
            2**4,
        ),
        # F_p[x]/(f) acting on itself: p^deg(f)
        (generated_module("f3_x2p1sq", (3,) * 4, [_companion([1, 0, 2, 0], 3)]), 3**4),
        (generated_module("f2_phi7", (2,) * 6, [_companion([1] * 6, 2)]), 2**6),
    ]
