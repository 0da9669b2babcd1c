"""Seeded inputs for the sweep benchmark, written as sumess spec files.

Each workload is a fixed list of modules. Seed 0 gives the canonical
presentation of each one (for corpus-default, exactly the presentations
`sumess corpus` builds, in the same order). Any other seed gives an
isomorphic re-presentation: abelian modules get their cyclic factors in a
shuffled order, and matrix actions over F_p are conjugated by a random
invertible matrix. Lattice size, graph sizes and verdicts are isomorphism
invariants, so they must not depend on the seed.

This file does not import sumess: the program only ever sees the spec
files written here.
"""
from __future__ import annotations

import itertools
import os
import random


# -- presentations -------------------------------------------------------------
# A presentation is (name, moduli, generators); generators is None for the
# integer action, else a tuple of k-by-k matrices acting on coordinate columns.


def _factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for k in range(n if largest is None else min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _abelian(order: int) -> list[tuple[int, ...]]:
    """Moduli of one group per isomorphism class, largest parts first."""
    fac = _factor(order)
    per_prime = [[tuple(p**k for k in part) for part in _partitions(e)] for p, e in fac]
    return [tuple(m for part in combo for m in part) for combo in itertools.product(*per_prime)]


def _integers(moduli: tuple[int, ...]):
    return ("".join(f"z{m}" for m in moduli), moduli, None)


def _unit(k: int, i: int, j: int):
    return tuple(tuple(int(r == i and c == j) for c in range(k)) for r in range(k))


def _block_diag(mat, copies: int):
    k = len(mat)
    size = k * copies
    return tuple(
        tuple(mat[r % k][c % k] if r // k == c // k else 0 for c in range(size))
        for r in range(size)
    )


def _companion(coeffs: list[int], p: int):
    """Multiplication by x on F_p[x]/(f), f = x^d + sum coeffs[i] x^i, basis 1..x^(d-1)."""
    d = len(coeffs)
    return tuple(
        tuple(
            ((-coeffs[r]) % p if c == d - 1 else int(r == c + 1)) for c in range(d)
        )
        for r in range(d)
    )


def _left_regular(elements: list, mul):
    """Permutation matrix of left multiplication by g, for g in `elements`."""
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    mats = []
    for g in elements:
        cols = [index[mul(g, e)] for e in elements]
        mats.append(tuple(tuple(int(cols[c] == r) for c in range(n)) for r in range(n)))
    return mats


def _m2f2_regular():
    """M2(F2) on itself by left multiplication, one generator per matrix unit
    (basis e11 e12 e21 e22), as in sumess's default corpus."""
    mats = []
    for a in (0, 1):
        for b in (0, 1):
            g = [[0] * 4 for _ in range(4)]
            for d in (0, 1):
                g[a * 2 + d][b * 2 + d] = 1
            mats.append(tuple(tuple(r) for r in g))
    return ("m2f2", (2, 2, 2, 2), tuple(mats))


def corpus_default() -> list:
    """The 51 modules of `sumess corpus`: abelian groups of non-prime order
    4..36, z2^k up to 32 elements, then M2(F2) on itself."""
    items = []
    for n in range(4, 37):
        fac = _factor(n)
        if len(fac) == 1 and fac[0][1] == 1:
            continue
        items.extend(_integers(m) for m in _abelian(n))
    seen = {moduli for _, moduli, _ in items}
    for k in range(2, 6):
        if (2,) * k not in seen:
            items.append(_integers((2,) * k))
    items.append(_m2f2_regular())
    return items


def corpus_order64() -> list:
    """The abelian groups of order 64 except z2^6 (L=2825, out of reach)."""
    return [_integers(m) for m in _abelian(64) if m != (2,) * 6]


def generated_actions() -> list:
    def upper(k):
        return tuple(_unit(k, i, j) for i in range(k) for j in range(i, k))

    def full(k):
        return tuple(_unit(k, i, j) for i in range(k) for j in range(k))

    s3 = list(itertools.permutations(range(3)))
    c2c2 = list(itertools.product((0, 1), repeat=2))
    s3_mats = _left_regular(s3, lambda g, h: tuple(g[h[i]] for i in range(3)))
    c2c2_mats = _left_regular(c2c2, lambda g, h: ((g[0] + h[0]) % 2, (g[1] + h[1]) % 2))
    swap, cycle = s3.index((1, 0, 2)), s3.index((1, 2, 0))
    return [
        ("t3f3", (3,) * 3, upper(3)),
        ("t4f2", (2,) * 4, upper(4)),
        ("m3f2", (2,) * 3, full(3)),
        ("m2f3_sq", (3,) * 4, tuple(_block_diag(g, 2) for g in full(2))),
        ("m2f2_cube", (2,) * 6, tuple(_block_diag(g, 3) for g in full(2))),
        ("f2s3", (2,) * 6, (s3_mats[swap], s3_mats[cycle])),
        ("f2c2c2", (2,) * 4, (c2c2_mats[c2c2.index((1, 0))], c2c2_mats[c2c2.index((0, 1))])),
        ("f3_x2p1sq", (3,) * 4, (_companion([1, 0, 2, 0], 3),)),
        ("f2_phi7", (2,) * 6, (_companion([1] * 6, 2),)),
    ]


CANONICAL = {
    "corpus-default": corpus_default,
    "corpus-order64": corpus_order64,
    "generated-actions": generated_actions,
}
WORKLOADS = tuple(CANONICAL)


# -- re-presentation -------------------------------------------------------------


def _matmul(a, b, p: int):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) % p for j in range(n)] for i in range(n)]


def _inverse(mat, p: int):
    """Inverse over F_p by Gauss-Jordan, or None if singular."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % p), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(v - f * w) % p for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _random_invertible(n: int, p: int, rng: random.Random):
    while True:
        mat = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        inv = _inverse(mat, p)
        if inv is not None:
            return mat, inv


def represent(item, rng: random.Random):
    """An isomorphic presentation of `item`, drawn from `rng`."""
    name, moduli, gens = item
    if gens is None:
        shuffled = list(moduli)
        rng.shuffle(shuffled)
        return (name, tuple(shuffled), None)
    p = moduli[0]
    assert all(m == p for m in moduli), "matrix actions here are over F_p"
    mat, inv = _random_invertible(len(moduli), p, rng)
    conj = tuple(
        tuple(tuple(row) for row in _matmul(_matmul(mat, g, p), inv, p)) for g in gens
    )
    return (name, moduli, conj)


def presentations(workload: str, seed: int) -> list:
    items = CANONICAL[workload]()
    if seed == 0:
        return items
    return [represent(item, random.Random(f"{workload}/{seed}/{item[0]}")) for item in items]


def spec_text(item) -> str:
    name, moduli, gens = item
    lines = [f"name = {name}", "moduli = " + " ".join(str(m) for m in moduli)]
    if gens is None:
        lines.append("action = integers")
    else:
        lines.append("action = generated")
        for g in gens:
            lines.append("generator = " + "; ".join(" ".join(str(v) for v in row) for row in g))
    return "\n".join(lines) + "\n"


def write_specs(workload: str, seed: int, directory: str) -> list[str]:
    """Write one spec file per module, in sweep order; return the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for pos, item in enumerate(presentations(workload, seed)):
        path = os.path.join(directory, f"{pos:03d}_{item[0]}.modspec")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec_text(item))
        paths.append(path)
    return paths
