"""Corpus enumeration and batch checker runs.

The default corpus is every finite abelian group of order at most 36 (one
representative per isomorphism class, by prime-power partitions), the
elementary abelian 2-groups up to 2^5, and one matrix-action module: the
2x2 matrix ring over the field with two elements acting on itself from the
left. Items run through the checker catalog and land in a CSV summary.
"""
from __future__ import annotations

import csv
import itertools
import os
from dataclasses import dataclass, field
from typing import BinaryIO

from .analysis import ModuleAnalysis
from .errors import CapExceeded, Caps, SpecFileError, SumEssError
from .graphs import EssGraph
from .modules import ModulePresentation, generated_module, integer_module
from .theorems import CORPUS_GATES, run_catalog, selected_ids


@dataclass(frozen=True)
class CorpusSpec:
    max_order: int = 36
    include_elementary_abelian_up_to: int = 32
    extra_spec_files: tuple[str, ...] = ()
    theorem_ids: object = "all"


@dataclass(frozen=True)
class CorpusRow:
    module: str
    order: int
    theorem_id: str
    applicable: bool
    passed: bool
    witness: str


@dataclass
class CorpusResult:
    rows: list[CorpusRow] = field(default_factory=list)

    @property
    def skipped(self) -> list[str]:
        """The modules a cap stopped, in sweep order."""
        return [r.module for r in self.rows if r.theorem_id == "cap-exceeded"]

    @property
    def any_failed(self) -> bool:
        return any(r.applicable and not r.passed for r in self.rows)


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
    """Partitions of n into nonincreasing parts, largest-part-first order."""
    if n == 0:
        yield ()
        return
    top = n if largest is None else min(n, largest)
    for k in range(top, 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def abelian_presentations(max_order: int) -> list[ModulePresentation]:
    """One integer module per isomorphism class of abelian group, orders
    4..max_order ascending. Prime orders are skipped: those modules are
    simple and have no graph vertices."""
    out = []
    for n in range(4, max_order + 1):
        fac = _factor(n)
        if len(fac) == 1 and fac[0][1] == 1:
            continue
        per_prime = [
            [tuple(p**k for k in part) for part in _partitions(e)] for p, e in fac
        ]
        for combo in itertools.product(*per_prime):
            moduli = tuple(m for part in combo for m in part)
            name = "".join(f"z{m}" for m in moduli)
            out.append(integer_module(name, *moduli))
    return out


def matrix_ring_presentation() -> ModulePresentation:
    """M2(F2) acting on itself by left multiplication, one generator per
    matrix unit. Basis order: e11, e12, e21, e22."""

    def idx(r: int, c: int) -> int:
        return (r - 1) * 2 + (c - 1)

    mats = []
    for a in (1, 2):
        for b in (1, 2):
            g = [[0] * 4 for _ in range(4)]
            for c in (1, 2):
                for d in (1, 2):
                    if b == c:
                        g[idx(a, d)][idx(c, d)] = 1
            mats.append(g)
    return generated_module("m2f2", (2, 2, 2, 2), mats)


def enumerate_corpus(cspec: CorpusSpec) -> list[ModulePresentation]:
    items = abelian_presentations(cspec.max_order)
    seen = {p.moduli for p in items}
    k = 2
    while 2**k <= cspec.include_elementary_abelian_up_to:
        moduli = (2,) * k
        if moduli not in seen:
            items.append(integer_module("".join("z2" for _ in moduli), *moduli))
            seen.add(moduli)
        k += 1
    if cspec.max_order >= 16:
        items.append(matrix_ring_presentation())
    if cspec.extra_spec_files:
        from .specfile import load_spec

        names = {p.name for p in items}
        for path in cspec.extra_spec_files:
            pres = load_spec(path)
            if pres.name in names:
                # the CSV blocks and DOT file names are keyed by module name
                raise SpecFileError(path, 0, f"duplicate module name {pres.name!r}")
            names.add(pres.name)
            items.append(pres)
    return items


def export_dot(graph: EssGraph, name: str, fh: BinaryIO) -> None:
    """Write one DOT file: the graph's DOT text to the binary handle fh,
    a block of rows at a time (EssGraph.write_dot)."""
    graph.write_dot(fh, name)


def _run_item(args):
    """Rows of one module.

    A cap overrun gives one "cap-exceeded" row, any other library error
    (an ill-formed generator, say) one "error" row with its message, so one
    module cannot end the sweep. With a dot_dir, the S and N DOT files are
    written here, each streamed to its file a block of rows at a time, so
    no DOT text is held whole.
    """
    pres, ids, caps, dot_dir = args
    order = 1
    for m in pres.moduli:
        order *= m
    try:
        az = ModuleAnalysis(pres, caps=caps)
        verdicts = run_catalog(az, ids)
    except CapExceeded as exc:
        return [CorpusRow(pres.name, order, "cap-exceeded", False, True, str(exc))]
    except SumEssError as exc:
        return [CorpusRow(pres.name, order, "error", False, False, str(exc))]
    rows = [
        CorpusRow(pres.name, order, v.theorem_id, v.applicable, v.passed, v.witness or "")
        for v in verdicts
    ]
    if dot_dir is not None:
        for kind, graph in (("s", az.s_graph), ("n", az.n_graph)):
            name = f"{pres.name}_{kind}"
            with open(os.path.join(dot_dir, f"{name}.dot"), "wb") as fh:
                export_dot(graph, name, fh)
    return rows


def run_corpus(
    cspec: CorpusSpec,
    caps: Caps | None = None,
    jobs: int = 1,
    dot_dir: str | None = None,
) -> CorpusResult:
    """Run the catalog over the corpus; results in enumeration order.

    With dot_dir, each module writes its S and N DOT files there as it
    finishes (see _run_item); no DOT text is held whole.
    """
    caps = caps or Caps()
    # unknown ids raise here, before any module runs
    ids = selected_ids(cspec.theorem_ids)
    ids += tuple(gate for gate in CORPUS_GATES if gate not in ids)
    tasks = [(pres, ids, caps, dot_dir) for pres in enumerate_corpus(cspec)]
    if dot_dir is not None:
        os.makedirs(dot_dir, exist_ok=True)

    if jobs <= 1:
        outcomes = map(_run_item, tasks)
    else:
        # imported here: it loads multiprocessing, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_item, tasks))
    return CorpusResult([row for rows in outcomes for row in rows])


def write_csv(rows: list[CorpusRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["module", "order", "theorem_id", "applicable", "pass", "witness"])
        for r in rows:
            w.writerow(
                [
                    r.module,
                    r.order,
                    r.theorem_id,
                    "true" if r.applicable else "false",
                    "true" if r.passed else "false",
                    r.witness,
                ]
            )
