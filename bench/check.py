"""Correctness gate of the sweep benchmark.

reference.json holds, per workload and module, what the seed commit of
sumess produced: the order, the (theorem_id, applicable, pass) rows, and
the vertex and edge counts of S(M) and N(M). For seed 0 it also holds a
digest of each module's CSV rows and DOT files, and of the whole CSV;
for corpus-default these come from `run_corpus(CorpusSpec())`, the path
of `sumess corpus`, so seed 0 of the benchmark must reproduce it byte for
byte. The lattice size L is read back as |V(S)| + 2 (every nontrivial
submodule is a vertex of S), and for z2^k it must equal the Galois number
sum_j [k j]_2, computed here from the closed form.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

_VERTEX = re.compile(r"^  v\d+ \[label=")
_EDGE = re.compile(r"^  v\d+ -- v\d+;$")


def load_reference(workload: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def galois_number(k: int, q: int = 2) -> int:
    """Number of subspaces of F_q^k: sum over j of the q-binomial [k j]_q."""
    total = 0
    for j in range(k + 1):
        num = den = 1
        for i in range(j):
            num *= q ** (k - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def _dot_counts(text: str) -> tuple[int, int]:
    lines = text.splitlines()
    return (
        sum(1 for ln in lines if _VERTEX.match(ln)),
        sum(1 for ln in lines if _EDGE.match(ln)),
    )


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def read_sweep(out_dir: str) -> tuple[str, dict]:
    """CSV text and, per module, its rows and DOT texts, from a sweep's output."""
    with open(os.path.join(out_dir, "corpus.csv"), encoding="utf-8", newline="") as fh:
        text = fh.read()
    modules: dict[str, dict] = {}
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        modules.setdefault(row[0], {"rows": []})["rows"].append(row)
    for name, got in modules.items():
        for kind in ("s", "n"):
            path = os.path.join(out_dir, "dot", f"{name}_{kind}.dot")
            got[kind] = ""
            if os.path.exists(path):  # a capped module writes none
                with open(path, encoding="utf-8") as fh:
                    got[kind] = fh.read()
    return text, modules


def summarize(text: str, modules: dict) -> dict:
    """Reference entries for a sweep's output (used to record reference.json)."""
    out = {}
    for name, got in modules.items():
        rows = got["rows"]
        out[name] = {
            "order": int(rows[0][1]),
            "rows": [[r[2], r[3], r[4]] for r in rows],
            "s": list(_dot_counts(got["s"])),
            "n": list(_dot_counts(got["n"])),
            "digest": _digest(json.dumps(rows), got["s"], got["n"]),
        }
    return {"csv_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(), "modules": out}


def failed_modules(ref: dict, out_dir: str, aborted: bool, seed: int) -> list[str]:
    """Names of the reference modules this sweep got wrong."""
    names = list(ref["modules"])
    if aborted:
        return names
    try:
        got = summarize(*read_sweep(out_dir))
    except (OSError, csv.Error, IndexError, ValueError):
        return names
    if seed == 0 and got["csv_sha256"] != ref["csv_sha256"]:
        return names
    failed = []
    for name in names:
        want, have = ref["modules"][name], got["modules"].get(name)
        ok = have is not None and (
            have["order"] == want["order"]
            and have["rows"] == want["rows"]
            and have["s"] == want["s"]
            and have["n"] == want["n"]
            and all(r[1] == "false" or r[2] == "true" for r in have["rows"])
            and (seed != 0 or have["digest"] == want["digest"])
        )
        k = name.count("z2")
        if ok and name == "z2" * k:
            ok = have["s"][0] + 2 == galois_number(k)
        if not ok:
            failed.append(name)
    return failed
