"""Command line entry point.

Three subcommands: `analyze` one module spec file, `corpus` for batch runs
over generated module families, `verify` for a single checker on one module.

Exit codes: 0 success/pass, 1 checker failure, 2 usage, parse or write
error (or, in a corpus sweep, a library error in some module), 3 resource
cap exceeded, 4 checker inapplicable (verify only).
"""
from __future__ import annotations

import argparse
import os
import sys

from .analysis import ModuleAnalysis
from .corpus import CorpusSpec, run_corpus, write_csv
from .errors import CapExceeded, SumEssError, caps_from_env
from .specfile import load_spec
from .theorems import run_catalog


def _print_graph_report(az: ModuleAnalysis, kind: str) -> None:
    g = az.s_graph if kind == "s" else az.n_graph
    label = "S(M)" if kind == "s" else "N(M)"
    if kind == "n" and g.n_vertices == 0:
        print("N(M) empty (module is uniform)")
        return
    rep = g.report()
    print(f"{label}: {rep.vertex_count} vertices, {rep.edge_count} edges")
    print(
        f"  connected={rep.is_connected} diameter={rep.diameter} "
        f"girth={rep.girth} complete={rep.is_complete} "
        f"triangle_free={rep.triangle_free} tree={rep.is_tree}"
    )
    if rep.k_regular is not None:
        print(f"  regular of degree {rep.k_regular}")
    if rep.star_center is not None:
        print(f"  star with center {az.lattice.subs[rep.star_center].label}")
    degs = ", ".join(f"{az.lattice.subs[v].label}:{d}" for v, d in rep.degrees.items())
    print(f"  degrees: {degs}")


def cmd_analyze(args) -> int:
    caps = caps_from_env()
    pres = load_spec(args.spec)
    az = ModuleAnalysis(pres, caps=caps)
    lat = az.lattice
    kinds = [args.graph] if args.graph else ["s", "n"]
    print(
        f"module {pres.name}: order {az.module.n}, "
        f"{lat.count} submodules, action ring size {az.module.endo_count}"
    )
    print(
        f"  socle {lat.subs[lat.socle_id].label}, "
        f"radical {lat.subs[lat.radical_id].label}, "
        f"semisimple={lat.is_semisimple()}, uniform={lat.is_uniform_module()}, "
        f"uniform_dimension={lat.uniform_dimension()}"
    )
    for kind in kinds:
        _print_graph_report(az, kind)
    if args.lattice:
        print(lat.dump_text())
    if args.dot:
        g = az.n_graph if args.graph == "n" else az.s_graph
        with open(args.dot, "wb") as fh:
            g.write_dot(fh, pres.name)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(az.report_json())
    return 0


def cmd_corpus(args) -> int:
    caps = caps_from_env()
    max_order = args.max_order
    if args.deep:
        max_order = max(max_order, 64)
    # the elementary abelian knob follows the sweep bound unless set explicitly
    elementary = args.elementary_up_to
    if elementary is None:
        elementary = min(32, max_order)
    check = args.check
    if check != "all":
        check = tuple(t.strip() for t in check.split(",") if t.strip())
    cspec = CorpusSpec(
        max_order=max_order,
        include_elementary_abelian_up_to=elementary,
        extra_spec_files=tuple(args.extra),
        theorem_ids=check,
    )
    # an unwritable CSV fails before any module runs; the probe makes no file
    existed = os.path.exists(args.out)
    open(args.out, "a").close()
    if not existed:
        os.remove(args.out)
    result = run_corpus(cspec, caps=caps, jobs=args.jobs, dot_dir=args.dot_dir)
    write_csv(result.rows, args.out)
    # the checker rows: error and cap-exceeded rows are reported on their own
    verdicts = [r for r in result.rows if r.theorem_id not in ("error", "cap-exceeded")]
    failed = [r for r in verdicts if r.applicable and not r.passed]
    n_app = sum(1 for r in verdicts if r.applicable)
    modules = len({r.module for r in verdicts})
    print(
        f"{modules} modules, {len(verdicts)} verdicts "
        f"({n_app} applicable, {len(failed)} failed), csv: {args.out}"
    )
    for r in failed:
        print(f"FAIL {r.module} {r.theorem_id}: {r.witness}")
    errors = [r for r in result.rows if r.theorem_id == "error"]
    for r in errors:
        print(f"error {r.module}: {r.witness}", file=sys.stderr)
    if result.skipped:
        print("skipped (cap exceeded): " + ", ".join(result.skipped))
    if failed:
        return 1
    if errors:
        return 2
    if result.skipped:
        return 3
    return 0


def cmd_verify(args) -> int:
    caps = caps_from_env()
    pres = load_spec(args.spec)
    verdict = run_catalog(ModuleAnalysis(pres, caps=caps), args.theorem_id)[0]
    if not verdict.applicable:
        status = "INAPPLICABLE"
    elif verdict.passed:
        status = "PASS"
    else:
        status = "FAIL"
    print(f"{verdict.theorem_id} on {pres.name}: {status}")
    for side, value in verdict.sides.items():
        print(f"  side {side} = {value}")
    if verdict.witness:
        print(f"  witness: {verdict.witness}")
    if not verdict.applicable:
        return 4
    return 0 if verdict.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sumess",
        description="Sum-essential graphs of finite modules: build, analyze, check.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="analyze one module spec file")
    a.add_argument("spec", help="path to a module spec file")
    a.add_argument("--graph", choices=["s", "n"], help="restrict to one graph")
    a.add_argument("--dot", metavar="PATH", help="write DOT of the selected graph")
    a.add_argument("--report", metavar="PATH", help="write full JSON report")
    a.add_argument("--lattice", action="store_true", help="print the submodule lattice")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("corpus", help="run the checker catalog over a module corpus")
    c.add_argument("--max-order", type=int, default=36)
    c.add_argument(
        "--elementary-up-to",
        type=int,
        default=None,
        metavar="N",
        help="include elementary abelian 2-groups of order up to N "
        "(default: min(32, max order))",
    )
    c.add_argument(
        "--extra", action="append", default=[], metavar="PATH", help="extra spec files"
    )
    c.add_argument(
        "--check",
        default="all",
        metavar="IDS",
        help="comma-separated theorem ids, or 'all'",
    )
    c.add_argument("--out", default="corpus.csv", metavar="PATH", help="CSV output path")
    c.add_argument("--dot-dir", metavar="DIR", help="write DOT files per module here")
    c.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    c.add_argument(
        "--deep", action="store_true", help="extend the sweep to order 64"
    )
    c.set_defaults(func=cmd_corpus)

    v = sub.add_parser("verify", help="run one checker on one module")
    v.add_argument("spec", help="path to a module spec file")
    v.add_argument("theorem_id", help="catalog id, e.g. thm-2.13")
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    """Run one subcommand. Library errors become exit codes here alone: a
    cap overrun 3, any other library or value error or unwritable output 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (SumEssError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
