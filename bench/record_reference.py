"""Record bench/reference.json from the sumess sources of this checkout.

    python3 bench/record_reference.py

Run once, at the commit whose outputs are the reference; the benchmark then
checks every later commit against it. For corpus-default the seed-0
digests are taken from `run_corpus(CorpusSpec())`, the path of
`sumess corpus`, after checking that the seed-0 spec files give the same.
"""
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import sumess  # noqa: E402
from workloads import WORKLOADS, write_specs  # noqa: E402


def _sweep(cspec, out: str) -> dict:
    result = sumess.run_corpus(cspec, dot_dir=os.path.join(out, "dot"))
    sumess.write_csv(result.rows, os.path.join(out, "corpus.csv"))
    return check.summarize(*check.read_sweep(out))


def main() -> None:
    work = os.path.join(ROOT, ".bench_run", "record")
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    for workload in WORKLOADS:
        paths = write_specs(workload, 0, os.path.join(work, workload, "specs"))
        cspec = sumess.CorpusSpec(
            max_order=0, include_elementary_abelian_up_to=0, extra_spec_files=tuple(paths)
        )
        got = _sweep(cspec, os.path.join(work, workload, "out"))
        if workload == "corpus-default":
            cli = _sweep(sumess.CorpusSpec(), os.path.join(work, "cli"))
            if cli != got:
                sys.exit("seed-0 spec files do not reproduce `sumess corpus`")
        reference[workload] = got
        print(f"{workload}: {len(got['modules'])} modules", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
