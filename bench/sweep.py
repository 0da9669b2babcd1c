"""Child process of the sweep benchmark: it runs the measured sweeps.

    python3 bench/sweep.py setup SPEC_DIR
        Time, in this fresh interpreter, `import sumess` plus parsing every
        spec file in SPEC_DIR; print the seconds.

    python3 bench/sweep.py sweep SPEC_DIR OUT_DIR SECONDS TRACE
        Run corpus sweeps over the spec files (run_corpus with DOT output,
        then write_csv), each into OUT_DIR/sweep-<k>/. With TRACE 0, run
        sweeps back to back, with the machine-speed probe sampling them,
        while another sweep as long as the last still ends within SECONDS
        (at least one). With TRACE 1, run one untraced sweep, then one
        traced sweep, neither probed, and write the spans next to OUT_DIR
        as spans.json. Timings go to OUT_DIR/result.json.

sumess is imported from src/ of the checkout this file sits in.
"""
import contextlib
import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_sumess():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import sumess

    return sumess


def _spec_paths(spec_dir: str) -> list[str]:
    return [os.path.join(spec_dir, f) for f in sorted(os.listdir(spec_dir))]


def setup(spec_dir: str) -> None:
    paths = _spec_paths(spec_dir)
    t0 = time.perf_counter()
    sumess = _import_sumess()
    for path in paths:
        sumess.load_spec(path)
    print(repr(time.perf_counter() - t0))


def _sweep_once(sumess, paths: list[str], out: str, sample: bool = False) -> dict:
    """One sweep; its wall time runs from run_corpus until CSV and DOT are written.

    With `sample`, the machine-speed probe runs every speed.PERIOD_S seconds
    during the sweep; its time is taken out of `seconds`, and `scale` turns
    `seconds` into reference seconds (see speed.py).
    """
    import speed  # imports numpy, so not at the top: `setup` times that import

    cspec = sumess.CorpusSpec(
        max_order=0, include_elementary_abelian_up_to=0, extra_spec_files=tuple(paths)
    )
    sampler = speed.Sampler()
    with sampler if sample else contextlib.nullcontext():
        t0 = time.perf_counter()
        aborted = False
        try:  # looked up on sumess.corpus, where the tracer installs its wrappers
            result = sumess.corpus.run_corpus(cspec, dot_dir=os.path.join(out, "dot"))
            sumess.corpus.write_csv(result.rows, os.path.join(out, "corpus.csv"))
        except Exception:  # a sweep that aborts is a result: every module fails
            traceback.print_exc()
            aborted = True
        seconds = time.perf_counter() - t0 - sampler.spent
    run = {"dir": out, "seconds": seconds, "aborted": aborted}
    if sample:
        run["scale"] = speed.scale(sampler.probes)
    return run


def sweep(spec_dir: str, out_dir: str, seconds: float, trace: bool) -> None:
    sumess = _import_sumess()
    paths = _spec_paths(spec_dir)
    runs = []
    started = time.perf_counter()
    while True:
        out = os.path.join(out_dir, f"sweep-{len(runs)}")
        t0 = time.perf_counter()
        runs.append(_sweep_once(sumess, paths, out, sample=not trace))
        last = time.perf_counter() - t0
        if trace or time.perf_counter() - started + last > seconds:
            break
    report = {"sweeps": runs}
    if trace:
        from tracing import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)
        traced = tracer.span(_sweep_once, "sweep")(sumess, paths, os.path.join(out_dir, "traced"))
        tracer.dump(os.path.join(os.path.dirname(out_dir), "spans.json"))
        report["traced"] = traced
        report["layers"] = layer_metrics(tracer)
        report["self_sum_s"] = sum(s[2] for s in tracer.stats.values())
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        sweep(sys.argv[2], sys.argv[3], float(sys.argv[4]), sys.argv[5] == "1")
