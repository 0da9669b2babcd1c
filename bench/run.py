"""Sweep benchmark for sumess.

    python3 bench/run.py --workload corpus-default --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Writes the workload's seeded spec files, then measures in child processes
(bench/sweep.py) so that the program starts fresh and its memory is its own:

  trace 0: setup_s (median over fresh interpreters of `import sumess` plus
           parsing the spec files), sweep_s (median over the sweeps that fit
           in --seconds) and peak_rss_mb (peak RSS of the sweep process).
           Both times are in reference seconds: wall time scaled by a
           machine-speed probe run alongside (speed.py). The wall-time
           medians are printed beside them.
  trace 1: one untraced and one traced sweep; per-layer metrics from the
           traced one, and trace.overhead_s, the difference of the two.

Every sweep's CSV and DOT output is checked against bench/reference.json
(see check.py). A module that fails the check counts in `failed`; the run
exits 1 if any did. The last line of stdout is the result as JSON.
Everything the run writes goes under .bench_run/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, write_specs  # noqa: E402

SETUP_REPEATS = 11
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


def _run_child(args: list[str]) -> tuple[int, float]:
    """Run bench/sweep.py with args; return (exit code, peak RSS in MB)."""
    cmd = [sys.executable, os.path.join(HERE, "sweep.py"), *args]
    proc = subprocess.Popen(cmd, stdout=sys.stderr.fileno())
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _probes() -> list[float]:
    return [speed.probe() for _ in range(SETUP_PROBES)]


def _setup_seconds(spec_dir: str) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times, in reference and in wall seconds.

    The first interpreter, untimed, warms the caches. Each timed one is
    scaled by the machine-speed probes run just before and just after it.
    """
    wall, ref = [], []
    before = _probes()
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "sweep.py"), "setup", spec_dir],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        after = _probes()
        if k:
            wall.append(float(done.stdout.strip().splitlines()[-1]))
            ref.append(wall[-1] * speed.scale(before + after))
        before = after
    return ref, wall


def _percentile_note(values: list[float]) -> str:
    """Sample count, plus the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"median of n={n}; no percentile has ten samples beyond it"
    return f"median of n={n}; p{100 * (n - 10) // n}={sorted(values)[n - 11]:.4f}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(ROOT, ".bench_run", workload)
    shutil.rmtree(work, ignore_errors=True)
    spec_dir = os.path.join(work, "specs")
    out_dir = os.path.join(work, "out")
    write_specs(workload, seed, spec_dir)
    os.makedirs(out_dir)
    ref = check.load_reference(workload)

    setup, setup_wall = ([], []) if trace else _setup_seconds(spec_dir)
    code, peak_mb = _run_child(["sweep", spec_dir, out_dir, repr(seconds), "1" if trace else "0"])
    result_path = os.path.join(out_dir, "result.json")
    if code != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"sweep process for {workload} exited with code {code}")
    with open(result_path, encoding="utf-8") as fh:
        report = json.load(fh)

    sweeps = report["sweeps"] + ([report["traced"]] if trace else [])
    failed = []
    for sw in sweeps:
        failed.extend(check.failed_modules(ref, sw["dir"], sw["aborted"], seed))
    attempted = len(ref["modules"]) * len(sweeps)

    walls = [sw["seconds"] for sw in report["sweeps"]]
    lines = [f"[{workload} seed={seed}]"]
    if trace:
        metrics = dict(report["layers"])
        metrics["trace.overhead_s"] = (report["traced"]["seconds"] - walls[0], "s")
        for name, (value, unit) in metrics.items():
            lines.append(f"{name} = {value:.6g} {unit}")
        lines.append(
            f"traced sweep {report['traced']['seconds']:.4f} s, untraced {walls[0]:.4f} s; "
            f"self times sum to {report['self_sum_s']:.4f} s"
        )
    else:
        times = [sw["seconds"] * sw["scale"] for sw in report["sweeps"]]
        metrics = {
            "sweep_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        lines.append(f"sweep_s = {metrics['sweep_s'][0]:.4f} s ({_percentile_note(times)}; "
                     f"wall {statistics.median(walls):.4f} s)")
        lines.append(f"setup_s = {metrics['setup_s'][0]:.4f} s ({_percentile_note(setup)}; "
                     f"wall {statistics.median(setup_wall):.4f} s)")
        lines.append(f"peak_rss_mb = {peak_mb:.1f} MB (max over {len(times)} sweeps)")
    lines.append(
        f"failed_frac = {len(failed) / attempted:.4f} ratio "
        f"({len(failed)} of {attempted} module sweeps)"
    )
    for name in sorted(set(failed)):
        lines.append(f"FAILED {name}")
    print("\n".join(lines), flush=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sumess", "__init__.py")):
        print(f"no sumess sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
