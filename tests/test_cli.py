"""Command line behavior: output, exit codes, env caps, determinism."""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sumess
from sumess import TheoremVerdict
from sumess.cli import main


@pytest.fixture()
def z8z2_spec(tmp_path):
    p = tmp_path / "z8z2.modspec"
    p.write_text("name = z8z2\nmoduli = 8 2\n")
    return str(p)


@pytest.fixture()
def z4_spec(tmp_path):
    p = tmp_path / "z4.modspec"
    p.write_text("name = z4\nmoduli = 4\n")
    return str(p)


def test_analyze_reports_both_graphs(z8z2_spec, capsys):
    assert main(["analyze", z8z2_spec]) == 0
    out = capsys.readouterr().out
    assert "module z8z2: order 16, 11 submodules" in out
    assert "S(M): 9 vertices" in out
    assert "N(M): 7 vertices, 15 edges" in out
    assert "<(4,0)>:2" in out  # the degree the catalog quotes for 4Z8


def test_analyze_uniform_module_message(z4_spec, capsys):
    assert main(["analyze", z4_spec, "--graph", "n"]) == 0
    out = capsys.readouterr().out
    assert "N(M) empty (module is uniform)" in out


def test_analyze_graph_selection(z8z2_spec, capsys):
    assert main(["analyze", z8z2_spec, "--graph", "s"]) == 0
    out = capsys.readouterr().out
    assert "S(M):" in out and "N(M):" not in out


def test_analyze_dot_and_report(z8z2_spec, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    rep = tmp_path / "r.json"
    assert main(
        ["analyze", z8z2_spec, "--graph", "n", "--dot", str(dot), "--report", str(rep)]
    ) == 0
    capsys.readouterr()
    text = dot.read_text()
    assert text.startswith("graph ") and text.count(" -- ") == 15
    data = json.loads(rep.read_text())
    assert data["module"]["name"] == "z8z2"
    assert data["graphs"]["n"]["vertex_count"] == 7
    assert data["lattice"]["submodule_count"] == 11


def test_analyze_lattice_dump(z4_spec, capsys):
    assert main(["analyze", z4_spec, "--lattice"]) == 0
    out = capsys.readouterr().out
    assert "id=0" in out and "id=2" in out


def test_analyze_parse_error_has_position(tmp_path, capsys):
    p = tmp_path / "bad.modspec"
    p.write_text("name = x\nmoduli = 4 oops\n")
    assert main(["analyze", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{p}:2:")


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.modspec")]) == 2
    assert "nope" in capsys.readouterr().err


def test_analyze_unwritable_report(z8z2_spec, tmp_path, capsys):
    """An output path that cannot be written is exit 2 with a one-line
    message, not a traceback (exit 1 means a checker failed)."""
    report = tmp_path / "missing" / "r.json"
    assert main(["analyze", z8z2_spec, "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert str(report) in err and len(err.splitlines()) == 1


def test_analyze_cap_exceeded_env(z8z2_spec, capsys, monkeypatch):
    monkeypatch.setenv("SUMESS_CAPS", "elements=8")
    assert main(["analyze", z8z2_spec]) == 3
    assert "cap exceeded" in capsys.readouterr().err


def test_verify_cap_exceeded_env(z8z2_spec, capsys, monkeypatch):
    monkeypatch.setenv("SUMESS_CAPS", "elements=8")
    assert main(["verify", z8z2_spec, "thm-1.5"]) == 3
    assert "cap exceeded" in capsys.readouterr().err


def test_bad_caps_env(z8z2_spec, capsys, monkeypatch):
    monkeypatch.setenv("SUMESS_CAPS", "wat=9")
    assert main(["analyze", z8z2_spec]) == 2
    assert "wat" in capsys.readouterr().err
    monkeypatch.setenv("SUMESS_CAPS", "clique=5")
    assert main(["analyze", z8z2_spec]) == 2
    assert "clique" in capsys.readouterr().err
    monkeypatch.setenv("SUMESS_CAPS", "hom_search=5")
    assert main(["analyze", z8z2_spec]) == 2
    assert "hom_search" in capsys.readouterr().err


def test_verify_pass(tmp_path, capsys):
    p = tmp_path / "z4z9.modspec"
    p.write_text("name = z4z9\nmoduli = 4 9\n")
    assert main(["verify", str(p), "thm-girth-N"]) == 0
    out = capsys.readouterr().out
    assert "thm-girth-N on z4z9: PASS" in out
    assert "side girth_in_3_4_inf = True" in out


def test_verify_inapplicable(z4_spec, capsys):
    assert main(["verify", z4_spec, "thm-3.11"]) == 4
    out = capsys.readouterr().out
    assert "INAPPLICABLE" in out and "uniform" in out


def test_verify_unknown_id(z4_spec, capsys):
    assert main(["verify", z4_spec, "nope-9.9"]) == 2
    assert "unknown theorem id" in capsys.readouterr().err


def test_verify_missing_file(tmp_path, capsys):
    path = tmp_path / "nope.modspec"
    assert main(["verify", str(path), "thm-1.5"]) == 2
    assert capsys.readouterr().err.startswith(f"{path}:0:")


def test_verify_fail_exit_code(z8z2_spec, capsys, monkeypatch):
    import sumess.theorems as theorems

    def always_fails(az):
        return TheoremVerdict("thm-1.5", True, {"s": False}, False, "forced")

    monkeypatch.setitem(theorems.REGISTRY, "thm-1.5", always_fails)
    assert main(["verify", z8z2_spec, "thm-1.5"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness: forced" in out


def test_corpus_small_run(tmp_path, capsys):
    out_csv = tmp_path / "c.csv"
    assert main(["corpus", "--max-order", "6", "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "module,order,theorem_id,applicable,pass,witness"
    mods = {line.split(",")[0] for line in lines[1:]}
    assert mods == {"z4", "z2z2", "z2z3"}
    msg = capsys.readouterr().out
    assert "0 failed" in msg


def test_corpus_unknown_check_id(tmp_path, capsys):
    assert (
        main(
            [
                "corpus",
                "--max-order",
                "4",
                "--check",
                "bogus",
                "--out",
                str(tmp_path / "c.csv"),
            ]
        )
        == 2
    )


def test_corpus_unwritable_csv(tmp_path, capsys, monkeypatch):
    """An unwritable --out fails before any module runs."""
    ran = []

    def run_item(task):
        ran.append(task[0].name)
        return []

    monkeypatch.setattr(sumess.corpus, "_run_item", run_item)
    out_csv = tmp_path / "missing" / "c.csv"
    assert main(["corpus", "--max-order", "4", "--out", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert str(out_csv) in err and len(err.splitlines()) == 1
    assert not ran


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_corpus_jobs_below_one_rejected(jobs, tmp_path, capsys):
    """--jobs counts processes, so 0 and below are usage errors, not a serial run."""
    out_csv = tmp_path / "c.csv"
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "--max-order", "4", "--jobs", jobs, "--out", str(out_csv)])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out_csv.exists()


def test_corpus_jobs_default_is_automatic():
    assert sumess.cli.build_parser().parse_args(["corpus"]).jobs is None


def test_corpus_dot_dir_is_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    args = ["corpus", "--max-order", "4", "--out", str(tmp_path / "c.csv"), "--dot-dir", str(taken)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert str(taken) in err and len(err.splitlines()) == 1


def test_corpus_cap_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SUMESS_CAPS", "elements=8")
    code = main(["corpus", "--max-order", "9", "--out", str(tmp_path / "c.csv")])
    assert code == 3
    out = capsys.readouterr().out
    # the summary counts checker rows only, not the cap rows of z9 and z3z3
    assert out.startswith("6 modules, 72 verdicts (58 applicable, 0 failed), csv: ")
    assert "skipped (cap exceeded): z9, z3z3\n" in out
    text = (tmp_path / "c.csv").read_text()
    assert "cap-exceeded" in text


def test_corpus_fail_exit(tmp_path, capsys, monkeypatch):
    import sumess.theorems as theorems

    def always_fails(az):
        return TheoremVerdict("thm-1.5", True, {"s": False}, False, "forced")

    monkeypatch.setitem(theorems.REGISTRY, "thm-1.5", always_fails)
    code = main(
        ["corpus", "--max-order", "4", "--check", "thm-1.5", "--out", str(tmp_path / "c.csv")]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL z4 thm-1.5: forced" in out
    # CSV still written, with the failures recorded
    assert "false,forced" in (tmp_path / "c.csv").read_text()


def test_corpus_extra_spec(tmp_path, capsys):
    extra = tmp_path / "z49.modspec"
    extra.write_text("name = z49\nmoduli = 49\n")
    out_csv = tmp_path / "c.csv"
    assert (
        main(
            [
                "corpus",
                "--max-order",
                "4",
                "--extra",
                str(extra),
                "--out",
                str(out_csv),
            ]
        )
        == 0
    )
    assert "z49,49," in out_csv.read_text()


def test_corpus_ill_formed_extra_spec(tmp_path, capsys):
    """A library error in one module of the sweep is one error row with its
    message: the other modules still run, the CSV is written, and the exit
    code is 2."""
    extra = tmp_path / "bad.modspec"
    extra.write_text("name = bad\nmoduli = 4 2\ngenerator = 1 1; 0 1\n")
    out_csv = tmp_path / "c.csv"
    args = ["corpus", "--max-order", "4", "--extra", str(extra), "--out", str(out_csv)]
    assert main(args) == 2
    out, err = capsys.readouterr()
    # the summary counts checker rows only, not bad's error row
    assert out.startswith("2 modules, 24 verdicts (17 applicable, 0 failed), csv: ")
    assert "error bad: " in err and "not additive" in err and "Traceback" not in err
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["module"] for r in rows} == {"z4", "z2z2", "bad"}
    assert all(r["theorem_id"] != "error" for r in rows if r["module"] != "bad")
    (bad,) = [r for r in rows if r["module"] == "bad"]
    assert (bad["order"], bad["theorem_id"], bad["applicable"], bad["pass"]) == ("8", "error", "false", "false")
    assert "not additive" in bad["witness"]


def test_corpus_duplicate_module_name(tmp_path, capsys):
    extra = tmp_path / "z4.modspec"
    extra.write_text("name = z4\nmoduli = 2 2\n")
    out_csv = tmp_path / "c.csv"
    args = ["corpus", "--max-order", "4", "--extra", str(extra), "--out", str(out_csv)]
    assert main(args) == 2
    assert "duplicate module name 'z4'" in capsys.readouterr().err
    assert not out_csv.exists()


def _child_env():
    # the child imports the same sumess as this test, installed or not
    src = str(Path(sumess.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_installed(z4_spec):
    proc = subprocess.run(
        [sys.executable, "-m", "sumess.cli", "analyze", z4_spec],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "module z4" in proc.stdout


def test_corpus_csv_same_under_optimize(tmp_path):
    """`python -O` strips assert statements; the corpus CSV must not change."""
    texts = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"corpus{len(flags)}.csv"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "sumess.cli", "corpus", "--out", str(out)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].count(b"\n") > 500


def test_cli_output_deterministic(z8z2_spec, capsys):
    assert main(["analyze", z8z2_spec, "--lattice"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", z8z2_spec, "--lattice"]) == 0
    assert capsys.readouterr().out == first
