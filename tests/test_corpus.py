"""Corpus enumeration (one module per isomorphism class) and batch runs."""
import functools
import importlib.util
import os
import time
from pathlib import Path

import pytest

import sumess.corpus
from sumess import (
    Caps,
    CorpusSpec,
    SpecFileError,
    abelian_presentations,
    build_module,
    enumerate_corpus,
    integer_module,
    run_corpus,
    write_csv,
)


def _partition_count(n):
    # independent partition counter for expected class counts
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def _class_count(n):
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out *= _partition_count(e)
        d += 1
    if n > 1:
        out *= _partition_count(1)
    return out


def test_abelian_counts_match_partition_products():
    pres = abelian_presentations(36)
    by_order = {}
    for p in pres:
        order = 1
        for m in p.moduli:
            order *= m
        by_order.setdefault(order, []).append(p)
    for n in range(2, 37):
        prime = _class_count(n) == 1 and all(n % d for d in range(2, n))
        want = 0 if n < 4 or prime else _class_count(n)
        assert len(by_order.get(n, [])) == want, n


def test_enumeration_deterministic_and_unique():
    a = abelian_presentations(36)
    b = abelian_presentations(36)
    assert [p.name for p in a] == [p.name for p in b]
    moduli = [p.moduli for p in a]
    assert len(set(moduli)) == len(moduli)
    names = [p.name for p in a]
    assert len(set(names)) == len(names)
    # ascending order, largest cyclic factors first within an order
    orders = []
    for p in a:
        o = 1
        for m in p.moduli:
            o *= m
        orders.append(o)
    assert orders == sorted(orders)
    assert a[0].moduli == (4,)


def test_representatives_pairwise_nonisomorphic():
    """Distinct invariant factorizations really are distinct groups: embed the
    two candidates side by side and compare the spanned submodules by the
    multiset of their element orders, which decides the isomorphism type of
    a finite abelian group."""
    classes_8 = [(8,), (4, 2), (2, 2, 2)]
    classes_16 = [(16,), (4, 4), (4, 2, 2)]
    for classes in (classes_8, classes_16):
        for i, m1 in enumerate(classes):
            for m2 in classes[i:]:
                mod = build_module(integer_module("pair", *(m1 + m2)))
                units = [
                    mod.cyclic_mask(mod.encode(tuple(int(t == j) for t in range(mod.k))))
                    for j in range(mod.k)
                ]
                first = mod.submodule_from_mask(functools.reduce(mod.join_masks, units[: len(m1)]))
                second = mod.submodule_from_mask(functools.reduce(mod.join_masks, units[len(m1) :]))
                orders = [
                    sorted(mod.cyclic_mask(x).bit_count() for x in sub.members.tolist())
                    for sub in (first, second)
                ]
                assert (orders[0] == orders[1]) == (m1 == m2), (m1, m2)


def test_elementary_extension_and_builtin():
    items = enumerate_corpus(CorpusSpec(max_order=8, include_elementary_abelian_up_to=32))
    moduli = {p.moduli for p in items}
    assert (2, 2, 2, 2) in moduli
    assert (2, 2, 2, 2, 2) in moduli
    # matrix module enters only when its order fits the sweep
    assert not any(p.name == "m2f2" for p in items)
    items = enumerate_corpus(CorpusSpec(max_order=16))
    assert any(p.name == "m2f2" for p in items)


def test_extra_spec_files(tmp_path):
    p = tmp_path / "extra.modspec"
    p.write_text("name = extra\nmoduli = 49\n")
    items = enumerate_corpus(CorpusSpec(max_order=4, extra_spec_files=(str(p),)))
    assert items[-1].name == "extra"
    assert items[-1].moduli == (49,)


def test_duplicate_module_name_rejected(tmp_path):
    # a second z4 would overwrite z4_s.dot and z4_n.dot and repeat its CSV block
    p = tmp_path / "z4.modspec"
    p.write_text("name = z4\nmoduli = 2 2\n")
    with pytest.raises(SpecFileError, match="duplicate module name 'z4'"):
        enumerate_corpus(CorpusSpec(max_order=4, extra_spec_files=(str(p),)))
    q = tmp_path / "twice.modspec"
    q.write_text("name = twice\nmoduli = 49\n")
    with pytest.raises(SpecFileError, match="duplicate module name 'twice'") as info:
        enumerate_corpus(CorpusSpec(max_order=4, extra_spec_files=(str(q), str(q))))
    assert info.value.path == str(q)


def test_default_corpus_contents():
    items = enumerate_corpus(CorpusSpec())
    names = [p.name for p in items]
    assert "z8z2" in names and "z4z9" in names and "m2f2" in names
    assert "z2z2z2z2z2" in names  # the order-32 elementary abelian group
    assert len(names) == len(set(names))


def test_run_corpus_rows_and_gates():
    res = run_corpus(CorpusSpec(max_order=6, theorem_ids=("thm-3.7",)))
    # selected id plus the three always-on gates, per module
    per_module = {}
    for r in res.rows:
        per_module.setdefault(r.module, []).append(r.theorem_id)
    for mod, ids in per_module.items():
        assert ids == ["thm-3.7", "thm-1.5", "thm-girth-S", "thm-girth-N"], mod
    assert not res.any_failed


def test_run_corpus_cap_rows():
    caps = Caps(max_elements=8)
    res = run_corpus(CorpusSpec(max_order=10), caps=caps)
    capped = [r for r in res.rows if r.theorem_id == "cap-exceeded"]
    assert capped
    for r in capped:
        assert not r.applicable and r.passed and r.witness
    assert set(res.skipped) == {r.module for r in capped}
    # order-8 and lower items still ran
    ran = {r.module for r in res.rows if r.theorem_id != "cap-exceeded"}
    assert "z4" in ran and "z8" in ran
    assert "z9" in res.skipped


def test_run_corpus_jobs_deterministic():
    spec = CorpusSpec(max_order=12)
    seq = run_corpus(spec, jobs=1)
    par = run_corpus(spec, jobs=3)
    assert seq.rows == par.rows


DEEP = CorpusSpec(max_order=64)  # the corpus of `sumess corpus --deep`


def _sweep_bytes(out, jobs, spec=DEEP):
    """The CSV and every DOT file of one sweep into out, as bytes."""
    result = run_corpus(spec, jobs=jobs, dot_dir=str(out / "dot"))
    write_csv(result.rows, str(out / "corpus.csv"))
    dots = {f.name: f.read_bytes() for f in (out / "dot").iterdir()}
    return (out / "corpus.csv").read_bytes(), dots


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_jobs_output_byte_identical(tmp_path, monkeypatch):
    """The --deep sweep's CSV and DOT bytes for jobs 1, 2 and 3 (more
    processes than this machine may have CPUs), each module run once."""
    log = tmp_path / "ran.log"
    run_item = sumess.corpus._run_item

    def logged(task):
        # O_APPEND: one line per module, whichever process runs it
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, f"{task[0].name}\n".encode())
        os.close(fd)
        return run_item(task)

    want = _sweep_bytes(tmp_path / "serial", 1)
    names = sorted(p.name for p in enumerate_corpus(DEEP))
    assert len(want[1]) == 2 * len(names)
    monkeypatch.setattr(sumess.corpus, "_run_item", logged)
    for jobs in (2, 3):
        log.write_text("")
        assert _sweep_bytes(tmp_path / f"jobs{jobs}", jobs) == want
        # a lost update of the shared counter would run a module twice
        assert sorted(log.read_text().split()) == names
        _assert_no_child_left()


def test_killed_worker_drops_no_rows(tmp_path, monkeypatch):
    """A child that dies inside a module sends nothing back; the parent
    runs every module no process returned, so the bytes do not change."""
    parent = os.getpid()
    run_item = sumess.corpus._run_item
    died = tmp_path / "died"

    def dying(task):
        if os.getpid() != parent:
            died.write_text(task[0].name)
            os._exit(1)
        # the parent holds back until a child has died, so that one surely does
        deadline = time.monotonic() + 60
        while not died.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return run_item(task)

    spec = CorpusSpec(max_order=16)
    want = _sweep_bytes(tmp_path / "serial", 1, spec)
    monkeypatch.setattr(sumess.corpus, "_run_item", dying)
    assert _sweep_bytes(tmp_path / "killed", 2, spec) == want
    assert died.read_text() in {p.name for p in enumerate_corpus(spec)}
    _assert_no_child_left()


class TwoPartError(Exception):
    """An exception whose pickle cannot be rebuilt: its args hold one
    message, but __init__ takes two parts."""

    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


@pytest.mark.parametrize(
    "make",
    [lambda name: RuntimeError(f"boom in {name}"), lambda name: TwoPartError("boom", name)],
    ids=["runtime-error", "unpicklable-error"],
)
def test_first_failing_module_raises(make, monkeypatch):
    """A non-library exception ends the sweep with the exception of the
    first failing module in enumeration order, for every jobs. z4 is
    enumerated first but, being smallest, is run last under largest-first."""
    failing = {"z4", "z2z2z2z2z2", "z4z4"}
    run_item = sumess.corpus._run_item

    def failing_item(task):
        if task[0].name in failing:
            raise make(task[0].name)
        return run_item(task)

    monkeypatch.setattr(sumess.corpus, "_run_item", failing_item)
    for jobs in (1, 2, 3):
        with pytest.raises(Exception) as raised:
            run_corpus(CorpusSpec(), jobs=jobs)
        assert type(raised.value) is type(make("z4")) and str(raised.value) == "boom in z4"
        _assert_no_child_left()


def test_write_csv_byte_identical(tmp_path):
    res = run_corpus(CorpusSpec(max_order=8))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(res.rows, str(p1))
    write_csv(res.rows, str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.splitlines()[0] == "module,order,theorem_id,applicable,pass,witness"
    assert "true" in text and "True" not in text


def test_dot_dir_written(tmp_path):
    d = tmp_path / "dots"
    run_corpus(
        CorpusSpec(max_order=4, include_elementary_abelian_up_to=4), dot_dir=str(d)
    )
    files = sorted(f.name for f in d.iterdir())
    assert files == ["z2z2_n.dot", "z2z2_s.dot", "z4_n.dot", "z4_s.dot"]
    assert (d / "z4_n.dot").read_text().startswith("graph ")


def _bench_check():
    """bench/check.py, the benchmark's correctness gate, loaded read-only."""
    path = Path(__file__).resolve().parents[1] / "bench" / "check.py"
    spec = importlib.util.spec_from_file_location("bench_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_sweep_matches_benchmark_reference(tmp_path):
    """The default corpus CSV and its 102 DOT files against the digests the
    benchmark's reference holds (seed 0), so a byte change in any of them
    fails here, not first at the benchmark gate."""
    check = _bench_check()
    result = run_corpus(CorpusSpec(), dot_dir=str(tmp_path / "dot"))
    write_csv(result.rows, str(tmp_path / "corpus.csv"))
    assert len(list((tmp_path / "dot").iterdir())) == 102
    ref = check.load_reference("corpus-default")
    assert check.failed_modules(ref, str(tmp_path), False, 0) == []
