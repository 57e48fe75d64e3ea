"""verify's cross-check split over processes: the same report for any count, and no leftovers.

``oracle._processes`` is patched to force a process count; every other
part of the split runs as it does in ``triorbit verify``.
"""

import os
import threading

import pytest

from triorbit import GF, verify_classification
from triorbit import oracle
from triorbit.errors import CanonicalizationFailed
from triorbit.modpairs import pair_to_dict
from triorbit.oracle import random_free_pairs

# (n, p, seed): (3,2) checks all its 2520 free pairs; the others sample 2000.
CASES = [(3, 2, 0), (3, 3, 0), (4, 2, 0), (4, 2, 1)]


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def force_processes(monkeypatch, count):
    monkeypatch.setattr(oracle, "_processes", lambda pairs: count)


def report_of(n, p, seed):
    report = verify_classification(n, p, seed=seed)
    assert_no_children()
    return report.to_dict(), report.format_text()


@pytest.fixture(scope="module")
def one_process_reports():
    with pytest.MonkeyPatch.context() as mp:
        force_processes(mp, 1)
        return {case: report_of(*case) for case in CASES}


@pytest.mark.parametrize("count", [2, 3, 4])
@pytest.mark.parametrize("case", CASES)
def test_split_changes_nothing(monkeypatch, one_process_reports, case, count):
    force_processes(monkeypatch, count)
    assert report_of(*case) == one_process_reports[case]


def test_one_process_reports_hold_the_expected_counts(one_process_reports):
    # (3,2) is exhaustive and passes; (4,2) at seed 1 has two failing
    # pairs, and the later one is the counterexample.
    d, _ = one_process_reports[(3, 2, 0)]
    assert (d["checked_pairs"], d["sampled"], d["passed"]) == (2520, False, True)
    d, _ = one_process_reports[(4, 2, 1)]
    assert (d["checked_pairs"], d["canonicalization_failures"]) == (2000, 2)
    assert d["counterexample"] is not None


def test_seed_one_failures_fall_in_different_slices():
    # The counterexample merge is exercised only if the failing pairs of
    # (4,2) at seed 1 land in different slices: at 4 slices of 500 they do.
    field = GF(2)
    failing = []
    for i, pair in enumerate(random_free_pairs(field, 4, 2000, 1)):
        try:
            oracle.canonicalize(pair)
        except CanonicalizationFailed:
            failing.append(i)
    assert failing == [339, 604]
    assert len({i // 500 for i in failing}) == 2


def wrong_at(monkeypatch, pairs, *, fail=(), mismatch=(), error=()):
    """Patch canonicalize to raise or land elsewhere on the pairs at the given indices."""
    real = oracle.canonicalize
    fail = {pairs[i] for i in fail}
    mismatch = {pairs[i] for i in mismatch}
    error = {pairs[i]: i for i in error}

    def canonicalize(pair):
        if pair in error:
            raise RuntimeError(f"unexpected at {error[pair]}")
        if pair in fail:
            raise CanonicalizationFailed("patched")
        result, cert, trace = real(pair)
        return (None if pair in mismatch else result), cert, trace

    monkeypatch.setattr(oracle, "canonicalize", canonicalize)


@pytest.mark.parametrize("fail,mismatch", [
    ((), (100, 700, 1800)),  # the first mismatch, in slice 0
    ((), (700, 1800)),  # the first mismatch, in a child's slice
    ((1200,), (100,)),  # a failure beats an earlier mismatch
    ((100, 1200), (700, 1800)),  # the last failure
])
def test_counterexample_merge_on_patched_outcomes(monkeypatch, fail, mismatch):
    pairs = random_free_pairs(GF(3), 3, 2000, 0)
    wrong_at(monkeypatch, pairs, fail=fail, mismatch=mismatch)
    reports = []
    for count in (1, 2, 3, 4):
        force_processes(monkeypatch, count)
        reports.append(report_of(3, 3, 0))
    assert all(r == reports[0] for r in reports)
    d = reports[0][0]
    assert not d["verdicts"]["canonicalize_matches_orbits"]
    assert d["canonicalization_failures"] == len(fail)
    witness = max(fail) if fail else min(mismatch)
    assert d["counterexample"] == pair_to_dict(pairs[witness])


def raised(n, p):
    with pytest.raises(Exception) as info:
        verify_classification(n, p)
    assert_no_children()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("index", [1500, 10])
def test_unexpected_error_is_the_one_process_error(monkeypatch, index):
    # 1500 lies in a child's slice at 2, 3 and 4 processes; 10 in the
    # caller's own slice, which must still kill and reap every child.
    pairs = random_free_pairs(GF(3), 3, 2000, 0)
    wrong_at(monkeypatch, pairs, error=(index,))
    force_processes(monkeypatch, 1)
    expected = raised(3, 3)
    assert expected == (RuntimeError, f"unexpected at {index}")
    for count in (2, 3, 4):
        force_processes(monkeypatch, count)
        assert raised(3, 3) == expected


def test_keyboard_interrupt_reaps_every_child(monkeypatch):
    pairs = random_free_pairs(GF(3), 3, 2000, 0)
    real = oracle.canonicalize

    def canonicalize(pair):
        if pair == pairs[10]:
            raise KeyboardInterrupt
        return real(pair)

    monkeypatch.setattr(oracle, "canonicalize", canonicalize)
    force_processes(monkeypatch, 4)
    with pytest.raises(KeyboardInterrupt):
        verify_classification(3, 3)
    assert_no_children()


def test_error_before_a_later_child_error_wins(monkeypatch):
    pairs = random_free_pairs(GF(3), 3, 2000, 0)
    wrong_at(monkeypatch, pairs, error=(900, 1700))
    force_processes(monkeypatch, 4)
    assert raised(3, 3) == (RuntimeError, "unexpected at 900")


@pytest.mark.parametrize("how", ["exit", "short", "garbage", "status"])
def test_a_failed_child_slice_runs_again_here(monkeypatch, one_process_reports, how):
    # A child that dies before writing, writes too few ints or no ints, or
    # writes five ints and then exits other than 0.
    parent = os.getpid()
    real, real_exit = oracle._check_slice, os._exit

    def check_slice(*args):
        if os.getpid() != parent:
            if how == "exit":
                real_exit(3)
            return {"short": (1, 2), "garbage": ("x",) * 5, "status": (0, 99, 99, -1, -1)}[how]
        return real(*args)

    monkeypatch.setattr(oracle, "_check_slice", check_slice)
    if how == "status":
        monkeypatch.setattr(os, "_exit", lambda status: real_exit(7))
    force_processes(monkeypatch, 4)
    assert report_of(4, 2, 1) == one_process_reports[(4, 2, 1)]


def test_no_fork_while_another_thread_runs(monkeypatch, one_process_reports):
    def refuse():
        raise AssertionError("forked with another thread alive")

    monkeypatch.setattr(os, "fork", refuse)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert oracle._processes(10 ** 6) == 1
        assert report_of(4, 2, 0) == one_process_reports[(4, 2, 0)]
    finally:
        done.set()
        thread.join()


def test_a_failed_fork_leaves_the_slices_here(monkeypatch, one_process_reports):
    def no_fork():
        raise BlockingIOError("no more processes")

    monkeypatch.setattr(os, "fork", no_fork)
    force_processes(monkeypatch, 4)
    assert report_of(4, 2, 1) == one_process_reports[(4, 2, 1)]


def test_process_count():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert oracle._processes(0) == 1
    assert oracle._processes(oracle.MIN_SLICE - 1) == 1
    assert oracle._processes(2000) == min(cpus, 2000 // oracle.MIN_SLICE)
