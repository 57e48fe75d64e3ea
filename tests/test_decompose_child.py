"""verify's union-find in a forked child beside the sample: the same report, and no leftovers.

``oracle._decompose_in_child`` is patched to force the union-find into a
child or to keep it in line; every other part runs as it does in
``triorbit verify``.
"""

import os
import threading

import pytest

from triorbit import GF, verify_classification
from triorbit import oracle
from triorbit.cli import main
from triorbit.errors import InvalidSampleCount
from triorbit.gl2 import GL2Element, gl2_generators, orbit_generators
from triorbit.oracle import _Children, _decompose, _free_submodule_keys, _orbits, _union_find

# (n, p, seed): (3,2) checks all its 2520 free pairs; the others sample 2000.
CASES = [(3, 2, 0), (2, 5, 0), (3, 3, 0), (4, 2, 0), (4, 2, 1)]


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_child(monkeypatch, flag):
    monkeypatch.setattr(oracle, "_decompose_in_child", lambda count: flag)


def children_started(monkeypatch):
    """The functions of the tasks that ``_Children.start`` forks from now on."""
    started = []
    real = _Children.start

    def start(self, task):
        started.append(task.func)
        return real(self, task)

    monkeypatch.setattr(_Children, "start", start)
    return started


def report_of(n, p, seed, **kwargs):
    report = verify_classification(n, p, seed=seed, **kwargs)
    assert_no_children()
    return report.to_dict(), report.format_text()


def raised(n, p, **kwargs):
    with pytest.raises(BaseException) as info:
        verify_classification(n, p, **kwargs)
    assert_no_children()
    return type(info.value), str(info.value)


@pytest.fixture(scope="module")
def in_line_reports():
    with pytest.MonkeyPatch.context() as mp:
        in_child(mp, False)
        return {case: report_of(*case) for case in CASES}


@pytest.mark.parametrize("case", CASES)
def test_child_changes_nothing(monkeypatch, in_line_reports, case):
    in_child(monkeypatch, True)
    started = children_started(monkeypatch)
    assert report_of(*case) == in_line_reports[case]
    assert started[0] is _union_find


def identity_and_repeat(field, n):
    # The identity fixes every row (f(g) = n), and one generator comes twice.
    gens = orbit_generators(field, n)
    return [GL2Element.identity(field, n), *gens, gens[-1]]


@pytest.mark.parametrize("n,p,generators", [
    (1, 2, orbit_generators), (1, 3, orbit_generators),
    (2, 2, orbit_generators), (2, 3, orbit_generators), (2, 5, orbit_generators),
    (2, 7, orbit_generators),
    (3, 2, orbit_generators), (3, 3, orbit_generators), (4, 2, orbit_generators),
    (2, 3, gl2_generators), (2, 5, gl2_generators), (3, 2, gl2_generators),
    (1, 3, identity_and_repeat), (2, 3, identity_and_repeat), (3, 2, identity_and_repeat),
])
def test_child_roots_group_into_the_decomposition(n, p, generators):
    # The task refuses to run in the caller, so the orbits are those of
    # the roots that the child sent, not of a rerun here.
    keys = _free_submodule_keys(GF(p), n)
    gens = generators(GF(p), n)
    parent = os.getpid()

    def task():
        if os.getpid() == parent:
            raise AssertionError("the union-find ran again in the caller")
        return _union_find(keys, gens, p)

    with _Children() as children:
        assert children.start(task)
        orbits = children.result(task, len(keys), _orbits)
    assert_no_children()
    assert orbits == _decompose(keys, gens, p)


def test_orbits_refuses_what_is_not_a_root_array():
    assert _orbits([0, 0, 1]) is None  # 1 is not a root
    assert _orbits([0, 2, 2]) is None  # 2 lies above ordinal 1
    assert _orbits([0, -1]) is None
    assert _orbits([0, 0, 2, 2, 0]) == [[0, 1, 4], [2, 3]]


def corrupt_in_child(monkeypatch, how):
    """Patch ``_union_find`` to go wrong in a child only, as ``how`` says."""
    parent = os.getpid()
    real, real_exit = oracle._union_find, os._exit

    def union_find(keys, generators, p):
        roots = real(keys, generators, p)
        if os.getpid() == parent:
            return roots
        if how == "exit":
            real_exit(3)
        if how == "raise":
            raise RuntimeError("in the child")
        if how == "short":
            return roots[:-1]
        if how == "above":
            roots[7] = 8
        if how == "not_a_root":
            roots[-1] = next(x for x, r in enumerate(roots) if r != x)
        if how == "negative":
            roots[1] = -1
        return roots

    monkeypatch.setattr(oracle, "_union_find", union_find)


@pytest.mark.parametrize("how", ["exit", "raise", "short", "above", "not_a_root", "negative"])
def test_a_failed_decomposition_child_runs_again_here(monkeypatch, in_line_reports, how):
    in_child(monkeypatch, True)
    corrupt_in_child(monkeypatch, how)
    started = children_started(monkeypatch)
    assert report_of(4, 2, 1) == in_line_reports[(4, 2, 1)]
    assert started[0] is oracle._union_find


def test_an_error_everywhere_is_the_one_process_error(monkeypatch):
    def union_find(keys, generators, p):
        raise RuntimeError("union-find")

    monkeypatch.setattr(oracle, "_union_find", union_find)
    in_child(monkeypatch, False)
    expected = raised(4, 2)
    assert expected == (RuntimeError, "union-find")
    in_child(monkeypatch, True)
    assert raised(4, 2) == expected


@pytest.mark.parametrize("n,p", [(4, 2), (3, 2)])
def test_no_sample_while_a_child_runs(monkeypatch, n, p):
    # exhaustive_check_cap=0 makes (3,2) sample too.
    in_child(monkeypatch, False)
    expected = raised(n, p, samples=0, exhaustive_check_cap=0)
    assert expected == (InvalidSampleCount, "the sampled check needs samples >= 1, got 0")
    in_child(monkeypatch, True)
    started = children_started(monkeypatch)
    assert raised(n, p, samples=0, exhaustive_check_cap=0) == expected
    assert started == [oracle._union_find]


def test_an_oversized_sample_while_a_child_runs_exits_2(monkeypatch, capsys):
    monkeypatch.delenv("TRIORBIT_BUDGET", raising=False)
    in_child(monkeypatch, True)
    started = children_started(monkeypatch)
    code = main(["verify", "--n", "2", "--p", "2", "--samples", "1000000000000"])
    assert_no_children()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.startswith("error: ") and captured.out.count("\n") == 1
    assert captured.err == ""
    assert started == [oracle._union_find]


def test_keyboard_interrupt_in_the_sample_reaps_the_child(monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    in_child(monkeypatch, True)
    started = children_started(monkeypatch)
    monkeypatch.setattr(oracle, "random_free_pairs", interrupted)
    with pytest.raises(KeyboardInterrupt):
        verify_classification(4, 2)
    assert_no_children()
    assert started == [oracle._union_find]


def test_no_decomposition_child_while_another_thread_runs(monkeypatch, in_line_reports):
    def refuse():
        raise AssertionError("forked with another thread alive")

    monkeypatch.setattr(os, "fork", refuse)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert not oracle._decompose_in_child(9765)
        assert report_of(4, 2, 0) == in_line_reports[(4, 2, 0)]
    finally:
        done.set()
        thread.join()


def test_a_failed_fork_leaves_the_union_find_here(monkeypatch, in_line_reports):
    def no_fork():
        raise BlockingIOError("no more processes")

    monkeypatch.setattr(os, "fork", no_fork)
    in_child(monkeypatch, True)
    assert report_of(3, 3, 0) == in_line_reports[(3, 3, 0)]


def test_which_key_counts_fork():
    many = oracle._cpus() > 1
    assert not oracle._decompose_in_child(oracle.MIN_SLICE - 1)
    assert oracle._decompose_in_child(oracle.MIN_SLICE) == many
    assert oracle._decompose_in_child(9765) == many  # (4,2)
    assert oracle._decompose_in_child(oracle.MAX_CHILD_KEYS) == many
    assert not oracle._decompose_in_child(oracle.MAX_CHILD_KEYS + 1)
