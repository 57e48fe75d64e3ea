import json
import os
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings

from triorbit.cli import main
from triorbit.oracle import _decompose
from tests.conftest import pair_texts


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bell_command(capsys):
    assert run_cli(capsys, "bell", "--n", "4") == (0, "15\n")
    assert run_cli(capsys, "bell", "--n", "1") == (0, "1\n")
    assert run_cli(capsys, "bell", "--n", "5") == (0, "52\n")


def test_bell_rejects_out_of_range(capsys):
    code, _ = run_cli(capsys, "bell", "--n", "501")
    assert code == 2


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["bell", "--n", "four"])
    assert exc.value.code == 2


def test_enumerate_counts(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "2")
    assert code == 0
    assert out.startswith("count 2\n")
    code, out = run_cli(capsys, "enumerate", "--n", "3")
    assert out.startswith("count 5\n")


def test_enumerate_rejects_n1(capsys):
    code, _ = run_cli(capsys, "enumerate", "--n", "1")
    assert code == 2


@pytest.mark.parametrize("n", [0, 1])
def test_verify_rejects_n_below_2(capsys, n):
    code, out = run_cli(capsys, "verify", "--n", str(n), "--p", "2")
    assert (code, out) == (2, "error: --n must be at least 2\n")


def test_enumerate_structured_with_partitions(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "4",
                        "--with-partitions", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 15
    assert len(doc["pairs"]) == 15
    labels = {entry["partition"] for entry in doc["pairs"]}
    assert "{1}{2}{3}{4}" in labels
    assert "{1,2,3,4}" in labels


def test_enumerate_deterministic(capsys):
    first = run_cli(capsys, "enumerate", "--n", "4", "--with-partitions")
    second = run_cli(capsys, "enumerate", "--n", "4", "--with-partitions")
    assert first == second


def test_canonicalize_fixed_point(tmp_path, capsys):
    f = tmp_path / "pair.txt"
    f.write_text("2 2\n1 0\n0 0\n\n0 0\n1 0\n")
    code, out = run_cli(capsys, "canonicalize", "--input", str(f))
    assert code == 0
    assert out == "2 2\n1 0\n0 0\n\n0 0\n1 0\n"


def test_canonicalize_with_certificate_and_trace(tmp_path, capsys):
    f = tmp_path / "pair.txt"
    f.write_text("2 5\n3 0\n1 2\n\n1 0\n4 2\n")
    code, out = run_cli(capsys, "canonicalize", "--input", str(f),
                        "--certificate", "--trace")
    assert code == 0
    assert "U:" in out and "Q.X:" in out and "trace (" in out


def test_canonicalize_structured(tmp_path, capsys):
    f = tmp_path / "pair.json"
    f.write_text(json.dumps({"n": 2, "p": 5, "A": [[3, 0], [1, 2]],
                             "B": [[1, 0], [4, 2]]}))
    code, out = run_cli(capsys, "canonicalize", "--input", str(f),
                        "--format", "structured", "--certificate", "--trace")
    assert code == 0
    doc = json.loads(out)
    assert "canonical" in doc and "certificate" in doc
    assert all(set(stage) == {"label", "side", "pair"} for stage in doc["trace"])
    assert "pivots" in doc and "search_steps" in doc


def test_canonicalize_non_free_exits_1(tmp_path, capsys):
    f = tmp_path / "pair.txt"
    f.write_text("2 2\n0 0\n0 0\n\n0 0\n0 0\n")
    code, out = run_cli(capsys, "canonicalize", "--input", str(f))
    assert code == 1
    assert "not free" in out


def test_canonicalize_parse_error_exits_2(tmp_path, capsys):
    f = tmp_path / "pair.txt"
    f.write_text("hello world\n")
    code, _ = run_cli(capsys, "canonicalize", "--input", str(f))
    assert code == 2
    code, _ = run_cli(capsys, "canonicalize", "--input", str(tmp_path / "missing.txt"))
    assert code == 2
    docs = [json.dumps(doc) for doc in (
        {"n": 2, "p": 2, "A": [[1, 0], [0, 1]]},
        {"n": 2, "p": 2, "A": 5, "B": [[1, 0], [0, 1]]},
        {"n": 2, "p": 2, "A": [[3, 0], [-1, 5]], "B": [[0, 0], [1, 0]]},
        {"n": 2, "p": 2, "A": [[1.9, 0], [0, 1]], "B": [[0, 0], [True, 0]]},
        {"n": 2.0, "p": 2, "A": [[1, 0], [0, 1]], "B": [[0, 0], [1, 0]]},
        {"n": 2, "p": True, "A": [[1, 0], [0, 1]], "B": [[0, 0], [1, 0]]})]
    # Nested past the JSON decoder's recursion limit.
    docs.append('{"n": ' + "[" * 100000 + "]" * 100000 + "}")
    for doc in docs:
        f.write_text(doc)
        code, out = run_cli(capsys, "canonicalize", "--input", str(f))
        assert code == 2
        assert out.startswith("error: bad pair file")


def test_integers_outside_ascii_digits_exit_2(tmp_path, capsys):
    f = tmp_path / "pair.txt"
    f.write_text("2 11\n1 0\n1_0 1\n\n0 0\n\u0663 0\n", encoding="utf-8")
    code, out = run_cli(capsys, "canonicalize", "--input", str(f))
    assert code == 2
    assert out.startswith("error: bad pair file: '1_0'")
    code, out = run_cli(capsys, "convert", "partition-to-pair",
                        "--n", "3", "--partition", "{1}{\u0662,3}")
    assert code == 2
    assert "\u0662" in out


def test_canonicalize_p_mismatch(tmp_path, capsys):
    f = tmp_path / "pair.txt"
    f.write_text("2 2\n1 0\n0 0\n\n0 0\n1 0\n")
    code, _ = run_cli(capsys, "canonicalize", "--input", str(f), "--p", "5")
    assert code == 2


def test_canonicalize_unreachable_orbit_exits_1(tmp_path, capsys):
    f = tmp_path / "pair.txt"
    f.write_text("4 2\n"
                 "0 0 0 0\n1 0 0 0\n0 0 0 0\n0 1 0 0\n\n"
                 "1 0 0 0\n0 0 0 0\n0 1 0 0\n0 0 0 0\n")
    code, out = run_cli(capsys, "canonicalize", "--input", str(f))
    assert code == 1
    assert "without a canonical form" in out


def test_convert_pair_to_partition(tmp_path, capsys):
    f = tmp_path / "pair.txt"
    f.write_text("6 2\n"
                 "1 0 0 0 0 0\n0 1 0 0 0 0\n0 0 0 0 0 0\n"
                 "0 0 0 1 0 0\n0 0 0 0 0 0\n0 0 0 0 0 0\n\n"
                 "0 0 0 0 0 0\n0 0 0 0 0 0\n0 1 0 0 0 0\n"
                 "0 0 0 0 0 0\n0 0 0 1 0 0\n0 0 1 0 0 0\n")
    code, out = run_cli(capsys, "convert", "pair-to-partition", "--input", str(f))
    assert code == 0
    assert out.strip() == "{1}{2,3,6}{4,5}"


def test_convert_partition_to_pair(capsys):
    code, out = run_cli(capsys, "convert", "partition-to-pair",
                        "--n", "6", "--partition", "{1}{2,3,6}{4,5}")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "6 2"
    rows = [line.split() for line in lines[1:7]]
    assert rows[0][0] == "1" and rows[1][1] == "1" and rows[3][3] == "1"


def test_convert_identity_pair(tmp_path, capsys):
    f = tmp_path / "pair.txt"
    f.write_text("3 2\n1 0 0\n0 1 0\n0 0 1\n\n0 0 0\n0 0 0\n0 0 0\n")
    code, out = run_cli(capsys, "convert", "pair-to-partition", "--input", str(f))
    assert code == 0
    assert out.strip() == "{1}{2}{3}"


def test_convert_non_canonical_exits_1(tmp_path, capsys):
    f = tmp_path / "pair.txt"
    f.write_text("2 2\n1 0\n1 1\n\n0 0\n0 0\n")
    code, _ = run_cli(capsys, "convert", "pair-to-partition", "--input", str(f))
    assert code == 1


def test_convert_bad_partition_exits_2(capsys):
    code, _ = run_cli(capsys, "convert", "partition-to-pair",
                      "--n", "4", "--partition", "{1,2")
    assert code == 2
    code, _ = run_cli(capsys, "convert", "partition-to-pair",
                      "--n", "4", "--partition", "{1,2}")
    assert code == 2
    code, _ = run_cli(capsys, "convert", "partition-to-pair",
                      "--n", "2", "--partition", "{1,1}{2}")
    assert code == 2


def test_verify_passing_configuration(capsys):
    code, out = run_cli(capsys, "verify", "--n", "2", "--p", "3")
    assert code == 0
    assert "orbits:           2" in out
    assert "overall: pass" in out


def test_verify_structured_output(capsys):
    code, out = run_cli(capsys, "verify", "--n", "2", "--p", "2",
                        "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit_count"] == 2 and doc["passed"] is True


def test_verify_with_samples_flags(capsys):
    code, out = run_cli(capsys, "verify", "--n", "3", "--p", "2",
                        "--samples", "50", "--seed", "7")
    assert code == 0
    assert "50 sampled, seed 7" in out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_samples_below_1(capsys, samples):
    # Zero or negative samples would check no pair and still report a pass.
    code, out = run_cli(capsys, "verify", "--n", "3", "--p", "3", "--samples", samples)
    assert (code, out) == (2, "error: --samples must be at least 1\n")


def test_verify_reports_an_inconsistent_decomposition(capsys, monkeypatch):
    # The oracle's size check is an explicit raise, so under python -O too
    # the CLI prints an error line and exits 2, with no traceback.
    def dropping(keys, generators, p):
        orbits = _decompose(keys, generators, p)
        return [orbits[0][1:]] + orbits[1:]

    monkeypatch.setattr("triorbit.oracle._decompose", dropping)
    code, out = run_cli(capsys, "verify", "--n", "2", "--p", "2")
    assert code == 2
    assert out.startswith("error: the orbits hold ") and out.count("\n") == 1


def test_verify_non_prime_exits_2(capsys):
    code, _ = run_cli(capsys, "verify", "--n", "2", "--p", "4")
    assert code == 2


def test_verify_over_budget_exits_2(capsys):
    code, out = run_cli(capsys, "verify", "--n", "5", "--p", "2")
    assert code == 2
    assert "error" in out


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "125", "--p", "2"),
    ("enumerate", "--n", "2000"),
    ("convert", "partition-to-pair", "--n", "3", "--partition", "{1}{2}{1000000000000}"),
    ("verify", "--n", "2", "--p", "2", "--samples", "1000000000000"),
])
def test_oversized_input_exits_2_with_one_error_line(capsys, monkeypatch, argv):
    # Each is refused before a count of its size is built or printed:
    # 2^15750 pairs, B_2000, an element 10^12 and 10^12 samples.
    monkeypatch.delenv("TRIORBIT_BUDGET", raising=False)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.startswith("error: ") and captured.out.count("\n") == 1
    assert captured.err == ""


def test_verify_determinism(capsys):
    first = run_cli(capsys, "verify", "--n", "2", "--p", "2")
    second = run_cli(capsys, "verify", "--n", "2", "--p", "2")
    assert first == second


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRIORBIT_BUDGET", "100")
    code, out = run_cli(capsys, "verify", "--n", "2", "--p", "3")
    assert code == 2
    assert "exceed" in out
    monkeypatch.setenv("TRIORBIT_BUDGET", "1000000")
    code, _ = run_cli(capsys, "verify", "--n", "2", "--p", "3")
    assert code == 0
    for bad in ("abc", "0", "-5"):
        monkeypatch.setenv("TRIORBIT_BUDGET", bad)
        for argv in (("verify", "--n", "2", "--p", "3"), ("enumerate", "--n", "3")):
            code, out = run_cli(capsys, *argv)
            assert code == 2
            assert "not a positive integer" in out
    # canonicalize reads no budget; cli.cmd_canonicalize validates
    # TRIORBIT_BUDGET itself, so a bad value exits 2 even after a good call.
    f = tmp_path / "pair.txt"
    f.write_text("3 2\n1 0 0\n0 1 0\n0 0 1\n\n0 0 0\n0 0 0\n0 0 0\n")
    monkeypatch.delenv("TRIORBIT_BUDGET")
    code, _ = run_cli(capsys, "canonicalize", "--input", str(f))
    assert code == 0
    monkeypatch.setenv("TRIORBIT_BUDGET", "abc")
    code, out = run_cli(capsys, "canonicalize", "--input", str(f))
    assert code == 2
    assert "not a positive integer" in out


def test_budget_env_of_5000_digits_exits_2_with_a_short_line(capsys, monkeypatch):
    # A positive integer longer than the 4300-digit int-string limit is
    # refused by its length, also where the interpreter lifts that limit,
    # and the error line echoes only the start of the value.
    monkeypatch.setenv("TRIORBIT_BUDGET", "9" * 5000)
    limit = sys.get_int_max_str_digits()
    for digits in (limit, 0):
        sys.set_int_max_str_digits(digits)
        try:
            code = main(["enumerate", "--n", "3"])
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.startswith("error: ") and captured.out.count("\n") == 1
        assert len(captured.out) < 200 and "5000" in captured.out
        assert captured.err == ""


@pytest.mark.parametrize("p", [2 ** 61 - 1, 2 ** 89 - 1])
def test_huge_modulus_exits_quickly(tmp_path, capsys, p):
    f = tmp_path / "pair.json"
    f.write_text(json.dumps({"n": 2, "p": p, "A": [[1, 0], [5, 7]], "B": [[0, 0], [1, 0]]}))
    start = time.perf_counter()
    canon_code, _ = run_cli(capsys, "canonicalize", "--input", str(f))
    verify_code, _ = run_cli(capsys, "verify", "--n", "2", "--p", str(p))
    assert time.perf_counter() - start < 10
    assert canon_code in (0, 1, 2)
    assert verify_code in (0, 1, 2)


def test_verify_exclusive_flags():
    # verify has no --exhaustive option, so argparse rejects it.
    for argv in (["--exhaustive"], ["--exhaustive", "--samples", "10"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "2", "--p", "2", *argv])
        assert exc.value.code == 2


@settings(max_examples=100, deadline=None)
@given(pair_texts)
def test_canonicalize_any_file_exits_0_1_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pair.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        assert main(["canonicalize", "--input", path]) in (0, 1, 2)
