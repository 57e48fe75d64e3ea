#!/usr/bin/env python3
"""Benchmark of triorbit, driven from outside through its public API.

    python3 perfbench/run.py --workload verify-4-2 --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
One process, one thread, closed loop: each call starts when the one before
it has returned.  Every output is checked (see ``checks.py``).  The last
line of standard output is the result object; the line before it holds
the run's metadata.  ``--trace 0`` reports the end-to-end metrics,
with every time scaled to a nominal host speed by ``speed.py`` (the wall
times are in the metadata), and ``--trace 1`` the per-layer metrics of
``probes.py``; README.md lists them and the layer each one belongs to.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import probes
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORD = HERE / "expected.json"

# name -> (operation, n, p)
WORKLOADS = {
    "verify-4-2": ("verify", 4, 2),
    "verify-3-3": ("verify", 3, 3),
    "canon-6-3": ("canon", 6, 3),
}
SETUP_REPS = 7
# Distinct pairs per seed: as many as one pass fits in a 30-second run, so
# the p99 has 40 samples beyond it.  The tail metrics vary with the seed's
# few slow pairs, and more pairs per run is what narrows that.
CANON_PAIRS = 4000
# The throughput leaves out the slowest 1 % of calls, which the p99 and
# the per-layer canonical.max_ms report: they include the calls cut at the
# action cap, whose number moves from 5 to 13 per 3000 pairs between seeds.
CANON_TRIM = 0.01
CANON_BLOCK = 1000  # pairs per recorded digest; traced runs use the first block
# A canonicalize call is abandoned after this many group actions through
# ``triorbit.canonical.act_right``.  Typical search pairs at (6,3) use under
# 600 and take under 0.1 s; a few pairs per thousand need over 1000 and run
# the search for seconds to minutes.  Counting actions instead of seconds
# makes the cut the same on every machine.
ACT_RIGHT_CAP = 2000


class Censored(BaseException):
    """Raised inside canonicalize when the call exceeds ACT_RIGHT_CAP."""


class ActionCap:
    """Counts group actions per canonicalize call and abandons long calls."""

    def __init__(self, module, limit):
        self.count = 0
        orig = module.act_right

        def act_right(*args, **kwargs):
            self.count += 1
            if self.count > limit:
                raise Censored
            return orig(*args, **kwargs)

        module.act_right = act_right


class Run:
    """Counters shared by every operation of one run."""

    def __init__(self, pkg, tracer, meter):
        self.pkg = pkg
        self.tracer = tracer
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.roundtrip_s = 0.0

    def fail(self, problems):
        """Count one failed operation; the first three problems are kept."""
        self.failed += 1
        self.problems.extend(problems[:max(0, 3 - len(self.problems))])

    def roundtrip(self, pkg, pair, traced):
        """The round-trip check, timed for partitions.roundtrip_s on traced operations."""
        start = time.perf_counter()
        try:
            return checks.roundtrip_problems(pkg, pair)
        finally:
            if traced:
                self.roundtrip_s += time.perf_counter() - start

    @contextlib.contextmanager
    def traced(self, on):
        if self.tracer is not None:
            self.tracer.on = on
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.on = False


def import_triorbit():
    """A fresh import of the package under ``src/`` (drops any earlier one)."""
    for name in [m for m in sys.modules if m == "triorbit" or m.startswith("triorbit.")]:
        del sys.modules[name]
    pkg = importlib.import_module("triorbit")
    importlib.import_module("triorbit.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "triorbit":
        raise ImportError(f"triorbit was imported from {pkg.__file__}, not from src/")
    return pkg


def setup(kind, n, p, seed):
    """Import, input generation and cache warm-up; returns (pkg, pairs)."""
    pkg = import_triorbit()
    pairs = None
    if kind == "canon":
        pairs = pkg.random_free_pairs(pkg.GF(p), n, CANON_PAIRS, seed)
    pkg.canonical.reachable_profiles(n)
    return pkg, pairs


# -- verify -------------------------------------------------------------------


def verify_op(run, n, p, seed, record, traced):
    """One in-process ``triorbit verify --format structured``.

    Returns ((start, end, seconds), parsed report, sha256 of the report text).
    """
    argv = ["verify", "--n", str(n), "--p", str(p), "--seed", str(seed),
            "--format", "structured"]
    out = io.StringIO()
    with run.traced(traced), contextlib.redirect_stdout(out):
        mark = run.meter.mark()
        code = run.pkg.cli.main(argv)
        interval = run.meter.since(mark)
    text = out.getvalue()
    run.attempted += 1
    doc = json.loads(text)
    problems = checks.verify_problems(
        run.pkg, n, p, seed, code, doc,
        lambda pkg, pair: run.roundtrip(pkg, pair, traced))
    digest = checks.digest([text])
    if record is not None and digest != record:
        problems.append(f"report digest {digest[:12]} differs from the recorded one")
    if problems:
        run.fail(problems)
    return interval, doc, digest


def verify_workload(run, n, p, seed, seconds, trace, record):
    """Verify calls until the next one would end past ``seconds``.

    With tracing each round is an untraced call followed by a traced one.
    """
    untraced, traced, docs, digests = [], [], [], set()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        t, doc, digest = verify_op(run, n, p, seed, record, False)
        untraced.append(t)
        digests.add(digest)
        if trace:
            t, doc, digest = verify_op(run, n, p, seed, record, True)
            traced.append(t)
            docs.append(doc)
            digests.add(digest)
        now = time.perf_counter()
        if now + (now - round_start) - start > seconds:
            break
    run.meter.stop()
    if len(digests) > 1:
        run.fail(["verify reports differ between calls of one run"])
    info = {"digest": sorted(digests)[0],
            "record": "unrecorded" if record is None else
            ("match" if digests == {record} else "mismatch"),
            "samples": len(untraced),
            "wall_latencies_ms": [t * 1e3 for _, _, t in untraced]}
    if not trace:
        scaled = run.meter.scale(untraced)
        info["latencies_ms"] = [t * 1e3 for t in scaled]
        return end_to_end([t * 1e3 for t in scaled],
                          statistics.median(1 / t for t in scaled)), info
    return per_layer(run, [t for _, _, t in traced], [t for _, _, t in untraced],
                     docs[0], passes=len(traced)), info


# -- canonicalize -------------------------------------------------------------


def canon_call(run, cap, pair, traced):
    """Canonicalize one pair and check the result.

    Returns ((start, end, seconds), outcome).
    """
    pkg = run.pkg
    cap.count = 0
    with run.traced(traced):
        mark = run.meter.mark()
        try:
            result, cert, _ = pkg.canonicalize(pair)
            outcome = result
        except pkg.CanonicalizationFailed:
            outcome = "unreachable"
        except Censored:
            outcome = "censored"
        except pkg.TriOrbitError as exc:
            outcome = f"error {type(exc).__name__}"
        interval = run.meter.since(mark)
    run.attempted += 1
    if isinstance(outcome, str):
        if outcome.startswith("error"):
            run.fail([outcome])
        return interval, outcome
    problems = checks.certificate_problems(pair, result, cert)
    if not problems:
        problems = run.roundtrip(pkg, result, traced)
    if problems:
        run.fail(problems)
    return interval, outcome


def canon_pass(run, cap, pairs, first, modes=(False,)):
    """Canonicalize the stream in order, each pair once per tracing mode.

    Returns the (start, end, seconds) of every call per mode.
    ``first`` holds the digest line of every pair from the first pass; later
    calls must reproduce it (the action cap is deterministic too).
    """
    latencies = {traced: [] for traced in modes}
    for index, pair in enumerate(pairs):
        for traced in modes:
            interval, outcome = canon_call(run, cap, pair, traced)
            latencies[traced].append(interval)
            line = checks.outcome_line(index, outcome)
            if len(first) == index:
                first.append(line)
            elif first[index] != line:
                run.fail([f"pair {index} gave {line!r}, earlier {first[index]!r}"])
    return latencies


def canon_workload(run, pairs, seconds, trace, record):
    """Whole passes over the stream, repeated while another one fits in ``seconds``.

    Without tracing each pass covers the whole stream, and a pair's latency
    is its median over the passes, so every run measures the same pairs
    however fast it goes.  With tracing each pass covers the first block
    and calls each pair untraced and then traced, so both see the same
    machine state.
    """
    cap = ActionCap(run.pkg.canonical, ACT_RIGHT_CAP)
    first = []
    untraced, traced, passes = [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        if trace:
            lat = canon_pass(run, cap, pairs[:CANON_BLOCK], first, modes=(False, True))
            untraced.append(sum(t for _, _, t in lat[False]))
            traced.append(sum(t for _, _, t in lat[True]))
        else:
            passes.append(canon_pass(run, cap, pairs, first)[False])
        now = time.perf_counter()
        if now + (now - pass_start) - start > seconds:
            break
    run.meter.stop()
    info = canon_digest(run, first, record)
    info["censored"] = sum(1 for line in first if line.endswith(" censored"))
    info["unreachable"] = sum(1 for line in first if line.endswith(" unreachable"))
    if trace:
        return per_layer(run, traced, untraced, None, passes=len(traced)), info
    info["passes"] = len(passes)
    info["samples"] = len(pairs)
    wall = [[t for _, _, t in one] for one in passes]
    scaled = [run.meter.scale(one) for one in passes]
    info["wall"] = {name: value for name, (value, _) in canon_metrics(wall).items()}
    return canon_metrics(scaled), info


def canon_metrics(passes):
    """End-to-end metrics of per-pair latencies, each the median over the passes."""
    latencies = [statistics.median(calls) for calls in zip(*passes)]
    kept = sorted(latencies)[:len(latencies) - int(len(latencies) * CANON_TRIM)]
    return end_to_end([t * 1e3 for t in latencies], len(kept) / sum(kept))


def canon_digest(run, first, record):
    """Digests of the first pass per block, compared with the recorded ones.

    Pairs abandoned at the action cap in the record are compared as
    abandoned whatever this run returned for them; a pair abandoned here
    but not in the record leaves its block undecided.
    """
    blocks = [first[i:i + CANON_BLOCK]
              for i in range(0, len(first) - CANON_BLOCK + 1, CANON_BLOCK)]
    info = {"digests": [checks.digest(block) for block in blocks]}
    if record is None or record["action_cap"] != ACT_RIGHT_CAP:
        info["record"] = "unrecorded"
        return info
    allowed = set(record["censored"])
    status = []
    for b, block in enumerate(blocks):
        base = b * CANON_BLOCK
        mine = {base + i for i, line in enumerate(block) if line.endswith(" censored")}
        if b >= len(record["digests"]):
            status.append("unrecorded")
        elif not mine <= allowed:
            status.append("undecided")
        elif checks.digest([checks.outcome_line(base + i, "censored")
                            if base + i in allowed else line
                            for i, line in enumerate(block)]) == record["digests"][b]:
            status.append("match")
        else:
            status.append("mismatch")
            run.fail([f"canonicalize outputs of block {b} differ from the record"])
    info["record"] = status
    return info


# -- metrics ------------------------------------------------------------------


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(latencies_ms, throughput):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p99_ms": (quantile(latencies_ms, 0.99), "ms"),
        "throughput_per_s": (throughput, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(run, traced, untraced, doc, passes):
    """Per-layer metrics, each per traced operation (verify call or pass)."""
    tr = run.tracer
    calls = tr.canon_calls
    nosearch = [t for t, o in calls if isinstance(o, tuple) and o[0] == 0]
    searched = [o for _, o in calls if isinstance(o, tuple) and o[0] > 0]
    canon_s = tr.seconds("canonical.canonicalize")
    report = doc or {}

    def each(x):
        return x / passes

    def count(x):
        return x // passes if x % passes == 0 else x / passes

    return {
        "oracle.scan_s": (each(tr.seconds("oracle._Scan")), "s"),
        "oracle.decompose_s": (each(tr.seconds("oracle._build_report")
                                    - tr.seconds("oracle._Scan")), "s"),
        "oracle.crosscheck_s": (each(tr.seconds("site:oracle.canonicalize")
                                     + tr.seconds("site:oracle.random_free_pairs")), "s"),
        "oracle.free_pairs": (report.get("free_pairs", 0), "count"),
        "oracle.free_submodules": (report.get("free_submodules", 0), "count"),
        "oracle.orbits": (report.get("orbit_count", 0), "count"),
        "oracle.checked_pairs": (report.get("checked_pairs", 0), "count"),
        "oracle.search_activations": (report.get("search_activations", 0), "count"),
        "oracle.canon_failures": (report.get("canonicalization_failures", 0), "count"),
        "canonical.calls": (count(tr.calls("canonical.canonicalize")), "count"),
        "canonical.canonicalize_s": (each(canon_s), "s"),
        "canonical.search_pairs": (count(len(searched)), "count"),
        "canonical.search_steps": (count(sum(o[0] for o in searched)), "count"),
        "canonical.search_s": (each(tr.seconds("canonical._search_word")), "s"),
        "canonical.search_time_share": (
            tr.seconds("canonical._search_word") / canon_s if canon_s else 0.0, "frac"),
        "canonical.nosearch_p50_ms": (
            statistics.median(nosearch) * 1e3 if nosearch else 0.0, "ms"),
        "canonical.max_ms": (max((t for t, _ in calls), default=0.0) * 1e3, "ms"),
        "canonical.stages": (count(sum(o[1] for _, o in calls if isinstance(o, tuple))),
                             "count"),
        "canonical.unreachable": (
            count(sum(1 for _, o in calls if o == "CanonicalizationFailed")), "count"),
        "canonical.censored": (count(sum(1 for _, o in calls if o == "Censored")), "count"),
        "canonical.span_profile_s": (each(tr.seconds("canonical.span_profile")), "s"),
        "canonical.select_pivots_s": (each(tr.seconds("canonical.select_pivots")), "s"),
        "canonical.verify_certificate_s": (
            each(tr.seconds("canonical.verify_certificate")), "s"),
        "canonical.is_canonical_s": (each(tr.seconds("canonical.is_canonical")), "s"),
        "trimat.mul_calls": (count(tr.calls("trimat.LowerTriMatrix.__mul__")), "count"),
        "trimat.mul_s": (each(tr.seconds("trimat.LowerTriMatrix.__mul__")), "s"),
        "trimat.rank_calls": (count(tr.calls("trimat.matrix_rank")), "count"),
        "trimat.rank_s": (each(tr.seconds("trimat.matrix_rank")), "s"),
        "trimat.inverse_calls": (count(tr.calls("trimat.LowerTriMatrix.inverse")), "count"),
        "gl2.act_right_calls": (count(tr.calls("gl2.act_right")), "count"),
        "gl2.act_right_s": (each(tr.seconds("gl2.act_right")), "s"),
        "gl2.generators_calls": (count(tr.calls("gl2.gl2_generators")), "count"),
        "gl2.generators_s": (each(tr.seconds("gl2.gl2_generators")), "s"),
        "modpairs.is_free_calls": (count(tr.calls("modpairs.ModulePair.is_free")), "count"),
        "modpairs.is_free_s": (each(tr.seconds("modpairs.ModulePair.is_free")), "s"),
        "field.inv_calls": (count(tr.calls("field.GF.inv")), "count"),
        "partitions.roundtrip_s": (each(run.roundtrip_s), "s"),
        "cli.overhead_s": (each(tr.seconds("cli.main")
                                - tr.seconds("oracle.verify_classification")), "s"),
        "trace.overhead_frac": (sum(traced) / sum(untraced) - 1, "frac"),
        "trace.overhead_s": (each(sum(traced)) - sum(untraced) / len(untraced), "s"),
    }


# -- entry point --------------------------------------------------------------


def git_sha():
    """HEAD of the enclosing git checkout, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_record(workload, seed):
    try:
        return json.loads(RECORD.read_text()).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_src():
    """Put the checkout's ``src/`` first on the import path; False if it is missing."""
    if not (SRC / "triorbit" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC / 'triorbit'}; run from the root of "
              "a triorbit checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None):
    args = parse_args(argv)
    if not use_src():
        return 2
    kind, n, p = WORKLOADS[args.workload]

    # Traced runs are not scaled: their handler time would count in the spans.
    meter = speed.SpeedMeter(active=not args.trace)
    meter.start()
    try:
        setups = []
        for _ in range(SETUP_REPS):
            mark = meter.mark()
            pkg, pairs = setup(kind, n, p, args.seed)
            setups.append(meter.since(mark))
        tracer = None
        if args.trace:
            tracer = probes.Tracer(pkg)
            tracer.install()
        run = Run(pkg, tracer, meter)
        record = load_record(args.workload, args.seed)
        gc.collect()
        if kind == "verify":
            metrics, info = verify_workload(run, n, p, args.seed, args.seconds,
                                            args.trace, record)
        else:
            metrics, info = canon_workload(run, pairs, args.seconds, args.trace, record)
    finally:
        meter.stop()
    setup_s = meter.scale(setups)
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_s), "s")

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "setup_s": setup_s,
        "wall_setup_s": [t for _, _, t in setups], "speed": meter.summary(),
        "operations": run.attempted, "failed": run.failed,
        "fail_frac": run.failed / run.attempted, "problems": run.problems,
        "pairs": len(pairs) if pairs else None,
        "action_cap": ACT_RIGHT_CAP if kind == "canon" else None,
        **info,
    }
    if tracer is not None:
        # Coarse spans as [name, start, seconds, parent index], start from the first.
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        meta["spans"] = [[name, round(start - origin, 6), round(end - start, 6), parent]
                         for name, start, end, parent in tracer.spans]
    print(json.dumps({"run": meta}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
