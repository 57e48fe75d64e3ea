"""Exhaustive, assumption-free verification by orbit enumeration.

A free pair and its unit multiples generate the same submodule, so each
free submodule is keyed by its least generating pair, which has a normal
form (``_normal_form``).  The free submodules are enumerated straight in
that form and grouped into group orbits with union-find, walking each
generator's cycles on the keys and reducing only the images that are not
keys already (``_decompose``).  The resulting decomposition is
confronted with the claimed classification: orbit count equals the Bell
number, each orbit holds exactly one canonical submodule, the
canonicalizer lands on it, and exactly one orbit is unimodular.

A key is the tuple of the n rows of [A|B], each a tuple of 2n residues.
Keys are listed in ModulePair order, so a submodule's ordinal is the rank
of its least generating pair.
"""

import bisect
import itertools
import random

from .canonical import canonicalize, enumerate_canonical
from .errors import (BudgetExceeded, CanonicalizationFailed, DimensionMismatch,
                     VerificationFailed)
from .field import GF
from .gl2 import GL2Element, orbit_generators
from .modpairs import (ModulePair, Submodule, enumeration_budget, ring_size,
                       unit_count, unit_matrices)
from .partitions import bell
from .trimat import LowerTriMatrix, _echelon_insert, _trusted


def _normal_form(rows, p):
    """Key of the submodule generated by the rows of [A|B]; None if not free.

    Proof.  Row i of u(A, B), for a unit u, is u_i1 r_1 + ... + u_ii r_i
    with u_ii != 0, where r_k is row k of [A|B]; so it ranges over
    S_i = span(r_1..r_i) minus span(r_1..r_(i-1)), independently for each
    i.  ModulePair order compares the A-halves of all rows before any
    B-half, and the rows vary independently, so the least pair of the unit
    orbit takes in every row the least 2n-vector of S_i (its entries past
    column i of A and of B are 0 throughout).  Let L
    be the set of leads (first nonzero index) of span(r_1..r_(i-1)).  The
    vectors of span(r_1..r_i) that vanish on L form a line whose lead l
    lies outside L; let v be its vector with entry 1 at l.  Any other
    element of S_i is c v + w with w in span(r_1..r_(i-1)): if w = 0 and
    c != 1 it is larger at l; if lead(w) < l its lead comes earlier; if
    lead(w) > l it is nonzero at lead(w), where v is 0.  So v is the least
    element of S_i.  The loop below reduces r_i at the leads of L in
    ascending order, each step subtracting a basis row that is 0 before
    its lead, so earlier leads stay 0 and the result lies on that line;
    ``_echelon_insert`` then scales it to 1 at l and stores it, or finds
    it zero when r_i depends on the rows above.  Hence the key is the one
    tuple of rows in which row i is 0 at the leads of the rows above it
    and 1 at its own lead.
    """
    basis = {}
    leads = []
    key = []
    for row in rows:
        for k in leads:
            c = row[k]
            if c:
                row = [(x - c * y) % p for x, y in zip(row, basis[k])]
        lead = _echelon_insert(basis, row, p)
        if lead is None:
            return None
        bisect.insort(leads, lead)
        key.append(tuple(basis[lead]))
    return tuple(key)


def _pair_key(pair):
    """Key of the submodule generated by a free pair.

    Row i of [A|B] is packed row i of A and then of B, each padded with
    n - i zeros, read straight from the entries.
    """
    n = pair.n
    a, b = pair.A.entries, pair.B.entries
    rows = []
    for i in range(n):
        start = i * (i + 1) // 2
        stop = start + i + 1
        pad = (0,) * (n - i - 1)
        rows.append([*a[start:stop], *pad, *b[start:stop], *pad])
    return _normal_form(rows, pair.field.p)


def _key_pair(field, key):
    """The least generating pair of the submodule with this key."""
    n = len(key)
    A = [x for i, row in enumerate(key) for x in row[:i + 1]]
    B = [x for i, row in enumerate(key) for x in row[n:n + i + 1]]
    return ModulePair(LowerTriMatrix(field, n, A), LowerTriMatrix(field, n, B))


def _free_submodule_keys(field, n, budget):
    """Every key at (n, p), in ModulePair order.

    Row i of a key is supported on the columns a_1..a_i, b_1..b_i; it is 0
    at the i - 1 leads of the rows above, so it is a nonzero vector of the
    remaining i + 1 positions scaled to lead 1: (p^(i+1) - 1)/(p - 1)
    choices, with its lead among those positions.
    """
    total = ring_size(field, n) ** 2
    cap = enumeration_budget(budget)
    if total > cap:
        raise BudgetExceeded(
            f"{total} pairs at n={n}, p={field.p} exceed the cap {cap}")
    p = field.p
    keys = [()]
    for i in range(n):
        support = [*range(i + 1), *range(n, n + i + 1)]
        grown = []
        for key in keys:
            # A row's lead is its first 1: the entries before it are 0.
            leads = [row.index(1) for row in key]
            free = [k for k in support if k not in leads]
            for t, lead in enumerate(free):
                rest = free[t + 1:]
                for values in itertools.product(range(p), repeat=len(rest)):
                    row = [0] * (2 * n)
                    row[lead] = 1
                    for k, v in zip(rest, values):
                        row[k] = v
                    grown.append(key + (tuple(row),))
        keys = grown

    def position(key):
        # The pair's entries, A then B, as the digits of one base-p number,
        # which orders keys as ModulePair does and keeps the sort small.
        value = 0
        for half in (slice(n), slice(n, None)):
            for row in key:
                for x in row[half]:
                    value = value * p + x
        return value

    keys.sort(key=position)
    return keys


def enumerate_free_submodules(n, p, budget=None):
    """All free cyclic submodules at (n, p), ascending by key."""
    field = GF(p)
    return [Submodule(_key_pair(field, key))
            for key in _free_submodule_keys(field, n, budget)]


class OrbitSummary:
    """One group orbit of free cyclic submodules."""

    __slots__ = ("size", "canonical_count", "canonical_pair", "unimodular", "mixed_flags")

    def __init__(self, size, canonical_count, canonical_pair, unimodular, mixed_flags):
        self.size = size
        self.canonical_count = canonical_count
        self.canonical_pair = canonical_pair
        self.unimodular = unimodular
        self.mixed_flags = mixed_flags

    def to_dict(self):
        from .modpairs import pair_to_dict

        return {
            "size": self.size,
            "canonical_count": self.canonical_count,
            "canonical_pair": pair_to_dict(self.canonical_pair)
            if self.canonical_pair is not None else None,
            "unimodular": self.unimodular,
        }


class OrbitReport:
    """Counts, per-orbit summaries, and classification verdicts for one (n, p)."""

    def __init__(self, n, p):
        self.n = n
        self.p = p
        self.free_pairs = 0
        self.free_submodules = 0
        self.orbit_count = 0
        self.bell = bell(n)
        self.orbits = []
        self.verdicts = {}
        self.counterexample = None
        self.checked_pairs = 0
        self.sampled = False
        self.seed = None
        self.search_activations = 0
        self.canonicalization_failures = 0

    @property
    def passed(self):
        return bool(self.verdicts) and all(self.verdicts.values())

    def to_dict(self):
        from .modpairs import pair_to_dict

        return {
            "n": self.n,
            "p": self.p,
            "free_pairs": self.free_pairs,
            "free_submodules": self.free_submodules,
            "orbit_count": self.orbit_count,
            "bell": self.bell,
            "orbits": [o.to_dict() for o in self.orbits],
            "verdicts": self.verdicts,
            "passed": self.passed,
            "counterexample": pair_to_dict(self.counterexample)
            if self.counterexample is not None else None,
            "checked_pairs": self.checked_pairs,
            "sampled": self.sampled,
            "seed": self.seed,
            "search_activations": self.search_activations,
            "canonicalization_failures": self.canonicalization_failures,
        }

    def format_text(self):
        lines = [
            f"orbit report for n={self.n}, p={self.p}",
            f"  free pairs:       {self.free_pairs}",
            f"  free submodules:  {self.free_submodules}",
            f"  orbits:           {self.orbit_count}",
            f"  bell number:      {self.bell}",
        ]
        if self.sampled:
            lines.append(f"  canonicalize checks: {self.checked_pairs} sampled, seed {self.seed}")
        else:
            lines.append(f"  canonicalize checks: {self.checked_pairs} (exhaustive)")
        lines.append(f"  search activations:  {self.search_activations}")
        lines.append("  orbit table (size / canonical members / unimodular):")
        for i, orbit in enumerate(self.orbits, start=1):
            lines.append(
                f"    orbit {i:>3}: {orbit.size:>8} / {orbit.canonical_count} / "
                f"{'yes' if orbit.unimodular else 'no'}")
        for name, ok in self.verdicts.items():
            lines.append(f"  verdict {name}: {'pass' if ok else 'FAIL'}")
        if self.counterexample is not None:
            lines.append("  counterexample pair:")
            from .modpairs import format_pair

            lines.extend("    " + ln for ln in format_pair(self.counterexample).splitlines())
        lines.append(f"  overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if rx > ry:
            rx, ry = ry, rx
        self.parent[ry] = rx


def _block_rows(g):
    """Rows of the 2n x 2n matrix [X Y; W Z] of g, as (column, entry) lists."""
    rows = [g.X.row(i) + g.Y.row(i) for i in range(1, g.n + 1)]
    rows += [g.W.row(i) + g.Z.row(i) for i in range(1, g.n + 1)]
    return [[(j, v) for j, v in enumerate(row) if v] for row in rows]


def _order(g):
    """Multiplicative order of g: the least m >= 1 with g^m the identity."""
    one = GL2Element.identity(g.field, g.n)
    power, m = g, 1
    while power != one:
        power = power * g
        m += 1
    return m


def _decompose(keys, generators, p):
    """Union-find orbit decomposition of the submodule keys.

    (A, B) g = (AX + BW, AY + BZ), so each row of [A|B] moves to itself
    times [X Y; W Z].  Keys share most of their rows, so the image of a
    row under a generator is computed once; generators are taken one at
    a time, so only one such cache is alive.

    Lookup before reduction.  Keys are exactly the normal forms
    (``_normal_form`` returns every key unchanged), so moved rows that
    equal a key K are the least generating pair of their submodule, whose
    key is K; only a moved tuple that is no key is reduced.

    Cycle walk.  A generator g of order m permutes the keys, and each
    cycle's length divides m.  From a start s not yet visited under g the
    walk takes s -> g s -> g^2 s ..., uniting each image with the key
    before it and marking it visited, until it returns to s or has taken
    m - 1 steps.  A cycle shorter than m closes within those steps; one
    that has not closed has length m, and its closing edge
    g (g^(m-1) s) = s joins two keys already united.  Every cycle is
    walked whole, so its members are never starts again, and every edge
    of g's permutation is accounted for.

    The union keeps the lower index as the root, so each root is the least
    member of its component, and grouping by root and sorting give the
    same orbit list for any order of unions.
    """
    ordinal = {key: i for i, key in enumerate(keys)}
    uf = _UnionFind(len(keys))
    for g in generators:
        steps = _order(g) - 1
        block = _block_rows(g)
        images = {}
        done = bytearray(len(keys))
        for start in range(len(keys)):
            if done[start]:
                continue
            i, key = start, keys[start]
            for _ in range(steps):
                moved = []
                for row in key:
                    image = images.get(row)
                    if image is None:
                        out = [0] * len(row)
                        for x, entries in zip(row, block):
                            if x:
                                for j, v in entries:
                                    out[j] += x * v
                        image = images[row] = tuple(v % p for v in out)
                    moved.append(image)
                key = tuple(moved)
                j = ordinal.get(key)
                if j is None:
                    key = _normal_form(moved, p)
                    j = ordinal[key]
                if j == start:
                    break
                uf.union(i, j)
                done[j] = 1
                i = j
    groups = {}
    for i in range(len(keys)):
        groups.setdefault(uf.find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


def orbit_decomposition(n, p, budget=None, generators=None):
    """Decompose the free submodules at (n, p) into group orbits."""
    report, _ = _build_report(n, p, budget, generators)
    return report


def _build_report(n, p, budget=None, generators=None):
    field = GF(p)
    keys = _free_submodule_keys(field, n, budget)
    if generators is None:
        generators = orbit_generators(field, n)
    orbits = _decompose(keys, generators, p)

    canonical_pairs = enumerate_canonical(n, field) if n >= 2 else []
    canonical_of = {}
    for cp in canonical_pairs:
        canonical_of.setdefault(_pair_key(cp), []).append(cp)

    report = OrbitReport(n, p)
    # A free pair has a trivial unit stabilizer, so every submodule has
    # exactly one generating pair per unit.
    report.free_pairs = len(keys) * unit_count(field, n)
    report.free_submodules = len(keys)
    report.orbit_count = len(orbits)

    orbit_of = {}
    orbit_canonical = []
    for idx, members in enumerate(orbits):
        canon = []
        for i in members:
            orbit_of[keys[i]] = idx
            canon.extend(canonical_of.get(keys[i], []))
        # Unimodular: a_ii or b_ii is nonzero in every row i.
        flags = {all(row[k] or row[n + k] for k, row in enumerate(keys[i]))
                 for i in members}
        summary = OrbitSummary(
            size=len(members),
            canonical_count=len(canon),
            canonical_pair=canon[0] if canon else None,
            unimodular=flags == {True},
            mixed_flags=len(flags) > 1,
        )
        report.orbits.append(summary)
        orbit_canonical.append(_pair_key(canon[0]) if len(canon) == 1 else None)
    assert sum(o.size for o in report.orbits) == report.free_submodules
    return report, (keys, orbits, orbit_of, orbit_canonical)


def random_free_pairs(field, n, count, seed):
    """Deterministic sample of free pairs, by rejection on uniform entries."""
    if n < 1:
        raise DimensionMismatch(f"dimension {n} < 1")
    rng = random.Random(seed)
    m = n * (n + 1) // 2
    p = field.p
    out = []
    while len(out) < count:
        # randrange(p) lies in [0, p), so the constructor's checks could only pass.
        A = _trusted(field, n, tuple([rng.randrange(p) for _ in range(m)]))
        B = _trusted(field, n, tuple([rng.randrange(p) for _ in range(m)]))
        pair = ModulePair(A, B)
        if pair.is_free():
            out.append(pair)
    return out


def verify_classification(n, p, budget=None, samples=2000, seed=0,
                          exhaustive_check_cap=8192, generators=None,
                          raise_on_failure=False):
    """Run the full exhaustive verification and return the OrbitReport.

    The canonicalizer check covers every free pair when their number is at
    most ``exhaustive_check_cap``, otherwise ``samples`` pseudorandom free
    pairs drawn with the recorded seed.  With ``raise_on_failure`` the
    report is wrapped in a VerificationFailed exception instead of being
    returned with failing verdicts.
    """
    report, (keys, orbits, orbit_of, orbit_canonical) = _build_report(
        n, p, budget, generators)
    field = GF(p)

    report.verdicts["orbit_count_equals_bell"] = report.orbit_count == report.bell
    report.verdicts["one_canonical_per_orbit"] = all(
        o.canonical_count == 1 for o in report.orbits)

    # Exactly one orbit of unimodular submodules, the one holding (I, 0).
    flags_consistent = not any(o.mixed_flags for o in report.orbits)
    unim_orbits = [i for i, o in enumerate(report.orbits) if o.unimodular]
    identity_orbit = orbit_of[_pair_key(ModulePair(
        LowerTriMatrix.identity(field, n), LowerTriMatrix.zero(field, n)))]
    report.verdicts["single_unimodular_orbit"] = (
        flags_consistent and unim_orbits == [identity_orbit])
    # Free pairs outside the unimodular orbit are non-unimodular and free,
    # which is exactly the outlier condition.
    report.verdicts["outliers_generate_the_rest"] = flags_consistent

    # Canonicalizer agreement with the orbit decomposition.  canonicalize
    # checks the canonical shape of its result itself and raises
    # CanonicalizationFailed otherwise, also under python -O.
    if report.free_pairs <= exhaustive_check_cap:
        units = list(unit_matrices(field, n))
        to_check = []
        for key in keys:
            pair = _key_pair(field, key)
            to_check.extend(ModulePair(u * pair.A, u * pair.B) for u in units)
        report.sampled = False
    else:
        to_check = random_free_pairs(field, n, samples, seed)
        report.sampled = True
        report.seed = seed
    agreed = True
    for pair in to_check:
        try:
            result, cert, trace = canonicalize(pair)
        except CanonicalizationFailed:
            report.canonicalization_failures += 1
            report.counterexample = pair
            agreed = False
            continue
        report.search_activations += trace.search_steps
        expected = orbit_canonical[orbit_of[_pair_key(pair)]]
        if expected is None or _pair_key(result) != expected:
            agreed = False
            if report.counterexample is None:
                report.counterexample = pair
    report.checked_pairs = len(to_check)
    report.verdicts["canonicalize_matches_orbits"] = agreed
    report.verdicts["no_canonicalization_failures"] = (
        report.canonicalization_failures == 0)

    if not report.passed:
        if report.counterexample is None:
            # Pick a minimal witness: the least key of a failing orbit.
            for i, o in enumerate(report.orbits):
                if o.canonical_count != 1 or o.mixed_flags:
                    report.counterexample = _key_pair(field, keys[min(orbits[i])])
                    break
        if raise_on_failure:
            raise VerificationFailed(report)
    return report
