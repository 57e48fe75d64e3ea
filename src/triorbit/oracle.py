"""Exhaustive, assumption-free verification by orbit enumeration.

Every pair of ring elements is scanned; free pairs are grouped into
submodules (unit orbits), the submodules into group orbits by generator
closure with union-find, and the resulting decomposition is confronted
with the claimed classification: orbit count equals the Bell number, each
orbit holds exactly one canonical submodule, the canonicalizer lands on
it, and exactly one orbit is unimodular.

Ring elements are packed into integers (base-p digits of the lower
triangle, most significant first) so that integer order equals the
entry-wise total order and the hot loops run on flat lookup tables.
"""

import random

from .canonical import canonicalize, enumerate_canonical, is_canonical
from .errors import BudgetExceeded, CanonicalizationFailed, VerificationFailed
from .field import GF
from .gl2 import gl2_generators
from .modpairs import ModulePair, Submodule, enumeration_budget, ring_size
from .partitions import bell
from .trimat import LowerTriMatrix, _echelon_insert


class IndexedRing:
    """Packed-integer tables for T_n(GF(p)) at desk scale."""

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.p = field.p
        self.m = n * (n + 1) // 2
        self.count = self.p ** self.m
        p, m = self.p, self.m
        digits = []
        for idx in range(self.count):
            d = []
            rem = idx
            for k in range(m):
                d.append(rem // p ** (m - 1 - k))
                rem %= p ** (m - 1 - k)
            digits.append(tuple(d))
        self.digits = digits
        self._diag_pos = [i * (i - 1) // 2 + (i - 1) for i in range(1, n + 1)]
        # Bitmask of diagonal positions holding zero; unimodularity of a
        # pair is then zero_diag[a] & zero_diag[b] == 0.
        self.zero_diag = [
            sum(1 << i for i, pos in enumerate(self._diag_pos) if digits[idx][pos] == 0)
            for idx in range(self.count)
        ]
        self.units = [idx for idx in range(self.count) if self.zero_diag[idx] == 0]
        if self.p == 2:
            # Row r of element idx as an n-bit integer, highest column last.
            self.rows = [
                tuple(
                    sum(digits[idx][i * (i - 1) // 2 + (j - 1)] << (j - 1)
                        for j in range(1, i + 1))
                    for i in range(1, n + 1)
                )
                for idx in range(self.count)
            ]
        else:
            self.rows = [
                tuple(
                    tuple(digits[idx][i * (i - 1) // 2 + (j - 1)] if j <= i else 0
                          for j in range(1, n + 1))
                    for i in range(1, n + 1)
                )
                for idx in range(self.count)
            ]
        self._left = {}
        self._right = {}
        self._add = None

    def pack(self, M: LowerTriMatrix) -> int:
        idx = 0
        for e in M.entries:
            idx = idx * self.p + e
        return idx

    def unpack(self, idx: int) -> LowerTriMatrix:
        return LowerTriMatrix(self.field, self.n, self.digits[idx])

    def unpack_pair(self, key: int) -> ModulePair:
        return ModulePair(self.unpack(key // self.count), self.unpack(key % self.count))

    def mul_idx(self, a: int, b: int) -> int:
        da, db = self.digits[a], self.digits[b]
        p = self.p
        out = 0
        for i in range(1, self.n + 1):
            ibase = i * (i - 1) // 2 - 1
            for j in range(1, i + 1):
                acc = 0
                for k in range(j, i + 1):
                    acc += da[ibase + k] * db[k * (k - 1) // 2 + j - 1]
                out = out * p + acc % p
        return out

    def add_idx(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self._add is None:
            self._add = [
                [self._add_direct(x, y) for y in range(self.count)]
                for x in range(self.count)
            ]
        return self._add[a][b]

    def _add_direct(self, a, b):
        p = self.p
        out = 0
        for x, y in zip(self.digits[a], self.digits[b]):
            out = out * p + (x + y) % p
        return out

    def left_table(self, u: int):
        """u * x for every x, as a flat list indexed by x."""
        table = self._left.get(u)
        if table is None:
            table = [self.mul_idx(u, x) for x in range(self.count)]
            self._left[u] = table
        return table

    def right_table(self, c: int):
        """x * c for every x, as a flat list indexed by x."""
        table = self._right.get(c)
        if table is None:
            table = [self.mul_idx(x, c) for x in range(self.count)]
            self._right[c] = table
        return table


def _free_rows_gf2(arows, brows, n):
    """Rank-n test on [A|B] with bit-packed rows over GF(2)."""
    basis = [0] * (2 * n)
    for i in range(n):
        r = (brows[i] << n) | arows[i]
        while r:
            hb = r.bit_length() - 1
            e = basis[hb]
            if e:
                r ^= e
            else:
                basis[hb] = r
                break
        else:
            return False
    return True


class _Scan:
    """Shared result of the exhaustive pair scan for one (n, p)."""

    def __init__(self, field, n, budget):
        total = ring_size(field, n) ** 2
        cap = enumeration_budget(budget)
        if total > cap:
            raise BudgetExceeded(
                f"{total} pairs at n={n}, p={field.p} exceed the cap {cap}")
        ring = IndexedRing(field, n)
        self.ring = ring
        count = ring.count
        units = ring.units
        left = [ring.left_table(u) for u in units]
        rows = ring.rows
        zero_diag = ring.zero_diag
        n_units = len(units)
        visited = bytearray(total)
        keys = []
        unimodular = []
        p = ring.p
        gf2 = p == 2
        free_pairs = 0
        for a in range(count):
            base = a * count
            arows = rows[a]
            a_unit = zero_diag[a] == 0
            for b in range(count):
                idx = base + b
                if visited[idx]:
                    continue
                if a_unit:
                    free = True
                elif gf2:
                    free = _free_rows_gf2(arows, rows[b], n)
                else:
                    # Rank-n test on [A|B], stopping at the first dependent row.
                    basis = {}
                    for arow, brow in zip(arows, rows[b]):
                        if _echelon_insert(basis, arow + brow, p) is None:
                            free = False
                            break
                    else:
                        free = True
                if free:
                    keys.append(idx)
                    unimodular.append(zero_diag[a] & zero_diag[b] == 0)
                    newly = 0
                    for lt in left:
                        j = lt[a] * count + lt[b]
                        if not visited[j]:
                            visited[j] = 1
                            newly += 1
                    # A free pair has a trivial unit stabilizer, so its unit
                    # orbit must have exactly one pair per unit.
                    assert newly == n_units
                    free_pairs += newly
                else:
                    visited[idx] = 1
        self.keys = keys
        self.unimodular = unimodular
        self.free_pairs = free_pairs
        self.left_tables = left
        self.key_ordinal = {k: i for i, k in enumerate(keys)}

    def normalize(self, a, b):
        """Submodule key of the pair (a, b): minimum over the unit orbit."""
        count = self.ring.count
        best = None
        for lt in self.left_tables:
            cand = lt[a] * count + lt[b]
            if best is None or cand < best:
                best = cand
        return best

    def normalize_pair(self, pair):
        return self.normalize(self.ring.pack(pair.A), self.ring.pack(pair.B))


def enumerate_free_submodules(n, p, budget=None):
    """All free cyclic submodules at (n, p), ascending by key."""
    field = GF(p)
    scan = _Scan(field, n, budget)
    return [Submodule(scan.ring.unpack_pair(k)) for k in scan.keys]


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


def _decompose(scan, generators):
    """Union-find orbit decomposition of the submodule keys."""
    ring = scan.ring
    count = ring.count
    uf = _UnionFind(len(scan.keys))
    gen_blocks = []
    for g in generators:
        gen_blocks.append((
            ring.pack(g.X), ring.pack(g.Y), ring.pack(g.W), ring.pack(g.Z)))
    tables = {}

    def table(c):
        t = tables.get(c)
        if t is None:
            t = ring.right_table(c)
            tables[c] = t
        return t

    for ordinal, key in enumerate(scan.keys):
        a, b = key // count, key % count
        for (x, y, w, z) in gen_blocks:
            a2 = ring.add_idx(table(x)[a], table(w)[b])
            b2 = ring.add_idx(table(y)[a], table(z)[b])
            target = scan.key_ordinal[scan.normalize(a2, b2)]
            uf.union(ordinal, target)
    groups = {}
    for ordinal in range(len(scan.keys)):
        groups.setdefault(uf.find(ordinal), []).append(ordinal)
    return [groups[root] for root in sorted(groups)]


def orbit_decomposition(n, p, budget=None, generators=None):
    """Decompose the free submodules at (n, p) into group orbits."""
    report, _ = _build_report(n, p, budget, generators)
    return report


def _build_report(n, p, budget=None, generators=None):
    field = GF(p)
    scan = _Scan(field, n, budget)
    if generators is None:
        generators = gl2_generators(field, n)
    orbits = _decompose(scan, generators)

    canonical_pairs = enumerate_canonical(n, field) if n >= 2 else []
    canonical_ordinals = {}
    for cp in canonical_pairs:
        ordinal = scan.key_ordinal[scan.normalize_pair(cp)]
        canonical_ordinals.setdefault(ordinal, []).append(cp)

    report = OrbitReport(n, p)
    report.free_pairs = scan.free_pairs
    report.free_submodules = len(scan.keys)
    report.orbit_count = len(orbits)

    orbit_of_ordinal = {}
    orbit_canonical = []
    for idx, members in enumerate(orbits):
        for ordinal in members:
            orbit_of_ordinal[ordinal] = idx
        canon = []
        for ordinal in members:
            canon.extend(canonical_ordinals.get(ordinal, []))
        flags = {scan.unimodular[ordinal] for ordinal in members}
        summary = OrbitSummary(
            size=len(members),
            canonical_count=len(canon),
            canonical_pair=canon[0] if canon else None,
            unimodular=flags == {True},
            mixed_flags=len(flags) > 1,
        )
        report.orbits.append(summary)
        orbit_canonical.append(scan.key_ordinal[scan.normalize_pair(canon[0])]
                               if len(canon) == 1 else None)
    assert sum(o.size for o in report.orbits) == report.free_submodules
    return report, (scan, orbits, orbit_of_ordinal, orbit_canonical)


def random_free_pairs(field, n, count, seed):
    """Deterministic sample of free pairs, by rejection on uniform entries."""
    rng = random.Random(seed)
    m = n * (n + 1) // 2
    out = []
    while len(out) < count:
        A = LowerTriMatrix(field, n, [rng.randrange(field.p) for _ in range(m)])
        B = LowerTriMatrix(field, n, [rng.randrange(field.p) for _ in range(m)])
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
    report, (scan, orbits, orbit_of_ordinal, orbit_canonical) = _build_report(
        n, p, budget, generators)
    ring = scan.ring
    field = ring.field

    report.verdicts["orbit_count_equals_bell"] = report.orbit_count == report.bell
    report.verdicts["one_canonical_per_orbit"] = all(
        o.canonical_count == 1 for o in report.orbits)

    # Exactly one orbit of unimodular submodules, the one holding (I, 0).
    flags_consistent = not any(o.mixed_flags for o in report.orbits)
    unim_orbits = [i for i, o in enumerate(report.orbits) if o.unimodular]
    identity_key = scan.normalize(
        ring.pack(LowerTriMatrix.identity(field, n)),
        ring.pack(LowerTriMatrix.zero(field, n)))
    identity_orbit = orbit_of_ordinal[scan.key_ordinal[identity_key]]
    report.verdicts["single_unimodular_orbit"] = (
        flags_consistent and unim_orbits == [identity_orbit])
    # Free pairs outside the unimodular orbit are non-unimodular and free,
    # which is exactly the outlier condition.
    report.verdicts["outliers_generate_the_rest"] = flags_consistent

    # Canonicalizer agreement with the orbit decomposition.
    if report.free_pairs <= exhaustive_check_cap:
        to_check = []
        count = ring.count
        for ordinal, key in enumerate(scan.keys):
            a, b = key // count, key % count
            for lt in scan.left_tables:
                to_check.append(ring.unpack_pair(lt[a] * count + lt[b]))
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
        ordinal = scan.key_ordinal[scan.normalize_pair(pair)]
        expected = orbit_canonical[orbit_of_ordinal[ordinal]]
        got = scan.key_ordinal[scan.normalize_pair(result)]
        if expected is None or got != expected or not is_canonical(result):
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
                    members = orbits[i]
                    report.counterexample = ring.unpack_pair(scan.keys[min(members)])
                    break
        if raise_on_failure:
            raise VerificationFailed(report)
    return report
