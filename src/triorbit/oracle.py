"""Exhaustive, assumption-free verification by orbit enumeration.

A free pair and its unit multiples generate the same submodule, so each
free submodule is keyed by its least generating pair, which has a normal
form (``_normal_form``).  The free submodules are enumerated straight in
that form and grouped into group orbits with union-find (``_decompose``):
each generator maps the nodes of a trie of the key prefixes, on which the
normal form is a left fold, level by level over the trie's edges, from
the depth of the rows it fixes, and each key is united with its image.
The resulting decomposition is confronted with the claimed
classification: orbit count equals the Bell number, each orbit holds
exactly one canonical submodule, the canonicalizer lands on it, and
exactly one orbit is unimodular.

A key is a tuple of n packed rows.  Row i of [A|B] packs into one int:
its 2n residues a_i1..a_in, b_i1..b_in are its base-p digits, a_i1 the
most significant, so ints compare as the rows do.  Keys are listed in
ModulePair order, so a submodule's ordinal is the rank of its least
generating pair.
"""

import functools
import itertools
import random

from .canonical import canonicalize, enumerate_canonical
from .errors import (CanonicalizationFailed, DimensionMismatch, InconsistentDecomposition,
                     InvalidSampleCount)
from .field import GF
from .gl2 import orbit_generators
from .modpairs import (ModulePair, Submodule, _canonical_pair, _check_budget,
                       enumeration_budget, format_pair, pair_to_dict, unit_count,
                       unit_matrices)
from .partitions import bell
from .trimat import LowerTriMatrix, _trusted


@functools.lru_cache(maxsize=1 << 12)
def _digits(row, p):
    """Base-p digits of a packed row, least significant first, up to its lead.

    Cached: the oracle decodes the same key rows again and again.
    """
    out = []
    while row:
        row, x = divmod(row, p)
        out.append(x)
    return tuple(out)


def _pack(columns, p):
    """The packed row of base-p digits listed most significant first."""
    value = 0
    for x in columns:
        value = value * p + x
    return value


def _reduce_row(prefix, row, p):
    """The next key row after the key rows ``prefix``; None if ``row`` is in their span.

    ``row`` is reduced top-down against the key rows, then scaled to 1 at
    its lead.  Each key row is 1 at its lead and 0 at the leads of the rows
    above it, so once ``row`` is cleared at a row's lead, subtracting the
    rows below keeps it 0 there: the result lies in ``row`` plus their span
    and is 0 at every lead of ``prefix``, and it is zero exactly when
    ``row`` lies in that span.
    """
    if p == 2:
        # Subtraction is exclusive or, and the lead is the top bit.
        for v in prefix:
            if row >> (v.bit_length() - 1) & 1:
                row ^= v
        return row or None
    digits = _digits(row, p)
    out = list(digits)
    for v in prefix:
        w = _digits(v, p)
        c = out[len(w) - 1] if len(w) <= len(out) else 0
        if c:
            for k, y in enumerate(w):
                out[k] = (out[k] - c * y) % p
    while out and not out[-1]:
        out.pop()
    if not out:
        return None
    if out[-1] != 1:
        c = pow(out[-1], p - 2, p)
        out = [x * c % p for x in out]
    return row if tuple(out) == digits else _pack(reversed(out), p)


def _normal_form(rows, p):
    """Key of the submodule generated by the packed rows of [A|B]; None if not free.

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
    element of S_i.  By induction key rows 1..i-1 span
    span(r_1..r_(i-1)), and their leads are L; ``_reduce_row`` takes r_i
    into r_i + span(r_1..r_(i-1)) and to 0 on L, which puts it on that
    line, and scales it to v, or finds it zero when r_i depends on the
    rows above.  Hence the key is the one tuple of rows in which row i is
    0 at the leads of the rows above it and 1 at its own lead.

    Row i of the key depends on rows 1..i alone: the normal form is a left
    fold of ``_reduce_row`` over the rows.
    """
    key = ()
    for row in rows:
        row = _reduce_row(key, row, p)
        if row is None:
            return None
        key += (row,)
    return key


def _pair_key(pair):
    """Key of the submodule generated by a free pair.

    Row i of [A|B] is packed row i of A and then of B, each padded with
    n - i zeros, read straight from the entries.
    """
    n, p = pair.n, pair.field.p
    a, b = pair.A.entries, pair.B.entries
    rows = []
    for i in range(n):
        start = i * (i + 1) // 2
        stop = start + i + 1
        pad = (0,) * (n - i - 1)
        rows.append(_pack([*a[start:stop], *pad, *b[start:stop], *pad], p))
    return _normal_form(rows, p)


def _key_pair(field, key):
    """The least generating pair of the submodule with this key."""
    n, p = len(key), field.p
    A, B = [], []
    for i, row in enumerate(key):
        digits = _digits(row, p)
        columns = [0] * (2 * n - len(digits)) + list(reversed(digits))
        A += columns[:i + 1]
        B += columns[n:n + i + 1]
    return ModulePair(LowerTriMatrix(field, n, A), LowerTriMatrix(field, n, B))


def _free_submodule_keys(field, n, budget):
    """Every key at (n, p), in ModulePair order.

    A key is a tuple of n packed rows: row i of [A|B], the residues
    a_i1..a_in, b_i1..b_in read as the base-p digits of one int, a_i1 the
    most significant.  Row i is supported on the columns a_1..a_i,
    b_1..b_i; it is 0 at the i - 1 leads of the rows above, so it is a
    nonzero vector of the remaining i + 1 positions scaled to lead 1:
    (p^(i+1) - 1)/(p - 1) choices, with its lead among those positions.
    The choices depend only on the set of leads above, so the prefixes are
    grouped by it and each row is built once per group.
    """
    p = field.p
    e = n * (n + 1)
    _check_budget(enumeration_budget(budget), f"the pair count p^(n(n+1)) at n={n}, p={p}",
                  e * (p.bit_length() - 1), lambda: p ** e)
    place = [p ** (2 * n - 1 - k) for k in range(2 * n)]
    groups = {(): [()]}  # the key prefixes, by the set of their leads
    for i in range(n):
        support = [*range(i + 1), *range(n, n + i + 1)]
        grown = {}
        for leads, prefixes in groups.items():
            free = [k for k in support if k not in leads]
            for t, lead in enumerate(free):
                bucket = grown.setdefault(tuple(sorted((*leads, lead))), [])
                rest = [place[k] for k in free[t + 1:]]
                for values in itertools.product(range(p), repeat=len(rest)):
                    row = place[lead] + sum(v * x for v, x in zip(values, rest))
                    bucket += [key + (row,) for key in prefixes]
        groups = grown
    keys = [key for prefixes in groups.values() for key in prefixes]

    q = p ** n

    def position(key):
        # The pair's entries, A then B, as the digits of one base-p number,
        # which orders keys as ModulePair does and keeps the sort small.
        value = 0
        for row in key:
            value = value * q + row // q
        for row in key:
            value = value * q + row % q
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
            lines.extend("    " + ln for ln in format_pair(self.counterexample).splitlines())
        lines.append(f"  overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _mover(g, p):
    """f(g), and the map taking a packed row r of [A|B] to r [X Y; W Z].

    f(g) is the least k mod n over the rows k (counted from 0) of the
    2n x 2n matrix [X Y; W Z] that differ from the identity's, or n if
    none does.
    """
    n = g.n
    block = [g.X.row(i) + g.Y.row(i) for i in range(1, n + 1)]
    block += [g.W.row(i) + g.Z.row(i) for i in range(1, n + 1)]
    fixed = min((k % n for k, row in enumerate(block)
                 if any(v != (j == k) for j, v in enumerate(row))), default=n)
    # The digit at place e is column 2n - 1 - e; its image is that block
    # row, as (place, entry) pairs.
    images = [[(2 * n - 1 - j, v) for j, v in enumerate(block[2 * n - 1 - e]) if v]
              for e in range(2 * n)]

    def move(row):
        out = [0] * (2 * n)
        for x, entries in zip(_digits(row, p), images):
            if x:
                for e, v in entries:
                    out[e] += x * v
        return _pack([x % p for x in reversed(out)], p)

    return fixed, move


class _Trie:
    """The key prefixes, and the step of ``_normal_form``'s left fold on them.

    Node 0 is the empty prefix, and ``prefixes[node]`` holds a node's key
    rows.  ``edges[node]`` maps each key row that follows the prefix to
    the node after it; at depth n - 1 it maps to key ordinals.  The edges
    are fixed once the keys are read.
    """

    def __init__(self, keys, p):
        self.p = p
        self.edges = [{}]
        self.prefixes = [()]
        n = len(keys[0])
        for ordinal, key in enumerate(keys):
            node = 0
            for d in range(n - 1):
                child = self.edges[node].get(key[d])
                if child is None:
                    child = self.edges[node][key[d]] = len(self.edges)
                    self.edges.append({})
                    self.prefixes.append(key[:d + 1])
                node = child
            self.edges[node][key[-1]] = ordinal

    def child(self, node, row):
        """The node after ``row``, which must be independent of the node's rows.

        ``_reduce_row`` takes ``row`` to the next key row of the fold, a key
        row itself unchanged, and its edge is the node after it.
        """
        return self.edges[node][_reduce_row(self.prefixes[node], row, self.p)]


def _decompose(keys, generators, p):
    """Union-find orbit decomposition of the submodule keys.

    (A, B) g = (AX + BW, AY + BZ), so each row of [A|B] moves to itself
    times [X Y; W Z].  Keys share most of their rows, so the image of a
    row under a generator is computed once, when the walk first needs it;
    generators are taken one at a time, so only one such cache is alive.

    Left fold.  ``_normal_form`` folds ``_reduce_row`` over the rows, so
    its state after i rows, key rows 1..i of the result, is fixed by
    input rows 1..i.  The image of a key under a group element is a free
    pair, whose key is a key; so every state of the fold of an image is a
    key prefix, a node of the ``_Trie``, and ``_Trie.child`` gives the
    fold's next state from it.

    Trie map.  Rows 1..d of a key's image under g are its rows 1..d times
    g, which its node N at depth d fixes; so the image's fold state after
    d rows depends on N alone.  Call it phi(N): a node at depth d, or at
    depth n the ordinal of the image's key.  Let f = f(g) (``_mover``).
    Row i of [A|B] is supported on the columns a_1..a_i, b_1..b_i, which
    meet the rows i' and n + i' of [X Y; W Z] for i' <= i only; for
    i <= f these are the identity's rows, so row i maps to itself.  A
    node N at depth f therefore has phi(N) = N, as the fold of a key's
    own rows passes through its own nodes.  Below that, the fold's next
    step gives phi(child(N, r)) = child(phi(N), r g).  So phi is built
    level by level from depth f over the key edges, one transition per
    edge, and at depth n it pairs every key ordinal with the ordinal of
    its image.  Every key lies below exactly one node at depth f, so each
    key meets each generator once: uniting key and image for every
    generator joins each orbit, as the group is finite and g^-1 is a
    power of g.  An identity generator, f = n, moves no key and is
    skipped.  A row off the node's key edges is reduced each time it is
    met, and not stored: one generator never meets a transition twice, as
    a node is fixed by the spans of its first 1, ..., d rows, which g maps
    one to one, and g moves distinct rows to distinct rows.

    Union-find on ``parent``, with path halving.  The union keeps the
    lower root as the root, so each root is the least member of its
    component, and grouping by root and sorting give the same orbit list
    for any order of unions.  Every link points down, parent[x] <= x, as
    a union links a root to a lower one and halving links x to its
    grandparent; so the final sweep, in ascending order, sets each
    parent[x] to its root from the root already set at parent[x].
    """
    trie = _Trie(keys, p)
    edges = trie.edges
    n = len(keys[0])
    parent = list(range(len(keys)))
    for g in generators:
        fixed, move = _mover(g, p)
        if fixed == n:
            continue
        nodes = [0]
        for _ in range(fixed):
            nodes = [child for node in nodes for child in edges[node].values()]
        level = zip(nodes, nodes)
        images = {}
        for depth in range(fixed + 1, n + 1):
            mapped = []
            for node, target in level:
                moved = edges[target]
                for row, x in edges[node].items():
                    image = images.get(row)
                    if image is None:
                        image = images[row] = move(row)
                    y = moved.get(image)
                    if y is None:
                        y = trie.child(target, image)
                    if depth < n:
                        mapped.append((x, y))
                        continue
                    while parent[x] != x:
                        parent[x] = x = parent[parent[x]]
                    while parent[y] != y:
                        parent[y] = y = parent[parent[y]]
                    if x < y:
                        parent[y] = x
                    elif y < x:
                        parent[x] = y
            level = mapped
    groups = {}
    for x, up in enumerate(parent):
        parent[x] = root = parent[up]
        groups.setdefault(root, []).append(x)
    return [groups[root] for root in sorted(groups)]


def orbit_decomposition(n, p, budget=None):
    """Decompose the free submodules at (n, p) into group orbits."""
    report, _ = _build_report(n, p, budget)
    return report


def _build_report(n, p, budget=None):
    field = GF(p)
    keys = _free_submodule_keys(field, n, budget)
    orbits = _decompose(keys, orbit_generators(field, n), p)

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

    # Places of a_ii and b_ii in packed row i.
    diagonal = [(p ** (2 * n - 1 - i), p ** (n - 1 - i)) for i in range(n)]
    orbit_of = {}
    orbit_canonical = []
    for idx, members in enumerate(orbits):
        canon = []
        for i in members:
            orbit_of[keys[i]] = idx
            canon.extend(canonical_of.get(keys[i], []))
        # Unimodular: a_ii or b_ii is nonzero in every row i.
        flags = {all(row // a % p or row // b % p for row, (a, b) in zip(keys[i], diagonal))
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
    covered = sum(o.size for o in report.orbits)
    if covered != report.free_submodules:
        raise InconsistentDecomposition(
            f"the orbits hold {covered} submodules, not the "
            f"{report.free_submodules} free submodules")
    return report, (keys, orbits, orbit_of, orbit_canonical)


def random_free_pairs(field, n, count, seed):
    """Deterministic sample of free pairs, by rejection on uniform entries.

    Each entry is drawn as ``Random.randrange(p)`` draws it, inlined: r =
    getrandbits(k) with k = p.bit_length(), drawn again while r >= p.  So
    the sample is the stream of A's entries then B's entries, pair after
    pair, that ``randrange`` gives for the seed, and each entry lies in
    [0, p), so the constructor's checks could only pass.
    """
    if n < 1:
        raise DimensionMismatch(f"dimension {n} < 1")
    getrandbits = random.Random(seed).getrandbits
    m = n * (n + 1) // 2
    p = field.p
    k = p.bit_length()
    out = []
    while len(out) < count:
        entries = []
        for _ in range(2 * m):
            r = getrandbits(k)
            while r >= p:
                r = getrandbits(k)
            entries.append(r)
        pair = ModulePair(_trusted(field, n, tuple(entries[:m])),
                          _trusted(field, n, tuple(entries[m:])))
        if pair.is_free():
            out.append(pair)
    return out


def verify_classification(n, p, budget=None, samples=2000, seed=0,
                          exhaustive_check_cap=8192):
    """Run the full exhaustive verification and return the OrbitReport.

    The canonicalizer check covers every free pair when their number is at
    most ``exhaustive_check_cap``, otherwise ``samples`` pseudorandom free
    pairs drawn with the recorded seed; that sampled check raises
    InvalidSampleCount when ``samples`` is below 1, since it would check
    no pair and pass.  A failing check is reported in the verdicts, with a
    counterexample, and is not raised.
    """
    report, (keys, orbits, orbit_of, _) = _build_report(n, p, budget)
    field = GF(p)

    report.verdicts["orbit_count_equals_bell"] = report.orbit_count == report.bell
    report.verdicts["one_canonical_per_orbit"] = all(
        o.canonical_count == 1 for o in report.orbits)

    # Exactly one orbit of unimodular submodules, the one holding (I, 0).
    flags_consistent = not any(o.mixed_flags for o in report.orbits)
    unim_orbits = [i for i, o in enumerate(report.orbits) if o.unimodular]
    identity_orbit = orbit_of[_pair_key(_canonical_pair(field, range(1, n + 1)))]
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
        if samples < 1:
            raise InvalidSampleCount(f"the sampled check needs samples >= 1, got {samples}")
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
        # The result is canonical (canonicalize checks it), and so is the
        # orbit's canonical pair.  A canonical pair's rows are distinct unit
        # vectors, each 0 at the other rows' leads and 1 at its own: the one
        # shape of a key's rows (``_normal_form``), so the pair is its own
        # key's least pair, ``_key_pair`` of its key.  Two canonical pairs
        # with equal keys are therefore equal, and comparing the pairs
        # decides what comparing their keys did.
        expected = report.orbits[orbit_of[_pair_key(pair)]]
        if expected.canonical_count != 1 or result != expected.canonical_pair:
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
    return report
