"""Submodule keys, and assumption-free verification by orbit enumeration.

A free pair and its unit multiples generate the same submodule, so each
free submodule is keyed by its least generating pair, which has a normal
form (``_normal_form``); this module alone decides what identifies a
submodule (``cyclic_submodule``).  The free submodules are enumerated in
that form and grouped into group orbits with union-find (``_decompose``):
each generator maps the nodes of a trie of the key prefixes, on which the
normal form is a left fold, level by level over the trie's edges, from
the depth of the rows it fixes, and each key is united with its image.
The resulting decomposition is confronted with the claimed
classification: orbit count equals the Bell number, each orbit holds
exactly one canonical submodule, the canonicalizer lands on it, and
exactly one orbit is unimodular.

A key is a tuple of n packed rows.  Row i of [A|B] packs into one int
of 2n fixed-width fields, its residues a_i1..a_in, b_i1..b_in, a_i1 in
the top field; every field holds a residue below p, so ints compare as
the rows do.  The width is fixed per (n, p) by ``_layout``: one bit at
p = 2, where rows combine by exclusive or, and at odd p wide enough for
every sum of rows times residues that the oracle forms, so rows combine
by whole-int arithmetic and ``_reduce_fields`` takes all 2n fields mod p
in one pass; no row is decoded into its residues.  Keys are listed in
ModulePair order, so a submodule's ordinal is the rank of its least
generating pair.
"""

from array import array
import functools
import itertools
import os
import random
import signal
import threading

from .canonical import canonicalize, enumerate_canonical
from .errors import (CanonicalizationFailed, DimensionMismatch, InconsistentDecomposition,
                     InvalidSampleCount, NotFree)
from .field import GF
from .gl2 import orbit_generators
from .modpairs import (ModulePair, _canonical_pair, _check_budget, format_pair, pair_to_dict,
                       unit_count, unit_matrices)
from .partitions import bell
from .trimat import LowerTriMatrix, _trusted


@functools.cache
def _layout(n, p):
    """(p, b, mask, s, m, qmask): a packed row's field width b at (n, p), and its reduction.

    Field k of a packed row (column k of [A|B], a_i1 first) is bits
    (2n - 1 - k) b up to (2n - k) b, read by a shift and ``mask``,
    2^b - 1.  At p = 2, b = 1, rows combine by exclusive or, and s, m
    and qmask are unused.  At odd p the oracle sums rows times residues
    below p and reduces afterwards: ``_reduce_row`` adds at most n - 1
    key rows, each times a residue, to a row, which bounds a field by
    (p - 1) + (n - 1)(p - 1)^2, and ``_mover`` sums 2n block rows, each
    times a residue, which bounds it by 2n(p - 1)^2.  The larger,
    D = 2n(p - 1)^2, bounds every field of every sum.  ``_reduce_fields``
    takes each field a to a - p q, with q = floor(a m / 2^s),
    m = ceil(2^s / p) and 2^s > D (p - 1).

    Barrett.  Write m p = 2^s + e with 0 <= e < p, and a = t p + r with
    0 <= r < p.  Then a m / 2^s = t + (r + a e / 2^s) / p, and
    a e <= D (p - 1) < 2^s, so r + a e / 2^s < r + 1 <= p: q = t, and
    a - p q = a mod p, for every 0 <= a <= D.

    No carry.  b is the bit length of D m, so every field a of a sum has
    a m < 2^b, and also a < 2^b.  For the field at bits t..t + b - 1 of
    acc, the fields below it contribute less than 2^t to acc m, as each
    of their products a m is below 2^b; so bits t..t + b - 1 of acc m
    hold that field's a m exactly.  Shifting acc m right by s puts
    q = floor(a m / 2^s) < 2^(b - s) at the field's low bits, and qmask
    keeps the low b - s bits of every field, dropping the low bits of the
    field above (b > s, as D m > p m >= 2^s, since 2n(p - 1)^2 > p).
    As p q <= a < 2^b in every field, acc - p (that quotient int) borrows
    across no field, and leaves every field a - p q.  So one
    multiplication, one shift, one mask and one multiply-subtract reduce
    all 2n fields; no bound is checked at run time.
    """
    if p == 2:
        return 2, 1, 1, 0, 0, 0
    d = 2 * n * (p - 1) ** 2
    s = (d * (p - 1)).bit_length()
    m = -(-(1 << s) // p)
    b = (d * m).bit_length()
    ones = ((1 << 2 * n * b) - 1) // ((1 << b) - 1)
    return p, b, (1 << b) - 1, s, m, ((1 << b - s) - 1) * ones


def _reduce_fields(acc, layout):
    """``acc`` with each of its fields, each at most D, taken mod p (proof in ``_layout``)."""
    p, _, _, s, m, qmask = layout
    return acc - p * (acc * m >> s & qmask)


def _pack(columns, base):
    """The packed row of the fields listed most significant first, ``base`` 2^b."""
    value = 0
    for x in columns:
        value = value * base + x
    return value


def _reduce_row(prefix, row, layout):
    """The next key row after the key rows ``prefix``; None if ``row`` is in their span.

    ``row`` is reduced top-down against the key rows, then scaled to 1 at
    its lead.  Each key row is 1 at its lead and 0 at the leads of the rows
    above it, so once ``row`` is cleared at a row's lead, subtracting the
    rows below keeps it 0 there: the result lies in ``row`` plus their span
    and is 0 at every lead of ``prefix``, and it is zero exactly when
    ``row`` lies in that span.

    A key row's top bit is the low bit of its lead field, which holds 1.
    At odd p, (p - c) v is added for each key row v, with c the sum's
    field at v's lead taken mod p, which makes that field 0 mod p; the
    fields stay unreduced, within the bound D of ``_layout``, until
    ``_reduce_fields`` takes them all mod p at once.  A lead other than 1
    is then scaled by its inverse, and the fields reduced once more.
    """
    if layout[0] == 2:
        # Subtraction is exclusive or, and the lead is the top bit.
        for v in prefix:
            if row >> (v.bit_length() - 1) & 1:
                row ^= v
        return row or None
    p, b, mask, s, m, qmask = layout
    for v in prefix:
        c = (row >> (v.bit_length() - 1) & mask) % p
        if c:
            row += (p - c) * v
    row -= p * (row * m >> s & qmask)  # _reduce_fields, inlined on the hottest call
    if not row:
        return None
    lead = row >> (row.bit_length() - 1) // b * b
    return row if lead == 1 else _reduce_fields(row * pow(lead, p - 2, p), layout)


def _normal_form(rows, layout):
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
        row = _reduce_row(key, row, layout)
        if row is None:
            return None
        key += (row,)
    return key


def _pair_key(pair):
    """Key of the submodule generated by a pair; None if it is not free.

    Row i of [A|B] is packed row i of A and then of B, each padded with
    n - i zeros, read straight from the entries.
    """
    n, p = pair.n, pair.field.p
    layout = _layout(n, p)
    base = 1 << layout[1]
    a, b = pair.A.entries, pair.B.entries
    rows = []
    for i in range(n):
        start = i * (i + 1) // 2
        stop = start + i + 1
        pad = (0,) * (n - i - 1)
        rows.append(_pack([*a[start:stop], *pad, *b[start:stop], *pad], base))
    return _normal_form(rows, layout)


def _key_pair(field, key):
    """The least generating pair of the submodule with this key."""
    n = len(key)
    _, width, mask, *_ = _layout(n, field.p)
    A, B = [], []
    for i, row in enumerate(key):
        A += [row >> (2 * n - 1 - k) * width & mask for k in range(i + 1)]
        B += [row >> (n - 1 - k) * width & mask for k in range(i + 1)]
    return ModulePair(LowerTriMatrix(field, n, A), LowerTriMatrix(field, n, B))


class Submodule:
    """A free cyclic submodule, identified by its least generating pair.

    Two free pairs generate the same submodule exactly when they are unit
    multiples of each other, so the minimum of the unit orbit is a complete
    key.
    """

    __slots__ = ("generator",)

    def __init__(self, generator: ModulePair):
        self.generator = generator

    def __eq__(self, other):
        return isinstance(other, Submodule) and self.generator == other.generator

    def __hash__(self):
        return hash(("Submodule", self.generator))

    def __lt__(self, other):
        return self.generator < other.generator

    def __repr__(self):
        return f"Submodule({self.generator!r})"


def cyclic_submodule(pair: ModulePair) -> Submodule:
    """The free cyclic submodule generated by ``pair``, keyed by its normal form.

    The normal form is the least generating pair (``_normal_form``), so
    nothing is enumerated and no budget is charged.
    """
    key = _pair_key(pair)
    if key is None:
        raise NotFree("only free pairs have a well-defined submodule key")
    return Submodule(_key_pair(pair.field, key))


def _free_submodule_keys(field, n):
    """Every key at (n, p), in ModulePair order.

    A key is a tuple of n packed rows: row i of [A|B], the residues
    a_i1..a_in, b_i1..b_in as the 2n fields of one int laid out by
    ``_layout``, a_i1 in the top field, so ints compare as the rows do.
    Row i is supported on the columns a_1..a_i, b_1..b_i; it is 0 at the
    i - 1 leads of the rows above, so it is a nonzero vector of the
    remaining i + 1 positions scaled to lead 1: (p^(i+1) - 1)/(p - 1)
    choices, with its lead among those positions.  The choices depend
    only on the set of leads above, so the prefixes are grouped by it and
    each row is built once per group, as the sum of its residues times
    the fields' places 2^(kb).
    """
    p = field.p
    e = n * (n + 1)
    _check_budget(f"the pair count p^(n(n+1)) at n={n}, p={p}",
                  e * (p.bit_length() - 1), lambda: p ** e)
    width = _layout(n, p)[1]
    place = [1 << (2 * n - 1 - k) * width for k in range(2 * n)]
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

    half = n * width
    low = (1 << half) - 1

    def position(key):
        # The pair's entries, A then B, as the fields of one int, which
        # orders keys as ModulePair does and keeps the sort small.
        value = 0
        for row in key:
            value = value << half | row >> half
        for row in key:
            value = value << half | row & low
        return value

    keys.sort(key=position)
    return keys


def enumerate_free_submodules(n, p):
    """All free cyclic submodules at (n, p), ascending by key."""
    field = GF(p)
    return [Submodule(_key_pair(field, key)) for key in _free_submodule_keys(field, n)]


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
    layout = _layout(n, p)
    _, width, mask, *_ = layout
    # Field k of a row, at bit (2n - 1 - k) width, moves to block row k,
    # packed; a row's image is the sum of these times its fields.
    images = [((2 * n - 1 - k) * width, _pack(row, 1 << width)) for k, row in enumerate(block)]

    def move(row):
        out = 0
        for shift, image in images:
            if row >> shift & 1:
                out ^= image
        return out

    def move_odd(row):
        out = 0
        for shift, image in images:
            x = row >> shift & mask
            if x:
                out += x * image
        return _reduce_fields(out, layout)

    return fixed, move if p == 2 else move_odd


class _Trie:
    """The key prefixes, and the step of ``_normal_form``'s left fold on them.

    Node 0 is the empty prefix, and ``prefixes[node]`` holds a node's key
    rows.  ``edges[node]`` maps each key row that follows the prefix to
    the node after it; at depth n - 1 it maps to key ordinals.  The edges
    are fixed once the keys are read.
    """

    def __init__(self, keys, p):
        self.layout = _layout(len(keys[0]), p)
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
        return self.edges[node][_reduce_row(self.prefixes[node], row, self.layout)]


def _decompose(keys, generators, p):
    """Union-find orbit decomposition of the submodule keys: ``_orbits`` of ``_union_find``."""
    return _orbits(_union_find(keys, generators, p))


def _union_find(keys, generators, p):
    """The root of every submodule key, by ordinal: the least ordinal of its orbit.

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
    component, whatever the order of unions.  Every link points down,
    parent[x] <= x, as a union links a root to a lower one and halving
    links x to its grandparent; so the final sweep, in ascending order,
    sets each parent[x] to its root from the root already set at
    parent[x], and the array it returns holds only roots.
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
    for x, up in enumerate(parent):
        parent[x] = parent[up]
    return parent


def _orbits(roots):
    """The orbits of the roots that ``_union_find`` gives; None unless each is a root.

    The orbits are lists of key ordinals, each ascending, in ascending
    order of their roots, the same list for any order of unions.  Each
    entry must be a root of its ordinal x, an r <= x with roots[r] = r.
    Read in ascending order, an x with roots[x] = x opens its orbit, and
    any other x joins the orbit of roots[x], which is open exactly when
    roots[x] is a root below x; so each orbit opens at its least member,
    and a lookup fails exactly when an entry is not a root of its ordinal.
    """
    groups = {}
    try:
        for x, root in enumerate(roots):
            if root == x:
                groups[x] = [x]
            else:
                groups[root].append(x)
    except KeyError:
        return None
    return list(groups.values())


def orbit_decomposition(n, p):
    """Decompose the free submodules at (n, p) into group orbits."""
    report, _ = _build_report(n, p)
    return report


def _build_report(n, p):
    field = GF(p)
    keys = _free_submodule_keys(field, n)
    return _report(field, n, keys, _decompose(keys, orbit_generators(field, n), p))


def _report(field, n, keys, orbits):
    """The OrbitReport of the keys at (n, p) and their orbits, and the tables it was read from."""
    p = field.p
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

    # The fields a_ii and b_ii of packed row i.
    _, width, mask, *_ = _layout(n, p)
    diagonal = [mask << (2 * n - 1 - i) * width | mask << (n - 1 - i) * width for i in range(n)]
    orbit_of = {}
    orbit_canonical = []
    for idx, members in enumerate(orbits):
        canon = []
        for i in members:
            orbit_of[keys[i]] = idx
            canon.extend(canonical_of.get(keys[i], []))
        # Unimodular: a_ii or b_ii is nonzero in every row i.
        flags = {all(row & d for row, d in zip(keys[i], diagonal)) for i in members}
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
    [0, p), so the constructor's checks could only pass.  The sample list
    is charged to the budget before the first draw.
    """
    if n < 1:
        raise DimensionMismatch(f"dimension {n} < 1")
    _check_budget("the sample count", count.bit_length() - 1, lambda: count)
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


# The fewest pairs a cross-check process takes, and the fewest keys whose
# union-find runs in a child beside the sample.  A fork, its pipe and its
# reap took 1-2 ms in a warmed 19 MB process (after a verify at (4,2), on
# a 2-core x86-64 guest).  500 pairs take about 33 ms of canonicalize at
# (4,2) (130 ms for 2000), so a child costs at most a few per cent of the
# slice it runs; and the union-find takes 3 ms over the 456 keys of (2,7),
# against 15 ms over the 1596 of (2,11) and 25 ms over the 9765 of (4,2).
# Fewer pairs or keys would spend more on forks than they save.
MIN_SLICE = 500

# The most keys whose union-find runs in a child.  The overlap saves at
# most the sample's time, 6-35 ms for 2000 pairs up to n = 4, while the
# fork, the roots sent back and the caller's heap left cold by the child
# cost more with each key (same guest, alternated calls): the child's
# union-find saved 10-15 % of a verify call at the 9765 keys of (4,2),
# and tied at (2,17), (2,19) and the 13272 keys of (2,23), but lost
# 0-50 ms of 330-430 at the 29016 keys of (3,5) and 80 ms of 280 at the
# 26130 of (2,29).
MAX_CHILD_KEYS = 16384


def _cpus():
    """How many CPUs forked children may use: those available, or 1 where a fork is unsafe.

    One where ``os.fork`` is missing, and one while another thread runs:
    the child of a fork holds only the forking thread, and a lock held by
    any other thread would stay held in it.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _processes(count):
    """How many processes check ``count`` pairs: one per CPU of ``_cpus``, each with MIN_SLICE or more."""
    return max(1, min(_cpus(), count // MIN_SLICE))


def _decompose_in_child(count):
    """Whether a forked child runs the union-find over ``count`` keys while the caller samples.

    Only on two or more CPUs of ``_cpus``, and for MIN_SLICE to
    MAX_CHILD_KEYS keys, where the overlap saves more than the fork costs.
    """
    return _cpus() > 1 and MIN_SLICE <= count <= MAX_CHILD_KEYS


class _Children:
    """Forked children, each running a task that returns ints; a context manager.

    ``start(task)`` forks a child that runs ``task()`` and writes its ints
    back over a pipe as ``array('q')`` bytes.  The child inherits what the
    task reads from the fork, so nothing is copied to it, and it leaves by
    ``os._exit``, 0 once the write is done and 1 on any exception, so it
    never runs the caller's code or its exit handlers.  ``result`` joins a
    task's child.  No child outlives the ``with`` block: on every way out,
    an exception or KeyboardInterrupt included, each child not yet joined
    is killed and reaped.
    """

    def __enter__(self):
        self.pids, self.pipes = {}, {}
        return self

    def start(self, task):
        """Fork a child that runs ``task``; False when the fork fails, which leaves the task here."""
        read, write = os.pipe()
        try:
            pid = os.fork()
        except BaseException as error:
            os.close(read)
            os.close(write)
            if isinstance(error, OSError):
                return False
            raise
        if pid == 0:
            status = 1
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    pipe.write(array("q", task()).tobytes())
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self.pids[task], self.pipes[task] = pid, read
        return True

    def result(self, task, size, decode):
        """``decode`` of the ``size`` ints that ``task``'s child sent, or of ``task()`` run here.

        The task runs here when it has no child, when its child exited
        other than 0 or sent other than ``size`` ints, or when ``decode``
        returns None on them; so the result, or the exception raised, is
        the one that the caller alone gives.
        """
        if task in self.pids:
            pid = self.pids[task]
            with open(self.pipes.pop(task), "rb") as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del self.pids[task]
            if status == 0 and len(payload) == 8 * size:
                ints = array("q")
                ints.frombytes(payload)
                decoded = decode(ints)
                if decoded is not None:
                    return decoded
        return decode(task())

    def __exit__(self, *exc):
        for fd in self.pipes.values():
            os.close(fd)
        for pid in self.pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _check_slice(pairs, start, stop, orbits, orbit_of):
    """The cross-check of ``pairs[start:stop]``: (agreed, failures, steps, failed, mismatch).

    agreed is 1 when every pair canonicalized to its orbit's canonical
    pair and 0 otherwise; failures counts the pairs that raised
    CanonicalizationFailed and steps sums the others' search steps;
    failed is the last index that raised and mismatch the first index
    that canonicalized elsewhere, each -1 when there is none.
    """
    agreed, failures, steps, failed, mismatch = 1, 0, 0, -1, -1
    for i in range(start, stop):
        pair = pairs[i]
        try:
            result, _, trace = canonicalize(pair)
        except CanonicalizationFailed:
            agreed, failures, failed = 0, failures + 1, i
            continue
        steps += trace.search_steps
        # The result is canonical (canonicalize checks it), and so is the
        # orbit's canonical pair.  A canonical pair's rows are distinct unit
        # vectors, each 0 at the other rows' leads and 1 at its own: the one
        # shape of a key's rows (``_normal_form``), so the pair is its own
        # key's least pair, ``_key_pair`` of its key.  Two canonical pairs
        # with equal keys are therefore equal, and comparing the pairs
        # decides what comparing their keys did.
        expected = orbits[orbit_of[_pair_key(pair)]]
        if expected.canonical_count != 1 or result != expected.canonical_pair:
            agreed = 0
            if mismatch < 0:
                mismatch = i
    return agreed, failures, steps, failed, mismatch


def _check_pairs(pairs, orbits, orbit_of):
    """``_check_slice`` of each contiguous slice of ``pairs``, in order, one process a slice.

    The caller runs slice 0 and a forked child each other slice
    (``_processes`` gives their number); a slice whose child fails runs
    again here, in slice order (``_Children.result``).
    """
    count = _processes(len(pairs))
    bounds = [len(pairs) * k // count for k in range(count + 1)]
    tasks = [functools.partial(_check_slice, pairs, start, stop, orbits, orbit_of)
             for start, stop in zip(bounds, bounds[1:])]
    with _Children() as children:
        for task in tasks[1:]:
            if not children.start(task):
                break  # no more processes: the slices left run here
        results = [tasks[0]()]
        results += [children.result(task, 5, tuple) for task in tasks[1:]]
    return results


def _pairs_to_check(field, n, keys, exhaustive, samples, seed):
    """The pairs that the cross-check canonicalizes: every free pair, or ``samples`` drawn with ``seed``."""
    if exhaustive:
        units = list(unit_matrices(field, n))
        to_check = []
        for key in keys:
            pair = _key_pair(field, key)
            to_check.extend(ModulePair(u * pair.A, u * pair.B) for u in units)
        return to_check
    if samples < 1:
        raise InvalidSampleCount(f"the sampled check needs samples >= 1, got {samples}")
    return random_free_pairs(field, n, samples, seed)


def verify_classification(n, p, samples=2000, seed=0, exhaustive_check_cap=8192):
    """Run the full exhaustive verification and return the OrbitReport.

    The canonicalizer check covers every free pair when their number is at
    most ``exhaustive_check_cap``, otherwise ``samples`` pseudorandom free
    pairs drawn with the recorded seed; that sampled check raises
    InvalidSampleCount when ``samples`` is below 1, since it would check
    no pair and pass.  A failing check is reported in the verdicts, with a
    counterexample, and is not raised.

    The keys are enumerated first, so the budget refuses an (n, p) before
    anything else runs.  The pairs to check do not depend on the orbits:
    where ``_decompose_in_child`` allows, a forked child runs the
    union-find while the caller lists them, and the caller groups the
    child's roots (``_orbits``); elsewhere ``_decompose`` runs here first.
    The report is the same either way.
    """
    field = GF(p)
    keys = _free_submodule_keys(field, n)
    generators = orbit_generators(field, n)
    exhaustive = len(keys) * unit_count(field, n) <= exhaustive_check_cap
    if _decompose_in_child(len(keys)):
        # A sample that raises leaves the with block, which kills and reaps
        # the child, and the one-process order raises the same: building
        # the report raises only InconsistentDecomposition, which the
        # orbits of ``_union_find``'s roots, one for every key, never give.
        union_find = functools.partial(_union_find, keys, generators, p)
        with _Children() as children:
            children.start(union_find)
            to_check = _pairs_to_check(field, n, keys, exhaustive, samples, seed)
            orbits = children.result(union_find, len(keys), _orbits)
    else:
        orbits = _decompose(keys, generators, p)
        to_check = _pairs_to_check(field, n, keys, exhaustive, samples, seed)
    report, (_, _, orbit_of, _) = _report(field, n, keys, orbits)
    if not exhaustive:
        report.sampled, report.seed = True, seed

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
    # The slices' results merge into what one pass in order gives: a
    # failing pair always became the counterexample, a mismatching one
    # only while there was none.
    agreed, failures, steps, failed, mismatch = zip(*_check_pairs(to_check, report.orbits, orbit_of))
    report.canonicalization_failures = sum(failures)
    report.search_activations = sum(steps)
    if max(failed) >= 0:
        report.counterexample = to_check[max(failed)]
    elif max(mismatch) >= 0:
        report.counterexample = to_check[min(i for i in mismatch if i >= 0)]
    report.checked_pairs = len(to_check)
    report.verdicts["canonicalize_matches_orbits"] = all(agreed)
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
