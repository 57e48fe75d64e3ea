"""Set partitions of {1..n}, Bell numbers, and the partition <-> pair bijection.

Every canonical pair corresponds to exactly one partition: rows whose A
diagonal carries a 1 open blocks labeled by counting unit rows, and each 1
in B attaches its row to a block through a count of the ones of B above
and left of it.  The converse works out, row by row, the jump map j of
the unique canonical pair (j(r) = r where a_rr = 1, and j(r) = c where
b_rc = 1), and builds the pair as c(j) through ``modpairs._canonical_pair``,
the package's one builder of canonical pairs; the processing order of rows
is what makes the construction well defined.
"""

import itertools

from .errors import InvalidPartition, NotCanonical
from .field import GF
from .modpairs import ModulePair, _canonical_pair, _check_budget
from .trimat import _decimal


class SetPartition:
    """A partition of {1..n}: disjoint nonempty blocks covering the range.

    Each element is exactly an ``int`` and occurs once, in one block: a
    repeat, in the same block or another, raises InvalidPartition.  Stored
    normalized: elements ascending within a block, blocks ordered by
    their minima.  Equality and hashing use the normalized form.
    """

    __slots__ = ("blocks", "n")

    def __init__(self, blocks):
        norm = []
        seen = set()
        for block in blocks:
            block = tuple(block)
            if not block:
                raise InvalidPartition("empty block")
            for x in block:
                # Exactly an int, as ``trimat._check_integers`` rules: a bool
                # would print as True, which ``parse`` cannot read back.
                if type(x) is not int or x < 1:
                    raise InvalidPartition(f"element {x!r} is not a positive integer")
                if x in seen:
                    raise InvalidPartition(f"element {x} appears twice")
                seen.add(x)
            norm.append(tuple(sorted(block)))
        if not norm:
            raise InvalidPartition("a partition needs at least one block")
        n = max(seen)
        # Distinct positive ints cover 1..n exactly when there are n of them;
        # the first few missing ones lie within len(seen) + 3 of 1.
        if n != len(seen):
            missing = list(itertools.islice((x for x in range(1, n + 1) if x not in seen), 3))
            more = n - len(seen) - len(missing)
            tail = f" and {more} more" if more else ""
            raise InvalidPartition(f"elements {missing}{tail} are missing from 1..{n}")
        norm.sort(key=lambda b: b[0])
        self.blocks = tuple(norm)
        self.n = n

    @classmethod
    def singletons(cls, n):
        return cls([(i,) for i in range(1, n + 1)])

    @classmethod
    def parse(cls, text):
        """Parse "{1}{2,3,6}{4,5}"; block and element order are free."""
        text = text.strip()
        if not text:
            raise InvalidPartition("empty partition string")
        blocks = []
        rest = text
        while rest:
            if not rest.startswith("{"):
                raise InvalidPartition(f"expected '{{' at {rest[:10]!r}")
            end = rest.find("}")
            if end < 0:
                raise InvalidPartition("unbalanced '{'")
            inner = rest[1:end].strip()
            if not inner:
                raise InvalidPartition("empty block")
            try:
                block = [_decimal(piece.strip()) for piece in inner.split(",")]
            except ValueError as exc:
                raise InvalidPartition(f"bad block {inner!r}: {exc}") from exc
            blocks.append(block)
            rest = rest[end + 1:].strip()
        return cls(blocks)

    def __eq__(self, other):
        return isinstance(other, SetPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __str__(self):
        return "".join("{" + ",".join(str(x) for x in b) + "}" for b in self.blocks)

    def __repr__(self):
        return f"SetPartition({[list(b) for b in self.blocks]})"

    def __len__(self):
        return len(self.blocks)


def bell(n: int) -> int:
    """Bell number B_n via the Bell triangle, exact at any size."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def enumerate_partitions(n: int):
    """All partitions of {1..n} via restricted growth strings, in RGS order."""
    if n < 1:
        raise InvalidPartition("n must be >= 1")
    _check_budget(f"B_{n}", n - 1, lambda: bell(n))
    out = []
    rgs = [0] * n

    def rec(k, maxval):
        if k == n:
            nblocks = maxval + 1
            blocks = [[] for _ in range(nblocks)]
            for i, v in enumerate(rgs):
                blocks[v].append(i + 1)
            out.append(SetPartition(blocks))
            return
        for v in range(maxval + 2):
            rgs[k] = v
            rec(k + 1, max(maxval, v))

    rec(1, 0)  # rgs[0] is pinned to 0
    return out


def pair_to_partition(pair: ModulePair) -> SetPartition:
    """Map a canonical pair to its partition.

    Unit rows k open blocks labeled by the rank of the leading k x k
    submatrix of A; every 1 at (i, j) of B joins row i to the block labeled
    j minus the rank of B truncated to rows < i and columns < j.  On a
    canonical pair both ranks are counts: A is diagonal 0/1, so the first
    is the number of unit rows up to k, and the ones of B form a partial
    permutation, so the second is the number of them in that corner.
    """
    from .canonical import is_canonical  # deferred to avoid an import cycle

    if not is_canonical(pair):
        raise NotCanonical("pair_to_partition requires a canonical pair")
    A, B = pair.A, pair.B
    n = pair.n
    blocks = {}
    for k in range(1, n + 1):
        if A.entry(k, k) == 1:
            blocks[len(blocks) + 1] = [k]
    ones = [(i, j) for i in range(2, n + 1) for j in range(1, i) if B.entry(i, j)]
    for i, j in ones:
        label = j - sum(1 for r, c in ones if r < i and c < j)
        if label not in blocks:
            raise InvalidPartition("canonical pair produced a stray block label")
        blocks[label].append(i)
    return SetPartition(blocks.values())


def partition_to_pair(n: int, part: SetPartition, field=None) -> ModulePair:
    """Map a partition of {1..n} to its canonical pair.

    Block minima mark the diagonal of A.  The remaining elements, taken in
    ascending order, each put a single 1 in their row of B: an element of
    the s-th block (blocks ordered by minima) picks the s-th column, from
    the left, that holds no 1 yet.  Processing rows in ascending order is
    what makes this well defined.  The pair is built as c(j), j(x) being x
    at a block minimum and the column picked elsewhere.
    """
    if not isinstance(part, SetPartition):
        raise InvalidPartition("expected a SetPartition")
    if part.n != n:
        raise InvalidPartition(f"partition covers 1..{part.n}, expected 1..{n}")
    if field is None:
        field = GF(2)
    minima = {b[0] for b in part.blocks}
    block_of = {x: s for s, block in enumerate(part.blocks, start=1) for x in block}
    jumps, used_columns = [], set()
    for x in range(1, n + 1):
        if x in minima:
            jumps.append(x)
            continue
        free_cols = [c for c in range(1, n + 1) if c not in used_columns]
        col = free_cols[block_of[x] - 1]
        if col >= x:
            raise InvalidPartition("the bijection placed an entry on or above the diagonal")
        used_columns.add(col)
        jumps.append(col)
    return _canonical_pair(field, jumps)
