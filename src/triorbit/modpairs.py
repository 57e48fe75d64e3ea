"""Pairs (A, B) of triangular matrices and the predicates that classify them.

A pair spans the cyclic submodule {r(A, B) : r in T_n}.  The fast
predicates come from the rank characterizations; each one has a brute-force
companion that enumerates ring elements directly, so the two can be checked
against each other exhaustively at desk scale.
"""

import functools
import itertools
import json
import os

from .errors import BudgetExceeded, DimensionMismatch, InvalidBudget, NotFree
from .field import GF
from .trimat import LowerTriMatrix, _decimal, _diagonal_offsets, augmented_rank, parse_matrix

DEFAULT_BUDGET = 2 ** 24


def enumeration_budget(budget=None):
    """Effective cap: explicit argument, else TRIORBIT_BUDGET, else 2**24.

    Raises InvalidBudget when TRIORBIT_BUDGET is set to anything but a
    positive integer.
    """
    if budget is not None:
        return budget
    env = os.environ.get("TRIORBIT_BUDGET")
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            raise InvalidBudget(f"TRIORBIT_BUDGET={env!r} is not a positive integer")
        return cap
    return DEFAULT_BUDGET


def ring_size(field, n):
    return field.p ** (n * (n + 1) // 2)


def unit_count(field, n):
    return (field.p - 1) ** n * field.p ** (n * (n - 1) // 2)


def ring_matrices(field, n):
    """All of T_n(GF(p)) in ascending entry order."""
    m = n * (n + 1) // 2
    for entries in itertools.product(field.elements(), repeat=m):
        yield LowerTriMatrix(field, n, entries)


def unit_matrices(field, n):
    """All units of T_n (nonzero diagonal), in ascending entry order."""
    for M in ring_matrices(field, n):
        if M.is_unit():
            yield M


@functools.total_ordering
class ModulePair:
    """An element (A, B) of the free module of pairs over T_n."""

    __slots__ = ("A", "B")

    def __init__(self, A: LowerTriMatrix, B: LowerTriMatrix):
        if A.n != B.n or (A.field is not B.field and A.field != B.field):
            raise DimensionMismatch("A and B must share dimension and field")
        self.A = A
        self.B = B

    @property
    def n(self):
        return self.A.n

    @property
    def field(self):
        return self.A.field

    def __eq__(self, other):
        return isinstance(other, ModulePair) and self.A == other.A and self.B == other.B

    def __hash__(self):
        return hash((self.A, self.B))

    def __lt__(self, other):
        # Fixed total order: dimension, then A row-major, then B row-major.
        if not isinstance(other, ModulePair):
            return NotImplemented
        return (self.n, self.A.entries, self.B.entries) < (
            other.n, other.A.entries, other.B.entries)

    def __repr__(self):
        return f"ModulePair(A={list(self.A.entries)}, B={list(self.B.entries)}, p={self.field.p})"

    # -- predicates ---------------------------------------------------------

    def is_free(self) -> bool:
        """Free iff rank [A|B] = n.

        A unimodular pair is free (the lemma in ``is_unimodular``), so the
        row pass of ``augmented_rank`` runs only on the other pairs.
        """
        return self.is_unimodular() or augmented_rank(self.A, self.B) == self.n

    def is_unimodular(self) -> bool:
        """Unimodular iff a_ii != 0 or b_ii != 0 for every i.

        Lemma: a unimodular pair is free, and its jump map
        (``canonical.jump_map``) is the identity.  Proof.  In the row pass
        ``trimat._row_pass``, row i of [A|B] vanishes on the column pairs
        above i, and each move of an earlier row r acts on the pairs up to
        r.  So pair i is untouched before row i, where it holds a_ii or
        b_ii, nonzero, and the pass records k = i: j(i) = i for every i, no
        j(i) is 0, and rank [A|B] = n.
        """
        a, b = self.A.entries, self.B.entries
        return all(a[d] or b[d] for d in _diagonal_offsets(self.n))

    def is_outlier_generating_free(self) -> bool:
        """Non-unimodular and free: exactly the outliers that generate freely."""
        return not self.is_unimodular() and self.is_free()


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


def cyclic_submodule(pair: ModulePair, budget=None) -> Submodule:
    """Canonical key of the free cyclic submodule generated by ``pair``."""
    if not pair.is_free():
        raise NotFree("only free pairs have a well-defined submodule key")
    cap = enumeration_budget(budget)
    n, field = pair.n, pair.field
    if unit_count(field, n) > cap:
        raise BudgetExceeded(
            f"|T_{n}^*| = {unit_count(field, n)} exceeds the cap {cap}")
    best = None
    for u in unit_matrices(field, n):
        candidate = ModulePair(u * pair.A, u * pair.B)
        if best is None or candidate < best:
            best = candidate
    return Submodule(best)


def is_free_oracle(pair: ModulePair, budget=None) -> bool:
    """Brute force: no nonzero r annihilates (A, B)."""
    cap = enumeration_budget(budget)
    n, field = pair.n, pair.field
    if ring_size(field, n) > cap:
        raise BudgetExceeded(
            f"|T_{n}| = {ring_size(field, n)} exceeds the cap {cap}")
    for r in ring_matrices(field, n):
        if r.is_zero():
            continue
        if (r * pair.A).is_zero() and (r * pair.B).is_zero():
            return False
    return True


@functools.lru_cache(maxsize=None)
def _unimodular_submodule_elements(p, n, cap):
    """All elements of all cyclic submodules generated by unimodular pairs."""
    field = GF(p)
    size = ring_size(field, n)
    if size ** 3 > cap:
        raise BudgetExceeded(
            f"outlier oracle needs |T_{n}|^3 = {size ** 3} ring products")
    members = set()
    ring = list(ring_matrices(field, n))
    for C in ring:
        for D in ring:
            gen = ModulePair(C, D)
            if not gen.is_unimodular():
                continue
            for r in ring:
                members.add((r * C, r * D))
    return members


def is_outlier_oracle(pair: ModulePair, budget=None) -> bool:
    """Brute force: contained in no submodule generated by a unimodular pair."""
    cap = enumeration_budget(budget)
    members = _unimodular_submodule_elements(pair.field.p, pair.n, cap)
    return (pair.A, pair.B) not in members


# -- pair files --------------------------------------------------------------


def _json_int(value):
    """A JSON number that is an integer; floats and booleans are refused.

    The same rule as the matrix builders' ``trimat._check_integers``.
    """
    if type(value) is not int:
        raise ValueError(f"structured pair holds {value!r} where an integer belongs")
    return value


def parse_pair(text: str) -> ModulePair:
    """Read a pair from text or structured form.

    Text form: first line "n p", then n rows of A, a blank line, n rows of B.
    Structured form: a JSON object with fields n, p, A, B.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
            field = GF(_json_int(obj["p"]))
            n = _json_int(obj["n"])
            A = [[_json_int(v) for v in row] for row in obj["A"]]
            B = [[_json_int(v) for v in row] for row in obj["B"]]
        except KeyError as exc:
            raise ValueError(f"structured pair lacks the field {exc}") from None
        except TypeError as exc:
            raise ValueError(f"structured pair has a malformed field: {exc}") from None
        except RecursionError:
            raise ValueError("structured pair is nested too deeply") from None
        for v in itertools.chain(*A, *B):
            if not 0 <= v < field.p:
                raise ValueError(f"entry {v} is not a canonical residue mod {field.p}")
        A = LowerTriMatrix.from_rows(field, A)
        B = LowerTriMatrix.from_rows(field, B)
        if A.n != n or B.n != n:
            raise ValueError(f"matrix size disagrees with declared n={n}")
        return ModulePair(A, B)

    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ValueError("empty pair file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError('pair file must start with a line "n p"')
    n, p = _decimal(header[0]), _decimal(header[1])
    field = GF(p)
    body = lines[1:]
    if len(body) != 2 * n:
        raise ValueError(f"expected {n} rows for A and {n} rows for B, got {len(body)}")
    A = parse_matrix(field, body[:n])
    B = parse_matrix(field, body[n:])
    if A.n != n or B.n != n:
        raise ValueError(f"matrix size disagrees with declared n={n}")
    return ModulePair(A, B)


def format_pair(pair: ModulePair) -> str:
    """Inverse of parse_pair's text form."""
    return f"{pair.n} {pair.field.p}\n{pair.A}\n\n{pair.B}\n"


def pair_to_dict(pair: ModulePair) -> dict:
    return {
        "n": pair.n,
        "p": pair.field.p,
        "A": pair.A.rows(),
        "B": pair.B.rows(),
    }
