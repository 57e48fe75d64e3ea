"""The paper's route to an orbit's representative: pivots, then the unit V, then the unit K.

``select_pivots`` chooses a pivot column per nonzero row of G, ``build_v``
solves for the right unit V that makes those pivots leading ones, and
``build_k`` builds the left unit K that clears what remains below them.
``canonicalize`` does not take this route: it reaches the same
representative by the row pass (``canonical``).  Its pivots are those of
``select_pivots`` on the result, and ``build_k`` is the identity there;
the tests check both.  The construction stays public as the paper states
it, with the dense mod-p elimination that only it uses.
"""

from .errors import PivotSelectionFailed, SingularSystem
from .trimat import LowerTriMatrix, _pos, _row_moves, _trusted


# -- the elimination kernel --------------------------------------------------


def _echelon_insert(basis, row, p):
    """Reduce ``row`` (residues mod p) against ``basis``; keep it if independent.

    ``basis`` maps a lead, the index of the first nonzero entry, to a row
    that is 1 there and 0 before it.  An independent row is stored
    normalized under its new lead, which is returned; a dependent row
    returns None.  This is the package's one elimination on residue lists,
    and ``matrix_rank`` and ``solve_mod_p`` are built on it; the oracle
    reduces its packed rows against rows already in echelon form with
    ``oracle._reduce_row``, and the row pass (``trimat._row_pass``) finds
    ranks and jump maps.
    """
    while True:
        lead = None
        for k, v in enumerate(row):
            if v:
                lead = k
                break
        if lead is None:
            return None
        known = basis.get(lead)
        if known is None:
            c = row[lead]
            if c != 1:
                c = pow(c, p - 2, p)
                row = [v * c % p for v in row]
            basis[lead] = row
            return lead
        factor = row[lead]
        row = [(x - factor * y) % p for x, y in zip(row, known)]


def matrix_rank(rows, p):
    """Rank of a dense matrix (list of row lists) mod p: its independent rows."""
    basis = {}
    return sum(_echelon_insert(basis, [v % p for v in row], p) is not None
               for row in rows)


def solve_mod_p(rows, width, p):
    """Solve M X = R mod p for a square M given as rows [M | R]; None if singular.

    M is invertible exactly when each row is independent with its lead
    among the first ``width`` columns; back-substitution from the last
    lead then gives the unique X, as a list of rows.
    """
    basis = {}
    for row in rows:
        lead = _echelon_insert(basis, [v % p for v in row], p)
        if lead is None or lead >= width:
            return None
    solution = [None] * width
    for lead in range(width - 1, -1, -1):
        row = basis[lead]
        x = row[width:]
        for k in range(lead + 1, width):
            c = row[k]
            if c:
                x = [(a - c * b) % p for a, b in zip(x, solution[k])]
        solution[lead] = x
    return solution


# -- pivot selection and the V / K constructions ------------------------------


def select_pivots(G: LowerTriMatrix):
    """Choose, per nonzero row of G, the pivot column for the V step.

    Row i_1 takes its last nonzero column.  Each later row takes the
    largest unused column j with a nonzero entry, no nonzero entries to its
    right outside already-chosen columns, and a nonsingular growing minor
    on the chosen rows and columns.

    The growing minors are not every system that ``build_v`` solves: the
    system of column l needs the minor on the pivots whose column is at
    least l, which need not be one of them.  So a G that passes here can
    still make ``build_v`` raise SingularSystem.  At (5,2), one G of the
    13074 that pass does: packed entries (0,0,0,0,1,1,1,0,1,0,1,1,1,0,0),
    pivots [(3,3), (4,1), (5,2)], and column 2 needs rows {3, 5} x columns
    {2, 3}, which is singular.
    """
    n = G.n
    p = G.field.p
    rows = [i for i in range(1, n + 1) if any(G.entry(i, j) for j in range(1, n + 1))]
    pivots = []
    chosen = []
    for t, i in enumerate(rows, start=1):
        best = None
        for j in range(n, 0, -1):
            if j in chosen or G.entry(i, j) == 0:
                continue
            if any(G.entry(i, k) for k in range(j + 1, n + 1) if k not in chosen):
                continue
            minor = [[G.entry(r, c) for c in chosen + [j]] for r in rows[:t]]
            if matrix_rank(minor, p) == t:
                best = j
                break
        if best is None:
            raise PivotSelectionFailed(
                f"no admissible pivot column for row {i}; G violates the rank precondition")
        pivots.append((i, best))
        chosen.append(best)
    return pivots


def build_v(G: LowerTriMatrix, pivots) -> LowerTriMatrix:
    """The right unit V normalizing pivot entries of G to leading ones.

    Column l of V carries unknowns exactly at the pivot-column rows >= l.
    Each pivot row with column >= l contributes one equation: 1 when its
    pivot column is l, else 0.  Unconstrained entries are 0 and
    unconstrained diagonal entries are 1.  Raises SingularSystem when a
    column's system is singular; the pivots of ``select_pivots`` do not
    rule that out (see there).

    A V that is returned is a unit.  Proof.  Let M_l be the matrix of
    column l's system: G on the rows and columns of the pivots (i, j) with
    j >= l.  A pivot list that repeats a row or a column makes M_1
    singular, so it raises at column 1.  Where l is no pivot column, v_ll
    = 1.  Where (i, l) is a pivot, M_l is invertible, as column l was
    solved, and by Cramer's rule v_ll = +-det M' / det M_l, M' being M_l
    without row i and column l.  M' is the matrix of column l + 1's system,
    as no pivot column lies strictly between l and the next one; or it is
    empty, with det 1, when l is the last pivot column.  So v_ll = 0 would
    make column l + 1's system singular, and the loop would raise there
    before returning.
    """
    n = G.n
    f = G.field
    p = f.p
    entries = {}
    for l in range(1, n + 1):
        involved = [(i, j) for (i, j) in pivots if j >= l]
        if not involved:
            entries[(l, l)] = 1
            continue
        unknown_rows = sorted(j for (_, j) in involved)
        eqs = []
        for (i, j) in involved:
            target = 1 if j == l else 0
            if l not in unknown_rows:
                target = f.sub(target, G.entry(i, l))  # fixed v_ll = 1 term
            eqs.append([G.entry(i, r) for r in unknown_rows] + [target])
        sol = solve_mod_p(eqs, len(unknown_rows), p)
        if sol is None:
            raise SingularSystem(f"V system for column {l} is singular")
        for r, (val,) in zip(unknown_rows, sol):
            entries[(r, l)] = val
        if l not in unknown_rows:
            entries[(l, l)] = 1
    packed = [0] * len(G.entries)
    for (i, j), v in entries.items():
        packed[_pos(i, j)] = v % p
    return _trusted(f, n, tuple(packed))


def build_k(A: LowerTriMatrix, H: LowerTriMatrix) -> LowerTriMatrix:
    """The left unit K clearing below-pivot residue from pivot columns of H.

    Pivot rows are the zero-diagonal rows of A; each holds a leading 1.
    Rows are processed from the bottom pivot upward so every subtraction
    lands in columns whose own clearing pass still lies ahead.  Raises
    PivotSelectionFailed when H breaks that shape: a zero-diagonal row of
    H that is zero, a leading entry other than 1, a nonzero entry above a
    pivot, or a nonzero row of H where A's diagonal is nonzero.

    K is the product of the row moves' transvections, built by running the
    moves, in the order they are taken, on the identity (``_row_moves``).
    """
    n = A.n
    p = A.field.p
    pivots = []
    for i in range(1, n + 1):
        if A.entry(i, i) == 0:
            row = H.row(i)
            lead = next((j for j in range(1, n + 1) if row[j - 1]), None)
            if lead is None:
                raise PivotSelectionFailed(f"zero-diagonal row {i} of H is zero")
            if row[lead - 1] != 1:
                raise PivotSelectionFailed(f"pivot ({i}, {lead}) is not normalized to 1")
            if any(H.entry(r, lead) for r in range(1, i)):
                raise PivotSelectionFailed(f"nonzero entry above pivot ({i}, {lead})")
            pivots.append((i, lead))
        elif any(H.row(i)):
            raise PivotSelectionFailed(f"unit row {i} of H is nonzero")
    hwork = [H.row(i) for i in range(1, n + 1)]
    moves = []
    for (ipiv, jpiv) in sorted(pivots, reverse=True):
        prow_h = hwork[ipiv - 1]
        for i in range(ipiv + 1, n + 1):
            c = hwork[i - 1][jpiv - 1]
            if c:
                hwork[i - 1] = [(a - c * b) % p for a, b in zip(hwork[i - 1], prow_h)]
                moves.append((i - 1, ipiv - 1, -c % p))  # row i -= c * row ipiv
    one = LowerTriMatrix.identity(A.field, n).entries
    return _trusted(A.field, n, _row_moves((one,), moves, p)[0])
