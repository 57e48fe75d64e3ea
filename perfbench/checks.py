"""Output checks that do not trust the library.

The certificate check multiplies with its own mod-p product on packed
lower triangles instead of ``LowerTriMatrix.__mul__``, and the canonical
shape is tested here rather than by ``is_canonical``.  None of it relies
on ``assert``, so the checks hold under ``python -O`` too.
"""

import hashlib
import json

# Seed-independent facts of ``triorbit verify`` (ROADMAP and README):
# (n, p) -> free pairs, free submodules, orbits, exit code.
VERIFY_FACTS = {
    (4, 2): (624960, 9765, 16, 1),
    (3, 3): (449280, 2080, 5, 0),
}
VERIFY_SAMPLES = 2000  # the CLI's default cross-check sample size


def tri_mul(p, n, left, right):
    """Product of two packed lower triangles: (LR)_ij = sum_{j<=k<=i} L_ik R_kj."""
    out = []
    for i in range(n):
        row = i * (i + 1) // 2
        for j in range(i + 1):
            acc = 0
            for k in range(j, i + 1):
                acc += left[row + k] * right[k * (k + 1) // 2 + j]
            out.append(acc % p)
    return out


def tri_add(p, left, right):
    return [(a + b) % p for a, b in zip(left, right)]


def diagonal(n, packed):
    return [packed[i * (i + 1) // 2 + i] for i in range(n)]


def canonical_shape(n, a, b):
    """Problems with the canonical shape of packed (A, B), as a list of strings.

    A diagonal with 0/1 entries, B strictly lower with 0/1 entries, exactly
    one nonzero per row across [A|B], and the ones of B in distinct columns.
    """
    problems = []
    columns = []
    for i in range(n):
        row = i * (i + 1) // 2
        nonzeros = 0
        for j in range(i + 1):
            x, y = a[row + j], b[row + j]
            if j < i and x:
                problems.append(f"A[{i + 1},{j + 1}] = {x} off the diagonal")
            if j == i and y:
                problems.append(f"B[{i + 1},{i + 1}] = {y} on the diagonal")
            if x not in (0, 1) or y not in (0, 1):
                problems.append(f"entry at ({i + 1},{j + 1}) is not 0/1")
            if y and j < i:
                columns.append(j)
            nonzeros += (x != 0) + (y != 0)
        if nonzeros != 1:
            problems.append(f"row {i + 1} has {nonzeros} nonzero entries")
    if len(columns) != len(set(columns)):
        problems.append("two ones of B share a column")
    return problems


def certificate_problems(pair, result, cert):
    """Problems with U (A, B) Q = result and with the shape of the result."""
    p, n = pair.field.p, pair.n
    U = cert.U.entries
    X, Y, W, Z = (cert.Q.X.entries, cert.Q.Y.entries,
                  cert.Q.W.entries, cert.Q.Z.entries)
    problems = []
    if not all(diagonal(n, U)):
        problems.append("U is not a unit")
    for x, y, w, z in zip(diagonal(n, X), diagonal(n, Y),
                          diagonal(n, W), diagonal(n, Z)):
        if (x * z - y * w) % p == 0:
            problems.append("Q is not invertible")
            break
    ua = tri_mul(p, n, U, pair.A.entries)
    ub = tri_mul(p, n, U, pair.B.entries)
    a = tri_add(p, tri_mul(p, n, ua, X), tri_mul(p, n, ub, W))
    b = tri_add(p, tri_mul(p, n, ua, Y), tri_mul(p, n, ub, Z))
    if a != list(result.A.entries) or b != list(result.B.entries):
        problems.append("U (A, B) Q differs from the returned pair")
    problems.extend(canonical_shape(n, result.A.entries, result.B.entries))
    return problems


def roundtrip_problems(pkg, pair):
    """Problems with the pair -> partition -> pair round trip (library code)."""
    try:
        part = pkg.pair_to_partition(pair)
        back = pkg.partition_to_pair(pair.n, part, field=pair.field)
    except pkg.TriOrbitError as exc:
        return [f"round trip raised {type(exc).__name__}: {exc}"]
    if back != pair:
        return ["pair -> partition -> pair changed the pair"]
    return []


def verify_problems(pkg, n, p, seed, code, doc, roundtrip=roundtrip_problems):
    """Problems with one structured ``triorbit verify`` report.

    Each orbit's canonical representative is also shape-checked and sent
    through ``roundtrip``.
    """
    free_pairs, submodules, orbits, exit_code = VERIFY_FACTS[(n, p)]
    problems = []
    expect = {
        "exit code": (code, exit_code),
        "n": (doc["n"], n),
        "p": (doc["p"], p),
        "free_pairs": (doc["free_pairs"], free_pairs),
        "free_submodules": (doc["free_submodules"], submodules),
        "orbit_count": (doc["orbit_count"], orbits),
        "orbit table length": (len(doc["orbits"]), orbits),
        "orbit sizes sum": (sum(o["size"] for o in doc["orbits"]), submodules),
        "checked_pairs": (doc["checked_pairs"], VERIFY_SAMPLES),
        "sampled": (doc["sampled"], True),
        "seed": (doc["seed"], seed),
        "passed": (doc["passed"], exit_code == 0),
    }
    for name, (got, want) in expect.items():
        if got != want:
            problems.append(f"{name}: got {got!r}, expected {want!r}")
    for orbit in doc["orbits"]:
        rep = orbit["canonical_pair"]
        if rep is None:
            continue
        pair = pkg.parse_pair(json.dumps(rep))
        problems.extend(canonical_shape(n, pair.A.entries, pair.B.entries))
        problems.extend(roundtrip(pkg, pair))
    return problems


def outcome_line(index, outcome):
    """One digest line: a canonical pair's entries, or the verdict's name."""
    if isinstance(outcome, str):
        return f"{index} {outcome}"
    return f"{index} {list(outcome.A.entries)} {list(outcome.B.entries)}"


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
