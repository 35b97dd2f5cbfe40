"""One-time derivation of embedded character-degree tables.

Builds small classical groups as explicit matrix groups over finite
fields, enumerates them by closure under multiplication, computes
conjugacy classes, and runs the Dixon-Schneider algorithm (class
matrices diagonalised over GF(p) for a prime p = 1 mod exponent(G)) to
recover the irreducible character degrees.  Run from the repo root:

    python tools/derive_degree_data.py

The output is pasted into src/codlab/data/groups_v1.jsonl.  Everything
here is exact modular arithmetic; no floating point.
"""

from __future__ import annotations

from math import isqrt

# ---------------------------------------------------------------------------
# Tiny finite fields.  Elements are ints 0..q-1 indexing F_p[x]/(f).


class GF:
    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None = None):
        self.p = p
        self.k = k
        self.q = p ** k
        if k == 1:
            self.add_table = None
            return
        assert modulus is not None and len(modulus) == k + 1 and modulus[-1] == 1
        self.modulus = modulus
        # element i <-> polynomial with base-p digits of i (low degree first)
        self.mul_table = [[0] * self.q for _ in range(self.q)]
        for a in range(self.q):
            for b in range(self.q):
                self.mul_table[a][b] = self._polymul(a, b)

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds: list[int]) -> int:
        val = 0
        for d in reversed(ds):
            val = val * self.p + d
        return val

    def _polymul(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by modulus
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.k):
                    prod[i - self.k + j] = (prod[i - self.k + j] - c * self.modulus[j]) % self.p
        return self._undigits(prod[: self.k])

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self._undigits([(-x) % self.p for x in self._digits(a)])

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        return self.mul_table[a][b]

def mat_mul(F: GF, A: tuple[int, ...], B: tuple[int, ...], n: int) -> tuple[int, ...]:
    out = [0] * (n * n)
    for i in range(n):
        for k in range(n):
            a = A[i * n + k]
            if a:
                row = k * n
                for j in range(n):
                    b = B[row + j]
                    if b:
                        out[i * n + j] = F.add(out[i * n + j], F.mul(a, b))
    return tuple(out)


def identity(n: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n) for j in range(n))


def mulclose(F: GF, gens: list[tuple[int, ...]], n: int, limit: int) -> list[tuple[int, ...]]:
    elems = {identity(n)}
    frontier = list(gens)
    for g in gens:
        elems.add(g)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = mat_mul(F, a, g, n)
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
        assert len(elems) <= limit, f"group larger than expected {limit}"
    return sorted(elems)


# ---------------------------------------------------------------------------
# Group constructions.


def sp4_3() -> tuple[GF, list[tuple[int, ...]], int]:
    """Sp(4,3): symplectic transvections x -> x + <x,v> v over GF(3)."""
    F = GF(3, 1)
    n = 4
    # symplectic form J: <x,y> = x1 y3 + x2 y4 - x3 y1 - x4 y2
    def form(x, y):
        return (x[0] * y[2] + x[1] * y[3] - x[2] * y[0] - x[3] * y[1]) % 3

    gens = []
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0)]
    for v in basis:
        # transvection T_v: x -> x + <x, v> v
        cols = []
        for i in range(4):
            e = [0] * 4
            e[i] = 1
            c = form(e, v)
            row = [(e[j] + c * v[j]) % 3 for j in range(4)]
            cols.append(row)
        M = tuple(cols[i][j] for i in range(4) for j in range(4))
        gens.append(M)
    return F, gens, 51840


def su3_3() -> tuple[GF, list[tuple[int, ...]], int]:
    """SU(3,3) = PSU(3,3), order 6048, over GF(9) with form antidiag(1,1,1)."""
    F = GF(3, 2, modulus=(1, 0, 1))  # x^2 + 1 irreducible mod 3
    n = 3

    def bar(a: int) -> int:
        r = F.mul(a, a)
        return F.mul(r, a)  # a^3

    J = (0, 0, 1, 0, 1, 0, 1, 0, 0)

    def is_unitary(M: tuple[int, ...]) -> bool:
        # M J Mbar^T == J
        Mbar_t = tuple(bar(M[j * 3 + i]) for i in range(3) for j in range(3))
        return mat_mul(F, mat_mul(F, M, J, 3), Mbar_t, 3) == J

    # Weyl representative with det 1: antidiag(1,-1,1)
    w = (0, 0, 1, 0, F.neg(1), 0, 1, 0, 0)
    assert is_unitary(w)
    gens = [w]
    for a in range(9):
        for b in range(9):
            # u(a,b) upper unitriangular: rows (1,a,b),(0,1,-abar),(0,0,1)
            if F.add(F.add(b, bar(b)), F.mul(a, bar(a))) != 0:
                continue
            M = (1, a, b, 0, 1, F.neg(bar(a)), 0, 0, 1)
            if is_unitary(M):
                gens.append(M)
    return F, gens, 6048


def sl3_4() -> tuple[GF, list[tuple[int, ...]], int]:
    """SL(3,4) via elementary transvections over GF(4)."""
    F = GF(2, 2, modulus=(1, 1, 1))  # x^2 + x + 1
    n = 3
    gens = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for lam in range(1, 4):
                M = list(identity(3))
                M[i * 3 + j] = lam
                gens.append(tuple(M))
    return F, gens, 60480


def central_quotient(F: GF, elems: list[tuple[int, ...]], n: int) -> tuple[list[tuple[int, ...]], dict]:
    """Quotient by scalar matrices; representative = min of scalar orbit."""
    elem_set = set(elems)
    scalars = []
    for lam in range(1, F.q):
        s = tuple(F.mul(lam, x) for x in identity(n))
        if s in elem_set:
            scalars.append(lam)
    rep_of: dict = {}
    reps = set()
    for M in elems:
        orbit = [tuple(F.mul(lam, x) for x in M) for lam in scalars]
        r = min(orbit)
        rep_of[M] = r
        reps.add(r)
    return sorted(reps), rep_of


# ---------------------------------------------------------------------------
# Conjugacy classes and Dixon-Schneider.


def inverse_in(group_index: dict, F: GF, M: tuple[int, ...], n: int, order_bound: int) -> tuple[int, ...]:
    # inverse by repeated squaring of element order search (small groups)
    acc = M
    prev = identity(n)
    while acc != identity(n):
        prev = acc
        acc = mat_mul(F, acc, M, n)
    return prev


def conjugacy_classes(F: GF, elems: list, gens: list, n: int, rep_of=None):
    index = {M: i for i, M in enumerate(elems)}
    norm = (lambda M: rep_of[M]) if rep_of else (lambda M: M)
    gen_invs = [inverse_in(index, F, g, n, len(elems)) for g in gens]
    class_id = [-1] * len(elems)
    classes = []
    for i, M in enumerate(elems):
        if class_id[i] >= 0:
            continue
        cid = len(classes)
        members = [i]
        class_id[i] = cid
        queue = [M]
        while queue:
            x = queue.pop()
            for g, gi in zip(gens, gen_invs):
                y = norm(mat_mul(F, mat_mul(F, g, x, n), gi, n))
                j = index[y]
                if class_id[j] < 0:
                    class_id[j] = cid
                    members.append(j)
                    queue.append(y)
        classes.append(members)
    return classes, class_id


def exponent_of(F: GF, elems: list, n: int) -> int:
    from math import lcm

    e = 1
    ident = identity(n)
    for M in elems:
        k = 1
        acc = M
        while acc != ident:
            acc = mat_mul(F, acc, M, n)
            k += 1
        e = lcm(e, k)
    return e


def dixon_degrees(F: GF, elems: list, gens: list, n: int, rep_of=None) -> list[int]:
    classes, class_id = conjugacy_classes(F, elems, gens, n, rep_of)
    k = len(classes)
    index = {M: i for i, M in enumerate(elems)}
    norm = (lambda M: rep_of[M]) if rep_of else (lambda M: M)
    reps = [elems[c[0]] for c in classes]
    sizes = [len(c) for c in classes]
    g_order = len(elems)
    print(f"  |G| = {g_order}, {k} classes, sizes {sorted(sizes)}")

    inv_of = [index[norm(inverse_in(index, F, elems[c[0]], n, g_order))] for c in classes]
    inv_class = [class_id[i] for i in inv_of]

    exp = exponent_of(F, elems, n)
    bound = 2 * isqrt(g_order) + 1
    p = exp + 1
    while True:
        if p > bound:
            ok = all(p % d for d in range(2, isqrt(p) + 1))
            if ok:
                break
        p += exp
    print(f"  exponent {exp}, Dixon prime p = {p}")

    # class matrices: M_i[j][l] = #{x in C_i : x^{-1} z_l in C_j}
    inv_elem = {}
    for i, M in enumerate(elems):
        inv_elem[i] = inverse_in(index, F, M, n, g_order)
    class_mats = []
    for ci, members in enumerate(classes):
        mat = [[0] * k for _ in range(k)]
        for xi in members:
            xinv = inv_elem[xi]
            for l, z in enumerate(reps):
                y = norm(mat_mul(F, xinv, z, n))
                mat[class_id[index[y]]][l] += 1
        class_mats.append(mat)

    # simultaneous eigenvectors over GF(p)
    def mat_vec(mat, vec):
        return [sum(mat[r][c] * vec[c] for c in range(k)) % p for r in range(k)]

    def kernel_basis(rows):
        # rows: list of row vectors length m over GF(p); returns kernel basis
        m = len(rows[0]) if rows else 0
        A = [row[:] for row in rows]
        pivots = []
        r = 0
        for c in range(m):
            piv = next((i for i in range(r, len(A)) if A[i][c] % p), None)
            if piv is None:
                continue
            A[r], A[piv] = A[piv], A[r]
            inv = pow(A[r][c], p - 2, p)
            A[r] = [(x * inv) % p for x in A[r]]
            for i in range(len(A)):
                if i != r and A[i][c]:
                    f = A[i][c]
                    A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
            pivots.append(c)
            r += 1
        free = [c for c in range(m) if c not in pivots]
        basis = []
        for fc in free:
            v = [0] * m
            v[fc] = 1
            for rr, pc in enumerate(pivots):
                v[pc] = (-A[rr][fc]) % p
            basis.append(v)
        return basis

    subspaces = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for mat in class_mats:
        if all(len(S) == 1 for S in subspaces):
            break
        new_subspaces = []
        for S in subspaces:
            if len(S) == 1:
                new_subspaces.append(S)
                continue
            # restrict mat to span(S): images of basis vectors
            images = [mat_vec(mat, v) for v in S]
            # eigenvalues: lambda with (mat - lambda) singular on S
            found = []
            for lam in range(p):
                rows = [[(images[b][r] - lam * S[b][r]) % p for b in range(len(S))] for r in range(k)]
                ker = kernel_basis(rows)
                if ker:
                    vecs = []
                    for koeff in ker:
                        v = [0] * k
                        for b, co in enumerate(koeff):
                            if co:
                                for r in range(k):
                                    v[r] = (v[r] + co * S[b][r]) % p
                        vecs.append(v)
                    found.append(vecs)
            total = sum(len(v) for v in found)
            assert total == len(S), f"splitting lost dimensions {total} != {len(S)}"
            new_subspaces.extend(found)
        subspaces = new_subspaces
    assert all(len(S) == 1 for S in subspaces), "class matrices failed to separate"

    id_class = class_id[index[identity(n)]]
    degrees = []
    for S in subspaces:
        v = S[0]
        scale = pow(v[id_class], p - 2, p)
        omega = [(x * scale) % p for x in v]
        s = 0
        for i in range(k):
            s = (s + omega[i] * omega[inv_class[i]] * pow(sizes[i], p - 2, p)) % p
        d2 = (g_order * pow(s, p - 2, p)) % p
        d = next(dd for dd in range(1, isqrt(g_order) + 1) if (dd * dd) % p == d2)
        degrees.append(d)
    degrees.sort()
    assert sum(d * d for d in degrees) == g_order, "sum of squares check failed"
    return degrees


def run(name, builder, quotient_center):
    print(name)
    F, gens, expected = builder()
    n = isqrt(len(gens[0]))
    elems = mulclose(F, gens, n, expected)
    assert len(elems) == expected, f"got {len(elems)}, expected {expected}"
    rep_of = None
    if quotient_center:
        reps, rep_of = central_quotient(F, elems, n)
        print(f"  central quotient: {len(elems)} -> {len(reps)}")
        gens = [rep_of[g] for g in gens]
        elems = reps
    degrees = dixon_degrees(F, elems, gens, n, rep_of)
    print(f"  degrees: {degrees}")
    return degrees


if __name__ == "__main__":
    run("PSp(4,3) = Omega(5,3)", sp4_3, True)
    run("PSU(3,3) = SU(3,3)", su3_3, False)
    run("PSL(3,4)", sl3_4, True)
