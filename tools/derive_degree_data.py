"""Derivation of the Dixon-Schneider character-degree lists.

Builds PSp(4,3) = Omega(5,3), PSU(3,3) and PSL(3,4) from explicit matrix
generators over finite fields, maps each generator once to the
permutation it induces on the projective points of GF(q)^n (40, 91 and
21 points; the kernel is the scalars, so the image is the simple group),
enumerates the group by closure, computes conjugacy classes, and runs
the Dixon-Schneider algorithm (class matrices diagonalised over GF(p)
for a prime p = 1 mod exponent(G)) to recover the irreducible character
degrees.  Run from the repo root:

    python tools/derive_degree_data.py

Each list is typed once, in the shipped data file
src/codlab/data/groups_v1.jsonl, and tests/test_catalog.py checks that
derive() still returns the file's records.
Everything here is exact modular arithmetic; no floating point.
"""

from __future__ import annotations

from itertools import product
from math import isqrt, lcm

# ---------------------------------------------------------------------------
# Tiny finite fields.  Elements are ints 0..q-1 indexing F_p[x]/(f).


class GF:
    """F_p[x]/(modulus), modulus monic of degree k, the prime field being
    k = 1 with modulus x; element i has the base-p digits of i as its
    coefficients, low degree first.  Both tables are built here, once."""

    def __init__(self, p: int, modulus: tuple[int, ...] = (0, 1)):
        assert modulus[-1] == 1
        k = len(modulus) - 1
        coeffs = [c[::-1] for c in product(range(p), repeat=k)]
        index = {c: i for i, c in enumerate(coeffs)}
        self.q = len(coeffs)

        def times(a: tuple[int, ...], b: tuple[int, ...]) -> int:
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    prod[i + j] += x * y
            for i in range(2 * k - 2, k - 1, -1):  # reduce by the modulus
                c = prod[i]
                for j, m in enumerate(modulus):
                    prod[i - k + j] -= c * m
            return index[tuple(c % p for c in prod[:k])]

        self.sums = [[index[tuple((x + y) % p for x, y in zip(a, b))] for b in coeffs]
                     for a in coeffs]
        self.products = [[times(a, b) for b in coeffs] for a in coeffs]

    def add(self, a: int, b: int) -> int:
        return self.sums[a][b]

    def neg(self, a: int) -> int:
        return self.sums[a].index(0)

    def mul(self, a: int, b: int) -> int:
        return self.products[a][b]

    def inv(self, a: int) -> int:
        return self.products[a].index(1)


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


# ---------------------------------------------------------------------------
# Group constructions: matrix generators over GF(q) and the expected order
# of their image on projective points.


def sp4_3() -> tuple[GF, list[tuple[int, ...]], int]:
    """Sp(4,3): symplectic transvections x -> x + <x,v> v over GF(3);
    PSp(4,3) = Omega(5,3) on points, order 25920."""
    F = GF(3)
    # symplectic form J: <x,y> = x1 y3 + x2 y4 - x3 y1 - x4 y2
    def form(x, y):
        return (x[0] * y[2] + x[1] * y[3] - x[2] * y[0] - x[3] * y[1]) % 3

    gens = []
    for v in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 1)):
        # transvection T_v: x -> x + <x, v> v; row i is the image of e_i
        rows = []
        for i in range(4):
            e = [0] * 4
            e[i] = 1
            c = form(e, v)
            rows.append([(e[j] + c * v[j]) % 3 for j in range(4)])
        gens.append(tuple(x for row in rows for x in row))
    return F, gens, 25920


def su3_3() -> tuple[GF, list[tuple[int, ...]], int]:
    """SU(3,3) = PSU(3,3), order 6048, over GF(9) with form antidiag(1,1,1)."""
    F = GF(3, (1, 0, 1))  # x^2 + 1 irreducible mod 3

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
    for a, b in ((0, 3), (1, 1)):
        # u(a,b) upper unitriangular: rows (1,a,b),(0,1,-abar),(0,0,1)
        M = (1, a, b, 0, 1, F.neg(bar(a)), 0, 0, 1)
        assert is_unitary(M)
        gens.append(M)
    return F, gens, 6048


def sl3_4() -> tuple[GF, list[tuple[int, ...]], int]:
    """SL(3,4) via elementary transvections over GF(4); PSL(3,4) on
    points, order 20160."""
    F = GF(2, (1, 1, 1))  # x^2 + x + 1
    gens = []
    for i, j, lam in ((0, 1, 1), (1, 2, 1), (2, 0, 2)):
        M = list(identity(3))
        M[i * 3 + j] = lam
        gens.append(tuple(M))
    return F, gens, 20160


def on_points(F: GF, gens: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """The permutation each matrix M induces on the projective points
    of GF(q)^n by x -> xM; a point is the vector whose first nonzero
    coordinate is 1."""
    points = [v for v in product(range(F.q), repeat=n) if any(v)
              and next(c for c in v if c) == 1]
    index = {v: i for i, v in enumerate(points)}
    perms = []
    for M in gens:
        perm = []
        for x in points:
            y = [0] * n
            for i, a in enumerate(x):
                if a:
                    for j in range(n):
                        y[j] = F.add(y[j], F.mul(a, M[i * n + j]))
            scale = F.inv(next(c for c in y if c))
            perm.append(index[tuple(F.mul(scale, c) for c in y)])
        perms.append(tuple(perm))
    return perms


# ---------------------------------------------------------------------------
# Permutations are tuples of images; a * b applies a, then b.


def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(b.__getitem__, a))


def inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def perm_order(a: tuple[int, ...]) -> int:
    """lcm of the cycle lengths."""
    seen = [False] * len(a)
    order = 1
    for i in range(len(a)):
        length = 0
        while not seen[i]:
            seen[i] = True
            i = a[i]
            length += 1
        order = lcm(order, max(length, 1))
    return order


def mulclose(gens: list[tuple[int, ...]], limit: int) -> list[tuple[int, ...]]:
    """Every product of gens, the identity first."""
    elems = [tuple(range(len(gens[0])))]
    seen = set(elems)
    for a in elems:
        for g in gens:
            b = mul(a, g)
            if b not in seen:
                seen.add(b)
                elems.append(b)
        assert len(elems) <= limit, f"group larger than expected {limit}"
    return elems


# ---------------------------------------------------------------------------
# Conjugacy classes and Dixon-Schneider.


def conjugacy_classes(elems: list, gens: list) -> tuple[list[list], dict]:
    gen_invs = [inverse(g) for g in gens]
    class_of: dict = {}
    classes = []
    for x in elems:
        if x in class_of:
            continue
        cid = len(classes)
        class_of[x] = cid
        members = [x]
        for y in members:
            for g, gi in zip(gens, gen_invs):
                z = tuple(map(g.__getitem__, map(y.__getitem__, gi)))  # gi * y * g
                if z not in class_of:
                    class_of[z] = cid
                    members.append(z)
        classes.append(members)
    return classes, class_of


def dixon_degrees(elems: list, gens: list) -> list[int]:
    classes, class_of = conjugacy_classes(elems, gens)
    k = len(classes)
    reps = [c[0] for c in classes]
    sizes = [len(c) for c in classes]
    g_order = len(elems)
    print(f"  |G| = {g_order}, {k} classes, sizes {sorted(sizes)}")

    inv_class = [class_of[inverse(z)] for z in reps]

    exp = lcm(*map(perm_order, reps))
    bound = 2 * isqrt(g_order) + 1
    p = exp + 1
    while True:
        if p > bound:
            ok = all(p % d for d in range(2, isqrt(p) + 1))
            if ok:
                break
        p += exp
    print(f"  exponent {exp}, Dixon prime p = {p}")

    def class_matrix(i):
        # M_i[j][l] = #{x in C_i : x^{-1} z_l in C_j}; x^{-1} runs over C_i'
        mat = [[0] * k for _ in range(k)]
        for y in classes[inv_class[i]]:
            for l, z in enumerate(reps):
                mat[class_of[mul(y, z)]][l] += 1
        return mat

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
    # class 0 is the identity's, whose matrix is the identity; the others
    # are built only while some subspace is still unsplit
    for ci in range(1, k):
        if all(len(S) == 1 for S in subspaces):
            break
        mat = class_matrix(ci)
        new_subspaces = []
        for S in subspaces:
            if len(S) == 1:
                new_subspaces.append(S)
                continue
            # restrict mat to span(S): row r holds coordinate r of each image
            images = list(zip(*(mat_vec(mat, v) for v in S)))
            basis = list(zip(*S))
            # eigenvalues: lambda with (mat - lambda) singular on S; the
            # eigenspaces are independent, so the search stops once they fill S
            found, total = [], 0
            for lam in range(p):
                if total == len(S):
                    break
                rows = [[(x - lam * y) % p for x, y in zip(im, sv)]
                        for im, sv in zip(images, basis)]
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
                    total += len(vecs)
            assert total == len(S), f"splitting lost dimensions {total} != {len(S)}"
            new_subspaces.extend(found)
        subspaces = new_subspaces
    assert all(len(S) == 1 for S in subspaces), "class matrices failed to separate"

    degrees = []
    for S in subspaces:
        v = S[0]
        scale = pow(v[0], p - 2, p)  # class 0 is the identity's
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


def run(name, builder):
    print(name)
    F, gens, expected = builder()
    gens = on_points(F, gens, isqrt(len(gens[0])))
    elems = mulclose(gens, expected)
    assert len(elems) == expected, f"got {len(elems)}, expected {expected}"
    degrees = dixon_degrees(elems, gens)
    print(f"  degrees: {degrees}")
    return degrees


def derive() -> dict[str, list[int]]:
    """The degree lists, keyed by the data file's labels."""
    return {
        "Omega(5,3)": run("PSp(4,3) = Omega(5,3)", sp4_3),
        "PSU(3,3)": run("PSU(3,3) = SU(3,3)", su3_3),
        "PSL(3,4)": run("PSL(3,4)", sl3_4),
    }


if __name__ == "__main__":
    derive()
