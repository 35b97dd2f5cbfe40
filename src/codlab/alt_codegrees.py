"""Codegree sets of alternating groups via hook lengths.

For n >= 5 the alternating group A_n is simple, so every non-trivial
irreducible character is faithful and its codegree is |A_n| divided by
its degree.  Restricting from S_n: a partition pair {lam, lam'} with
lam != lam' gives a single A_n-irreducible of dimension n!/H(lam) and
codegree H(lam)/2, while a self-conjugate lam splits into two halves of
dimension (n!/H(lam))/2 and codegree H(lam).

The minimal non-trivial codegree a_n = |A_n| / D_n, with D_n the largest
degree of A_n, is strictly increasing in n, the monotonicity fact the
search engine leans on.  It holds for every n by a lemma from the
branching rule (James and Kerber, The Representation Theory of the
Symmetric Group, 1981, 2.4 and 2.5): a_N / a_{N-1} >= N / (2 r(N)), where
r(N), the largest r with r(r+1)/2 <= N, bounds the removable corners of a
partition of N, and N > 2 r(N) for every N >= 7.  So only a_5 < a_6 < a_7
is walked; prove_min_codegree_monotone gives the proof.

Shapes are met in Frobenius coordinates lam = (a | b): with Durfee size
d, a_i = lam_i - i and b_i = lam'_i - i for i <= d are strictly
decreasing non-negative runs and |a| + |b| = n - d.  Conjugation swaps
a and b, so each conjugate pair is one unordered pair of runs, met once
for each Durfee size d = 1, ..., isqrt(n) in turn, and

    H(a | b) = H(a) * H(b) * prod_{i,j} (a_i + b_j + 1),

where H(x) = prod x_i! / prod_{i<j} (x_i - x_j) is the hook product of
the shape outside the Durfee square on that side (x is its beta set).
No conjugate is formed and no shape's hooks are walked one by one.

A pair splits into a light run b of sum t <= (n - d)/2 and a heavy run
a of sum n - d - t.  Neither the runs of a given (d, sum) nor the factor
table g(x) = prod_j (x + b_j + 1) of a light run depends on n, so one
walk covers a whole range n_lo..n_hi in blocks (d, t, n), in that
order, and hands its caller one list per block: the codegree of each
A_n irreducible met there, a self-conjugate shape's twice.  When t is
the heavy sum too, the self-conjugate pair (a | a) shares the one pair
loop, told apart by identity, so no runs are compared and nothing is
yielded per pair; the walk of 5..40 meets 107,894 pairs in 1,296
blocks, and alt_codegree_set and verify_min_codegree_monotone fold each
block with one set update or one min.  Per d the walk builds the run
list of every sum once, as a plain list, from the lists of length d - 1
(a run (x,) + r has H = H(r) * x! / prod_{y in r} (x - y)), and then
drops those; a heavy sum's list goes as soon as neither a later light
sum nor the next Durfee size reads it.  Each light table is built
once per (d, t) at its widest, for n_hi.  A single n is the range
(n, n), and a walk makes no reference cycle.

alt_codegree_set walks n afresh on every call and keeps nothing.
alt_codegree_members keeps the values of cod(A_n), as a frozenset, for
each n <= _MEMO_MAX_N = 38 for the life of the process, so the walk of
such an n, with every per-shape check, runs once per process for every
reader that needs only membership or the values: the subset check, the
data loader and the Schur check.  The memo holds one frozenset per n;
the bound on n alone caps it, at 62,449 values whatever the order of
calls.  A larger n is walked again on every call, for a fresh index.

twisted_codegree_set_2a9 adds to cod(A9) the codegrees of the faithful
characters of the double cover 2.A9, from Schur's spin-degree formula
over the strict partitions of 9, in integers only.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt
from operator import lt, mul
from typing import Iterator

from .exactnum import factorial
from .partitions import Partition, hook_product

Run = tuple[int, ...]


class CodegreeSet(namedtuple("CodegreeSet", "group_label order values")):
    """The set cod(G) = {cod(chi)} with its group label and order."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CodegreeSet:
        self = super().__new__(cls, *args, **kwargs)
        _, order, values = self
        if 1 not in values:
            raise ValueError("codegree set must contain 1")
        if not all(map(lt, values, values[1:])):
            raise ValueError("values must be sorted and duplicate-free")
        for v in values:
            if order % v != 0:
                raise ValueError(f"codegree {v} does not divide order {order}")
        return self

    @classmethod
    def from_degrees(cls, label: str, order: int, degrees: list[int],
                     squares: int | None = None) -> CodegreeSet:
        """{1} union {order/d : d > 1}, each character of degree d > 1 faithful;
        the degrees, one per character, must each divide the order and square
        to squares in sum (the order unless given), else ValueError."""
        if sum(d * d for d in degrees) != (squares or order):
            raise ValueError(f"sum of squared degrees is not {squares or order}")
        for d in degrees:
            if d < 1 or order % d:
                raise ValueError(f"degree {d} does not divide |{label}| = {order}")
        return cls(label, order, tuple(sorted({1, *(order // d for d in degrees if d > 1)})))


def sym_degree(parts: Partition) -> int:
    """Dimension of the S_n irreducible for this shape (hook formula)."""
    n = sum(parts)
    hp = hook_product(parts)
    dim, rest = divmod(factorial(n), hp)
    if rest:
        raise ArithmeticError(f"hook product {hp} does not divide {n}!")
    return dim


def _run_list(
    d: int, total: int, shorter: dict[int, list[tuple[Run, int]]], fact: list[int]
) -> list[tuple[Run, int]]:
    """Runs x_1 > ... > x_d >= 0 summing to total, lex-decreasing, each
    with its H(x).

    shorter maps each sum to the lex-decreasing runs of length d - 1 with
    their H.  A run (x,) + r has H(r) * x! / prod_{y in r} (x - y), and
    the division is exact because {x} u r is a beta set.
    """
    if d == 1:
        return [((total,), fact[total])]
    out = []
    # x is the largest element: the rest sum to at least (d-1)(d-2)/2,
    # and d distinct elements below x + 1 sum to at most dx - d(d-1)/2
    for x in range(total - (d - 1) * (d - 2) // 2, -(-(total + d * (d - 1) // 2) // d) - 1, -1):
        fx = fact[x]
        for r, hr in shorter[total - x]:
            if r[0] < x:
                gaps = 1
                for y in r:
                    gaps *= x - y
                out.append(((x,) + r, hr * fx // gaps))
    return out


def _codegree_blocks(n_lo: int, n_hi: int) -> Iterator[tuple[int, list[int]]]:
    """(n, codegrees) once per block of the walk, for every n in n_lo..n_hi:
    the codegree of every A_n irreducible met in the block, a self-conjugate
    shape's listed twice, once for each of its two irreducibles.

    A block is one (Durfee size d, light sum t, n): the conjugate pairs
    (a | b) of n with a run a of sum n - d - t and a run b of sum t.  The
    trivial pair (n) = (n-1 | 0), with codegree 1, is the block d = 1,
    t = 0 of each n, and the blocks come in the order d, t, n.  Per d the
    run lists of every sum the walk meets are built once, from those of
    length d - 1, which are then dropped; the list of the heavy sum
    n_hi - d - t is dropped after light sum t unless the runs of length
    d + 1 still read it.  Per (d, t) each light run of sum t gets its
    table g(x) = prod_j (x + b_j + 1) wide enough for n_hi, and for each
    n with t <= (n - d)/2 the runs of the heavy sum n - d - t are met
    against them, so a pair costs d multiplications.  When the two sums
    are equal, each heavy run a meets the light runs from a itself on: the
    self-conjugate pair (a | a) shares the one pair loop, told apart by
    identity.  Exact checks: H | n! per shape, an even dimension if
    self-conjugate, else an even H, and, after the last block, each n's
    squared A_n dimensions sum to n!/2.
    """
    if n_lo < 5:
        raise ValueError(f"n must be >= 5, got {n_lo}")
    if n_lo > n_hi:
        raise ValueError(f"need n_lo <= n_hi, got ({n_lo}, {n_hi})")
    fact = [1] * (n_hi + 1)
    for i in range(2, n_hi + 1):
        fact[i] = fact[i - 1] * i
    squares = [1] * (n_hi - n_lo + 1)  # the trivial pair's 1^2, per n
    for n in range(n_lo, n_hi + 1):
        yield n, [1]
    level: dict[int, list[tuple[Run, int]]] = {}
    for d in range(1, isqrt(n_hi) + 1):
        least = d * (d - 1) // 2  # smallest sum of a run of length d
        shorter, level = level, {}
        for s in range(least, n_hi - d - least + 1):
            level[s] = _run_list(d, s, shorter, fact)
        del shorter
        # the largest sum that the runs of length d + 1 read from this level
        kept = n_hi - d - 1 - d * (d + 1) // 2 - -(-(n_hi - d - 1) // (d + 1))
        # at d = 1 the light sum t = 0 is the trivial pair, already met
        for t in range(least if d > 1 else 1, (n_hi - d) // 2 + 1):
            top = n_hi - d - t - (d - 1) * (d - 2) // 2  # largest first element of a heavy run
            light = []
            for b, hb in level[t]:
                # g[x] = prod_j (x + b_j + 1) for every x a heavy run can hold
                g = list(range(b[0] + 1, b[0] + top + 2))
                for y in b[1:]:
                    g = list(map(mul, g, range(y + 1, y + top + 2)))
                light.append((b, hb, g))
            for n in range(max(n_lo, d + 2 * t), n_hi + 1):
                n_factorial = fact[n]
                s = n - d - t
                middle = s == t
                codegrees: list[int] = []
                add = codegrees.append
                sq = 0
                for i, (a, ha) in enumerate(level[s]):
                    # s == t: light was built from level[s] itself, so its run at
                    # index i is a, and (a | a) is told by identity, not by value
                    for b, hb, g in light[i:] if middle else light:
                        hp = ha * hb
                        for x in a:
                            hp *= g[x]
                        dim, rest = divmod(n_factorial, hp)
                        if rest:
                            raise ArithmeticError(f"hook product {hp} does not divide {n}!")
                        if b is a:
                            if dim & 1:
                                raise ArithmeticError(
                                    f"self-conjugate ({a} | {a}) has odd dimension {dim}")
                            sq += dim * dim >> 1  # two A_n irreducibles of dimension dim/2
                            codegrees += hp, hp
                        else:
                            if hp & 1:
                                raise ArithmeticError(
                                    f"non-self-conjugate ({a} | {b}) has odd hook product")
                            sq += dim * dim
                            add(hp >> 1)
                squares[n - n_lo] += sq
                if codegrees:  # a block that lost every shape is left to the squares check
                    yield n, codegrees
            # later light sums meet only smaller heavy sums
            if n_hi - d - t > kept:
                del level[n_hi - d - t]
    for n, total in enumerate(squares, n_lo):
        if total != fact[n] >> 1:
            raise ArithmeticError(f"sum of squared dimensions {total} != |A_{n}| = {fact[n] >> 1}")


# The values of cod(A_n) by n, for the life of the process, for
# n <= _MEMO_MAX_N only: the frozensets of n = 5..38 hold 62,449 values,
# within 2^16, about 6.3 MB.  cod(A_39) alone adds 12,977 values, and the size grows about
# 2.3 times for every 5 added to n.
_MEMO: dict[int, frozenset[int]] = {}
_MEMO_MAX_N = 38


def alt_codegree_set(n: int) -> CodegreeSet:
    """cod(A_n) = {1} union {(n!/2)/dim over non-trivial irreducibles}.

    The walk pairs dim n!/H with H/2 and n!/(2H) with H, so dim * codegree
    is n!/2 by construction; the walk checks the sum of squared dimensions.
    Every call walks the shapes of n again, with every check, and keeps
    nothing: a reader that needs only membership or the values takes
    alt_codegree_members(n).
    """
    values: set[int] = set()
    for _, codegrees in _codegree_blocks(n, n):
        values.update(codegrees)
    return CodegreeSet(f"A{n}", factorial(n) // 2, tuple(sorted(values)))


def alt_codegree_members(n: int) -> frozenset[int]:
    """The values of cod(A_n) as a frozenset, for membership tests.

    For n <= _MEMO_MAX_N it is walked once per process and then shared,
    one object per n.  The store is one setdefault on an int key, an
    atomic step (in C, with no call back into Python; free-threaded builds
    hold the dict's own lock), so threads that both missed n are all
    handed the frozenset stored first.  A larger n is walked again on
    every call, for a fresh frozenset.
    """
    members = _MEMO.get(n)
    if members is not None:
        return members
    members = frozenset(alt_codegree_set(n).values)
    return members if n > _MEMO_MAX_N else _MEMO.setdefault(n, members)


def _strict_partitions(n: int, most: int) -> Iterator[Partition]:
    """The partitions of n into distinct parts, each at most most."""
    if n == 0:
        yield ()
    for first in range(min(n, most), 0, -1):
        for rest in _strict_partitions(n - first, first - 1):
            yield (first,) + rest


def twisted_codegree_set_2a9() -> CodegreeSet:
    """cod(2.A9) for the double cover of A9, of order 2|A9| = 9!.

    The characters trivial on the centre are those of A9 and keep cod(A9);
    a faithful one of degree d adds the codegree 9!/d.  The faithful
    degrees are Schur's spin degrees (Schur, J. reine angew. Math. 139
    (1911); Hoffman and Humphreys, Projective Representations of the
    Symmetric Groups, 1992): a strict partition lam of 9 with l parts gives

        2^floor((9-l)/2) * 9!/prod lam_i! * prod_{i<j} (lam_i - lam_j)/(lam_i + lam_j),

    two characters of half that degree when 9 - l is even, one otherwise.
    Each degree is checked to be whole, then to divide 9!, and the squares
    to sum to |2.A9| - |A9| = 9!/2.  The set is built on every call, from
    the memo's cod(A9).
    """
    n = 9
    order = factorial(n)
    degrees = []
    for lam in _strict_partitions(n, n):
        split = (n - len(lam)) % 2 == 0
        num, den = order << (n - len(lam)) // 2, 2 if split else 1
        for i, a in enumerate(lam):
            den *= factorial(a)
            for b in lam[i + 1:]:
                num, den = num * (a - b), den * (a + b)
        degree, rest = divmod(num, den)
        if rest:
            raise ArithmeticError(f"spin degree {num}/{den} of {lam} is not whole")
        degrees += [degree, degree] if split else [degree]
    faithful = CodegreeSet.from_degrees(f"2.A{n}", order, degrees, squares=order // 2).values
    return CodegreeSet(f"2.A{n}", order, tuple(sorted({*alt_codegree_members(n), *faithful})))


def verify_min_codegree_monotone(n_lo: int, n_hi: int) -> tuple[bool, list[tuple[int, int]]]:
    """Check a_{n-1} < a_n for every n in (n_lo, n_hi]; returns witnesses.

    The witness list holds (n, a_n) for n_lo..n_hi so a failure can be
    localised without rerunning.  One walk over n_lo..n_hi keeps a
    running minimum per n.
    """
    if not (5 <= n_lo <= n_hi):
        raise ValueError(f"need 5 <= n_lo <= n_hi, got ({n_lo}, {n_hi})")
    least = [0] * (n_hi - n_lo + 1)  # 0 until a non-trivial codegree is met
    for n, codegrees in _codegree_blocks(n_lo, n_hi):
        c, i = min(codegrees), n - n_lo
        if c != 1 and (not least[i] or c < least[i]):
            least[i] = c
    witness = list(zip(range(n_lo, n_hi + 1), least))
    ok = all(prev[1] < cur[1] for prev, cur in zip(witness, witness[1:]))
    return ok, witness


def _corner_bound(n: int) -> int:
    """r(n), the largest r with r(r+1)/2 <= n.

    A partition with c removable corners has c distinct part sizes, so
    n >= 1 + 2 + ... + c = c(c+1)/2 and c <= r(n).
    """
    return (isqrt(8 * n + 1) - 1) // 2


_LEMMA_FROM = 7  # the first N with N > 2 r(N)


def prove_min_codegree_monotone() -> tuple[bool, list[tuple[int, int]]]:
    """a_{n-1} < a_n for every n > 5: the walk on 5..7 and the branching
    lemma beyond; returns the walked witnesses (n, a_n) for n = 5, 6, 7.

    Let M_N be the largest degree of S_N, D_N that of A_N, and r(N) as in
    _corner_bound.  The branching rule restricts the S_N irreducible of a
    shape to the sum of those of its shapes less one removable corner, of
    which there are at most r(N), so D_N <= M_N <= r(N) M_{N-1}.  A_{N-1}
    restricts each S_{N-1} irreducible whole or in two halves of one
    degree, so M_{N-1} <= 2 D_{N-1}.  With a_N = (N!/2) / D_N,

        a_N / a_{N-1} = N D_{N-1} / D_N >= N / (2 r(N)),

    which exceeds 1 when N > 2 r(N).  That holds for every N >= 7: 2r >= N
    would give r(r+1)/2 >= N(N+2)/8 > N once N > 6, against the choice of
    r.  The obligations left are exact and finite: the walk shows
    a_5 < a_6 < a_7 with every per-shape check on those shapes, and the
    step inequality is tested at N = 7, where the lemma takes over and
    N - 2 r(N) = 1 is smallest.
    """
    ok, witness = verify_min_codegree_monotone(5, _LEMMA_FROM)
    return ok and _LEMMA_FROM > 2 * _corner_bound(_LEMMA_FROM), witness
