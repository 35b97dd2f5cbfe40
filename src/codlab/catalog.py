"""Catalog of finite simple groups touched by the exception search.

Identities, exact orders, class-number bounds, exceptional isomorphisms
and embedded character-degree tables.  Everything is exact.  Each Lie
family's label, rank floor or twisted prime and class-number bound sit
in one row of _CLASSICAL or _EXCEPTIONAL.  An exceptional family's order
formula sits in its row too; the classical ones are the three branches
of _order_formula (PSL and PSU, PSp and Omega(2m+1), O+-).  The order
formula is over Z, and the bound is a polynomial in q with integer
coefficients over one denominator; group_order and class_number_bound
evaluate them, and order_class_shape reads the q-part exponent and
q-degrees off them.  Each sporadic group's order and class count sit in
one row of _SPORADIC_ATLAS.  Each group the catalog names twice maps to
one representative in _REPRESENTATIVE, an A_n where it is one: the
discharge's isomorphic verdict, the loader's checks of a record and of
its aliases, and the answer for a group with no record of its own all
read representative().  Only degree data is read from a versioned
structured-text file shipped with the package (override the path with
the CODLAB_DATA environment variable); the loader alone checks a record
against its group, on the record's line, and keeps only the codegree set
it gives: a loaded file is one table from each group to its cod(H), and
a file that names a group twice is refused.  Each record is of a simple
group: cod(2.A9) of the double cover comes from Schur's spin degrees in
alt_codegrees, not from the file.

A note on naming: the classical families are parametrised by the rank m
used in the search, so the PSL tag with (m, q) is the group PSL(m+1, q),
PSp is PSp(2m, q), OmegaOdd is Omega(2m+1, q), and OPlus/OMinus are the
simple groups P-Omega+/-(2m, q) (orders here are for the simple group,
not the full orthogonal group).  G2(2) is not simple; its derived
subgroup of order 6048 is the distinguished G2Prime2 tag, swept like a
sporadic group.
"""

from __future__ import annotations

import json
import os
from collections import Counter, namedtuple
from functools import lru_cache
from math import gcd, prod
from pathlib import Path

from .alt_codegrees import CodegreeSet, alt_codegree_members, alt_codegree_set
from .exactnum import PrimePower, exact_root, factorial, is_prime

# Every fact about a classical family, one row each: the label head(d, q)
# with dimension d = a*m + b, the smallest rank m (PSL(m+1,q), PSU(m+1,q),
# PSp(2m,q), Omega(2m+1,q), O+-(2m,q); lower ranks are refused), and the
# constant C = num/den of the class-number bound k(G) <= C*q^m (Fulman and
# Guralnick, Trans. Amer. Math. Soc. 364 (2012); the PSp constant is the
# q-even one, valid for both parities).
_CLASSICAL = {  # family: (head, a, b, rank floor, (num, den))
    "PSL": ("PSL", 1, 1, 1, (5, 2)),
    "PSU": ("PSU", 1, 1, 2, (413, 50)),
    "PSp": ("PSp", 2, 0, 3, (76, 5)),
    "OmegaOdd": ("Omega", 2, 1, 2, (73, 10)),
    "OPlus": ("O+", 2, 0, 4, (15, 1)),
    "OMinus": ("O-", 2, 0, 4, (15, 1)),
}

# Every fact about an exceptional family, one row each: the label prefix(q);
# the prime p of a twisted family defined only over odd powers q = p^(2a+1),
# else None; the order formula (Carter, Simple Groups of Lie Type)
# |G| = q^e * prod(q^i + s for (i, s) in factors) / gcd(c, q^j + t), with
# s = +-1 except in 3D4's factor (8, 0), which is q^8 + q^4 + 1; and the
# class-number bound k(G) <= a polynomial in q, its coefficients by
# descending degree (from Luebeck's class-number polynomials).
_EXCEPTIONAL = {  # family: (prefix, twisted prime, e, factors, (c, j, t), bound)
    "G2": ("G2", None, 6, ((6, -1), (2, -1)), (1, 1, -1), (1, 2, 9)),
    "F4": ("F4", None, 24, ((12, -1), (8, -1), (6, -1), (2, -1)), (1, 1, -1),
           (1, 2, 7, 15, 31)),
    "E6": ("E6", None, 36, tuple((i, -1) for i in (12, 9, 8, 6, 5, 2)), (3, 1, -1),
           (1, 1, 2, 2, 15, 21, 60)),
    "E7": ("E7", None, 63, tuple((i, -1) for i in (18, 14, 12, 10, 8, 6, 2)), (2, 1, -1),
           (1, 1, 2, 7, 17, 35, 71, 103)),
    "E8": ("E8", None, 120, tuple((i, -1) for i in (30, 24, 20, 18, 14, 12, 8, 2)),
           (1, 1, -1), (1, 1, 2, 3, 10, 16, 40, 67, 112)),
    "TwistedE6": ("2E6", None, 36, ((12, -1), (9, 1), (8, -1), (6, -1), (5, 1), (2, -1)),
                  (3, 1, 1), (1, 1, 2, 4, 18, 26, 62)),
    "TriD4": ("3D4", None, 12, ((8, 0), (6, -1), (2, -1)), (1, 1, -1), (1, 1, 1, 1, 6)),
    "Suzuki": ("2B2", 2, 2, ((2, 1), (1, -1)), (1, 1, -1), (1, 3)),
    "Ree": ("2G2", 3, 3, ((3, 1), (1, -1)), (1, 1, -1), (1, 8)),
    "TwistedF4": ("2F4", 2, 12, ((6, 1), (4, -1), (3, 1), (1, -1)), (1, 1, -1),
                  (1, 4, 17)),
}

RANK_FLOOR = {family: row[3] for family, row in _CLASSICAL.items()}
CLASSICAL_FAMILIES = tuple(_CLASSICAL)
LIE_FAMILIES = CLASSICAL_FAMILIES + tuple(_EXCEPTIONAL)
FAMILIES = ("Alternating", "Sporadic", "G2Prime2") + LIE_FAMILIES
TWISTED_ODD_POWER = {family: row[1] for family, row in _EXCEPTIONAL.items() if row[1]}
EXCEPTIONAL_PREFIX = {family: row[0] for family, row in _EXCEPTIONAL.items()}
_CLASSICAL_BY_HEAD = {row[0]: (family, *row[1:4]) for family, row in _CLASSICAL.items()}
_EXCEPTIONAL_BY_PREFIX = {prefix: family for family, prefix in EXCEPTIONAL_PREFIX.items()}

# The 26 sporadic groups and the Tits group, each with the prime
# factorisation of its order (the form exactnum.format_factored writes) and
# its number of conjugacy classes, as the ATLAS of Finite Groups quotes them.
_SPORADIC_ATLAS = {  # label: (order factorisation, class count)
    "M11": ("2^4·3^2·5·11", 10),
    "M12": ("2^6·3^3·5·11", 15),
    "J1": ("2^3·3·5·7·11·19", 15),
    "M22": ("2^7·3^2·5·7·11", 12),
    "J2": ("2^7·3^3·5^2·7", 21),
    "M23": ("2^7·3^2·5·7·11·23", 17),
    "HS": ("2^9·3^2·5^3·7·11", 24),
    "J3": ("2^7·3^5·5·17·19", 21),
    "M24": ("2^10·3^3·5·7·11·23", 26),
    "McL": ("2^7·3^6·5^3·7·11", 24),
    "He": ("2^10·3^3·5^2·7^3·17", 33),
    "Ru": ("2^14·3^3·5^3·7·13·29", 36),
    "Suz": ("2^13·3^7·5^2·7·11·13", 43),
    "ON": ("2^9·3^4·5·7^3·11·19·31", 30),
    "Co3": ("2^10·3^7·5^3·7·11·23", 42),
    "Co2": ("2^18·3^6·5^3·7·11·23", 60),
    "Fi22": ("2^17·3^9·5^2·7·11·13", 65),
    "HN": ("2^14·3^6·5^6·7·11·19", 54),
    "Ly": ("2^8·3^7·5^6·7·11·31·37·67", 53),
    "Th": ("2^15·3^10·5^3·7^2·13·19·31", 48),
    "Fi23": ("2^18·3^13·5^2·7·11·13·17·23", 98),
    "Co1": ("2^21·3^9·5^4·7^2·11·13·23", 101),
    "J4": ("2^21·3^3·5·7·11^3·23·29·31·37·43", 62),
    "Fi24'": ("2^21·3^16·5^2·7^3·11·13·17·23·29", 108),
    "B": ("2^41·3^13·5^6·7^2·11·13·17·19·23·31·47", 184),
    "M": ("2^46·3^20·5^9·7^6·11^2·13^3·17·19·23·29·31·41·47·59·71", 194),
    "2F4(2)'": ("2^11·3^3·5^2·13", 22),
}
SPORADIC_LABELS = tuple(_SPORADIC_ATLAS)


class SporadicEntry(namedtuple("SporadicEntry", "label order class_count")):
    __slots__ = ()


_SPORADIC = {  # "2^4·3^2·5·11" -> order 7920
    label: SporadicEntry(label, prod(int(p) ** int(e or 1) for p, _, e in
                                     (power.partition("^") for power in text.split("·"))),
                         classes)
    for label, (text, classes) in _SPORADIC_ATLAS.items()
}


class GroupId(namedtuple("GroupId", "family n name m q", defaults=(None,) * 4)):
    """Tagged identity of a group in the catalog.

    family: one of FAMILIES; n for Alternating, name for Sporadic,
    (m, q) for classical Lie, q alone for exceptional Lie (a PrimePower).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GroupId:
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "Alternating":
            if self.n is None or self.n < 5:
                raise ValueError("alternating groups need n >= 5")
        elif self.family == "Sporadic":
            if self.name not in SPORADIC_LABELS:
                raise ValueError(f"unknown sporadic label {self.name!r}")
        elif self.family == "G2Prime2":
            pass
        else:
            if self.q is None:
                raise ValueError(f"{self.family} needs a field size q")
            _check_lie_point(self.family, self.m, self.q)
        return self


def _check_lie_point(family: str, m: int | None, q: PrimePower) -> None:
    """Reject parameters that do not name a finite simple group."""
    qv = q.q
    if family in CLASSICAL_FAMILIES:
        if m is None:
            raise ValueError(f"{family} needs a rank parameter m")
        if m < RANK_FLOOR[family]:
            raise ValueError(f"{family} needs m >= {RANK_FLOOR[family]}")
        if family == "PSL" and m == 1 and qv < 4:
            raise ValueError(f"PSL(2,{qv}) is not simple")
        if family == "PSU" and m == 2 and qv == 2:
            raise ValueError("PSU(3,2) is not simple")
        if family == "OmegaOdd" and q.p == 2:
            raise ValueError("Omega(2m+1, q) requires odd q")
    else:
        if m is not None:
            raise ValueError(f"{family} takes no rank parameter")
        fixed = TWISTED_ODD_POWER.get(family)
        if fixed is not None:
            if q.p != fixed or q.k < 3 or q.k % 2 == 0:
                raise ValueError(
                    f"{family} needs q = {fixed}^(2a+1) with a >= 1, got {qv}"
                )
        elif family == "G2" and qv == 2:
            raise ValueError("G2(2) is not simple; use the label G2(2)'")


def alternating(n: int) -> GroupId:
    return GroupId("Alternating", n=n)


def sporadic(name: str) -> GroupId:
    return GroupId("Sporadic", name=name)


def lie(family: str, q: PrimePower, m: int | None = None) -> GroupId:
    return GroupId(family, m=m, q=q)


def prime_power(q: int) -> PrimePower:
    """Write q as p**k with p prime, or reject it (ValueError).

    Powers of two are read off the bit length.  An odd q is reduced by
    exact prime roots while it has one, and what remains must be prime,
    so no factorisation is needed.  A q whose base is past the proven
    primality range is refused in bounded time.
    """
    if q >= 2 and q & (q - 1) == 0:
        return PrimePower(2, q.bit_length() - 1)
    if q < 3 or q % 2 == 0:
        raise ValueError(f"{q} is not a prime power")
    base, k, e = q, 2, 1
    while k < base.bit_length():  # an odd k-th root is >= 3, so k < log2(base)
        root = exact_root(base, k) if is_prime(k) else None
        if root is None:
            k += 1
        else:
            base, e = root, e * k
    if not is_prime(base):
        raise ValueError(f"{q} is not a prime power")
    return PrimePower(base, e)


def group_label(g: GroupId) -> str:
    if g.family == "Alternating":
        return f"A{g.n}"
    if g.family == "Sporadic":
        return g.name  # type: ignore[return-value]
    if g.family == "G2Prime2":
        return "G2(2)'"
    qv = g.q.q  # type: ignore[union-attr]
    if g.family in _CLASSICAL:
        head, a, b = _CLASSICAL[g.family][:3]
        return f"{head}({a * g.m + b},{qv})"  # type: ignore[operator]
    return f"{EXCEPTIONAL_PREFIX[g.family]}({qv})"


def _label_number(text: str, label: str) -> int:
    """A number of a label: ASCII digits only, as group_label writes them."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # past int's limit on digits
            pass
    raise ValueError(f"cannot parse group label {label!r}")


def parse_group_label(label: str) -> GroupId:
    """Inverse of group_label for the CLI; raises ValueError on nonsense.

    Numbers are ASCII digit strings; signs, underscores and other Unicode
    digits are refused rather than read the way int() would read them.
    Each label is parsed once: the last 256 parses are kept, and a refused
    label is refused again on every call.
    """
    return _parse_group_label(label)


@lru_cache(maxsize=256)
def _parse_group_label(label: str) -> GroupId:
    text = label.strip()
    if text == "G2(2)'":
        return GroupId("G2Prime2")
    if text in SPORADIC_LABELS:
        return sporadic(text)
    if text.startswith("A") and "(" not in text:
        return alternating(_label_number(text[1:], label))
    if "(" in text and text.endswith(")"):
        head, args = text[:-1].split("(", 1)
        nums = [_label_number(a.strip(), label) for a in args.split(",")]
        if head in _EXCEPTIONAL_BY_PREFIX and len(nums) == 1:
            return lie(_EXCEPTIONAL_BY_PREFIX[head], prime_power(nums[0]))
        if len(nums) == 2:
            d, qv = nums
            q = prime_power(qv)
            if head in _CLASSICAL_BY_HEAD:
                family, a, b, floor = _CLASSICAL_BY_HEAD[head]
                m, rest = divmod(d - b, a)
                if rest:
                    parity = "odd" if b else "even"
                    raise ValueError(f"{head} dimension must be {parity} in {label!r}")
                if m < floor:
                    raise ValueError(f"{head} needs dimension >= {a * floor + b} in {label!r}")
                return lie(family, q, m=m)
    raise ValueError(f"cannot parse group label {label!r}")


# ---------------------------------------------------------------------------
# Exceptional isomorphisms.

_ARTIN = "Artin, Comm. Pure Appl. Math. 8 (1955)"
_ATLAS = "ATLAS of Finite Groups, introduction"
# Each group the catalog names twice, by label, with the label of its
# representative and the source of the isomorphism.  A group that is an A_n
# is represented by that A_n.  Within the catalog's families and rank floors
# these are all the isomorphisms; two catalog groups of one order with
# different representatives, such as PSL(3,4) and A8, or PSp(2m,q) and
# Omega(2m+1,q) at odd q and m >= 3, are not isomorphic (Artin).
_ISOMORPHISMS = (  # (label, representative, source)
    ("PSL(2,4)", "A5", _ARTIN),
    ("PSL(2,5)", "A5", _ARTIN),
    ("PSL(2,9)", "A6", _ARTIN),
    ("PSL(4,2)", "A8", _ARTIN),
    ("PSL(3,2)", "PSL(2,7)", _ARTIN),
    ("G2(2)'", "PSU(3,3)", _ATLAS),
    ("PSU(4,2)", "Omega(5,3)", _ATLAS),
)
_REPRESENTATIVE = {parse_group_label(label): parse_group_label(rep)
                   for label, rep, _ in _ISOMORPHISMS}


def representative(g: GroupId) -> GroupId:
    """The one group of _ISOMORPHISMS that stands for every catalog group
    isomorphic to g: the A_n if g is one, g itself if the catalog names
    g's group once."""
    return _REPRESENTATIVE.get(g, g)


# ---------------------------------------------------------------------------
# Orders.


@lru_cache(maxsize=256)
def _order_formula(family: str, m: int | None) -> tuple:
    """(e, D, factors, (c, j, t), (bound, den)) of a Lie family at rank m.

    D, e plus the degree i of each factor, is the order formula's degree
    in q.  The class-number bound is the polynomial in q with the integer
    coefficients bound, by descending degree, over den: C*q^m is
    (num, 0, ..., 0) over den, an exceptional polynomial is over 1.
    """
    if family in _EXCEPTIONAL:
        _, _, e, factors, centre, bound = _EXCEPTIONAL[family]
        return e, e + sum(i for i, _ in factors), factors, centre, (bound, 1)
    if family in ("PSL", "PSU"):  # factors q^i - (-t)^i
        t = 1 if family == "PSU" else -1
        e, centre = m * (m + 1) // 2, (m + 1, 1, t)
        factors = [(i, -(-t) ** i) for i in range(2, m + 2)]
    elif family in ("PSp", "OmegaOdd"):
        e, factors, centre = m * m, [(2 * i, -1) for i in range(1, m + 1)], (2, 1, -1)
    else:
        t = -1 if family == "OPlus" else 1
        e, factors, centre = m * (m - 1), [(m, t)] + [(2 * i, -1) for i in range(1, m)], (4, m, t)
    num, den = _CLASSICAL[family][4]
    return e, e + sum(i for i, _ in factors), tuple(factors), centre, ((num,) + (0,) * m, den)


def group_order(g: GroupId) -> int:
    if g.family == "Alternating":
        return factorial(g.n) // 2  # type: ignore[arg-type]
    if g.family == "Sporadic":
        return _SPORADIC[g.name].order  # type: ignore[index]
    if g.family == "G2Prime2":
        return 6048  # index 2 in G2(2) of order 12096
    q = g.q.q  # type: ignore[union-attr]
    e, _, factors, (c, j, t), _ = _order_formula(g.family, g.m)
    order = q ** e
    for i, s in factors:
        order *= q ** i + s if s else q ** 8 + q ** 4 + 1
    return order // gcd(c, q ** j + t)


# ---------------------------------------------------------------------------
# Class-number bounds: k(G) <= num/den exactly, as the int pair (num, den).


def class_number_bound(g: GroupId) -> tuple[int, int]:
    if g.family == "Alternating":
        raise ValueError("alternating groups are not bounded here")
    if g.family == "Sporadic":
        return _SPORADIC[g.name].class_count, 1  # type: ignore[index]
    if g.family == "G2Prime2":
        family, q = "G2", 2  # swept with the G2 bound evaluated at q = 2
    else:
        family, q = g.family, g.q.q  # type: ignore[union-attr]
    bound, den = _order_formula(family, g.m)[4]
    value = 0
    for c in bound:
        value = value * q + c
    return value, den


def order_class_shape(family: str, m: int | None) -> tuple[int, int, int]:
    """(e, D + d, c) of a Lie family at rank m: e the q-part exponent, D the
    q-degree of the order formula, d the degree in q of the class bound (m
    for the classical families), and c the bit length of K, the ceiling of
    the bound's coefficient sum over its denominator.

    |G|_p = q^e exactly: the factors of the order formula are coprime to p
    and the centre order divides one of them, so the p-part of the order
    is the q-power prefix of the formula.

    For G over q, ceil(|G| * class_number_bound(G)) < 2^B with
    B = b(D + d) + c and b = q.bit_length().  As q < 2^b, the q-part q^e is
    below 2^(be), each factor q^i +- 1 of the order formula is at most
    2^(bi), q^8 + q^4 + 1 is at most 2^(8b), and the gcd divisor is at
    least 1: |G| < 2^(bD).  The class bound is a polynomial of degree d
    with nonnegative integer coefficients over a denominator, their sum
    over it at most K, so the bound is at most K*2^(bd).  The product is
    then below the integer K*2^(b(D + d)), so its ceiling is at most that,
    and K < 2^c.
    """
    e, degree, _, _, (bound, den) = _order_formula(family, m)
    return e, degree + len(bound) - 1, (-(-sum(bound) // den)).bit_length()


# ---------------------------------------------------------------------------
# Embedded degree data.

DATA_ENV_VAR = "CODLAB_DATA"
_DATA_FORMAT = "codlab-groups"
_DATA_VERSION = 1

_PACKAGED_DATA = Path(__file__).parent / "data" / "groups_v1.jsonl"
_PACKAGED_KEY = os.path.abspath(_PACKAGED_DATA)


class DataFileError(ValueError):
    """A degree data file that cannot be read, that holds a line other than
    a degree record or a record contradicting its group, or that lacks a
    degree record a run needs.

    The message is "<path>:<line>: <problem>" for a problem on one line,
    as each record is checked on its own line, else "<path>: <problem>".
    """


def _load_catalog(path: str | Path) -> dict[GroupId, CodegreeSet]:
    """The codegree set of each group the data file at path has a degree
    record of, by the group its label or an alias names."""
    table: dict[GroupId, CodegreeSet] = {}
    lineno = 1
    try:
        with open(path, encoding="utf-8") as fh:
            header = json.loads(_line(fh), object_pairs_hook=_object)
            if (not isinstance(header, dict) or header.get("format") != _DATA_FORMAT
                    or header.get("version") != _DATA_VERSION):
                raise ValueError(f"unsupported data file header {header!r}")
            lineno = 2
            while line := _line(fh):
                if line.strip():
                    _add_record(json.loads(line, object_pairs_hook=_object), table)
                lineno += 1
    except OSError as exc:
        raise DataFileError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFileError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise DataFileError(f"{path}:{lineno}: not JSON: {exc.msg}") from None
    except RecursionError:
        raise DataFileError(f"{path}:{lineno}: nested too deeply") from None
    except KeyError as exc:
        raise DataFileError(f"{path}:{lineno}: record has no {exc} field") from None
    except (TypeError, ValueError) as exc:
        raise DataFileError(f"{path}:{lineno}: {exc}") from None
    return table


_MAX_LINE = 1 << 20  # characters in a line, its newline aside; the longest shipped has 258


def _line(fh) -> str:
    """The next line of fh, "" at its end; refused past _MAX_LINE characters."""
    line = fh.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE and not line.endswith("\n"):
        raise ValueError(f"line longer than {_MAX_LINE} characters")
    return line


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of a data file; a key written twice in it is refused."""
    fields = dict(pairs)
    if len(fields) < len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ValueError(f"repeated field {key!r}")
    return fields


# The JSON type of each field of a degree record, and how a refusal names it.
_KINDS = {int: "an integer", str: "text", list: "a list"}
# The fields a degree record may have; all but aliases are required.
_FIELDS = ("record", "label", "order", "degrees", "provenance", "aliases")


def _typed(value: object, kind: type, field: str):
    """value if its type is exactly kind; any other JSON value is refused,
    never truncated or coerced (a float or bool is not an integer)."""
    if type(value) is not kind:
        raise TypeError(f"{field} {json.dumps(value)} is not {_KINDS[kind]}")
    return value


def _add_record(rec: object, table: dict[GroupId, CodegreeSet]) -> None:
    """Check one parsed degree record against the group its label names, and
    file its codegree set in table under that group and, relabelled, under
    the group each alias names, which must be isomorphic to it.  A group is
    filed once, never an A_n, and a field outside _FIELDS is refused after
    every other check.

    Raises KeyError, TypeError or ValueError, which the loader reports
    with the path and line.
    """
    if not isinstance(rec, dict):
        raise ValueError("record is not a JSON object")
    if rec["record"] != "degrees":
        raise ValueError(f"unknown record type {rec['record']!r}")
    degrees = [_typed(d, int, "degree") for d in _typed(rec["degrees"], list, "degrees")]
    aliases = _typed(rec.get("aliases", []), list, "aliases")
    label, order = _typed(rec["label"], str, "label"), _typed(rec["order"], int, "order")
    _typed(rec["provenance"], str, "provenance")
    aliases = [_typed(alias, str, "alias") for alias in aliases]
    if degrees != sorted(degrees):
        raise ValueError(f"degrees for {label} not sorted")
    g = _filed_group(label, table)
    try:
        cod = table[g] = _check_against_group(label, g, order, degrees)
    except ValueError as exc:
        raise ValueError(f"degree record {label}: {exc}") from None
    for alias in aliases:
        h = _filed_group(alias, table, (label, g))
        table[h] = cod._replace(group_label=group_label(h))
    unknown = [field for field in rec if field not in _FIELDS]
    if unknown:
        raise ValueError(f"record has unknown field {unknown[0]!r}")


def _filed_group(key: str, table: dict[GroupId, CodegreeSet],
                 record: tuple[str, GroupId] | None = None) -> GroupId:
    """The group key names, to file a record under in table: for an alias,
    one isomorphic to the group of the record's label, given as record;
    for a label, the group's own representative unless that is an A_n, so
    that no group has two records.  An A_n, whose codegrees come from hook
    lengths, and a group already filed are refused (ValueError)."""
    try:
        g = parse_group_label(key)
        rep = representative(g)
        if record and rep != representative(record[1]):
            raise ValueError(f"not isomorphic to {record[0]}")
        if not record and rep != g and rep.family != "Alternating":
            raise ValueError(f"the catalog files this group as {group_label(rep)}")
        if g.family == "Alternating":
            raise ValueError("cod(A_n) comes from hook lengths, never from a degree record")
    except ValueError as exc:
        raise ValueError(f"degree record {key}: {exc}") from None
    if g in table:
        raise ValueError(f"duplicate degree record {key}")
    return g


def _check_against_group(key: str, g: GroupId, order: int, degrees: list[int]
                         ) -> CodegreeSet:
    """cod(g) from a degree record of the simple group g, not an A_n, which
    key names, with the order and degrees written.

    Raises ValueError if the record contradicts g, whose codegrees are
    cod(A_n) if g is an A_n under another name (its representative), and
    whose one linear character is the trivial one."""
    bits = order.bit_length()
    b = g.q.q.bit_length() - 1 if g.q else 0  # a Lie group's q >= 2^b
    # refuse a too big G before building |G|: |G| >= 2^(b*e), where e >= m at a
    # classical rank m, tried first: the order formula has m factors
    if b and (b * (g.m or 0) >= bits or b * order_class_shape(g.family, g.m)[0] >= bits):
        raise ValueError(f"order {order} is below |{key}|")
    formula = group_order(g)
    if order != formula:
        raise ValueError(f"order {order} disagrees with the order formula {formula}")
    cod = CodegreeSet.from_degrees(group_label(g), order, degrees)
    # not in from_degrees: the faithful degrees of a cover hold no 1
    ones = degrees.count(1)
    if ones != 1:
        raise ValueError(
            f"{ones} degrees 1, but a non-abelian simple group has one linear character")
    classes = _SPORADIC[g.name].class_count if g.family == "Sporadic" else None
    if classes and len(degrees) != classes:
        raise ValueError(f"{len(degrees)} degrees for {classes} classes")
    rep = representative(g)
    if rep.family == "Alternating" and set(cod.values) != alt_codegree_members(rep.n):
        name = group_label(rep)
        raise ValueError(f"codegrees are not cod({name}), though {key} = {name}")
    return cod


# The codegree sets of the data file at an absolute path, by that path: each
# file is loaded once, and the last four loaded are kept.
_degree_records = lru_cache(maxsize=4)(_load_catalog)


def _data_file() -> tuple[Path, dict[GroupId, CodegreeSet]]:
    """The data file, $CODLAB_DATA if set, else the packaged file, as a
    refusal names it, with its codegree sets.

    This is the one reader of $CODLAB_DATA, which it reads on every call.
    A file is read once per process, and its codegree sets are kept under
    its absolute path, resolved on every call: after an os.chdir a
    relative $CODLAB_DATA names the file in the new directory, and one
    file reached by two spellings is read once.  A file rewritten at the
    same path is not read again.  A refusal names the file as
    $CODLAB_DATA gives it, never by its absolute path.
    """
    override = os.environ.get(DATA_ENV_VAR)
    if not override:
        return _PACKAGED_DATA, _degree_records(_PACKAGED_KEY)
    name, key = Path(override), os.path.abspath(override)
    try:
        return name, _degree_records(key)
    except DataFileError as exc:  # each loader message starts with key
        raise DataFileError(f"{name}{str(exc)[len(key):]}") from None


def sporadic_entries() -> list[SporadicEntry]:
    return list(_SPORADIC.values())


def simple_codegree_set(g: GroupId) -> CodegreeSet:
    """cod(G) for a simple catalog group.

    cod(A_n) is walked on every call (alt_codegree_set).  Every other set
    is built, and its degree record checked, when the data file is loaded,
    once per file; a query is one lookup in that file's table.  A group
    the file has no record of is answered from its representative,
    relabelled: cod(A_n), walked, for a group that is an A_n, else the
    file's set of the representative.  The file is resolved once per
    call (_data_file): after an os.chdir a relative $CODLAB_DATA gives
    the new directory's sets, and a file rewritten at the same path
    inside one process is not read again.
    """
    if g.family == "Alternating":
        return alt_codegree_set(g.n)  # type: ignore[arg-type]
    name, table = _data_file()
    cod = table.get(g)
    if cod is None:
        rep = representative(g)
        cod = alt_codegree_set(rep.n) if rep.family == "Alternating" else table.get(rep)
        if cod is None:
            raise DataFileError(f"{name}: no degree data for {group_label(g)}")
        cod = cod._replace(group_label=group_label(g))
    return cod
