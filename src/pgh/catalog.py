"""Constructors for the group families under study, small-group tables,
and a JSON serialization format for presentations.

Generators of order p^m are refined into chains of m generators of
relative order p, so every presentation here has prime relative orders.
"""

import json
from collections import namedtuple

from .pcp import PcPresentation, check_prime, direct_product, trivial_group


# The most generators a family member or a parsed presentation may have.
# The consistency check is cubic in the generator count, so larger inputs
# are refused before anything of their size is built.  Presentations
# built by the library itself, such as stem covers, are not limited.
MAX_GENERATORS = 64


class FamilyParameterError(ValueError):
    """A family constructor was called with invalid parameters."""


def _chain(start, length):
    """Indices of a refined generator chain g, g^p, ..., g^{p^(length-1)}."""
    return list(range(start, start + length))


def _chain_power_rules(power, chain):
    for a, b in zip(chain, chain[1:]):
        power[a] = ((b, 1),)


def homocyclic(p, exponent, rank):
    """Z_{p^exponent}^(rank)."""
    if exponent < 0 or rank < 0:
        raise FamilyParameterError("exponent and rank must be non-negative")
    n = exponent * rank
    power = [()] * n
    labels = {}
    # exponent 0 gives no generator, whatever the rank
    for r in range(rank if exponent else 0):
        chain = _chain(r * exponent, exponent)
        _chain_power_rules(power, chain)
        if chain:
            labels[chain[0]] = f"x{r + 1}"
    return PcPresentation(p, n, power, {}, labels, check_consistent=False)


def cyclic(p, exponent):
    return homocyclic(p, exponent, 1)


def elementary_abelian(p, rank):
    return homocyclic(p, 1, rank)


def min_nonabelian_a(p, m, n):
    """<a, b | a^(p^m) = b^(p^n) = 1, [a, b] = a^(p^(m-1))>, class 2.

    Minimal non-abelian, |G| = p^(m+n), G' = <a^(p^(m-1))> of order p.
    """
    if m < 2:
        raise FamilyParameterError(
            "type (a) minimal non-abelian groups require m >= 2")
    if n < 1:
        raise FamilyParameterError(
            "type (a) minimal non-abelian groups require n >= 1")
    N = m + n
    # layout: a (index 0), b (index 1), b-chain, a-chain continuation
    a_chain = [0] + _chain(1 + n, m - 1)
    b_chain = [1] + _chain(2, n - 1)
    power = [()] * N
    _chain_power_rules(power, a_chain)
    _chain_power_rules(power, b_chain)
    # [a, b] = a^(p^(m-1)), so the stored rule is [b, a] = (a^(p^(m-1)))^-1
    comm = {(1, 0): ((a_chain[-1], p - 1),)}
    labels = {0: "a", 1: "b"}
    return PcPresentation(p, N, power, comm, labels)


def min_nonabelian_b(p, m, n):
    """<a, b, c | a^(p^m) = b^(p^n) = c^p = 1, [a, b] = c central>.

    Minimal non-abelian, |G| = p^(m+n+1), G' = <c>.
    """
    if m < 1 or n < 1:
        raise FamilyParameterError(
            "type (b) minimal non-abelian groups require m, n >= 1")
    if p == 2 and m + n <= 2:
        raise FamilyParameterError(
            "type (b) minimal non-abelian groups require m + n > 2 when p = 2")
    N = m + n + 1
    a_chain = [0] + _chain(3, m - 1)
    b_chain = [1] + _chain(3 + (m - 1), n - 1)
    c_index = 2
    power = [()] * N
    _chain_power_rules(power, a_chain)
    _chain_power_rules(power, b_chain)
    comm = {(1, 0): ((c_index, p - 1),)}
    labels = {0: "a", 1: "b", 2: "c"}
    return PcPresentation(p, N, power, comm, labels)


def quaternion8():
    """Q8: a^2 = b^2 = z, [b, a] = z, z^2 = 1."""
    power = [((2, 1),), ((2, 1),), ()]
    comm = {(1, 0): ((2, 1),)}
    return PcPresentation(2, 3, power, comm, {0: "a", 1: "b", 2: "z"})


def dihedral8():
    return min_nonabelian_a(2, 2, 1)


def extraspecial_e1(p):
    """Extra-special group of order p^3 and exponent p (p odd)."""
    if p == 2:
        raise FamilyParameterError("E1 requires an odd prime")
    return min_nonabelian_b(p, 1, 1)


def modular_group(p, n):
    """Modular group of order p^n: [a, b] = a^(p^(n-2))."""
    if n < 3 or (p == 2 and n < 4):
        raise FamilyParameterError("modular group requires order >= p^3 (p^4 for p=2)")
    return min_nonabelian_a(p, n - 1, 1)


def g1(p, n):
    """G1 = E1 x Z_p^(n-3); attainer of the main bound with |G'| = p."""
    if p == 2:
        raise FamilyParameterError("G1 requires an odd prime")
    if n < 3:
        raise FamilyParameterError("G1 requires total order >= p^3")
    G = extraspecial_e1(p)
    if n > 3:
        G = direct_product(G, elementary_abelian(p, n - 3))
    return G


def g2(p, m):
    """G2 = <a, b | a^(p^m) = b^(p^m) = c^p = 1, [a, b] = c>, order p^(2m+1)."""
    if m < 2:
        raise FamilyParameterError("G2 requires m >= 2")
    return min_nonabelian_b(p, m, m)


def g3(p):
    """G3, realized as the class-2 exponent-p group of order p^5 with
    commutator relations [x1,x2] = c1, [x1,x3] = c2, [x2,x3] = 1."""
    if p == 2:
        raise FamilyParameterError("G3 requires an odd prime")
    comm = {
        (1, 0): ((3, p - 1),),   # [x2, x1] = c1^-1
        (2, 0): ((4, p - 1),),   # [x3, x1] = c2^-1
    }
    labels = {0: "x1", 1: "x2", 2: "x3", 3: "c1", 4: "c2"}
    return PcPresentation(p, 5, [()] * 5, comm, labels)


def g4(p, m):
    """G4 = <a, b | a^(p^m) = b^(p^m) = c^(p^m) = 1, [a, b] = c>, order p^(3m)."""
    if m < 2:
        raise FamilyParameterError("G4 requires m >= 2")
    if p == 2:
        raise FamilyParameterError("G4 requires an odd prime")
    N = 3 * m
    a_chain = [0] + _chain(3, m - 1)
    b_chain = [1] + _chain(3 + (m - 1), m - 1)
    c_chain = [2] + _chain(3 + 2 * (m - 1), m - 1)
    power = [()] * N
    for chain in (a_chain, b_chain, c_chain):
        _chain_power_rules(power, chain)
    # [a^(p^i), b^(p^j)] = c^(p^(i+j)) since c is central, so the chain
    # generators need their induced commutator rules too
    comm = {}
    for i, ai in enumerate(a_chain):
        for j, bj in enumerate(b_chain):
            if i + j >= m:
                continue
            hi, lo = max(ai, bj), min(ai, bj)
            # stored word is [g_hi, g_lo]; [a_i, b_j] = c_k, [b_j, a_i] = c_k^-1.
            # c_k has order p^(m-i-j), so its inverse expands along the chain:
            # -1 = (p-1)(1 + p + p^2 + ...) in base p.
            if hi == ai:
                comm[(hi, lo)] = ((c_chain[i + j], 1),)
            else:
                comm[(hi, lo)] = tuple((g, p - 1) for g in c_chain[i + j:])
    labels = {0: "a", 1: "b", 2: "c"}
    return PcPresentation(p, N, power, comm, labels)


def g5(p):
    """G5: class-2 exponent-p group of order p^6 with
    [x1,x2] = y3, [x2,x3] = y1, [x3,x1] = y2, y_i central."""
    if p == 2:
        raise FamilyParameterError("G5 requires an odd prime")
    comm = {
        (1, 0): ((5, p - 1),),   # [x2, x1] = y3^-1
        (2, 0): ((4, 1),),       # [x3, x1] = y2
        (2, 1): ((3, p - 1),),   # [x3, x2] = y1^-1
    }
    labels = {0: "x1", 1: "x2", 2: "x3", 3: "y1", 4: "y2", 5: "y3"}
    return PcPresentation(p, 6, [()] * 6, comm, labels)


def g6():
    """G6: the class-3 group of order 3^7 extending G5 by [y_i, x_i] = z."""
    p = 3
    comm = {
        (1, 0): ((5, p - 1),),   # [x2, x1] = y3^-1
        (2, 0): ((4, 1),),       # [x3, x1] = y2
        (2, 1): ((3, p - 1),),   # [x3, x2] = y1^-1
        (3, 0): ((6, 1),),       # [y1, x1] = z
        (4, 1): ((6, 1),),       # [y2, x2] = z
        (5, 2): ((6, 1),),       # [y3, x3] = z
    }
    labels = {0: "x1", 1: "x2", 2: "x3", 3: "y1", 4: "y2", 5: "y3", 6: "z"}
    return PcPresentation(p, 7, [()] * 7, comm, labels)


# -- small-group tables ----------------------------------------------


# The primes the small-group tables cover.
TABLE_PRIMES = (2, 3, 5)


def central_product_e1_cyclic(p):
    """E1 * Z_{p^2}, the central product identifying [a,b] with z^p.

    Order p^4, class 2, center Z_{p^2}, exponent p^2.
    """
    if p == 2:
        raise FamilyParameterError("this central product requires an odd prime")
    power = [(), (), ((3, 1),), ()]
    comm = {(1, 0): ((3, p - 1),)}
    return PcPresentation(p, 4, power, comm, {0: "a", 1: "b", 2: "z"})


def central_product_d8_z4():
    """D8 * Z_4, the central product identifying r^2 with z^2 (order 16)."""
    power = [(), ((3, 1),), ((3, 1),), ()]
    comm = {(1, 0): ((3, 1),)}
    return PcPresentation(2, 4, power, comm, {0: "s", 1: "r", 2: "z"})


def dihedral16():
    """D16 on the chain s, r, r^2, r^4."""
    power = [(), ((2, 1),), ((3, 1),), ()]
    comm = {(1, 0): ((2, 1), (3, 1)), (2, 0): ((3, 1),)}
    return PcPresentation(2, 4, power, comm, {0: "s", 1: "r"})


def semidihedral16():
    """SD16: srs = r^3, so [r, s] = r^2."""
    power = [(), ((2, 1),), ((3, 1),), ()]
    comm = {(1, 0): ((2, 1),), (2, 0): ((3, 1),)}
    return PcPresentation(2, 4, power, comm, {0: "s", 1: "r"})


def quaternion16():
    """Q16: like D16 but with s^2 = r^4."""
    power = [((3, 1),), ((2, 1),), ((3, 1),), ()]
    comm = {(1, 0): ((2, 1), (3, 1)), (2, 0): ((3, 1),)}
    return PcPresentation(2, 4, power, comm, {0: "s", 1: "r"})


def maximal_class_p4(p, e03, e13, a, b):
    """Maximal-class group of order p^4 on generators g1..g4 with
    [g2,g1] = g3, [g3,g1] = g4^a, [g3,g2] = g4^b, g1^p = g4^e03,
    g2^p = g4^e13, g4 central of order p."""
    power = [(), (), (), ()]
    if e03:
        power[0] = ((3, e03),)
    if e13:
        power[1] = ((3, e13),)
    comm = {(1, 0): ((2, 1),)}
    if a:
        comm[(2, 0)] = ((3, a % p),)
    if b:
        comm[(2, 1)] = ((3, b % p),)
    return PcPresentation(p, 4, power, comm, {0: "a", 1: "b"})


# Representatives of the isomorphism classes of maximal-class groups of
# order p^4, as (e03, e13, a, b) for maximal_class_p4.  Derived by
# exhaustive search over consistent parametrized presentations with
# invariant-based bucketing, then brute-force isomorphism testing inside
# the one bucket at p = 5 that holds three classes (two of which differ
# only by a quadratic-residue twist on the g2^p relation and share all
# the invariants used for bucketing).
_MAXIMAL_CLASS_P4 = {
    3: ((1, 1, 0, 1), (0, 1, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)),
    5: ((1, 0, 1, 0), (0, 1, 1, 0), (0, 2, 1, 0), (0, 0, 0, 1)),
}


def _abelian_p4(p):
    return [
        cyclic(p, 4),
        direct_product(cyclic(p, 3), cyclic(p, 1)),
        homocyclic(p, 2, 2),
        direct_product(cyclic(p, 2), elementary_abelian(p, 2)),
        elementary_abelian(p, 4),
    ]


def small_group_table(p, exponent):
    """The complete list of groups of order p^3 or p^4, one presentation
    per isomorphism class.  Supports p in TABLE_PRIMES; 5 groups at
    exponent 3, and 15 (odd p) or 14 (p = 2) at exponent 4."""
    if p not in TABLE_PRIMES:
        primes = ", ".join(map(str, TABLE_PRIMES))
        raise FamilyParameterError(
            f"small_group_table supports p in {primes}; got {p}")
    if exponent == 3:
        table = [
            cyclic(p, 3),
            direct_product(cyclic(p, 2), cyclic(p, 1)),
            elementary_abelian(p, 3),
        ]
        if p == 2:
            table += [dihedral8(), quaternion8()]
        else:
            table += [extraspecial_e1(p), modular_group(p, 3)]
        return table
    if exponent == 4:
        table = _abelian_p4(p)
        if p == 2:
            table += [
                modular_group(2, 4),
                min_nonabelian_a(2, 2, 2),
                min_nonabelian_b(2, 2, 1),
                direct_product(dihedral8(), cyclic(2, 1)),
                direct_product(quaternion8(), cyclic(2, 1)),
                central_product_d8_z4(),
                dihedral16(),
                semidihedral16(),
                quaternion16(),
            ]
        else:
            table += [
                modular_group(p, 4),
                min_nonabelian_a(p, 2, 2),
                min_nonabelian_b(p, 2, 1),
                g1(p, 4),
                direct_product(modular_group(p, 3), cyclic(p, 1)),
                central_product_e1_cyclic(p),
            ]
            table += [maximal_class_p4(p, *params)
                      for params in _MAXIMAL_CLASS_P4[p]]
        return table
    raise FamilyParameterError(f"exponent must be 3 or 4, got {exponent}")


def _small_group(p, exponent, index):
    table = small_group_table(p, exponent)
    if not (1 <= index <= len(table)):
        raise FamilyParameterError(
            f"SMALL index must be in 1..{len(table)}, got {index}")
    return table[index - 1]


# One row per family: its parameter names; its generator count, for the
# families whose size grows with a parameter; the one prime it requires,
# if any; and its constructor, called as build(p, **params).  Each
# constructor is called by name inside a lambda, so that a wrapper later
# installed on the module function (a profiler, perfbench's tracer) is
# the one that runs.
Family = namedtuple("Family", "params ngens prime build")

FAMILIES = {
    "HOMOCYCLIC": Family(("m", "rank"), lambda m, rank: m * rank, None,
                         lambda p, m, rank: homocyclic(p, m, rank)),
    "MIN_NONAB_A": Family(("m", "n"), lambda m, n: m + n, None,
                          lambda p, m, n: min_nonabelian_a(p, m, n)),
    "MIN_NONAB_B": Family(("m", "n"), lambda m, n: m + n + 1, None,
                          lambda p, m, n: min_nonabelian_b(p, m, n)),
    "Q8": Family((), None, 2, lambda p: quaternion8()),
    "D8": Family((), None, 2, lambda p: dihedral8()),
    "E1": Family((), None, None, lambda p: extraspecial_e1(p)),
    "MODULAR": Family(("n",), lambda n: n, None,
                      lambda p, n: modular_group(p, n)),
    "G1": Family(("n",), lambda n: n, None, lambda p, n: g1(p, n)),
    "G2": Family(("m",), lambda m: 2 * m + 1, None, lambda p, m: g2(p, m)),
    "G3": Family((), None, None, lambda p: g3(p)),
    "G4": Family(("m",), lambda m: 3 * m, None, lambda p, m: g4(p, m)),
    "G5": Family((), None, None, lambda p: g5(p)),
    "G6": Family((), None, 3, lambda p: g6()),
    "SMALL": Family(("exponent", "index"), None, None,
                    lambda p, exponent, index: _small_group(p, exponent, index)),
    "TRIVIAL": Family((), None, None, lambda p: trivial_group(p)),
}


def family_tag(name, p, params):
    """The tag of a family member, such as G4(p=3,m=2)."""
    extra = "".join(f",{k}={v}" for k, v in sorted(params.items()))
    return f"{name}(p={p}{extra})"


def make(family, p, **params):
    """Construct a family member; raises FamilyParameterError on bad input."""
    family = family.upper()
    if family not in FAMILIES:
        raise FamilyParameterError(f"unknown family {family!r}")
    row = FAMILIES[family]
    if set(params) != set(row.params):
        raise FamilyParameterError(
            f"family {family} takes parameters {row.params}, got {sorted(params)}")
    try:
        check_prime(p)
    except ValueError as exc:
        raise FamilyParameterError(str(exc)) from exc
    for name in row.params:
        if params[name] < 0:
            raise FamilyParameterError(
                f"family {family} parameter {name} must be non-negative, "
                f"got {params[name]}")
    if row.ngens:
        ngens = row.ngens(**params)
        if ngens > MAX_GENERATORS:
            raise FamilyParameterError(
                f"family {family} with these parameters has {ngens} "
                f"generators, more than the limit of {MAX_GENERATORS}")
    if row.prime not in (None, p):
        raise FamilyParameterError(f"{family} requires p = {row.prime}")
    return row.build(p, **params)


# -- serialization ---------------------------------------------------


class PresentationFormatError(ValueError):
    """The presentation file does not conform to the schema."""


def serialize(P):
    """Serialize a presentation to the JSON text format."""
    doc = {"p": P.p, "ngens": P.ngens}
    if P.labels:
        doc["labels"] = {str(i + 1): lab for i, lab in sorted(P.labels.items())}
    power = {str(i + 1): [[g + 1, e] for g, e in w]
             for i, w in enumerate(P.power) if w}
    if power:
        doc["power"] = power
    comm = {f"{j + 1},{i + 1}": [[g + 1, e] for g, e in w]
            for (j, i), w in sorted(P.comm.items())}
    if comm:
        doc["comm"] = comm
    return json.dumps(doc, indent=2) + "\n"


def _parse_word(raw, where):
    if not isinstance(raw, list):
        raise PresentationFormatError(f"{where}: word must be a list of pairs")
    word = []
    for pair in raw:
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(type(x) is int for x in pair)):
            raise PresentationFormatError(
                f"{where}: each word entry must be [generator_index, exponent]")
        word.append((pair[0] - 1, pair[1]))
    return tuple(word)


def _integer_fields(doc, keys):
    for key in keys:
        if key not in doc or type(doc[key]) is not int:
            raise PresentationFormatError(f"missing or non-integer field {key!r}")


def _object_field(doc, key):
    value = doc.get(key) or {}
    if not isinstance(value, dict):
        raise PresentationFormatError(f"field {key!r} must be an object")
    return value


def _index_key(key, field, ngens):
    """The 0-based index of the 1-based generator key of `field`."""
    try:
        i = int(key) - 1
    except ValueError:
        raise PresentationFormatError(f"{field} key {key!r} is not an index")
    if not (0 <= i < ngens):
        raise PresentationFormatError(f"{field} key {key!r} out of range")
    return i


def parse(text):
    """Parse the JSON presentation format (or family shorthand)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PresentationFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PresentationFormatError("top-level value must be an object")
    if "family" in doc:
        if not isinstance(doc["family"], str):
            raise PresentationFormatError("field 'family' must be a string")
        row = FAMILIES.get(doc["family"].upper())
        known = {"family", "p", *(row.params if row else ())}
        extra = set(doc) - known
        if extra:
            raise PresentationFormatError(f"unknown keys {sorted(extra)} in family shorthand")
        params = {k: v for k, v in doc.items() if k not in ("family", "p")}
        _integer_fields(doc, ["p", *params])
        return make(doc["family"], doc["p"], **params)
    _integer_fields(doc, ("p", "ngens"))
    p = doc["p"]
    ngens = doc["ngens"]
    if ngens < 0:
        raise PresentationFormatError(f"ngens {ngens} is negative")
    if ngens > MAX_GENERATORS:
        raise PresentationFormatError(
            f"ngens {ngens} is more than the limit of {MAX_GENERATORS}")
    power = [()] * ngens
    for key, raw in _object_field(doc, "power").items():
        power[_index_key(key, "power", ngens)] = _parse_word(
            raw, f"power[{key}]")
    comm = {}
    for key, raw in _object_field(doc, "comm").items():
        try:
            j, i = (int(x) - 1 for x in key.split(","))
        except ValueError:
            raise PresentationFormatError(f"comm key {key!r} is not \"j,i\"")
        if not (0 <= i < j < ngens):
            raise PresentationFormatError(f"comm key {key!r} must have j > i >= 1")
        comm[(j, i)] = _parse_word(raw, f"comm[{key}]")
    labels = {}
    for key, lab in _object_field(doc, "labels").items():
        labels[_index_key(key, "labels", ngens)] = str(lab)
    try:
        return PcPresentation(p, ngens, power, comm, labels)
    except ValueError as exc:
        raise PresentationFormatError(str(exc)) from exc


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PresentationFormatError(str(exc)) from exc
    return parse(text)
