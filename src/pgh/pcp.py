"""Finite p-groups given by consistent polycyclic presentations.

Every generator has relative order exactly p.  A presentation stores, for
each generator g_i, the normal-form word equal to g_i^p, and for each pair
i < j the normal-form word equal to [g_j, g_i] = g_j^-1 g_i^-1 g_j g_i.
Rule words may only mention generators of strictly larger index, which
makes collection from the left terminate.

Elements are exponent tuples (e_1, ..., e_N) with 0 <= e_i < p.
Inverses, commutators, conjugates and sifting steps are left divisions,
the z with x * z = y, solved with positive exponents only: z_i is read
off once x * g_1^z_1 ... g_(i-1)^z_(i-1) agrees with y below i, since
<g_i, ..., g_N> is a subgroup and normal forms are unique.
"""

import contextlib
import contextvars
import functools
import inspect
from dataclasses import dataclass, field
from itertools import compress

from .snf import mat_mul, smith_normal_form

Word = tuple  # tuple of (generator_index, exponent) pairs, 0-based indices


def _validate_word(word, low, ngens, p):
    """Rule words must be normal forms over generators of index > low."""
    prev = low
    for g, e in word:
        if not (low < g < ngens):
            raise ValueError(
                f"rule word uses generator {g + 1}, which is not of larger "
                f"index than {low + 1} (weighting invariant)")
        if g <= prev:
            raise ValueError("rule word indices must be strictly increasing")
        if not (0 < e < p):
            raise ValueError(f"rule word exponent {e} out of range [1, {p - 1}]")
        prev = g


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson-Webster 2017); the first 12 bases reach only 3.2e23.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def check_prime(p):
    """Raise ValueError unless p is a prime below _PRIME_TEST_LIMIT."""
    if p >= _PRIME_TEST_LIMIT:
        raise ValueError("p is too large: the primality test is exact only "
                         f"below {_PRIME_TEST_LIMIT}")
    if p < 2 or not _is_prime(p):
        raise ValueError(f"{p} is not prime")


def _is_prime(n):
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def log_p(value, p):
    """The exponent e with p^e == value; raises ValueError otherwise."""
    e, rest = 0, value
    while rest != 1:
        if rest < 1 or rest % p:
            raise ValueError(f"{value} is not a power of {p}")
        rest //= p
        e += 1
    return e


# The presentations built inside the innermost `shared_presentations()`
# block, by content key; None outside every block.
_shared = contextvars.ContextVar("pgh.pcp.shared", default=None)


@contextlib.contextmanager
def shared_presentations():
    """Within the block, an equal construction returns the earlier object.

    Equal means the same p, generator count, power words, commutator
    rules and labels.  The invariants stored on a presentation then serve
    every later construction of it.  The table is dropped when the block
    ends, by return or by exception; outside every block each construction
    builds a new object.
    """
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


class _SharedWithinBlock(type):
    """The one construction path of a presentation.

    The object is built unchecked; inside a `shared_presentations()`
    block an equal one built earlier takes its place.  The consistency
    check runs once per object, when first asked for, and a block's
    table stores the object only after a check asked for has passed.
    Unpickling calls `cls.__new__(cls)` directly and never gets here, so
    an unpickled presentation is always a new object.
    """

    def __call__(cls, p, ngens, power=None, comm=None, labels=None,
                 check_consistent=True):
        P = type.__call__(cls, p, ngens, power, comm, labels)
        table = _shared.get()
        if table is not None:
            key = P._content_key()
            P = table.get(key, P)
        if check_consistent and not P._checked:
            if not P.is_consistent():
                raise ValueError("presentation fails the consistency check")
            P._checked = True
        if table is not None:
            table[key] = P
        return P


class PcPresentation(metaclass=_SharedWithinBlock):
    """A consistent polycyclic presentation with prime relative orders.

    A presentation is never mutated after construction; the invariants
    computed by `per_presentation` functions are stored on it.  Inside a
    `shared_presentations()` block one object stands for every equal
    construction, so its users hold it in common: a mutation would reach
    all of them, and so would a stale stored invariant.
    """

    def __init__(self, p, ngens, power=None, comm=None, labels=None):
        check_prime(p)
        if ngens < 0:
            raise ValueError(f"generator count {ngens} is negative")
        self.p = p
        self.ngens = ngens
        power = list(power or [])
        if len(power) > ngens:
            raise ValueError(f"{len(power)} power words for {ngens} generators")
        while len(power) < ngens:
            power.append(())
        self.power = tuple(tuple(w) for w in power)
        self.comm = {}
        for (j, i), w in (comm or {}).items():
            if not (0 <= i < j < ngens):
                raise ValueError(f"bad commutator rule key ({j}, {i})")
            w = tuple(w)
            if w:
                self.comm[(j, i)] = w
        # the c of `is_consistent`: g_(c+1) ... g_N have no commutator rule
        self._central_start = 1 + max((j for j, _ in self.comm), default=-1)
        self.labels = dict(labels or {})
        for i, w in enumerate(self.power):
            _validate_word(w, i, ngens, p)
        for (j, i), w in self.comm.items():
            _validate_word(w, j, ngens, p)
        self._identity = (0,) * ngens
        self._memo = {}
        self._checked = False

    def _content_key(self):
        """What equal presentations share: the content `__init__` stores."""
        return (self.p, self.ngens, self.power,
                frozenset(self.comm.items()), frozenset(self.labels.items()))

    # -- basic element arithmetic -------------------------------------

    @property
    def order(self):
        return self.p ** self.ngens

    def identity(self):
        return self._identity

    def gen(self, i):
        if not (0 <= i < self.ngens):
            raise IndexError(f"generator index {i} out of range")
        return self._identity[:i] + (1,) + self._identity[i + 1:]

    def gens(self):
        return [self.gen(i) for i in range(self.ngens)]

    def label(self, i):
        return self.labels.get(i, f"g{i + 1}")

    def _collect_into(self, vec, word, tails=None):
        """Multiply the normal form `vec` (a list, modified in place) by `word`.

        With `tails`, collection runs in the covering presentation, whose
        rules each carry one central tail (laid out by `_tail_slot`), and
        `tails` counts in place the tails of the rules applied.  It is any
        counter indexed by slot: a list, or a `defaultdict(int)`.

        Without `tails`, g moves left only past the letters before the
        central block B = g_(c+1) ... g_N of `is_consistent`, where c is
        `_central_start`; the letters of B stay in place.  This is exact:
        - No rule has a letter g_t of B on its left, so passing g over g_t
          applies the rule g_t g = g g_t, and leaving g_t where it is
          applies the same rule.
        - B alone is a consistent presentation of an abelian group A (part
          (b) of `is_consistent`'s lemma), and a power word of B lies in B.
          Outside B the collector applies the same rules in the same order
          whether B is walked or left, so B's part of the result is the
          sum in A of the same letters, which does not depend on the order
          they are added in.
        - So the overlap verdict of `is_consistent` cannot change.  In any
          case it does not depend on the order of collection: two overlap
          words that collect to one normal form are joinable, and two
          distinct normal forms of one word refute consistency (Newman's
          lemma; Sims, Computation with Finitely Presented Groups, ch. 9).
        - When g passes a run g_t^ct whose rule word w of [g_t, g] lies in
          B, it queues g_t^ct and then w with every exponent times ct, in
          place of ct copies of g_t w.  This is exact too: the letters of
          B are central and this collector leaves them in place, so the
          head letters g_1 ... g_c see the same sequence either way (a run
          of g_t is taken one unit at a time whenever a rule fires), and
          B's part is a sum in the abelian group A, which is ct times w
          either way.  So a product no longer costs ct * |w| queue entries
          per crossing, which made a large p quadratic.
        With `tails` every pair has a tail slot, rule or no rule, and the
        order of rule applications fixes V and so the stem cover: there B
        is walked one unit at a time.
        """
        p = self.p
        n = self.ngens
        power = self.power
        comm = self.comm
        top = n if tails is not None else self._central_start
        stack = list(word)[::-1]
        pop, push, extend = stack.pop, stack.append, stack.extend
        while stack:
            g, e = pop()
            if g < 0 or g >= n:
                raise IndexError(f"generator index {g} out of range")
            if e == 0:
                continue
            if e < 0:
                # g^-1 = g^(p-1) * (g^p)^-1, where g^p = w * t_g
                if e < -1:
                    push((g, e + 1))
                if tails is not None:
                    tails[g] -= 1
                extend((h, -f) for h, f in power[g])
                push((g, p - 1))
                continue
            if any(vec[g + 1:top]):
                # multiply by a single g, moving it left past the tail
                if e > 1:
                    push((g, e - 1))
                pending = []
                for t in range(g + 1, top):
                    ct = vec[t]
                    if ct:
                        vec[t] = 0
                        if tails is not None:
                            # [g_t, g] = w * t_(t,g), once per unit of g_t
                            tails[_tail_slot(n, t, g)] += ct
                        cw = comm.get((t, g))
                        if cw and cw[0][0] >= top:
                            pending.append((t, ct))
                            pending.extend((h, f * ct) for h, f in cw)
                        elif cw:
                            for _ in range(ct):
                                pending.append((t, 1))
                                pending.extend(cw)
                        else:
                            pending.append((t, ct))
                pending.reverse()
                extend(pending)
                v = vec[g] + 1
            else:
                # no rule fires before g^p wraps: take the run up to it at once
                v = vec[g] + e
                if v > p:
                    push((g, v - p))
            if v < p:
                vec[g] = v
                continue
            vec[g] = 0
            if tails is not None:
                tails[g] += 1
            if power[g]:
                extend(reversed(power[g]))

    def collect(self, word):
        """Normal form of a word, given as (generator, exponent) pairs."""
        vec = [0] * self.ngens
        self._collect_into(vec, word)
        return tuple(vec)

    def mult(self, x, y):
        vec = list(x)
        self._collect_into(vec, compress(enumerate(y), y))
        return tuple(vec)

    def solve(self, x, y):
        """Left division: the normal form z with x * z = y, by positive runs."""
        v = list(x)
        z = []
        for i, yi in enumerate(y):
            e = (yi - v[i]) % self.p
            if e:
                self._collect_into(v, ((i, e),))
            z.append(e)
        assert v == list(y), "left division failed"
        return tuple(z)

    def inv(self, x):
        return self.solve(x, self._identity)

    def pow(self, x, e):
        if e < 0:
            return self.pow(self.inv(x), -e)
        result = self._identity
        base = x
        while e:
            if e & 1:
                result = self.mult(result, base)
            base = self.mult(base, base)
            e >>= 1
        return result

    def commutator(self, x, y):
        """[x, y] = x^-1 y^-1 x y."""
        return self.solve(self.mult(y, x), self.mult(x, y))

    def conjugate(self, x, y):
        """x^y = y^-1 x y."""
        return self.solve(y, self.mult(x, y))

    # -- consistency ---------------------------------------------------

    def consistency_checks(self):
        """Yield (tag, lhs, rhs) for every overlap test, smallest block first."""
        yield from _overlaps(self.p, self.gens(), self.mult, self.collect)

    def is_consistent(self):
        """True when the presentation E defines a group of order p^N.

        Only the overlaps among g_1 ... g_c run, where g_c is the last
        generator with a commutator rule (c = 0 when there is none); c is
        `_central_start`, so it is also the 0-based index of g_(c+1).  No
        rule has one of g_(c+1) ... g_N on its left-hand side, so they form
        a central block B, and their power words lie in B, since a rule
        word only uses later generators.  The untailed collector leaves B
        in place (`_collect_into`).  The p-cover and p-quotient algorithms
        skip the same overlaps (Vaughan-Lee, "An aspect of the nilpotent
        quotient algorithm", 1984; Newman-O'Brien, J. Symb. Comput. 21,
        1996).

        Lemma: E is consistent iff its overlaps among g_1 ... g_c hold.
        If E is consistent, every element has one normal form, so every
        overlap holds.  Conversely:
        (a) Deleting the letters of B turns each rule of g_1 ... g_c into
            the rule of the quotient presentation Q on g_1 ... g_c and each
            rule of B into the empty word.  A letter of B is only ever
            moved past letters of B, and E's collector applies the rules
            that Q's collector applies, each with its tail in B.  So
            deletion commutes with collection, the overlaps of Q hold, and
            Q is consistent: |Q| = p^c.
        (b) B alone presents an abelian group A whose relation matrix is
            triangular with p on the diagonal, so |A| = p^(N-c).
        (c) As Q is consistent, the group E defines is an extension of Q
            by A/R, where R is the image in A of the relations the overlaps
            of Q impose on free tails (the rows of `tails_system`): the
            cocycle conditions.  By (a) the image of such a row is the
            quotient of the two sides of its overlap, collected in E.  So
            R = 0 iff the overlaps among g_1 ... g_c hold in E.
        Then |E| = p^c p^(N-c) = p^N, and the overlaps that involve a
        letter of B hold as well.
        (d) Call a pair j > i central when the word of [g_j, g_i] lies in
            B (an empty word counts).  An assoc test (k, j, i) whose pairs
            (k, j), (k, i) and (j, i) are all central holds, consistent or
            not, so `_overlaps` skips it.  The untailed collector never
            moves a letter of B and moves a head letter only past head
            letters, so the head part and the B part of a collection
            evolve apart.  On each side g_j passes g_k once and g_i passes
            g_k and g_j once each, so each of the three rules applies once
            and no other rule does; their words add only letters of B, and
            g_i, g_j, g_k end at exponent 1 < p, so no power rule of the
            head fires.  Both sides end as g_i g_j g_k times the sum in A
            of the three words (`mult` adds the right factor's B part as
            a normal form, the same element of A), and by (b) that sum
            does not depend on the order of the additions.
        (e) The power_self test g_i (g_i^p) = (g_i^p) g_i runs here, one
            collection each, in `_overlaps`'s order.  Collecting g_i^p
            from the identity applies the power rule of g_i once; its word
            w_i is a normal form, so its letters are then placed in turn
            with no further rule, and the result is w_i's vector.  Every
            letter of w_i lies right of g_i and no exponent reaches p, so
            g_i w_i applies no rule and is e_i + w_i.
            The right side is the one collection of g_i into w_i's vector,
            as before, so each verdict is unchanged; an empty w_i gives g_i
            on both sides and is not collected.
        """
        c = self._central_start
        for i in range(c):
            if self.power[i]:
                vec = [0] * self.ngens
                for g, e in self.power[i]:
                    vec[g] = e
                lhs = vec[:]
                lhs[i] = 1
                self._collect_into(vec, ((i, 1),))
                if vec != lhs:
                    return False
        gens = [self.gen(i) for i in range(c)]
        return all(lhs == rhs for _, lhs, rhs in
                   _overlaps(self.p, gens, self.mult, self.collect, self.comm))

    # -- misc ----------------------------------------------------------

    def __repr__(self):
        return f"PcPresentation(p={self.p}, ngens={self.ngens})"

    def element_str(self, x):
        """x as a word in the labels, such as a*c^2, or 1."""
        parts = []
        for g, e in enumerate(x):
            if e:
                parts.append(self.label(g) + (f"^{e}" if e != 1 else ""))
        return "*".join(parts) or "1"


def _overlaps(p, gens, mult, collect, comm=None):
    """Yield (tag, lhs, rhs) for every overlap test, smallest block first.

    `gens[i]` is the collected word g_i, `mult` multiplies two elements and
    `collect` turns a word into an element.  Both the consistency check
    and the tails relations of the covering group run this enumeration.
    The blocks run smallest first: power_self (n tests), power_left and
    power_right (n(n-1)/2 each), then assoc (n(n-1)(n-2)/6), since an
    inconsistent presentation almost always fails a power test.  The words
    g_j g_i (j > i), g_i^p and g_i^(p-1) are collected once, on first use,
    so a check that stops at a failing test pays for no later one.

    Given the commutator rules `comm`, the power_self block is left out,
    since `PcPresentation.is_consistent`, the one caller that passes `comm`,
    runs it with one collection per test (part (e) of its lemma), and the
    assoc block leaves out each test (k, j, i) whose rules [g_k, g_j],
    [g_k, g_i] and [g_j, g_i] have words in the generators from index n
    on: such a test holds in the untailed arithmetic (part (d)).
    `tails_system` walks those letters one unit at a time and needs the
    rows, and `consistency_checks` lists every test.
    """
    n = len(gens)
    memo = {}

    def word(*letters):
        if letters not in memo:
            memo[letters] = collect(letters)
        return memo[letters]

    for i in range(n if comm is None else 0):
        yield (("power_self", i), mult(gens[i], word((i, p))),
               mult(word((i, p)), gens[i]))
    for j in range(1, n):
        for i in range(j):
            yield (("power_left", j, i), mult(word((j, p)), gens[i]),
                   mult(word((j, p - 1)), word((j, 1), (i, 1))))
    for j in range(1, n):
        for i in range(j):
            yield (("power_right", j, i), mult(gens[j], word((i, p))),
                   mult(word((j, 1), (i, 1)), word((i, p - 1))))
    central = set()
    if comm is not None:
        for j in range(1, n):
            for i in range(j):
                w = comm.get((j, i))
                if not w or w[0][0] >= n:    # a rule word is a normal form
                    central.add((j, i))
    for k in range(2, n):
        for j in range(1, k):
            kj = (k, j) in central
            for i in range(j):
                if kj and (k, i) in central and (j, i) in central:
                    continue
                yield (("assoc", k, j, i), mult(word((k, 1), (j, 1)), gens[i]),
                       mult(gens[k], word((j, 1), (i, 1))))


# The covering presentation adjoins one central tail to every rule of a
# presentation with n generators: slot i to the power rule of g_i, and
# slot _tail_slot(n, j, i) to the commutator pair j > i, also where
# [g_j, g_i] = 1.


def _tail_slot(n, j, i):
    return n + j * (j - 1) // 2 + i


def _tail_count(n):
    return _tail_slot(n, n, 0)


def per_presentation(fn):
    """Compute `fn(P, ...)` once per presentation and arguments.

    The result is stored in a dict on P, never in a module-level cache,
    so it lives exactly as long as P.  Arguments are bound to `fn`'s
    signature with defaults filled in, so `fn(P)` and `fn(P, x=default)`
    share one entry; every argument after P needs a default, and a call
    that passes P alone uses the key of the defaults, bound once here.
    Keys hold the function's name rather than the function, so the dict
    pickles with P.
    """
    signature = inspect.signature(fn)
    name = f"{fn.__module__}.{fn.__qualname__}"

    def key_of(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return (name,) + bound.args[1:]
    default_key = key_of(None)

    @functools.wraps(fn)
    def memoized(P, *args, **kwargs):
        key = key_of(P, *args, **kwargs) if args or kwargs else default_key
        if key not in P._memo:
            P._memo[key] = fn(P, *args, **kwargs)
        return P._memo[key]
    return memoized


def trivial_group(p):
    return PcPresentation(p, 0)


# -- abelian invariants ----------------------------------------------


@dataclass(frozen=True, order=True)
class AbelianType:
    """Finite abelian p-group as a non-increasing list of prime powers."""

    divisors: tuple = field(default=())

    def __post_init__(self):
        if list(self.divisors) != sorted(self.divisors, reverse=True):
            raise ValueError("divisors must be non-increasing")
        if any(d < 2 for d in self.divisors):
            raise ValueError("divisors must be >= 2")

    @staticmethod
    def from_divisors(divisors):
        return AbelianType(tuple(sorted((d for d in divisors if d > 1), reverse=True)))

    @property
    def order(self):
        result = 1
        for d in self.divisors:
            result *= d
        return result

    @property
    def rank(self):
        return len(self.divisors)

    @property
    def exponent(self):
        return self.divisors[0] if self.divisors else 1

    def is_homocyclic(self):
        return len(set(self.divisors)) <= 1

    def __str__(self):
        if not self.divisors:
            return "1"
        return " x ".join(f"Z{d}" for d in self.divisors)


# -- subgroups -------------------------------------------------------


class Subgroup:
    """A subgroup given by an induced (echelonized) polycyclic sequence."""

    def __init__(self, amb, basis):
        self.amb = amb
        self.basis = tuple(basis)
        leads = [_leading(b) for b in self.basis]
        if leads != sorted(leads) or len(set(leads)) != len(leads):
            raise ValueError("basis is not in echelon form")

    @property
    def order(self):
        return self.amb.p ** len(self.basis)

    def _sift(self, x):
        """(c_1, ..., c_m) and the residue x, where step k sets x = b_k^-c_k x."""
        out = []
        for b in self.basis:
            c = x[_leading(b)]
            out.append(c)
            if c:
                x = self.amb.solve(self.amb.pow(b, c), x)
        return tuple(out), x

    def sift(self, x):
        """Reduce x against the basis; the residue is trivial iff x is a member."""
        return self._sift(x)[1]

    def contains(self, x):
        return self.sift(x) == self.amb.identity()

    def coords(self, x):
        """Exponents (c_1, ..., c_m) with x = b_1^c_1 * ... * b_m^c_m."""
        out, residue = self._sift(x)
        if residue != self.amb.identity():
            raise ValueError("element is not in the subgroup")
        return out

    def from_coords(self, coords):
        x = self.amb.identity()
        for b, c in zip(self.basis, coords):
            if c:
                x = self.amb.mult(x, self.amb.pow(b, c))
        return x

    def leading_indices(self):
        return [_leading(b) for b in self.basis]

    def issubset(self, other):
        return all(other.contains(b) for b in self.basis)

    def __eq__(self, other):
        """Equal as subgroups of one presentation, whatever their bases."""
        return (isinstance(other, Subgroup) and self.amb is other.amb
                and self.leading_indices() == other.leading_indices()
                and self.issubset(other))

    def __hash__(self):
        # the leading indices of a subgroup do not depend on its basis
        return hash((id(self.amb), tuple(self.leading_indices())))

    def __repr__(self):
        return f"Subgroup(order={self.amb.p}^{len(self.basis)})"


def _leading(x):
    for i, e in enumerate(x):
        if e:
            return i
    raise ValueError("identity has no leading index")


def subgroup_closure(P, gens, normal=False):
    """Subgroup (or normal closure) generated by `gens`, echelonized.

    The echelon basis has strictly increasing leading indices with leading
    coefficient 1; membership testing is by sifting.
    """
    p = P.p
    identity = P.identity()
    basis = {}  # leading index -> element

    def sift(x):
        while x != identity:
            lead = _leading(x)
            b = basis.get(lead)
            if b is None:
                return x
            x = P.solve(P.pow(b, x[lead]), x)
        return x

    queue = [tuple(g) for g in gens]
    amb_gens = P.gens() if normal else []
    while queue:
        x = sift(queue.pop())
        if x == identity:
            continue
        lead = _leading(x)
        c = x[lead]
        if c != 1:
            x = P.pow(x, pow(c, -1, p))
            assert x[lead] == 1
        basis[lead] = x
        queue.append(P.pow(x, p))
        for other in list(basis.values()):
            if other is not x:
                queue.append(P.commutator(x, other))
                queue.append(P.commutator(other, x))
        for g in amb_gens:
            queue.append(P.commutator(x, g))
    ordered = [basis[lead] for lead in sorted(basis)]
    return Subgroup(P, ordered)


def trivial_subgroup(P):
    return Subgroup(P, ())


def full_subgroup(P):
    return Subgroup(P, P.gens())


@per_presentation
def derived_subgroup(P):
    gens = []
    for j in range(1, P.ngens):
        for i in range(j):
            gens.append(P.commutator(P.gen(j), P.gen(i)))
    return subgroup_closure(P, gens, normal=True)


@per_presentation
def lower_central_series(P):
    """(G = gamma_1, gamma_2, ...) down to the trivial subgroup."""
    series = [full_subgroup(P)]
    current = derived_subgroup(P)
    series.append(current)
    while current.basis:
        gens = [P.commutator(b, g) for b in current.basis for g in P.gens()]
        nxt = subgroup_closure(P, gens, normal=True)
        if nxt.order == current.order:    # nxt <= current
            raise AssertionError("lower central series does not terminate")
        series.append(nxt)
        current = nxt
    return tuple(series)


@per_presentation
def frattini_subgroup(P):
    gens = [P.pow(g, P.p) for g in P.gens()]
    gens += list(derived_subgroup(P).basis)
    return subgroup_closure(P, gens, normal=True)


def _burnside_basis(P):
    """The pc generators outside Phi(G), those whose index is not a
    leading index of Phi(G): their images are a basis of G/Phi(G), so by
    the Burnside basis theorem they generate G."""
    phi = set(frattini_subgroup(P).leading_indices())
    return [P.gen(i) for i in range(P.ngens) if i not in phi]


def nilpotency_class(P):
    if P.ngens == 0:
        return 0
    return len(lower_central_series(P)) - 1


@per_presentation
def center(P):
    """The center Z(G), as the kernel of a linear map on each layer of
    the pc series (see `_central_part`).

    Each layer costs one echelon form over GF(p), plus d commutators for
    each basis element that the layer changes, where d is the number of
    Burnside generators; no subgroup is closed.
    """
    return _central_part(P, P.gens())


def _central_part(P, basis):
    """Z(G) & S, for S given by an induced pcgs `basis` (echelon form,
    leading exponents 1).

    With H_k = <g_k, ..., g_N>, the basis spans S_k = {x in S : [x, G] <=
    H_k}, starting at S_0 = S.  H_k/H_(k+1) is central in G/H_(k+1), so on
    S_k the map x -> ([x, g] mod H_(k+1))_g is a homomorphism into
    (H_k/H_(k+1))^d with kernel S_(k+1); it is one in g as well, so the
    Burnside generators g suffice.  The images are echelonized from the
    last basis element up.  When the image of b_j is that of w, a product
    of pivots from later elements, w^-1 b_j keeps b_j's leading index and
    exponent 1.  These m - rank kernel elements, one per leading index of
    S_(k+1), are an induced pcgs of it.  Each element keeps its
    commutators with the g until it changes.
    """
    p = P.p
    identity = P.identity()
    gens = _burnside_basis(P)
    current = [(b, [P.commutator(b, g) for g in gens]) for b in basis]
    for k in range(P.ngens):
        pivots = []     # (column, row, element whose image is row, 1/row[column])
        kept = []
        for b, comms in reversed(current):
            row = [c[k] for c in comms]
            w = identity
            for col, prow, x, inv in pivots:
                f = row[col] * inv % p
                if f:
                    row = [(r - f * s) % p for r, s in zip(row, prow)]
                    w = P.mult(w, P.pow(x, f))
            if w != identity:
                b = P.solve(w, b)
            col = next((i for i, r in enumerate(row) if r), None)
            if col is not None:
                pivots.append((col, row, b, pow(row[col], -1, p)))
            else:
                if w != identity:
                    comms = [P.commutator(b, g) for g in gens]
                kept.append((b, comms))
        current = kept[::-1]
    assert all(c == identity for _, comms in current for c in comms), \
        "center layer computation failed"
    return Subgroup(P, [b for b, _ in current])


def is_normal(P, N):
    return all(N.contains(P.commutator(b, g))
               for b in N.basis for g in P.gens())


# -- quotients -------------------------------------------------------


def quotient(P, N):
    """The quotient presentation P/N for a normal subgroup N."""
    if not is_normal(P, N):
        raise ValueError("subgroup is not normal")
    dead = set(N.leading_indices())
    keep = [i for i in range(P.ngens) if i not in dead]
    reindex = {old: new for new, old in enumerate(keep)}

    def rep_word(x):
        r = N.sift(x)
        return tuple((reindex[i], e) for i, e in enumerate(r) if e)

    power = []
    for i in keep:
        w = rep_word(P.pow(P.gen(i), P.p))
        power.append(w)
    comm = {}
    for bnew, bold in enumerate(keep):
        for anew, aold in enumerate(keep[:bnew]):
            w = rep_word(P.commutator(P.gen(bold), P.gen(aold)))
            if w:
                comm[(bnew, anew)] = w
    labels = {reindex[i]: P.labels[i] for i in keep if i in P.labels}
    return PcPresentation(P.p, len(keep), power, comm, labels)


# -- abelian sections ------------------------------------------------


class AbelianSection:
    """Coordinates in an abelian section N/M of G, via Smith normal form.

    Provides the invariant divisors, representatives generating the
    section, and exact coordinates of arbitrary elements of N.
    """

    def __init__(self, P, N, M=None):
        if M is None:
            M = trivial_subgroup(P)
        if not M.issubset(N):
            raise ValueError("M is not contained in N")
        for s, bs in enumerate(N.basis):
            for bt in N.basis[s + 1:]:
                if not M.contains(P.commutator(bs, bt)):
                    raise ValueError("section N/M is not abelian")
        self.P = P
        self.N = N
        self.M = M
        rows = []
        for i, b in enumerate(N.basis):
            row = {j: -c for j, c in enumerate(N.coords(P.pow(b, P.p))) if c}
            row[i] = row.get(i, 0) + P.p
            rows.append(row)
        for b in M.basis:
            rows.append({j: c for j, c in enumerate(N.coords(b)) if c})
        # |N/M| <= p^L, L = len(N.basis), so every invariant is p^v with
        # v <= L; e = 2L + 1 leaves e - v > L for `representatives`
        snf = smith_normal_form(rows, ncols=len(N.basis), p=P.p,
                                e=2 * len(N.basis) + 1)
        if snf.cokernel_free_rank():
            raise AssertionError("abelian section has unexpected free rank")
        self.V = snf.V
        self._modulus = snf.modulus
        self.torsion = [(idx, d) for idx, d in enumerate(snf.diagonal) if d > 1]
        self.divisors = tuple(d for _, d in self.torsion)
        # what `representatives` reads: U's torsion rows and the relations
        self._torsion_u = [snf.U[idx] for idx, _ in self.torsion]
        self._rows = rows
        assert self.type.order * M.order == N.order, "section order mismatch"

    @property
    def type(self):
        return AbelianType.from_divisors(self.divisors)

    def coords(self, x):
        """Coordinates of x*M in the invariant decomposition."""
        c = self.N.coords(x)
        return tuple(sum(c[i] * y for i, y in self.V[idx].items()) % d
                     for idx, d in self.torsion)

    def representatives(self):
        """One element of N per invariant generator of the section.

        The generator of index idx has the coordinates of row idx of
        V^-1.  U*A*V = D (mod p^e) gives U*A = D*V^-1 (mod p^e), and the
        free rank is 0, so every torsion index is below the rank, and
        (U_idx * A) / d_idx is that row mod p^(e-v), d_idx = p^v.  As
        e - v > L, that is mod a multiple of the order of every element
        of N, which has order p^L, so it gives the generator exactly.
        """
        m = len(self.N.basis)
        q = self._modulus
        reps = []
        for ua, (_, d) in zip(mat_mul(self._torsion_u, self._rows),
                              self.torsion):
            if any(x % q % d for x in ua.values()):
                raise AssertionError("U * A is not divisible by D")
            reps.append(self.N.from_coords([ua.get(j, 0) % q // d
                                            for j in range(m)]))
        return reps


def abelian_section(P, N, M=None):
    """N/M as an `AbelianSection`, built once and stored on P.

    The entry is keyed by the bases of N and M, not by subgroup equality:
    the representatives depend on N's basis, so a stored section is the
    one the caller's subgroups would build.
    """
    return _section_on_bases(P, N.basis, () if M is None else M.basis)


@per_presentation
def _section_on_bases(P, n_basis=(), m_basis=()):
    return AbelianSection(P, Subgroup(P, n_basis), Subgroup(P, m_basis))


def abelian_invariants(P, N, M=None):
    """Elementary divisors of the abelian section N/M."""
    return abelian_section(P, N, M).type


@per_presentation
def abelianization_type(P):
    """G/G' from the abelianised relation matrix of the presentation.

    Abelianising a pc presentation turns g_i^p = w into the row
    p*e_i - eps(w) and [g_j, g_i] = w into the row eps(w), where eps(w)
    is the exponent-sum vector of w; G/G' is the cokernel of these rows.
    No subgroup is closed and no element is collected.  The power rows
    alone are triangular with p on the diagonal, so G/G' has order
    dividing p^n, free rank 0 and invariants p^v with v <= n: the SNF
    runs mod p^(n+1).
    """
    rows = []
    for i, w in enumerate(P.power):
        row = {i: P.p}
        for g, e in w:
            row[g] = row.get(g, 0) - e
        rows.append(row)
    for w in P.comm.values():
        row = {}
        for g, e in w:
            row[g] = row.get(g, 0) + e
        rows.append(row)
    snf = smith_normal_form(rows, ncols=P.ngens, p=P.p, e=P.ngens + 1)
    if snf.cokernel_free_rank():
        raise AssertionError("abelianization has unexpected free rank")
    return AbelianType.from_divisors(snf.diagonal)


# -- structure stats -------------------------------------------------


@dataclass(frozen=True)
class StructureStats:
    n: int              # log_p |G|
    k: int              # log_p |G'|
    d: int              # minimal generator count
    nilpotency_class: int
    quotient_type: AbelianType   # type of G/G'


@per_presentation
def structure_stats(P):
    """n, k, d, the class and G/G' of P.

    G/G' is read off the relation matrix (`abelianization_type`) and
    cross-checked against |G'|.  d is its rank: by the Burnside basis
    theorem G/Phi(G) = (G/G')/(G/G')^p.
    """
    derived = derived_subgroup(P)
    qt = abelianization_type(P)
    k = len(derived.basis)
    if log_p(qt.order, P.p) + k != P.ngens:
        raise AssertionError(f"|G/G'| = {qt.order} and |G'| = p^{k} do not "
                             f"multiply to |G| = p^{P.ngens}")
    return StructureStats(
        n=P.ngens,
        k=k,
        d=qt.rank,
        nilpotency_class=nilpotency_class(P),
        quotient_type=qt,
    )


def direct_product(P1, P2):
    """Direct product of two presentations over the same prime."""
    if P1.p != P2.p:
        raise ValueError("prime mismatch in direct product")
    n1 = P1.ngens
    power = [tuple(w) for w in P1.power]
    power += [tuple((g + n1, e) for g, e in w) for w in P2.power]
    comm = dict(P1.comm)
    for (j, i), w in P2.comm.items():
        comm[(j + n1, i + n1)] = tuple((g + n1, e) for g, e in w)
    labels = dict(P1.labels)
    for i, lab in P2.labels.items():
        labels[i + n1] = lab + "'" if lab in P1.labels.values() else lab
    return PcPresentation(P1.p, n1 + P2.ngens, power, comm, labels,
                          check_consistent=False)
