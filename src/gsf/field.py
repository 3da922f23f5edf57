"""Exact coefficient fields: the rationals, prime fields, and small extensions.

Scalars are plain canonical values (a Fraction, an int residue in [0, p), or a
constant-first coefficient tuple for GF(p^k)) and the field object supplies the
arithmetic.  Keeping scalars raw keeps the matrix and multivector loops cheap;
membership is enforced where values enter the system, at parse time.
"""

import re
from fractions import Fraction

from .errors import InputError


# Miller-Rabin with every prime base up to 41 is exact below this bound
# (Sorenson and Webster, 2015).  Stopping at 37 would not be: it passes the
# composite 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(m):
    """Deterministic Miller-Rabin; raises InputError at or above the bound
    where the fixed bases are proven exact."""
    if m >= _MR_LIMIT:
        raise InputError("primality of %d is not decided below %d"
                         % (m, _MR_LIMIT))
    if m < 2:
        return False
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _decimal(text):
    """The integer written as an optional sign then ASCII digits; ValueError
    on anything else.  int() alone would also take surrounding whitespace,
    underscores between digits and non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError("not a decimal integer: %r" % (text,))
    return int(text, 10)


def _poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_rem(num, den, p):
    """Remainder of num modulo the monic polynomial den, constant term first."""
    num = [c % p for c in num]
    dd = len(den) - 1
    for d in range(len(num) - 1, dd - 1, -1):
        c = num[d]
        if c:
            base = d - dd
            for t, m in enumerate(den):
                num[base + t] = (num[base + t] - c * m) % p
    return num[:dd]


def _is_irreducible(coeffs, p):
    # degree <= 3 is irreducible iff it has no roots; degree 4 additionally
    # needs no monic quadratic divisor
    k = len(coeffs) - 1
    for x in range(p):
        if _poly_eval(coeffs, x, p) == 0:
            return False
    if k == 4:
        for b in range(p):
            for c in range(p):
                if not any(_poly_rem(coeffs, [c, b, 1], p)):
                    return False
    return True


class Field:
    """Shared behaviour; concrete fields implement the basic operations."""

    kind = None

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def sum(self, values):
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc

    def descriptor(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return "<field %s>" % self.descriptor()


class RationalField(Field):
    """The rationals, with arbitrary-precision Fraction values."""

    kind = "rationals"
    characteristic = 0

    def __init__(self, bound=9):
        if bound < 1:
            raise InputError("sampling bound must be a positive integer")
        self.bound = bound
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def from_int(self, m):
        return Fraction(m)

    def random(self, rng):
        """A uniform integer in [-bound, bound], as a Fraction."""
        return Fraction(rng.randint(-self.bound, self.bound))

    def parse(self, value):
        """An integer, or an integer over a positive integer, in decimal."""
        text = str(value)
        if _RATIONAL.fullmatch(text):
            try:
                return Fraction(text)
            except (ValueError, ZeroDivisionError):
                pass  # a zero denominator, or more digits than int() reads
        raise InputError("bad rational scalar %r" % (value,))

    def fmt(self, a):
        return str(a)

    def descriptor(self):
        return "q"

    def to_json(self):
        return {"kind": "rationals"}


class PrimeField(Field):
    """Integers modulo a prime, residues kept in [0, p)."""

    kind = "prime"

    def __init__(self, p):
        if not _is_prime(p):
            raise InputError("%s is not prime" % (p,))
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, m):
        return m % self.p

    def random(self, rng):
        return rng.randrange(self.p)

    def parse(self, value):
        try:
            return _decimal(str(value)) % self.p
        except ValueError as e:
            raise InputError("bad prime-field scalar %r" % (value,)) from e

    def fmt(self, a):
        return str(a)

    def descriptor(self):
        return "gf(%d)" % self.p

    def to_json(self):
        return {"kind": "prime", "p": self.p}


class ExtensionField(Field):
    """GF(p^k) as F_p[x] modulo a monic irreducible, coefficients constant-first.

    Supported sizes are deliberately small (k in 2..4, p <= 97) so that
    irreducibility can be checked by exhaustive search.
    """

    kind = "extension"

    def __init__(self, p, k, modulus):
        if not _is_prime(p) or p > 97:
            raise InputError("extension fields need a prime p <= 97")
        if not 2 <= k <= 4:
            raise InputError("extension degree must be 2, 3, or 4")
        coeffs = [int(c) % p for c in modulus]
        if len(coeffs) != k + 1:
            raise InputError("modulus needs k+1 coefficients, constant term first")
        if coeffs[-1] != 1:
            raise InputError("modulus must be monic")
        if not _is_irreducible(coeffs, p):
            raise InputError("modulus is reducible over gf(%d)" % p)
        self.p = p
        self.k = k
        self.modulus = tuple(coeffs)
        self.characteristic = p
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        p, k = self.p, self.k
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        mod = self.modulus
        for d in range(2 * k - 2, k - 1, -1):
            c = conv[d] % p
            if c:
                base = d - k
                for t in range(k):
                    conv[base + t] -= c * mod[t]
        return tuple(v % p for v in conv[:k])

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        e = self.p ** self.k - 2
        acc, base = self.one, a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def from_int(self, m):
        return (m % self.p,) + (0,) * (self.k - 1)

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def parse(self, value):
        """Accept a coefficient list (JSON form), a colon-joined text like
        "1:1", or a plain integer text meaning a constant."""
        if isinstance(value, (list, tuple)):
            parts = [str(c) for c in value]
        else:
            parts = str(value).split(":")
        try:
            coeffs = [_decimal(s) for s in parts]
        except ValueError as e:
            raise InputError("bad extension-field scalar %r" % (value,)) from e
        if len(coeffs) > self.k:
            raise InputError("scalar has more than k=%d coefficients" % self.k)
        coeffs += [0] * (self.k - len(coeffs))
        return tuple(c % self.p for c in coeffs)

    def fmt(self, a):
        return [str(c) for c in a]

    def descriptor(self):
        return "gf(%d,%d;%s)" % (self.p, self.k,
                                 ",".join(str(c) for c in self.modulus))

    def to_json(self):
        return {"kind": "extension", "p": self.p, "k": self.k,
                "modulus": [str(c) for c in self.modulus]}


def field_create(descriptor):
    """Parse a field descriptor: "q", "gf(p)", or "gf(p,k;c0,c1,...,ck)"."""
    if isinstance(descriptor, Field):
        return descriptor
    text = re.sub(r"\s+", "", str(descriptor)).lower()
    if text == "q":
        return RationalField()
    m = re.fullmatch(r"gf\((\d+)\)", text)
    if m:
        return PrimeField(int(m.group(1)))
    m = re.fullmatch(r"gf\((\d+),(\d+);(\d+(?:,\d+)*)\)", text)
    if m:
        return ExtensionField(int(m.group(1)), int(m.group(2)),
                              [int(c) for c in m.group(3).split(",")])
    raise InputError("unrecognized field descriptor %r" % (descriptor,))


def json_integer(value, what):
    """An integer given in JSON as a number or as decimal text (an optional
    sign, then digits); a float or a bool is refused, not truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return _decimal(value)
        except ValueError:
            pass
    raise InputError("%s must be an integer, got %r" % (what, value))


def field_from_json(obj):
    if isinstance(obj, str):
        return field_create(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("field record needs a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "rationals":
            return RationalField()
        if kind == "prime":
            return PrimeField(json_integer(obj["p"], "p"))
        if kind == "extension":
            modulus = obj["modulus"]
            if not isinstance(modulus, list):
                raise InputError("modulus must be a list of coefficients")
            return ExtensionField(
                json_integer(obj["p"], "p"), json_integer(obj["k"], "k"),
                [json_integer(c, "a modulus coefficient") for c in modulus])
    except KeyError as e:
        raise InputError("malformed field record") from e
    raise InputError("unknown field kind %r" % (kind,))
