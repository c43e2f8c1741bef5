"""Exact arithmetic for finite commutative rings with identity.

Three ring families are supported, each with an enumerable carrier and a
fixed bijection between element indices and canonical coordinates:

* ``ModularRing``      -- Z_n, elements are residues.
* ``ProductRing``      -- finite direct products of rings.
* ``PolyQuotientRing`` -- Z_m[x_1,..,x_k] cut down by per-variable monomial
  relators (x_i^e = 0) plus at most one monic univariate modulus polynomial.

Descriptors round-trip through a small textual grammar::

    ring  := zn | zn ("x" zn)+ | zn "[" vars "]" "/(" relators ")"
    zn    := "Z" integer

e.g. ``Z12``, ``Z4xZ9``, ``Z2[x,y]/(x^3,y^2)``, ``Z3[t]/(t^2+1)``.
Each family owns the spans (``span_bits``) and the ``maximal_generators``
its ideals rest on. This module imports nothing from the rest of the package.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import threading
from typing import Iterator, NamedTuple, Optional, Sequence, Union

CARRIER_CAP = 65536

# maps the digits of a binary numeral to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def set_bit_items(bits: int, items: Sequence) -> Iterator:
    """The ``items[j]`` with bit j of ``bits`` set, in order of j.

    This is the one bitset-to-positions walk: the bits are read off the
    binary numeral in one pass, not by shifting once per position.
    """
    return itertools.compress(items, f"{bits:b}"[::-1].encode().translate(_BIT_BYTES))


def _indices(bits: int) -> Iterator[int]:
    """The positions of the set bits, in increasing order."""
    return set_bit_items(bits, range(bits.bit_length()))


class RingError(Exception):
    """Base class for ring construction and parsing failures."""


class ZeroModulus(RingError):
    """Modulus below 2 cannot carry a ring with identity distinct from 0."""


class NonMonicModulus(RingError):
    """The univariate modulus polynomial must have leading coefficient 1."""


class CarrierTooLarge(RingError):
    """Carrier would exceed the supported cap of 65,536 elements."""


class ParseError(RingError):
    """Input does not match the descriptor or element-label grammar."""


def _parse_int(digits: str, error: type[RingError] = ParseError) -> int:
    """``int(digits)``, raising ``error`` past Python's integer-string limit."""
    try:
        return int(digits)
    except ValueError:
        raise error(f"{len(digits.lstrip('-'))}-digit number exceeds the supported size") from None


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

class ModularRing(NamedTuple):
    modulus: int


class ProductRing(NamedTuple):
    factors: tuple["RingDescriptor", ...]


class PolyQuotientRing(NamedTuple):
    coefficient_modulus: int
    variables: tuple[str, ...]
    # degree bound per variable: x_i^exponents[i] rewrites to 0, except for
    # modulus_var where it rewrites to the tail of the modulus polynomial
    exponents: tuple[int, ...]
    modulus_var: Optional[int] = None
    # ascending coefficients, length exponents[modulus_var] + 1, leading 1
    modulus_coeffs: Optional[tuple[int, ...]] = None


RingDescriptor = Union[ModularRing, ProductRing, PolyQuotientRing]


def _validate_descriptor(desc: RingDescriptor) -> int:
    """Check invariants and return the carrier size."""
    if isinstance(desc, ModularRing):
        if desc.modulus < 2:
            raise ZeroModulus(f"modulus must be >= 2, got {desc.modulus}")
        size = desc.modulus
    elif isinstance(desc, ProductRing):
        if len(desc.factors) < 2:
            raise ParseError("a product ring needs at least two factors")
        size = 1
        for f in desc.factors:
            size *= _validate_descriptor(f)
            if size > CARRIER_CAP:
                raise CarrierTooLarge(f"product carrier exceeds {CARRIER_CAP}")
    elif isinstance(desc, PolyQuotientRing):
        if desc.coefficient_modulus < 2:
            raise ZeroModulus(
                f"coefficient modulus must be >= 2, got {desc.coefficient_modulus}"
            )
        if not desc.variables or len(desc.variables) != len(desc.exponents):
            raise ParseError("each variable needs exactly one relator")
        if len(set(desc.variables)) != len(desc.variables):
            raise ParseError("duplicate variable names")
        if any(e < 1 for e in desc.exponents):
            raise ParseError("relator exponents must be >= 1")
        if (desc.modulus_var is None) != (desc.modulus_coeffs is None):
            raise ParseError("modulus variable and coefficients must come together")
        if desc.modulus_var not in (None, *range(len(desc.variables))):
            raise ParseError(f"modulus variable {desc.modulus_var!r} names no variable")
        if desc.modulus_coeffs is not None:
            d = desc.exponents[desc.modulus_var]
            if len(desc.modulus_coeffs) != d + 1:
                raise ParseError("modulus coefficient count does not match degree")
            if desc.modulus_coeffs[-1] % desc.coefficient_modulus != 1:
                raise NonMonicModulus("univariate modulus must be monic")
        slots = 1
        for e in desc.exponents:
            slots *= e
        size = 1
        for _ in range(slots):
            size *= desc.coefficient_modulus
            if size > CARRIER_CAP:
                raise CarrierTooLarge(f"quotient carrier exceeds {CARRIER_CAP}")
    else:
        raise ParseError(f"unknown descriptor {desc!r}")
    if size > CARRIER_CAP:
        raise CarrierTooLarge(f"carrier size {size} exceeds {CARRIER_CAP}")
    return size


# ---------------------------------------------------------------------------
# Descriptor grammar
# ---------------------------------------------------------------------------

_ZN_RE = re.compile(r"^z(\d+)$")
_VAR_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_POWER_RE = re.compile(r"^([a-z][a-z0-9_]*)\^(\d+)$")
_QUOTIENT_RE = re.compile(r"^(z\d+)\[([^\]]+)\]/\((.*)\)$")


def _split_top_level(s: str, sep: str = ",") -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_poly(text: str, variables: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    """Parse a polynomial like ``t^2+1`` or ``2*x^2*y+x+3`` into a term map."""
    s = text.replace(" ", "").lower()
    if not s:
        raise ParseError("empty polynomial")
    # split into signed terms: a '+' may open the polynomial or come before a
    # '-', and every other sign needs a term after it
    terms: dict[tuple[int, ...], int] = {}
    s = s.replace("+-", "-").removeprefix("+")
    raws = s.replace("-", "+-").split("+")
    for raw in raws[1:] if s.startswith("-") else raws:
        sign = 1
        if raw.startswith("-"):
            sign, raw = -1, raw[1:]
        if not raw:
            raise ParseError(f"dangling sign in {text!r}")
        coeff = 1
        exps = [0] * len(variables)
        for factor in raw.split("*"):
            if not factor:
                raise ParseError(f"empty factor in {text!r}")
            if factor.isdigit():
                coeff *= _parse_int(factor)
                continue
            m = _POWER_RE.match(factor)
            if m:
                name, e = m.group(1), _parse_int(m.group(2))
            elif _VAR_RE.match(factor):
                name, e = factor, 1
            else:
                raise ParseError(f"bad factor {factor!r} in {text!r}")
            if name not in variables:
                raise ParseError(f"unknown variable {name!r} in {text!r}")
            exps[variables.index(name)] += e
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + sign * coeff
    return terms


def parse_ring(text: str) -> RingDescriptor:
    """Parse a ring descriptor string (case-insensitive)."""
    s = text.replace(" ", "").lower()
    if not s:
        raise ParseError("empty ring descriptor")
    m = _QUOTIENT_RE.match(s)
    if m:
        zn, vars_part, rel_part = m.groups()
        base = _ZN_RE.match(zn)
        modulus = _parse_int(base.group(1), CarrierTooLarge)
        if modulus < 2:
            raise ZeroModulus(f"modulus must be >= 2 in {text!r}")
        variables = tuple(v for v in vars_part.split(","))
        for v in variables:
            if not _VAR_RE.match(v):
                raise ParseError(f"bad variable name {v!r} in {text!r}")
        relators = _split_top_level(rel_part)
        if len(relators) != len(variables):
            raise ParseError(
                f"expected {len(variables)} relators, got {len(relators)} in {text!r}"
            )
        exponents: dict[str, int] = {}
        modulus_var: Optional[int] = None
        modulus_coeffs: Optional[tuple[int, ...]] = None
        for rel in relators:
            pm = _POWER_RE.match(rel)
            if pm and pm.group(1) in variables:
                name, e = pm.group(1), _parse_int(pm.group(2), CarrierTooLarge)
                if name in exponents:
                    raise ParseError(f"two relators for {name!r}")
                exponents[name] = e
                continue
            # a non-monomial relator is the univariate modulus polynomial
            terms = parse_poly(rel, variables)
            used = {
                i for exp in terms for i, e in enumerate(exp) if e
            }
            if len(used) != 1:
                raise ParseError(f"modulus relator must be univariate: {rel!r}")
            if modulus_var is not None:
                raise ParseError("at most one univariate modulus is supported")
            vi = used.pop()
            name = variables[vi]
            if name in exponents:
                raise ParseError(f"two relators for {name!r}")
            degree = max(exp[vi] for exp in terms)
            if degree >= CARRIER_CAP.bit_length():  # m^degree >= 2^degree
                raise CarrierTooLarge(f"quotient carrier exceeds {CARRIER_CAP}")
            coeffs = [0] * (degree + 1)
            for exp, c in terms.items():
                coeffs[exp[vi]] = (coeffs[exp[vi]] + c) % modulus
            modulus_var = vi
            exponents[name] = degree
            modulus_coeffs = tuple(coeffs)
        missing = [v for v in variables if v not in exponents]
        if missing:
            raise ParseError(f"no relator for variable(s) {missing} in {text!r}")
        desc: RingDescriptor = PolyQuotientRing(
            coefficient_modulus=modulus,
            variables=variables,
            exponents=tuple(exponents[v] for v in variables),
            modulus_var=modulus_var,
            modulus_coeffs=modulus_coeffs,
        )
        _validate_descriptor(desc)
        return desc
    if "[" in s or "]" in s or "/" in s:
        raise ParseError(f"malformed quotient ring descriptor {text!r}")
    parts = s.split("x")
    descs = []
    for p in parts:
        zm = _ZN_RE.match(p)
        if not zm:
            raise ParseError(f"bad ring term {p!r} in {text!r}")
        descs.append(ModularRing(_parse_int(zm.group(1), CarrierTooLarge)))
    if len(descs) == 1:
        desc = descs[0]
    else:
        desc = ProductRing(tuple(descs))
    _validate_descriptor(desc)
    return desc


def _poly_term_str(variables: tuple[str, ...], exps: tuple[int, ...], coeff: int) -> str:
    factors = []
    if coeff != 1 or not any(exps):
        factors.append(str(coeff))
    for v, e in zip(variables, exps):
        if e == 1:
            factors.append(v)
        elif e > 1:
            factors.append(f"{v}^{e}")
    return "*".join(factors)


def poly_string(variables: tuple[str, ...], terms: dict[tuple[int, ...], int]) -> str:
    """Canonical polynomial string: terms by descending exponent tuple."""
    live = {e: c for e, c in terms.items() if c}
    if not live:
        return "0"
    keys = sorted(live, reverse=True)
    return "+".join(_poly_term_str(variables, k, live[k]) for k in keys)


def descriptor_string(desc: RingDescriptor) -> str:
    """Canonical textual form; parse_ring(descriptor_string(d)) == d."""
    if isinstance(desc, ModularRing):
        return f"Z{desc.modulus}"
    if isinstance(desc, ProductRing):
        return "x".join(descriptor_string(f) for f in desc.factors)
    rels = []
    for i, (v, e) in enumerate(zip(desc.variables, desc.exponents)):
        if desc.modulus_var == i:
            terms = {
                tuple(d if j == i else 0 for j in range(len(desc.variables))): c
                for d, c in enumerate(desc.modulus_coeffs)
            }
            rels.append(poly_string(desc.variables, terms))
        else:
            rels.append(f"{v}^{e}")
    return (
        f"Z{desc.coefficient_modulus}[{','.join(desc.variables)}]/({','.join(rels)})"
    )


def prime_factorization(n: int) -> dict[int, int]:
    """Prime -> exponent for n >= 1, primes in increasing order."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divide_monic(f: list[int], g: tuple[int, ...], p: int) -> Optional[list[int]]:
    """f / g over F_p for a monic g, or None when g does not divide f."""
    rest, quotient = list(f), []
    while len(rest) >= len(g):
        c = rest.pop()
        for k in range(1, len(g)):
            rest[-k] = (rest[-k] - c * g[-1 - k]) % p
        quotient.insert(0, c)
    return None if any(rest) else quotient


def monic_irreducible_factors(coeffs: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """The distinct monic irreducible factors of monic f over F_p; coefficients ascend.

    Trial division by the monic g of rising degree, each divided out while
    it goes, so g has no factor of lower degree and is irreducible; what is
    left once the degree passes half its own is 1 or irreducible.
    """
    f, factors = [c % p for c in coeffs], {}
    degree = 1
    while 2 * degree < len(f):
        for tail in itertools.product(range(p), repeat=degree):
            while (q := _divide_monic(f, (*tail, 1), p)) is not None:
                factors[(*tail, 1)] = None
                f = q
        degree += 1
    if len(f) > 1:
        factors[tuple(f)] = None
    return list(factors)


# ---------------------------------------------------------------------------
# Ring runtime
# ---------------------------------------------------------------------------

class Ring:
    """A finite commutative ring; elements are indices in [0, size).

    Arithmetic keeps no memo: ``mul`` is computed from each family's
    structure and ``pow`` from ``mul``. Quotient-ring ``add`` and ``neg``
    read two packed-digit tables, an immutable index <-> packed bijection
    built once, on first use. So arithmetic is safe to call from multiple
    threads. Units and nilpotents are read off the maximal ideals' bitsets,
    and the ring's lock guards the ideal intern table.
    """

    descriptor: RingDescriptor
    size: int
    one: int
    zero: int = 0
    # per family and cached: a generating tuple for each maximal ideal
    maximal_generators: tuple[tuple[int, ...], ...]

    def __init__(self, descriptor: RingDescriptor, size: int):
        self.descriptor = descriptor
        self.size = size
        self.full_bits = (1 << size) - 1
        self._stable_cases: Optional[tuple] = None  # claims._stable_cases
        self._lock = threading.Lock()
        # interned ideals by bits: one object per ideal, so they compare by identity
        self.ideal_intern: dict[int, object] = {}

    # family-specific primitives -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def coordinates(self, a: int):
        raise NotImplementedError

    def label(self, a: int) -> str:
        raise NotImplementedError

    def parse_label(self, text: str) -> int:
        raise NotImplementedError

    def span_bits(self, values: tuple[int, ...], base_bits: int) -> int:
        """Bits of the ideal J + <values>, where ``base_bits`` are the bits of J."""
        raise NotImplementedError

    # shared operations ----------------------------------------------------------

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def elements(self) -> range:
        return range(self.size)

    def pow(self, x: int, m: int) -> int:
        """x^m for m >= 1, by square-and-multiply over the bits of m."""
        if m < 1:
            raise ValueError("exponent must be >= 1")
        p = x
        for bit in f"{m:b}"[1:]:
            p = self.mul(p, p)
            if bit == "1":
                p = self.mul(p, x)
        return p

    @functools.cached_property
    def maximal_bits(self) -> tuple[int, ...]:
        """Each maximal ideal's bits, spanned once from ``maximal_generators``."""
        return tuple(self.span_bits(gens, 1) for gens in self.maximal_generators)

    def unit_bits(self) -> int:
        """The elements outside every maximal ideal."""
        return self.full_bits & ~functools.reduce(operator.or_, self.maximal_bits)

    def nilpotent_bits(self) -> int:
        """The radical: the elements of every maximal ideal (Atiyah-Macdonald, Ch. 8)."""
        return functools.reduce(operator.and_, self.maximal_bits)

    def is_unit(self, x: int) -> bool:
        return bool(self.unit_bits() >> x & 1)

    def check_element(self, x: int) -> int:
        """x itself, if it indexes an element of the carrier."""
        if not 0 <= x < self.size:
            raise ValueError(f"{x} is not an element index of {self!r}")
        return x

    def __repr__(self):
        return f"Ring({descriptor_string(self.descriptor)})"


class _ModularRingOps(Ring):
    def __init__(self, desc: ModularRing):
        super().__init__(desc, desc.modulus)
        self.n = desc.modulus
        self.one = 1 % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (self.n - a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def coordinates(self, a):
        return a

    def label(self, a):
        return str(a)

    def parse_label(self, text):
        s = text.strip()
        if not re.fullmatch(r"-?\d+", s):
            raise ParseError(f"bad element label {text!r} for Z{self.n}")
        return _parse_int(s) % self.n

    def span_bits(self, values, base_bits):
        # ideals of Z_n are dZ_n with d | n; J's least nonzero member generates J
        low = base_bits & ~1
        d = math.gcd(self.n, *values, (low & -low).bit_length() - 1 if low else 0)
        return ((1 << self.n) - 1) // ((1 << d) - 1)

    @functools.cached_property
    def maximal_generators(self) -> tuple[tuple[int, ...], ...]:
        """(p) for each prime p of n, in increasing order."""
        return tuple((p % self.n,) for p in prime_factorization(self.n))


class _ProductRingOps(Ring):
    def __init__(self, desc: ProductRing, factors: list[Ring]):
        size = 1
        for f in factors:
            size *= f.size
        super().__init__(desc, size)
        self.factor_rings = factors
        # mixed radix, first factor most significant
        weights = []
        w = size
        for f in factors:
            w //= f.size
            weights.append(w)
        self._weights = weights
        self.one = self.encode(tuple(f.one for f in factors))

    def encode(self, comps: tuple[int, ...]) -> int:
        return sum(c * w for c, w in zip(comps, self._weights))

    def decode(self, a: int) -> tuple[int, ...]:
        out = []
        for w in self._weights:
            out.append(a // w)
            a %= w
        return tuple(out)

    def add(self, a, b):
        ca, cb = self.decode(a), self.decode(b)
        return self.encode(tuple(f.add(x, y) for f, x, y in zip(self.factor_rings, ca, cb)))

    def neg(self, a):
        return self.encode(tuple(f.neg(x) for f, x in zip(self.factor_rings, self.decode(a))))

    def mul(self, a, b):
        ca, cb = self.decode(a), self.decode(b)
        return self.encode(tuple(f.mul(x, y) for f, x, y in zip(self.factor_rings, ca, cb)))

    def coordinates(self, a):
        return tuple(f.coordinates(c) for f, c in zip(self.factor_rings, self.decode(a)))

    def span_bits(self, values, base_bits):
        # an ideal of a finite product is the product of its projections; a
        # tuple's index is sum(c_i * w_i) over its components c_i and the
        # mixed-radix weights w_i, so each member c_i of factor i's span
        # shifts the tuples built so far by c_i * w_i
        coords = [self.decode(v) for v in values]
        base_coords = [self.decode(a) for a in _indices(base_bits)]
        bits = 1
        for i, (f, w) in enumerate(zip(self.factor_rings, self._weights)):
            cbase = 0
            for c in base_coords:
                cbase |= 1 << c[i]
            fbits = f.span_bits(tuple(c[i] for c in coords), cbase)
            layer = 0
            for c, digit in enumerate(f"{fbits:b}"[::-1]):
                if digit == "1":
                    layer |= bits << (c * w)
            bits = layer
        return bits

    @functools.cached_property
    def maximal_generators(self) -> tuple[tuple[int, ...], ...]:
        """Each factor's tuples in turn, lifted to 1 in the other components."""
        ones = [f.one for f in self.factor_rings]
        return tuple(
            tuple(self.encode((*ones[:i], g, *ones[i + 1 :])) for g in gens)
            for i, f in enumerate(self.factor_rings)
            for gens in f.maximal_generators
        )

    def label(self, a):
        comps = self.decode(a)
        return "(" + ",".join(f.label(c) for f, c in zip(self.factor_rings, comps)) + ")"

    def parse_label(self, text):
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ParseError(f"product element label must be parenthesized: {text!r}")
        parts = _split_top_level(s[1:-1])
        if len(parts) != len(self.factor_rings):
            raise ParseError(f"expected {len(self.factor_rings)} components in {text!r}")
        return self.encode(tuple(f.parse_label(p) for f, p in zip(self.factor_rings, parts)))


class _QuotientRingOps(Ring):
    """Z_m[x..]/(..): an element is its base-m digit vector over the monomials.

    ``add`` and ``neg`` work on a packed form: digit j sits in field j of
    F = w + 1 bits, w = (2m - 2).bit_length(), so the sum of two digits fits
    in the low w bits of its field and the top bit is free as a flag. ``H``
    holds that flag in every field and ``M`` holds m in every field. To fold
    a packed sum s, ``((s | H) - M) & H`` keeps the flag of exactly the
    fields whose sum is at least m; no borrow crosses a field, because each
    field of ``s | H`` is at least 2^w >= m. Shifted down and times m, that
    is the m to take off those fields.
    """

    def __init__(self, desc: PolyQuotientRing):
        size = _validate_descriptor(desc)
        super().__init__(desc, size)
        self.m = desc.coefficient_modulus
        self.variables = desc.variables
        self.bounds = desc.exponents
        # residue monomials in ascending lex order of exponent tuples
        self.monomials: list[tuple[int, ...]] = sorted(
            itertools.product(*(range(e) for e in desc.exponents))
        )
        self._rewrite: Optional[tuple[int, dict[int, int]]] = None
        if desc.modulus_var is not None:
            d = desc.exponents[desc.modulus_var]
            repl = {
                k: (-c) % self.m for k, c in enumerate(desc.modulus_coeffs[:-1]) if c % self.m
            }
            self._rewrite = (desc.modulus_var, repl)
        self.one = self.encode_digits((1,) + (0,) * (len(self.monomials) - 1))
        self._w = (2 * self.m - 2).bit_length()
        fields = range(0, len(self.monomials) * (self._w + 1), self._w + 1)
        self._H = sum(1 << (f + self._w) for f in fields)
        self._M = sum(self.m << f for f in fields)

        def product(mi, mj):
            digits = self._reduce({tuple(x + y for x, y in zip(mi, mj)): 1})
            return tuple((slot, c) for slot, c in enumerate(digits) if c)

        # structure constants: _products[i][j] lists the (slot, coefficient)
        # terms of the reduced product of monomials i and j (k <= 16 at the cap)
        self._products = [[product(mi, mj) for mj in self.monomials] for mi in self.monomials]

    def encode_digits(self, digits) -> int:
        a = 0
        for k in reversed(range(len(digits))):
            a = a * self.m + digits[k]
        return a

    def decode_digits(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in self.monomials:
            out.append(a % self.m)
            a //= self.m
        return tuple(out)

    @functools.cached_property
    def _packed(self) -> list[int]:
        """Index -> packed form, one digit per field, built on first use."""
        packed = [0]
        for j in range(len(self.monomials)):
            shift = j * (self._w + 1)
            packed = [p + (d << shift) for d in range(self.m) for p in packed]
        return packed

    @functools.cached_property
    def _index(self) -> dict[int, int]:
        """Packed form -> index, the inverse of ``_packed``."""
        return {p: a for a, p in enumerate(self._packed)}

    # add and neg fold inline, as the class docstring sets out: add is the
    # inner loop of every quotient-ring span, and a shared fold helper made
    # the stabilize-poly benchmark about 15% slower
    def add(self, a, b):
        s = self._packed[a] + self._packed[b]
        return self._index[s - ((((s | self._H) - self._M) & self._H) >> self._w) * self.m]

    def neg(self, a):
        s = self._M - self._packed[a]
        return self._index[s - ((((s | self._H) - self._M) & self._H) >> self._w) * self.m]

    def _reduce(self, terms: dict[tuple[int, ...], int]) -> tuple[int, ...]:
        """Digits of a polynomial modulo the relators, by long division.

        A term past a nilpotent bound vanishes. The top degree of the modulus
        variable is rewritten by the modulus tail, like terms merged, until
        every degree is below the bound: one step per degree.
        """
        vi, repl = self._rewrite or (None, {})
        poly = {
            exps: c % self.m
            for exps, c in terms.items()
            if all(e < b for i, (e, b) in enumerate(zip(exps, self.bounds)) if i != vi)
        }
        while vi is not None and poly and (top := max(e[vi] for e in poly)) >= self.bounds[vi]:
            low = top - self.bounds[vi]
            for exps in [e for e in poly if e[vi] == top]:
                coeff = poly.pop(exps)
                for deg, c in repl.items():
                    e2 = exps[:vi] + (low + deg,) + exps[vi + 1 :]
                    poly[e2] = (poly.get(e2, 0) + coeff * c) % self.m
        return tuple(poly.get(mono, 0) for mono in self.monomials)

    def mul(self, a, b):
        da, db = self.decode_digits(a), self.decode_digits(b)
        acc = [0] * len(da)
        for i, ca in enumerate(da):
            if not ca:
                continue
            row = self._products[i]
            for j, cb in enumerate(db):
                if cb:
                    c = ca * cb
                    for slot, coeff in row[j]:
                        acc[slot] += c * coeff
        return self.encode_digits([c % self.m for c in acc])

    def coordinates(self, a):
        return self.decode_digits(a)

    @functools.cached_property
    def _terms(self) -> list[list[str]]:
        """``_terms[k][c]``: the term c times the k-th monomial in descending order."""
        return [
            [_poly_term_str(self.variables, mono, c) for c in range(self.m)]
            for mono in reversed(self.monomials)
        ]

    def label(self, a):
        # poly_string's output, with each term string built once per ring
        digits = reversed(self.decode_digits(a))
        return "+".join([term[c] for term, c in zip(self._terms, digits) if c]) or "0"

    def parse_label(self, text):
        # _reduce rewrites the modulus variable t one degree per step, so a term
        # at or past t's bound takes t^e by squaring: O(log e) products, not e
        terms = parse_poly(text, self.variables)
        vi = self.descriptor.modulus_var
        high = [e for e in terms if vi is not None and e[vi] >= self.bounds[vi]]
        a = self.encode_digits(self._reduce({e: c for e, c in terms.items() if e not in high}))
        for exps in high:
            t = self._reduce({tuple(int(j == vi) for j in range(len(exps))): 1})
            rest = self._reduce({exps[:vi] + (0,) + exps[vi + 1 :]: terms[exps]})
            term = self.mul(self.encode_digits(rest), self.pow(self.encode_digits(t), exps[vi]))
            a = self.add(a, term)
        return a

    def span_bits(self, values, base_bits):
        # the monomials span R over Z_m, so Rv is the Z_m-span of the mono*v
        gens = {self.mul(self.m**k, v) for k in range(len(self.monomials)) for v in values}
        members = list(_indices(base_bits))
        bits = base_bits
        for g in gens:
            if bits >> g & 1:
                continue
            for a in members:  # grows while walked, so this closes under +g
                s = self.add(a, g)
                if not bits >> s & 1:
                    bits |= 1 << s
                    members.append(s)
        return bits

    @functools.cached_property
    def maximal_generators(self) -> tuple[tuple[int, ...], ...]:
        """The (p, g(t), x..) for each prime p of m and monic irreducible g | f mod p.

        In Z_m[t, x..]/(f(t), x^a..) the x.. are nilpotent and R/(p, x..) is
        F_p[t]/(f mod p), so these are the maximal ideals, by prime, then by
        factor; with no modulus they are the (p, x..).
        """
        desc = self.descriptor
        names, t = desc.variables, desc.modulus_var
        nil = [v for i, v in enumerate(names) if i != t]
        labels = []
        for p in prime_factorization(self.m):
            if t is None:
                labels.append([str(p), *nil])
                continue
            for g in monic_irreducible_factors(desc.modulus_coeffs, p):
                g_of_t = poly_string((names[t],), {(d,): c for d, c in enumerate(g)})
                labels.append([str(p), g_of_t, *nil])
        return tuple(tuple(map(self.parse_label, gens)) for gens in labels)


_RING_CACHE: dict[RingDescriptor, Ring] = {}
_RING_CACHE_LOCK = threading.RLock()


def build_ring(descriptor: Union[RingDescriptor, str]) -> Ring:
    """Build (or fetch the cached) ring for a descriptor or descriptor string."""
    if isinstance(descriptor, str):
        descriptor = parse_ring(descriptor)
    with _RING_CACHE_LOCK:
        ring = _RING_CACHE.get(descriptor)
        if ring is None:
            size = _validate_descriptor(descriptor)
            if isinstance(descriptor, ModularRing):
                ring = _ModularRingOps(descriptor)
            elif isinstance(descriptor, ProductRing):
                factors = [build_ring(f) for f in descriptor.factors]
                ring = _ProductRingOps(descriptor, factors)
            else:
                ring = _QuotientRingOps(descriptor)
            assert ring.size == size
            if ring.one == ring.zero:
                raise ZeroModulus("ring must have 1 distinct from 0")
            _RING_CACHE[descriptor] = ring
    return ring


def parse_elements(ring: Ring, text: str) -> tuple[int, ...]:
    """Parse a comma-separated element list; the literal ``0`` means none."""
    s = text.strip()
    if s == "0" or not s:
        return ()
    parts = _split_top_level(s)
    if not all(p.strip() for p in parts):
        raise ParseError(f"empty item in element list {text!r}")
    return tuple(ring.parse_label(p) for p in parts)
