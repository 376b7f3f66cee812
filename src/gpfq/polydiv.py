"""Division and Euclid in F_q[x], on polyring's code tuples and packed lanes.

Over a prime field a division keeps the remainder as one int of polyring's
packed lanes and adds (p - t) * b at each step, so its lanes never borrow and
must hold (p-1) + steps * (p-1)^2. _divmod_log runs _divmod's loop in the log
domain over a field with log tables (q <= 4096, see extfield), with no ff
call: each product is one exp lookup, added by XOR at p = 2 and through the
Zech table at odd p. Above the cap _divmod's loop calls ff.

_gcd is the one gcd, for the public gcd and factor alike: over GF(p) _euclid
on packed operands (one XOR per step at p = 2), over GF(p^k) a Euclid on code
tuples by _divmod, each division charged its steps to a _Work budget. _divmod
charges its own steps to the budget it is given, as _gcd does (none by
default).

polyring reaches this module through polyring._polydiv, on the first call of
a function that divides (Poly's divmod, //, % and gcd, and _packer's fold over
GF(p^k)), so a command that never divides does not compile it.
"""

from __future__ import annotations

from .errors import MAX_FACTOR_WORK, BudgetExceeded, DivisionByZero
from .polyring import _lane, _monic, _pack, _reducer, _trim, _unpack

_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


class _Work:
    """The work one factorization may still do, in steps weighted by the degree of their modulus."""

    __slots__ = ("left",)

    def __init__(self, budget):
        self.left = budget

    def charge(self, units):
        self.left -= units
        if self.left < 0:
            raise BudgetExceeded(f"factoring needs more than the work budget of {MAX_FACTOR_WORK} degree-weighted steps")


_UNMETERED = _Work(float("inf"))


def _divmod(spec, a, b, work=_UNMETERED):
    """(quotient, remainder) of code tuples, charged its steps at the degree of a to `work`."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), a
    work.charge((len(a) - db) * (len(a) - 1))
    if spec.k == 1:
        p = spec.p
        # every step adds at most (p-1)^2 to a lane that starts below p
        return _divmod_packed(p, spec.inv_c(b[-1]), a, b, *_lane((p - 1) + (len(a) - db) * (p - 1) ** 2))
    if spec.log is not None:
        return _divmod_log(spec, a, b)
    add = spec.add_c
    mul = spec.mul_c
    neg = spec.neg_c
    inv_lead = spec.inv_c(b[-1])
    rem = list(a)
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            t = mul(c, inv_lead)
            quot[i - db] = t
            nt = neg(t)
            for j in range(db + 1):
                if b[j]:
                    rem[i - db + j] = add(rem[i - db + j], mul(nt, b[j]))
    return _trim(quot), _trim(rem[:db])


def _divmod_log(spec, a, b):
    """_divmod over a log-tabled field: each step adds t * (-b) by exp lookups.

    log t = log c + log(1/lead) is reduced mod q-1 first, since a sum of
    three logs would run past the doubled exp table. The leading coefficient
    of each step is not written back: it cancels and is never read again.
    """
    log, exp = spec.log, spec.exp
    n = spec.q - 1
    db = len(b) - 1
    neg = spec.neg_c
    lnb = [(j, log[neg(c)]) for j, c in enumerate(b[:db]) if c]
    l_inv = n - log[b[-1]]
    rem = list(a)
    quot = [0] * (len(a) - db)
    zech = spec.zech
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            lt = (log[c] + l_inv) % n
            lo = i - db
            quot[lo] = exp[lt]
            if zech is None:
                for j, l in lnb:
                    rem[lo + j] ^= exp[lt + l]
            else:
                for j, l in lnb:
                    r = rem[lo + j]
                    if r:
                        lr = log[r]
                        rem[lo + j] = exp[lr + zech[lt + l - lr]]
                    else:
                        rem[lo + j] = exp[lt + l]
    return _trim(quot), _trim(rem[:db])


def _divmod_packed(p, inv_lead, a, b, bits, typecode):
    """_divmod over GF(p) with the remainder held as one packed int.

    Subtracting t*b is adding (p - t)*b, so lanes only grow and never borrow;
    a lane is reduced mod p only when it is read as the leading coefficient
    and, for the remainder, once at the end.
    """
    db = len(b) - 1
    rem = _pack(a, typecode)
    packed_b = _pack(b, typecode)
    mask = (1 << bits) - 1
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        t = (rem >> (i + db) * bits & mask) * inv_lead % p
        if t:
            quot[i] = t
            rem += (p - t) * packed_b << i * bits
    return tuple(quot), _trim(_unpack(rem, db, bits, typecode, p))


def _gcd(spec, a, b, work=_UNMETERED):
    """Monic gcd of code tuples, each division charged its steps to `work`: packed (_euclid) over
    GF(p), a tuple Euclid over GF(p^k). (0, 0) is the caller's error to raise."""
    if spec.k == 1:
        p = spec.p
        lane = _lane(max(len(a), len(b), 2) * (p - 1) ** 2)  # room for about max(len) steps between reductions
        return _euclid(p, lane, _pack(a, lane[1]), _pack(b, lane[1]), work)
    weight = max(len(a), len(b)) - 1
    while b:
        work.charge(max(len(a) - len(b) + 1, 0) * weight)
        a, b = b, _divmod(spec, a, b)[1]
    return _monic(spec, a)[1] if a else ()


def _euclid(p, lane, a, b, work):
    """Monic gcd of two packed polynomials whose lanes are below p, as a code tuple; a lane
    must hold p (p-1), the largest lane after one step on reduced operands.

    A division step adds (p - t) * b, shifted, to a, so lanes only grow and never
    borrow: the lead is read mod p, and an operand's lanes are all reduced only
    when the next step could overflow one. At p = 2 both operands move to one bit
    per coefficient, and a step is one XOR. Each division is charged its steps.
    """
    bits, typecode = lane
    weight = (max(a.bit_length(), b.bit_length()) - 1) // bits
    if p == 2:
        a, b = _bits(a, bits), _bits(b, bits)
        while b:
            la, lb = a.bit_length(), b.bit_length()
            if la >= lb:
                work.charge((la - lb + 1) * weight)
                while la >= lb:
                    a ^= b << la - lb
                    la = a.bit_length()
            a, b = b, a
        return tuple(bin(a)[:1:-1].encode().translate(_FROM_DIGITS)) if a else ()
    mask = (1 << bits) - 1
    reduce = _reducer(p, bits, typecode, 0)
    da, db = (a.bit_length() - 1) // bits, (b.bit_length() - 1) // bits
    ba = bb = p - 1  # bounds on the lanes of a and b
    while db >= 0:
        inv = pow((b >> db * bits) % p, p - 2, p)
        if da >= db:
            work.charge((da - db + 1) * weight)
        while da >= db:
            t = (a >> da * bits & mask) * inv % p
            if t:
                m = p - t
                if ba + m * bb > mask:
                    a, ba = reduce(a), p - 1
                    if ba + m * bb > mask:
                        b, bb = reduce(b), p - 1
                a += m * b << (da - db) * bits
                ba += m * bb
            da -= 1
        a &= (1 << db * bits) - 1  # the remainder, without the cancelled lanes
        if a and (a >> (a.bit_length() - 1) // bits * bits) % p == 0:
            a, ba = reduce(a), p - 1  # its top lane is 0 mod p, so reduce before reading the degree
        da = (a.bit_length() - 1) // bits
        a, b, da, db, ba, bb = b, a, db, da, bb, ba
    if da < 0:
        return ()
    cs = _unpack(a, da + 1, bits, typecode, p)
    inv = pow(cs[-1], p - 2, p)
    return tuple(c * inv % p for c in cs)


def _bits(n, bits):
    """The 1-bit form of a packed GF(2) polynomial whose lanes are 0 or 1: bit i is the coefficient of x^i."""
    step = bits // 8
    raw = n.to_bytes(-(-n.bit_length() // bits) * step, "little")[::step]
    return int(raw[::-1].translate(_TO_DIGITS), 2) if raw else 0
