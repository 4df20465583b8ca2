"""Independent output checker for the sejoin benchmark.

Uses only integer arithmetic from the standard library (``math`` and
``fractions``); it never calls sejoin's polynomial or root code, so a bug in
the kernel cannot hide itself by also breaking the check.

Every check raises ``CheckError`` on failure.  Irregular roots are checked by
a sign change of the defining integer polynomial between the printed decimal
bounds, a width of at most one unit in the last digit, and a lower bound on
the root.  Descartes' rule of signs makes each bracketed root unique: the SE
cubic has coefficient signs (+, ?, -, -) and the ray quadratic (+, ?, -), so
each has exactly one positive root.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

FIXED_NOTES = ["pi1 = 0", "pi2 = Z^2"]
QUOTIENT_KEYS = ("v3", "s", "m3", "n", "b", "c", "m_vector", "r3", "ke1", "ke2",
                 "log_fano", "F_coeffs")


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def need(cond, msg, *args):
    if not cond:
        raise CheckError(msg % args if args else msg)


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def quasi_regular_pairs(p_max: int):
    """Coprime (p, q), 1 <= q < p <= p_max, with 4p^2 - 3q^2 a perfect square."""
    return [(p, q) for p in range(2, p_max + 1) for q in range(1, p)
            if gcd(p, q) == 1 and is_square(4 * p * p - 3 * q * q)]


def coprime_pairs(bound: int):
    """Weight pairs (w1, w2), bound >= w1 > w2 >= 1, coprime, sorted."""
    return [(w1, w2) for w1 in range(2, bound + 1) for w2 in range(1, w1)
            if gcd(w1, w2) == 1]


def _int(text) -> int:
    need(isinstance(text, str), "expected an integer string, got %r", text)
    return int(text)


def _rat(text) -> Fraction:
    need(isinstance(text, str) and text.count("/") == 1,
         "expected a num/den string, got %r", text)
    num, den = (int(part) for part in text.split("/"))
    need(den > 0 and gcd(num, den) == 1, "rational %r is not in lowest terms", text)
    return Fraction(num, den)


def _decimal(text, digits: int) -> int:
    """Positive decimal string with exactly ``digits`` fractional digits, as
    the integer value * 10**digits."""
    need(isinstance(text, str), "expected a decimal string, got %r", text)
    whole, dot, frac = text.partition(".")
    need(dot == "." and whole.isdigit() and frac.isdigit() and len(frac) == digits,
         "bad %d-digit decimal %r", digits, text)
    return int(whole) * 10 ** digits + int(frac)


def _eval_scaled(coeffs, x: int, scale: int) -> int:
    """scale**deg * P(x / scale) for integer coefficients (constant first)."""
    deg = len(coeffs) - 1
    return sum(c * x ** i * scale ** (deg - i) for i, c in enumerate(coeffs))


def check_bracket(coeffs, interval, digits: int, lower_bound: int, what: str) -> None:
    """The printed interval [lo, hi] brackets a sign change of the integer
    polynomial, lies above ``lower_bound`` and is one or two units of
    10**-digits wide.

    Two units occur by design: ``decimal_bounds`` rounds the ends of a
    refined interval narrower than 10**-(digits+1) down and up, and when that
    interval straddles a multiple of 10**-digits the rounded ends are two
    units apart."""
    need(isinstance(interval, list) and len(interval) == 2, "%s: bad interval %r",
         what, interval)
    scale = 10 ** digits
    lo, hi = (_decimal(t, digits) for t in interval)
    need(lo > lower_bound * scale, "%s: lower bound %s is not above %d", what,
         interval[0], lower_bound)
    need(0 < hi - lo <= 2, "%s: width of %r exceeds two units in the last digit",
         what, interval)
    f_lo, f_hi = _eval_scaled(coeffs, lo, scale), _eval_scaled(coeffs, hi, scale)
    need((f_lo < 0 < f_hi) or (f_hi < 0 < f_lo), "%s: no sign change on %r", what,
         interval)


def se_cubic(w1: int, w2: int):
    """3*w2*k^3 + (2*w2 - w1)*k^2 - (2*w1 - w2)*k - 3*w1, constant first."""
    return (-3 * w1, -(2 * w1 - w2), 2 * w2 - w1, 3 * w2)


def ratio_cubic(w1: int, w2: int):
    """The SE cubic in r = k*w2/w1, cleared of denominators."""
    return (-3 * w1 * w2 ** 3, -(2 * w1 - w2) * w1 * w2 ** 2,
            (2 * w2 - w1) * w1 ** 2 * w2, 3 * w2 * w1 ** 3)


def ray_quadratic(p: int, q: int):
    """2*beta*t^2 + (alpha - beta)*t - 2*alpha, constant first."""
    l = gcd(p + q, p - q)
    alpha, beta = (p + q) // l, (p - q) // l
    return (-2 * alpha, alpha - beta, 2 * beta)


def check_first_factor(p: int, q: int, v0: int, vinf: int) -> None:
    need(p > q >= 1 and gcd(p, q) == 1, "bad first factor (%d, %d)", p, q)
    need(is_square(4 * p * p - 3 * q * q), "(%d, %d) is not quasi-regular", p, q)
    need(v0 > vinf >= 1 and gcd(v0, vinf) == 1, "bad ray (%d, %d)", v0, vinf)
    c0, c1, c2 = ray_quadratic(p, q)
    need(c2 * v0 * v0 + c1 * v0 * vinf + c0 * vinf * vinf == 0,
         "ray (%d, %d) does not solve the quadratic of (%d, %d)", v0, vinf, p, q)


def first_factor(p: int, q: int):
    """(v2_0, v2_inf, m2, a, I) of a quasi-regular (p, q): the positive root
    of the ray quadratic, then the quotient's ramification, twist and Fano
    index."""
    c0, c1, c2 = ray_quadratic(p, q)
    root = isqrt(c1 * c1 - 4 * c2 * c0)
    need(root * root == c1 * c1 - 4 * c2 * c0, "(%d, %d) is not quasi-regular", p, q)
    t = Fraction(root - c1, 2 * c2)
    v0, vinf = t.numerator, t.denominator
    l = gcd(p + q, p - q)
    m2 = p // gcd(p, abs((p + q) // l * vinf - (p - q) // l * v0))
    a = ((p + q) * m2 * vinf - (p - q) * m2 * v0) // p
    return v0, vinf, m2, a, gcd((2 * m2 * v0 + a) * vinf, v0 + vinf)


def weights_from_k(k: Fraction):
    """Coprime (w1, w2) whose SE cubic has the rational root k > 1."""
    a, b = k.numerator, k.denominator
    ratio = Fraction((3 * b * b + 2 * a * b + a * a) * b, a * (b * b + 2 * a * b + 3 * a * a))
    return ratio.denominator, ratio.numerator


def canonical_gluing(w1: int, w2: int, index: int):
    g = gcd(w1 + w2, index)
    return index // g, (w1 + w2) // g


def check_record(d: dict, p: int, q: int, digits: int, w=None, k=None) -> None:
    """Check one ``record_to_dict`` output for first factor (p, q); ``w`` or
    ``k``, when given, is the weight choice the record must reflect."""
    need(d.get("schema") == "sejoin-record/1", "bad schema %r", d.get("schema"))
    need((_int(d["p"]), _int(d["q"])) == (p, q), "record is for the wrong (p, q)")
    v0, vinf = (_int(x) for x in d["v2"])
    check_first_factor(p, q, v0, vinf)
    m2, a, index = _int(d["m2"]), _int(d["a"]), _int(d["I"])
    need((v0, vinf, m2, a, index) == first_factor(p, q), "first-factor data is wrong")
    w1, w2 = (_int(x) for x in d["w"])
    need(w1 > w2 >= 1 and gcd(w1, w2) == 1, "bad weights (%d, %d)", w1, w2)
    if w is not None:
        need((w1, w2) == tuple(w), "weights (%d, %d) != requested %r", w1, w2, w)
    if k is not None:
        need((w1, w2) == weights_from_k(k), "weights (%d, %d) do not realise k=%s",
             w1, w2, k)
    l1, l2 = _int(d["l1"]), _int(d["l2"])
    need((l1, l2) == canonical_gluing(w1, w2, index), "gluing pair is not canonical")
    need(d["notes"][:2] == FIXED_NOTES, "fixed notes missing")

    if gcd(l1, l2 * m2) != 1:
        # rejected by design: an error record with no derived data
        need(isinstance(d["error"], str) and d["error"], "expected an error record")
        for key in ("regular", "k", "k_interval", "smooth", "torsion") + QUOTIENT_KEYS:
            need(d[key] is None, "error record carries %s", key)
        return
    need(d["error"] is None, "unexpected error %r", d["error"])

    witnesses = [[str(i), str(j), str(gcd(l2 * m2 * v, l1 * wj))]
                 for i, v in enumerate((v0, vinf))
                 for j, wj in enumerate((w1, w2), start=1)
                 if gcd(l2 * m2 * v, l1 * wj) != 1]
    smooth = not witnesses
    need(d["smooth"] is smooth, "smooth flag is wrong")
    need(d["smooth_witnesses"] == (witnesses or None), "smoothness witnesses are wrong")
    torsion = [str(v0 * vinf * m2 * m2 * l2 * l2), str(w1 * w2 * l1 * l1)]
    need(d["torsion"] == (torsion if smooth else None), "torsion is wrong")

    if d["regular"] is False:
        need(k is None, "rational k=%s gave an irregular record", k)
        need(d["k"] is None, "irregular record carries a rational k")
        check_bracket(se_cubic(w1, w2), d["k_interval"], digits, 1, "k")
        check_bracket(ratio_cubic(w1, w2), d["ratio_interval"], digits, 0, "ratio")
        for key in QUOTIENT_KEYS:
            need(d[key] is None, "irregular record carries %s", key)
        return

    need(d["regular"] is True, "regular flag is %r", d["regular"])
    need(d["k_interval"] is None and "ratio_interval" not in d,
         "quasi-regular record carries intervals")
    kr = _rat(d["k"])
    if k is not None:
        need(kr == k, "k=%s != requested %s", kr, k)
    need(kr > 1, "k=%s is not above 1", kr)
    num, den = kr.numerator, kr.denominator
    need(_eval_scaled(se_cubic(w1, w2), num, den) == 0, "k=%s does not solve the cubic", kr)
    v3_0, v3_inf = (_int(x) for x in d["v3"])
    need(v3_0 >= 1 and v3_inf >= 1 and gcd(v3_0, v3_inf) == 1, "bad v3")
    need(v3_inf * den * w1 == v3_0 * num * w2, "v3 is not the ray of k")
    cc, dd = v3_0 - v3_inf, v3_0 + v3_inf
    aa, bb = w1 * v3_inf + w2 * v3_0, w1 * v3_inf - w2 * v3_0
    need(3 * cc * aa * aa + cc * bb * bb - 2 * aa * bb * dd == 0,
         "v3=(%d, %d) fails the ray identity 3CA^2 + CB^2 - 2ABD = 0", v3_0, v3_inf)

    diff = bb
    need(diff > 0, "ray oriented against the join")
    s = gcd(diff, l2)
    m3 = l2 // s
    n = diff // s * l1
    need((2 * m2 * v0 + a) * vinf % index == 0 and (v0 + vinf) % index == 0,
         "Fano index does not divide the anticanonical class")
    b_hat, c_hat = (2 * m2 * v0 + a) * vinf // index, (v0 + vinf) // index
    expected = {"s": str(s), "m3": str(m3), "n": str(n), "b": str(n * b_hat),
                "c": str(n * c_hat),
                "m_vector": [str(x) for x in (1, 1, m2 * v0, m2 * vinf, m3 * v3_0, m3 * v3_inf)]}
    for key, value in expected.items():
        need(d[key] == value, "%s=%r, expected %r", key, d[key], value)

    r3 = _rat(d["r3"])
    need(r3 == Fraction(diff, aa), "r3 is wrong")
    m3_0, m3_inf = m3 * v3_0, m3 * v3_inf
    ke1 = 2 * r3 * index / n == (1 + r3) / m3_inf + (1 - r3) / m3_0
    pp = Fraction(1, m3_inf) - Fraction(1, m3_0)
    qq = Fraction(1, m3_inf) + Fraction(1, m3_0)
    ke2 = 3 * pp + pp * r3 * r3 == 2 * r3 * qq
    need((d["ke1"], d["ke2"]) == (ke1, ke2), "KE flags are wrong")
    need(isinstance(d["log_fano"], bool), "log_fano is not a boolean")
    if not (ke1 and ke2):
        need(d["F_coeffs"] is None, "profile present without KE")
        return
    f = [_rat(x) for x in d["F_coeffs"]]
    need(len(f) == 5, "profile is not a padded quartic")
    need(sum(f) == 0 and sum(c * (-1) ** i for i, c in enumerate(f)) == 0,
         "profile does not vanish at the endpoints")
    # F' = (1 + r3 z)^2 * (pp - qq z)
    slope = [pp, 2 * r3 * pp - qq, r3 * r3 * pp - 2 * r3 * qq, -r3 * r3 * qq]
    need([i * c for i, c in enumerate(f)][1:] == slope, "profile derivative is wrong")


def census_line(p: int, q: int, ratio) -> bytes:
    """Canonical census output for one pair: ``ratio`` is ("r", num, den) or
    ("i", lo, hi)."""
    return ("%d %d %s %s %s\n" % ((p, q) + tuple(ratio))).encode()


def check_census(p: int, q: int, ratio, digits: int) -> None:
    """Check one ``ray_ratio`` result in census form (see ``census_line``)."""
    need(p > q >= 1 and gcd(p, q) == 1, "bad census pair (%d, %d)", p, q)
    quad = ray_quadratic(p, q)
    rational = is_square(4 * p * p - 3 * q * q)
    kind = ratio[0]
    need(kind == ("r" if rational else "i"), "(%d, %d): ratio kind %r is wrong", p, q, kind)
    if rational:
        num, den = ratio[1], ratio[2]
        need(num > den >= 1 and gcd(num, den) == 1, "(%d, %d): bad ratio", p, q)
        need(_eval_scaled(quad, num, den) == 0, "(%d, %d): ratio misses the quadratic", p, q)
    else:
        check_bracket(quad, list(ratio[1:]), digits, 1, "(%d, %d) ratio" % (p, q))


def check_ypq_list(p_max: int, rows) -> None:
    """Check ``enumerate_ypq(p_max)`` given as (p, q, v2_0, v2_inf) rows."""
    need([tuple(r[:2]) for r in rows] == quasi_regular_pairs(p_max),
         "enumerate_ypq(%d) lists the wrong pairs", p_max)
    for p, q, v0, vinf in rows:
        check_first_factor(p, q, v0, vinf)


def _flip_digit(text: str, pos: int) -> str:
    digit = text[pos]
    return text[:pos] + str((int(digit) + 1) % 10) + text[pos + 1:]


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckError:
        return True
    return False


def corruption_self_test(irregular: dict, regular: dict, p: int, q: int,
                         census, digits: int) -> list:
    """Corrupt known-good outputs and confirm the checker rejects each one.

    ``irregular`` and ``regular`` are records for first factor (p, q);
    ``census`` is (p, q, ("i", lo, hi)) for an irrational census pair.
    Returns the names of corruptions that slipped through (empty on
    success).  Raises ``CheckError`` if an uncorrupted output fails.
    """
    check_record(irregular, p, q, digits)
    check_record(regular, p, q, digits)
    check_census(*census, digits)
    cases = []
    for key in ("k_interval", "ratio_interval"):
        for side in (0, 1):
            for pos in (-1, -digits // 2, -digits):
                bad = dict(irregular)
                bounds = list(bad[key])
                bounds[side] = _flip_digit(bounds[side], pos)
                bad[key] = bounds
                cases.append(("%s[%d] digit %d" % (key, side, pos), bad))
    for i in (0, 1):
        bad = dict(regular)
        v3 = list(bad["v3"])
        v3[i] = str(int(v3[i]) + 1)
        bad["v3"] = v3
        cases.append(("v3[%d] + 1" % i, bad))
    missed = [name for name, bad in cases if not _rejects(check_record, bad, p, q, digits)]
    cp, cq, (kind, lo, hi) = census
    for name, bad in (("census lo digit", (kind, _flip_digit(lo, -1), hi)),
                      ("census hi digit", (kind, lo, _flip_digit(hi, -digits)))):
        if not _rejects(check_census, cp, cq, bad, digits):
            missed.append(name)
    return missed
