"""Real-valued special functions.

Provides the Gamma function (the standard library's math.gamma, behind
named refusals), the Pochhammer (rising factorial) symbol, the Gauss
hypergeometric function 2F1 on [-1, 1], the Gauss summation value at x = 1,
and the Euler beta integral. 2F1 takes one route per argument: for
negative x whichever of the two Pfaff transformations onto (0, 1/2] and
the direct series cancels least, the Gauss sum at x = 1, the 1 - x
connection formula near 1, and otherwise the direct series, stopped on a
bound of its tail and refused where its terms cancel past the tolerance.
Everything is scalar, pure, deterministic and standard-library only.
"""

from __future__ import annotations

import functools
import math
import sys

__all__ = [
    "ConvergenceError",
    "gamma",
    "pochhammer",
    "hyp2f1",
    "hyp2f1_dx",
    "gauss_value",
    "beta_integral",
]


class ConvergenceError(ArithmeticError):
    """A series failed to reach the requested tolerance under the term cap."""


# Term cap of the direct series. Where (1 - x) max(|a|, |b|, 1) > 1/2 its tail
# bound stops it after about 65 max(|a|, |b|, 1) terms (10,974 for HypMonomial
# at n = 169, the largest n with finite Gamma values); only an integer c - a - b
# near x = 1 reaches the cap.
_TERM_CAP = 100000
# Where (1 - x) max(|a|, |b|, 1) is at most this and c - a - b is not an integer,
# the two series in 1 - x of the connection formula converge fast.
_CONNECTION_SPAN = 0.5
_EPS = 2.0 ** -52  # machine epsilon of a double


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """math.gamma(x) where |Gamma(x)| is a normal double; elsewhere a named refusal:
    ValueError at a pole or a non-finite x, OverflowError past the double range."""
    x = float(x)
    if not math.isfinite(x):  # math.gamma(inf) is inf
        raise ValueError(f"gamma needs a finite x, got x={x!r}")
    if _is_nonpositive_integer(x):
        raise ValueError(f"gamma pole at nonpositive integer x={x!r}")
    try:
        value = math.gamma(x)
    except OverflowError:  # x > 171.62, or 0 < |x| < 1/DBL_MAX where Gamma(x) ~ 1/x
        bound = "x <= 171" if x > 1.0 else "|x| >= 5.6e-309"
        raise OverflowError(f"Gamma(x) overflows at x={x!r}; "
                            f"this evaluation holds for {bound}") from None
    if abs(value) < sys.float_info.min:  # subnormal from x ~ -170.6 on, 0.0 by x = -180.5
        raise OverflowError(f"|Gamma(x)| underflows at x={x!r} to {value!r}")
    return value


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1."""
    if k < 0 or k != int(k):
        raise ValueError(f"pochhammer order must be a nonnegative integer, got {k!r}")
    result = 1.0
    value = float(a)
    for _ in range(int(k)):
        result *= value
        value += 1.0
    return result


def _series_sum(a: float, b: float, c: float, x: float, tol: float):
    """(sum, largest |term|) of the 2F1 series, stopped on a bound of its tail.

    Term k+1 is term k times u v x, u = (hi+k)/(c+k), v = (lo+k)/(k+1) with
    lo <= hi the pair a, b. Once lo+k and c+k are positive, u and v move
    monotonically toward 1, so rho = |x| max(u, 1) max(v, 1) bounds every
    later ratio and |t| rho/(1-rho) the tail after term t. A terminating
    series stops at its first zero term.
    """
    lo, hi = min(a, b), max(a, b)
    total = 1.0
    term = 1.0
    peak = 1.0
    for k in range(_TERM_CAP):
        u = (hi + k) / (c + k)
        v = (lo + k) / (k + 1.0)
        term *= u * v * x
        total += term
        size = abs(term)
        if size > peak:
            peak = size
        if term == 0.0:
            return total, peak
        if min(lo, c) + k > 0.0:
            rho = abs(x) * max(u, 1.0) * max(v, 1.0)
            if rho < 1.0 and size * rho <= tol * abs(total) * (1.0 - rho):
                return total, peak
    s = c - a - b
    raise ConvergenceError(
        f"2F1({a}, {b}; {c}; {x}) did not converge within {_TERM_CAP} terms"
        + (f"; its 1-x connection formula has the logarithmic case c-a-b={s!r} (an integer)"
           if s == math.floor(s) and x > 0.0 else "")
    )


def _refuse_cancellation(a: float, b: float, c: float, x: float, value: float, peak: float,
                         tol: float) -> float:
    """value, unless it left the double range or peak, the largest term summed into it,
    cancels past tol.

    Each term carries a rounding error of about eps times itself, so a value
    whose largest term exceeds tol |value| / eps cannot meet tol.
    """
    if not math.isfinite(value):  # a term, or the sum, overflowed
        raise OverflowError(f"2F1({a}, {b}; {c}; {x}) leaves the double range: "
                            f"it was summed to {value!r}")
    if peak * _EPS > tol * abs(value):
        raise ConvergenceError(
            f"2F1({a}, {b}; {c}; {x}) cancels: its largest term {peak:.3g} is "
            f"{peak / abs(value) if value else math.inf:.3g} times its value, so rounding "
            f"exceeds tol={tol!r}")
    return value


def _negative_x(a: float, b: float, c: float, x: float, tol: float) -> float:
    """2F1 for x in [-1, 0), where the direct series alternates.

    Of the Pfaff forms (1-x)^(-a) 2F1(a, c-b; c; y) and (1-x)^(-b) 2F1(b, c-a; c; y)
    with y = x/(x-1) in (0, 1/2], and the direct series (which never meets its
    tail bound at x = -1), returns the one whose largest term is smallest
    against its sum: the one that cancels least. The first whose sum is at
    least its largest term does not cancel at all and ends the search.
    """
    y = x / (x - 1.0)
    forms = [((1.0 - x) ** -a, (a, c - b, c, y)), ((1.0 - x) ** -b, (b, c - a, c, y))]
    if x > -1.0:
        forms.append((1.0, (a, b, c, x)))
    best, best_ratio = None, math.inf
    for scale, args in forms:
        try:
            total, peak = _series_sum(*args, tol)
        except ConvergenceError:
            continue
        ratio = peak / abs(total) if total else math.inf
        if best is None or ratio < best_ratio:
            best, best_ratio = scale * total, ratio
        if best_ratio <= 1.0:
            break
    return best


def _rgamma(x: float) -> float:
    """1/Gamma(x), zero at the poles."""
    return 0.0 if _is_nonpositive_integer(x) else 1.0 / gamma(x)


# Steps of the recurrence _gamma_frexp takes beyond the range of gamma. Each
# rounds once; over 1,500 arguments out to |x| = 400 the result stayed within
# 2.0e-15 of mpmath.
_GAMMA_STEPS = 512


def _gamma_frexp(x: float) -> tuple:
    """(m, e) with Gamma(x) = m 2^e, also where Gamma(x) is not a normal double:
    Gamma(x) = (x-1) Gamma(x-1) down to x <= 171, or Gamma(x) = Gamma(x+1) / x up
    to x >= -170, then gamma, at most _GAMMA_STEPS steps (else gamma's refusal)."""
    if not -170.0 - _GAMMA_STEPS <= x <= 171.0 + _GAMMA_STEPS:
        return math.frexp(gamma(x))
    m, e = 1.0, 0
    while x > 171.0:
        x -= 1.0
        m, k = math.frexp(m * x)
        e += k
    while x < -170.0:
        m, k = math.frexp(m / x)
        e += k
        x += 1.0
    g, k = math.frexp(gamma(x))
    return m * g, e + k


def _gamma_ratio(scale: float, nums: tuple, dens: tuple) -> float:
    """scale prod Gamma(nums) / prod Gamma(dens), zero at a pole of a Gamma in dens.

    Formed from _gamma_frexp parts, so a ratio in the double range is a double
    even where a Gamma in it is not; a ratio past the range is refused by name.
    """
    if any(map(_is_nonpositive_integer, dens)):
        return 0.0
    m, e = scale, 0
    for x in nums:
        mx, ex = _gamma_frexp(x)
        m, e = m * mx, e + ex
    for x in dens:
        mx, ex = _gamma_frexp(x)
        m, e = m / mx, e - ex
    try:
        return math.ldexp(m, e)
    except OverflowError:
        gammas = [" ".join(f"Gamma({x!r})" for x in xs) for xs in (nums, dens)]
        raise OverflowError(f"the ratio {scale!r} {gammas[0]} / ({gammas[1]}) "
                            "overflows") from None


def _refuse_rounded_pole(a: float, b: float, c: float, x: float) -> None:
    """Refuse (ConvergenceError) where c - a or c - b rounds onto a pole of Gamma, a
    non-positive integer, that it is not: the subtraction left a rounding error (the
    error term of its TwoSum is not 0), so 1/Gamma of the true difference is not 0 but
    of the order of that error times a factorial, and no weight that reads it is known."""
    for name, p in (("c-a", a), ("c-b", b)):
        d = c - p
        if _is_nonpositive_integer(d):
            back = d - c  # TwoSum of c and -p: d + error is c - p exactly
            if (c - (d - back)) + (-p - back) != 0.0:
                raise ConvergenceError(
                    f"2F1({a}, {b}; {c}; {x}): {name} = {c!r} - {p!r} rounds onto the pole "
                    f"{d!r} of Gamma without being one, so 1/Gamma({name}) is unknown")


def _connection_1mx(a: float, b: float, c: float, x: float, tol: float) -> float:
    """2F1(a, b; c; x) from two series in 1 - x (A&S 15.3.6); c - a - b not an integer.
    Refused where c - a or c - b rounds onto a pole (_refuse_rounded_pole), where the two
    weighted series cancel past tol, either one alone or each other, and where the value
    leaves the double range."""
    _refuse_rounded_pole(a, b, c, x)
    s = c - a - b
    y = 1.0 - x
    # each weight as (scale, num, dens): scale Gamma(num) / (Gamma(dens[0]) Gamma(dens[1]))
    parts = ((1.0, s, (c - a, c - b)), (y ** s, -s, (a, b)))
    try:  # each Gamma a normal double
        g = gamma(c)
        w = [scale * gamma(num) * _rgamma(dens[0]) * _rgamma(dens[1])
             for scale, num, dens in parts]
    except OverflowError:  # one is not: each weight as one ratio, Gamma(c) in it
        g = 1.0
        w = [_gamma_ratio(scale, (c, num), dens) for scale, num, dens in parts]
    else:  # a weight of 0 or inf with no pole in dens: a product of its factors left the
        # double range, the weight need not have; that weight as one ratio, 0 at a pole
        w = [_gamma_ratio(scale, (num,), dens) if wi == 0.0 or not math.isfinite(wi) else wi
             for wi, (scale, num, dens) in zip(w, parts)]
    sum1, peak1 = _series_sum(a, b, 1.0 - s, y, tol)
    sum2, peak2 = _series_sum(c - a, c - b, 1.0 + s, y, tol)
    return _refuse_cancellation(a, b, c, x, g * (w[0] * sum1 + w[1] * sum2),
                                abs(g) * (abs(w[0]) * peak1 + abs(w[1]) * peak2), tol)


@functools.lru_cache(maxsize=200000)
def _hyp2f1_cached(a: float, b: float, c: float, x: float, tol: float) -> float:
    for name, value in zip("abcx", (a, b, c, x)):
        if not math.isfinite(value):
            raise ValueError(f"2F1 needs finite arguments, got {name}={value!r}")
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"2F1 needs a finite tol > 0, got tol={tol!r}")
    if _is_nonpositive_integer(c):
        raise ValueError(f"2F1 undefined: c={c!r} is zero or a negative integer")
    if abs(x) > 1.0:
        raise ValueError(f"2F1 argument out of range: |x|={abs(x)!r} > 1")
    if a == 0.0 or b == 0.0:
        return 1.0
    if x < 0.0:
        return _negative_x(a, b, c, x, tol)
    s = c - a - b
    if x == 1.0:
        if s <= 0.0:
            raise ValueError(
                f"2F1 diverges at x=1 when c-a-b={s!r} <= 0"
            )
        _refuse_rounded_pole(a, b, c, x)
        if _is_nonpositive_integer(c - a) or _is_nonpositive_integer(c - b):
            return 0.0  # 1/Gamma(c-a) or 1/Gamma(c-b) vanishes in Gauss's sum
        return gauss_value(a, b, c)
    if (1.0 - x) * max(abs(a), abs(b), 1.0) <= _CONNECTION_SPAN and s != math.floor(s):
        try:
            return _connection_1mx(a, b, c, x, tol)
        except ConvergenceError as cancelled:  # its weights cancel, c - a - b near an integer
            try:  # the direct series does not depend on c - a - b
                return _refuse_cancellation(a, b, c, x, *_series_sum(a, b, c, x, tol), tol)
            except ArithmeticError:
                raise cancelled from None
    return _refuse_cancellation(a, b, c, x, *_series_sum(a, b, c, x, tol), tol)


def hyp2f1(a: float, b: float, c: float, x: float, tol: float = 1e-14) -> float:
    """Gauss hypergeometric 2F1(a, b; c; x) for real parameters, x in [-1, 1].

    The route is chosen from (a, b, c, x) before anything is summed. For x < 0
    the Pfaff transformations (1 - x)^(-a) 2F1(a, c - b; c; x/(x - 1)) and
    (1 - x)^(-b) 2F1(b, c - a; c; x/(x - 1)) move the argument into (0, 1/2];
    of these two and the direct series, the one whose largest term is
    smallest against its sum is returned. At x = 1 the Gauss sum is returned
    (finite only for c - a - b > 0). Where (1 - x) max(|a|, |b|, 1) <= 1/2
    and c - a - b is not an integer, the 1 - x connection formula
    (Abramowitz & Stegun 15.3.6) is used; where its weights cancel (c - a - b
    near an integer) the direct series is tried before its refusal is raised.
    Everywhere else the direct series is summed until a bound of its tail
    falls below tol times the sum. On
    x >= 0 ConvergenceError refuses a value whose largest summed term times
    the machine epsilon exceeds tol times the value (a sum that cancels, such
    as a long terminating one), and, naming the logarithmic case, a series
    with an integer c - a - b near x = 1 that exceeds the term cap, and, on the
    connection and Gauss-sum routes, a c - a or c - b that rounds onto a pole of Gamma
    without being one (1/Gamma of it is then unknown, not 0); OverflowError
    refuses a value that leaves the double range there. The x < 0
    route is unchecked: 1.2e-13 worst relative error at tol 1e-14 over 3,000
    random arguments (a, b in [-5, 5], c in [0.1, 5]). A non-finite a, b, c
    or x, or a tol that is not finite and positive, raises ValueError naming it.
    """
    return _hyp2f1_cached(float(a), float(b), float(c), float(x), float(tol))


def hyp2f1_dx(a: float, b: float, c: float, x: float, tol: float = 1e-14) -> float:
    """Derivative d/dx 2F1(a, b; c; x) = (a b / c) 2F1(a+1, b+1; c+1; x)."""
    return a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, x, tol)


def gauss_value(a: float, b: float, c: float) -> float:
    """Value of 2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)).

    Requires c - a - b > 0 (and no Gamma poles among c, c-a, c-b).
    """
    s = c - a - b
    if s <= 0.0:
        raise ValueError(f"Gauss summation needs c-a-b > 0, got {s!r}")
    for name, arg in (("c", c), ("c-a", c - a), ("c-b", c - b)):
        if _is_nonpositive_integer(arg):
            raise ValueError(f"Gauss summation pole: {name}={arg!r}")
    return gamma(c) * gamma(s) / (gamma(c - a) * gamma(c - b))


def beta_integral(s: float, t: float) -> float:
    """Beta integral B(s, t) = Gamma(s+1) Gamma(t+1) / Gamma(s+t+2).

    Equals the integral of (1-r)^s r^t over r in [0, 1]; needs s, t > -1.
    """
    if s <= -1.0 or t <= -1.0:
        raise ValueError(f"beta integral needs s, t > -1, got s={s!r}, t={t!r}")
    return gamma(s + 1.0) * gamma(t + 1.0) / gamma(s + t + 2.0)
