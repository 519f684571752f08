"""Reference division by x = q - 1 in Z[q], for the tests only.

`exact_p1` divides a color sum by the Gauss sum with one exact division
by K.  These helpers keep the older route, which strips the guaranteed
power x^((K-1)/2) one synthetic division at a time and multiplies by
the unit u = x^((K-1)/2) / gauss_sum(1), so the tests can check the
exact route and the moment identities against an independent method.
"""

from so3inv.arith import as_prime
from so3inv.cyclotomic import CycInt, _raw, divide_exact, gauss_sum, qpow
from so3inv.errors import IntegralityFailure


def divide_by_x(a: CycInt) -> CycInt:
    """a / (q - 1), exactly; IntegralityFailure unless q - 1 divides a.

    q - 1 divides a exactly when K divides a(1), the coefficient sum.
    Then a - t * Phi_K with t = a(1)/K is the same element and vanishes
    at q = 1, so synthetic division by q - 1 is exact over Z, in O(K).
    """
    K = a.K
    t, r = divmod(sum(a.coeffs), K)
    if r:
        raise IntegralityFailure(
            f"q - 1 does not divide: coefficient sum is {r} mod {K}")
    d = [0] * (K - 1)
    d[K - 2] = -t  # the q^(K-1) coefficient of a - t * Phi_K
    for i in range(K - 2, 0, -1):
        d[i - 1] = a.coeffs[i] - t + d[i]
    return _raw(tuple(d), K)


_UNITS: dict = {}


def unit_u(K: int) -> CycInt:
    """The unit u with u * gauss_sum(1) = x^((K-1)/2), built once per K.

    Since gauss_sum(1) * gauss_sum(1).galois(-1) = K, the quotient is
    x^((K-1)/2) * gauss_sum(-1) / K, and the division must be exact.
    """
    K = as_prime(K)
    if K not in _UNITS:
        g1 = gauss_sum(1, K)
        xd = (qpow(1, K) - 1) ** ((K - 1) // 2)
        u = divide_exact(xd * gauss_sum(-1, K), K)
        if u * g1 != xd:
            raise IntegralityFailure("unit normalization check failed")
        _UNITS[K] = u
    return _UNITS[K]
