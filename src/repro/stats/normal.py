"""The standard normal CDF and quantile, ported from Cephes.

``ndtr`` and ``ndtri`` follow S. L. Moshier's Cephes routines (*Methods
and Programs for Mathematical Functions*, 1989) operation for operation:
the same coefficient tables evaluated in the same Horner order
(``polevl`` / ``p1evl``), the same branch points, and the same libm
``exp`` / ``log`` / ``sqrt`` calls.  SciPy's ``scipy.special.ndtr`` /
``ndtri`` wrap these same routines, so the two agree bit for bit
(``tests/stats/test_normal_kernels.py`` holds them to it).

The exponential on ``erfc``'s branch is ``math.exp`` on purpose.
``np.exp`` is a different implementation that differs from libm in the
last bit on some inputs, and a last-bit change in a confidence moves a
sampled measurement table.  NumPy carries only the IEEE-exact arithmetic
(``+ - * /``, ``abs``), which rounds the same in C and in NumPy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri"]

_SQRT1_2 = 7.07106781186547524401e-1
#: log(2**1024): below ``-MAXLOG`` the exponential underflows.
_MAXLOG = 7.09782712893383996843e2

# erfc(x) = exp(-x^2) P(x) / Q(x) on 1 <= x < 8.
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (  # leading 1.0 implied
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# erfc(x) = exp(-x^2) R(x) / S(x) on x >= 8.
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (  # leading 1.0 implied
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
# erf(x) = x T(x^2) / U(x^2) on |x| <= 1.
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (  # leading 1.0 implied
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)

#: sqrt(2 pi)
_S2PI = 2.50662827463100050242e0
#: exp(-2): the central approximation covers |y - 0.5| <= 0.5 - exp(-2).
_EXPM2 = 0.13533528323661269189

# Central interval: x = y + y^3 P0(y^2) / Q0(y^2), times sqrt(2 pi).
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (  # leading 1.0 implied
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# Tails with z = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32).
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (  # leading 1.0 implied
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# Tails with z in [8, 64): y between exp(-32) and exp(-2048).
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (  # leading 1.0 implied
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x, coef):
    """Cephes ``polevl``: Horner's rule from the leading coefficient."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """Cephes ``p1evl``: ``polevl`` with an implied leading 1.0."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf_core(x):
    """Cephes ``erf`` on ``|x| <= 1``: ``x T(x^2) / U(x^2)``.

    Cephes reflects a negative argument (``erf(x) = -erf(-x)``); rounding
    to nearest is odd-symmetric, so evaluating on ``x`` directly gives
    the same bits.
    """
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc_tail(w):
    """Cephes ``erfc`` on ``w >= 1``, where it needs no reflection."""
    out = np.zeros_like(w)
    e = -w * w
    live = ~(e < -_MAXLOG)  # below -MAXLOG Cephes returns 0 (underflow)
    w, e = w[live], e[live]
    exp = np.fromiter(map(math.exp, e.tolist()), dtype=float, count=e.size)
    near = w < 8.0
    far = ~near
    y = np.empty_like(w)
    y[near] = (exp[near] * _polevl(w[near], _P)) / _p1evl(w[near], _Q)
    y[far] = (exp[far] * _polevl(w[far], _R)) / _p1evl(w[far], _S)
    out[live] = y
    return out


def ndtr(a):
    """Standard normal CDF, elementwise (Cephes ``ndtr``).

    Args:
        a: Scalar or array of float arguments.

    Returns:
        ``Phi(a)`` in ``a``'s shape (a NumPy float for a scalar; NaN
        where ``a`` is NaN), bit for bit what ``scipy.special.ndtr``
        returns.
    """
    a = np.asarray(a, dtype=float)
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.full_like(x, np.nan)
    inner = z < _SQRT1_2
    y[inner] = 0.5 + 0.5 * _erf_core(x[inner])
    # erfc(z) = 1 - erf(z) below 1, exp(-z^2) P / Q from 1 on.
    mid = (z >= _SQRT1_2) & (z < 1.0)
    y[mid] = 0.5 * (1.0 - _erf_core(z[mid]))
    tail = z >= 1.0
    y[tail] = 0.5 * _erfc_tail(z[tail])
    upper = ~inner & (x > 0)
    y[upper] = 1.0 - y[upper]
    return y[()]


def ndtri(y0: float) -> float:
    """Standard normal quantile of one probability (Cephes ``ndtri``).

    Args:
        y0: A probability in ``[0, 1]``.

    Returns:
        ``Phi^{-1}(y0)``: ``-inf`` at 0, ``inf`` at 1, and NaN outside
        ``[0, 1]`` or at NaN, bit for bit what ``scipy.special.ndtri``
        returns.
    """
    y0 = float(y0)
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 <= y0 <= 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXPM2:
        y = 1.0 - y
        negate = False
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x
