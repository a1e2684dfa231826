"""Standard normal CDF and quantile, bit for bit as ``scipy.special``.

``ndtr`` and ``ndtri`` port the Cephes routines of the same names (S. L.
Moshier, *Methods and Programs for Mathematical Functions*, 1989) that
``scipy.special`` evaluates: the same coefficient tables, the same branch
points and the same order of operations, vectorised by masking.  Each
``exp`` and ``log`` is taken element by element through ``math``, which
calls the platform C library as the compiled routines do; numpy's own
vectorised ``exp``/``log`` may differ from it in the last bit.
"""
from __future__ import annotations

import math

import numpy as np

_SQRT1_2 = 7.07106781186547524401E-1
_MAXLOG = 7.09782712893383996843E2
_EXP_M2 = 0.13533528323661269189   # exp(-2)
_S2PI = 2.50662827463100050242E0   # sqrt(2 pi)

# erf(x) = x T(x^2) / U(x^2) for |x| <= 1.
_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
      2.23200534594684319226E3, 7.00332514112805075473E3,
      5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4,
      4.92673942608635921086E4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R(x) / S(x) from 8 on.
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
      7.46321056442269912687E0, 4.86371970985681366614E1,
      1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3,
      5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
      3.54937778887819891062E2, 9.75708501743205489753E2,
      1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
      5.01905042251180477414E0, 6.16021097993053585195E0,
      7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
      1.20489539808096656605E1, 1.70814450747565897222E1,
      9.60896809063285878198E0, 3.36907645100081516050E0)
# ndtri: central rational approximation for |y - 1/2| <= 1/2 - exp(-2) ...
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# ... and tail corrections in 1/x for x = sqrt(-2 log y) in [2, 8) ...
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# ... and from 8 on.
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x, coef):
    """Horner sum of ``coef`` (highest power first) at ``x``."""
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """``_polevl`` with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _elementwise(fn, x):
    return np.array([fn(v) for v in x.tolist()], dtype=np.float64)


def _erf(x):
    """Cephes ``erf`` for |x| < 1, the only range ``ndtr`` reaches.

    ``x T(x^2) / U(x^2)`` is odd in every rounding, so the routine's
    ``-erf(-x)`` for negative ``x`` needs no branch.
    """
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(a):
    """Cephes ``erfc`` for ``a >= 0`` or NaN, the range ``ndtr`` reaches."""
    y = np.zeros_like(a)
    near = a < 1.0
    y[near] = 1.0 - _erf(a[near])
    far = ~near
    x = a[far]
    with np.errstate(over="ignore"):    # -inf lands in the underflow branch
        z = -x * x
    live = ~(z < -_MAXLOG)              # the rest underflows to 0
    x, z = x[live], z[live]
    z = _elementwise(math.exp, z)
    mid = x < 8.0
    p = np.empty_like(x)
    q = np.empty_like(x)
    p[mid] = _polevl(x[mid], _P)
    q[mid] = _p1evl(x[mid], _Q)
    p[~mid] = _polevl(x[~mid], _R)
    q[~mid] = _p1evl(x[~mid], _S)
    out = y[far]
    out[live] = (z * p) / q
    y[far] = out
    return y


def ndtr(a):
    """Standard normal CDF, equal bit for bit to ``scipy.special.ndtr``."""
    a = np.asarray(a, dtype=np.float64)
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.empty_like(x)
    near = z < _SQRT1_2
    y[near] = 0.5 + 0.5 * _erf(x[near])
    far = ~near
    tail = 0.5 * _erfc(z[far])
    y[far] = np.where(x[far] > 0, 1.0 - tail, tail)
    y[np.isnan(a)] = np.nan
    return y[()]


def ndtri(y0):
    """Standard normal quantile, equal bit for bit to ``scipy.special.ndtri``.

    Returns -inf at 0, inf at 1 and NaN outside [0, 1].
    """
    y0 = np.asarray(y0, dtype=np.float64)
    # A NaN runs through the routine up to its final negation.
    x = np.negative(y0, out=np.empty_like(y0))
    x[(y0 < 0.0) | (y0 > 1.0)] = np.nan
    x[y0 == 0.0] = -np.inf
    x[y0 == 1.0] = np.inf
    inside = (y0 > 0.0) & (y0 < 1.0)
    y = y0[inside]
    upper = y > 1.0 - _EXP_M2
    y[upper] = 1.0 - y[upper]
    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    xc = yc + yc * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
    yt = y[~central]
    xt = np.sqrt(-2.0 * _elementwise(math.log, yt))
    x0 = xt - _elementwise(math.log, xt) / xt
    zt = 1.0 / xt
    mid = xt < 8.0
    x1 = np.empty_like(xt)
    x1[mid] = zt[mid] * _polevl(zt[mid], _P1) / _p1evl(zt[mid], _Q1)
    x1[~mid] = zt[~mid] * _polevl(zt[~mid], _P2) / _p1evl(zt[~mid], _Q2)
    xt = x0 - x1
    out = np.empty_like(y)
    out[central] = xc * _S2PI
    out[~central] = np.where(upper[~central], xt, -xt)
    x[inside] = out
    return x[()]
