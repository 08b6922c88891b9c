"""Dormand-Prince 8(5,3) Runge-Kutta integration (DOP853) for the ODE oracles.

The method is Hairer's DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed. 1993, sec. II.4-II.6).  Its initial step,
err5/err3 error norm, step control, 7th-order dense output and event location
follow scipy's ``solve_ivp(method="DOP853")`` operation for operation, so an
integration here gives the samples and the event time that scipy gives.
"""

from __future__ import annotations

import numpy as np

# Hairer's DOP853 coefficients as shipped in scipy's
# scipy/integrate/_ivp/dop853_coefficients.py (BSD-3-Clause), nonzero entries
# only: _A[i] = {j: a_ij}.  Stages 0-11 take a step, stage 12 is the
# derivative at its end and stages 13-15 serve only the dense output.
_NODES = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1,
    0.2, 0.777777777777777777777777777778,
)
_A = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {
        0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1,
    },
    5: {
        0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1,
    },
    6: {
        0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2,
    },
    7: {
        0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3,
    },
    8: {
        0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1,
    },
    9: {
        0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2,
    },
    10: {
        0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
        4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022,
    },
    11: {
        0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1,
    },
    12: {
        0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2,
    },
    13: {
        0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3, 12: -8.298e-3,
    },
    14: {
        0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1,
    },
    15: {
        0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
        6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
        8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138,
    },
}
_D = {
    0: {
        0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1,
    },
    1: {
        0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2,
    },
    2: {
        0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2,
    },
    3: {
        0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3,
    },
}
_E5 = {
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1,
}


def _matrix(rows, shape):
    out = np.zeros(shape)
    for i, row in rows.items():
        out[i, list(row)] = list(row.values())
    return out


_A = _matrix(_A, (16, 16))
_B = _A[12, :12]
_C = np.array(_NODES)
_D = _matrix(_D, (4, 16))
_E5 = _matrix({0: _E5}, (1, 13))[0]
_E3 = np.append(_B, 0.0)
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 8  # the error estimate is of order 7
_XTOL = 4 * np.finfo(float).eps


def _brent(f, xpre, xcur):
    """Root of f bracketed by [xpre, xcur], by Brent's method (Brent,
    *Algorithms for Minimization Without Derivatives*, 1973, ch. 4) with
    absolute and relative tolerance 4 eps, step for step as scipy's brentq."""
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur != 0 and (fpre < 0) == (fcur < 0):
        raise RuntimeError("the event is not bracketed by the step")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _XTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("event location did not converge in 100 iterations")


def dop853(fun, t0, y0, t_end, rtol, atol, t_eval=None, event=None):
    """Integrate y' = fun(t, y), y(t0) = y0, forward to t_end > t0.

    Each step keeps its local error below atol + rtol |y|.  t_eval: sorted
    times in [t0, t_end] at which y is sampled on the dense output.  event:
    g(t, y); integration stops at its first upward zero crossing, located on
    the dense output.  Returns (y at the t_eval sampled so far, one row per
    time; the event time or None; None, or the reason the integration
    stopped: the step fell below 10 ulp(t)).
    """
    t, y = float(t0), np.asarray(y0, dtype=float)
    n = y.size

    def rhs(s, z):
        return np.asarray(fun(s, z), dtype=float)

    # initial step: Hairer, Norsett & Wanner sec. II.4
    f = rhs(t, y)
    scale = atol + np.abs(y) * rtol
    d0 = np.linalg.norm(y / scale) / n**0.5
    d1 = np.linalg.norm(f / scale) / n**0.5
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    d2 = np.linalg.norm((rhs(t + h0, y + h0 * f) - f) / scale) / n**0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t_end - t)

    K = np.empty((16, n))
    samples = [np.empty((0, n))]
    i_eval = 0
    g = None if event is None else event(t, y)
    t_event = None
    while t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return np.concatenate(samples), None, "step fell below 10 ulp(t) at t = %.17g" % t
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            K[0] = f
            for s in range(1, 12):
                K[s] = rhs(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:12].T, _B)
            K[12] = f_new = rhs(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(K[:13].T, _E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K[:13].T, _E3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = h * err5 / np.sqrt((err5 + 0.01 * err3) * n)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_EXPONENT)
            rejected = True
        t_old, y_old, f_old = t, y, f
        t, y, f = t_new, y_new, f_new
        interpolant = None

        def dense(ts):
            # 7th-order dense output; its 3 extra stages are built on first use
            nonlocal interpolant
            if interpolant is None:
                for s in range(13, 16):
                    K[s] = rhs(t_old + _C[s] * h, y_old + np.dot(K[:s].T, _A[s, :s]) * h)
                dy = y - y_old
                interpolant = np.empty((7, n))
                interpolant[0] = dy
                interpolant[1] = h * f_old - dy
                interpolant[2] = 2 * dy - h * (f + f_old)
                interpolant[3:] = h * np.dot(_D, K)
            x = ((np.asarray(ts) - t_old) / h)[:, None]
            out = np.zeros((len(x), n))
            for i, coeff in enumerate(interpolant[::-1]):
                out += coeff
                out *= x if i % 2 == 0 else 1 - x
            return out + y_old

        if event is not None:
            g_new = event(t, y)
            if g <= 0 <= g_new:
                t = t_event = _brent(lambda s: event(s, dense([s])[0]), t_old, t)
            g = g_new
        if t_eval is not None:
            j = np.searchsorted(t_eval, t, side="right")
            if j > i_eval:
                samples.append(dense(t_eval[i_eval:j]))
                i_eval = j
        if t_event is not None:
            break
    return np.concatenate(samples), t_event, None
