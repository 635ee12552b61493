"""The cone response in exact rational arithmetic: the Born identity with no rounding at all.

Every angle below has a rational (cos, sin) pair, taken from Pythagorean
triples, so each event's s = sqrt(w_x^2 + w_y^2) is its rational sin(zenith)
and the shipped kernel, run on ``fractions.Fraction``, never rounds.
"""

import itertools
from fractions import Fraction

from onticsim.cone import _response


def _circle_points(order):
    """Rational (cos, sin) pairs in all four quadrants, from half-angle tangents k/d with d <= order.

    t = tan(angle / 2) in [0, 1] gives cos = (1 - t^2) / (1 + t^2) and sin = 2t / (1 + t^2).
    """
    quarter = {((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
               for d in range(1, order + 1) for t in (Fraction(k, d) for k in range(d + 1))}
    return sorted({(sc * c, ss * s) for c, s in quarter for sc in (1, -1) for ss in (1, -1)})


def _event(w_cos_zenith, w_sin_zenith, cos_azimuth, sin_azimuth):
    """A unit event as ``_response`` takes it: negated where southern, with s = sin(zenith)."""
    flip = w_cos_zenith < 0
    sign = -1 if flip else 1
    wx, wy, wz = (sign * w_sin_zenith * cos_azimuth, sign * w_sin_zenith * sin_azimuth, sign * w_cos_zenith)
    return (wx, wy, wz, w_sin_zenith, flip), (sign * wx, sign * wy, sign * wz)


def test_born_identity_is_exact_at_rational_points():
    circle = _circle_points(5)
    azimuths = circle[::4]
    zeniths = [(c, s) for c, s in circle if s >= 0]  # sin(zenith) >= 0: zenith in [0, pi]
    inside = [(c, s) for c, s in zeniths if c > Fraction(3, 5)]  # zenith < THETA0
    events = [_event(cw, sw, ca, sa) for cw, sw in zeniths for ca, sa in azimuths[::3]]
    assert any(w[2] < 0 for _, w in events) and any(w[2] > 0 for _, w in events)
    checked = 0
    for (ct, st), (cp, sp) in itertools.product(inside, azimuths):
        v = (st * cp, st * sp, ct)
        for event, w in events:
            p0 = _response(event, cp, sp, 0)
            p1 = _response(event, ct, st, 1)
            assert type(p0) is Fraction and type(p1) is Fraction
            assert 0 <= p0 <= 1 and 0 <= p1 <= 1
            born = (1 + sum(a * b for a, b in zip(v, w))) / 2
            assert st * p0 + (1 - st) * p1 - born == 0
            checked += 1
    assert checked >= 2000


def test_zenith_branch_is_exactly_zero_at_the_cone_edge():
    # cos(THETA0) = 3/5, w = +z
    plus_z = (Fraction(0), Fraction(0), Fraction(1), Fraction(0), False)
    edge = _response(plus_z, Fraction(3, 5), Fraction(4, 5), 1)
    assert type(edge) is Fraction and edge == 0
