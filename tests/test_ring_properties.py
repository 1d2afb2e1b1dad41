"""Property tests of the nilpotent coefficient ring, the powers of a wall
function and the closed-form wall crossing.

Elements have up to four terms over three marks u1..u3, each u-part a mark
mask; walls are rays with f = 1 + c*u_I*z^{m0} and I non-empty, as Wall
requires.  The
crossing kernel _cross is checked against the reference crossing
automorphism of tests/reference.py, whose generator images are powers of f
of either sign and which applies them by raising the images to powers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ref_apply, ref_pow, ref_wall_crossing
from tropenum.fan import builtin_fan, r_vector
from tropenum.lattice import InvariantError, rot90
from tropenum.scattering import RingElement, Wall, _cross, ring_mono, ring_one

FANS = [builtin_fan("p2"), builtin_fan("p1xp1")]
FAN_IDS = ["p2", "p1xp1"]
K = 3

coef = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
masks = st.integers(0, (1 << K) - 1)
nonempty = st.integers(1, (1 << K) - 1)
coord = st.fractions(min_value=-20, max_value=20, max_denominator=60)

SETTINGS = settings(max_examples=100, deadline=None)


def elements(nrays, nilpotent=False):
    exps = st.tuples(*[st.integers(-2, 2)] * nrays)
    us = nonempty if nilpotent else masks
    return st.dictionaries(st.tuples(exps, us), coef, max_size=4).map(
        lambda terms: RingElement(nrays, terms))


def draw_wall(data, fan):
    m0 = data.draw(st.tuples(*[st.integers(0, 2)] * fan.nrays()).filter(
        lambda m: r_vector(fan, m) != (0, 0)))
    base = (data.draw(coord), data.draw(coord))
    return Wall(fan, base, m0, data.draw(coef), data.draw(nonempty))


@pytest.mark.parametrize("fan", FANS, ids=FAN_IDS)
@SETTINGS
@given(data=st.data())
def test_mul_commutative_and_associative(fan, data):
    a, b, c = (data.draw(elements(fan.nrays())) for _ in range(3))
    assert a.mul(b) == b.mul(a)
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


@pytest.mark.parametrize("fan", FANS, ids=FAN_IDS)
@SETTINGS
@given(data=st.data(), a=st.integers(-4, 4), b=st.integers(-4, 4))
def test_wall_powers_add(fan, data, a, b):
    w = draw_wall(data, fan)
    n = fan.nrays()
    # u_i^2 = 0 makes the binomial series stop after its linear term
    fa = ref_pow(w.f, a)
    assert fa == ring_one(n).add(ring_mono(n, a * w.c, w.marks, w.m0))
    assert fa.mul(ref_pow(w.f, b)) == ref_pow(w.f, a + b)
    if a >= 0:
        assert w.f.pow(a) == fa
    else:
        with pytest.raises(InvariantError):
            w.f.pow(a)


@pytest.mark.parametrize("fan", FANS, ids=FAN_IDS)
@SETTINGS
@given(data=st.data(), sign=st.sampled_from([1, -1]),
       y0=st.integers(-2, 2))
def test_cross_is_the_crossing_automorphism(fan, data, sign, y0):
    w = draw_wall(data, fan)
    x = data.draw(elements(fan.nrays(), nilpotent=True))
    x = x.add(RingElement(fan.nrays(), y0=y0))
    n = rot90(w.dirvec)
    n0 = (sign * n[0], sign * n[1])
    assert _cross(w, n0, x) == ref_apply(ref_wall_crossing(w, sign), x)
    # crossing back undoes the crossing
    assert _cross(w, (-n0[0], -n0[1]), _cross(w, n0, x)) == x
