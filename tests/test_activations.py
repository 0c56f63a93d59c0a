import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holonewt.activations import ACTIVATIONS, get_activation

from helpers import distance_to_sigmoid_poles


def derivatives(act):
    """act's g' and g'' as functions of z alone, each handed the forward
    value f(z) as layer_step hands it the trace's values."""
    return (lambda z: act.d1(z, act.f(z))), (lambda z: act.d2(z, act.f(z)))


def test_sigmoid_at_zero():
    assert ACTIVATIONS["sigmoid"].f(0.0) == pytest.approx(0.5)


def test_taylor3_at_zero():
    assert ACTIVATIONS["taylor3"].f(0.0) == pytest.approx(0.5)


def test_taylor3_at_one():
    # 1/2 + 1/4 - 1/48
    expected = 0.5 + 0.25 - 1.0 / 48.0
    assert ACTIVATIONS["taylor3"].f(1.0) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(0.7291666666666666)


def test_sigmoid_d1_at_zero():
    d1, _ = derivatives(ACTIVATIONS["sigmoid"])
    assert d1(0.0) == pytest.approx(0.25)


def test_taylor3_d2_at_zero():
    _, d2 = derivatives(ACTIVATIONS["taylor3"])
    assert d2(0.0) == 0.0


def test_identity_derivatives():
    act = ACTIVATIONS["identity"]
    z = np.array([0.0, 1 + 2j, -3j])
    np.testing.assert_array_equal(act.f(z), z)
    d1, d2 = derivatives(act)
    np.testing.assert_array_equal(d1(z), np.ones(3, dtype=complex))
    np.testing.assert_array_equal(d2(z), np.zeros(3, dtype=complex))


def test_get_activation_unknown_name():
    with pytest.raises(KeyError, match="unknown activation"):
        get_activation("tanh")


def test_get_activation_returns_registered():
    for name in ("sigmoid", "taylor3", "identity"):
        assert get_activation(name).name == name


def test_conjugation_symmetry():
    """g(conj z) == conj(g z); all three activations have real Taylor
    coefficients so this must hold to roundoff."""
    rng = np.random.default_rng(2)
    z = rng.uniform(-2, 2, size=1000) + 1j * rng.uniform(-2, 2, size=1000)
    z = z[np.abs(z) <= 2]
    for act in ACTIVATIONS.values():
        for fn in (act.f, *derivatives(act)):
            assert np.max(np.abs(fn(np.conj(z)) - np.conj(fn(z)))) <= 1e-14


@pytest.mark.parametrize("name", ["sigmoid", "taylor3", "identity"])
def test_derivative_consistency(name):
    """Central differences of eval match d1, and of d1 match d2, to 1e-6
    relative at 100 points away from the sigmoid poles."""
    act = ACTIVATIONS[name]
    d1, d2 = derivatives(act)
    rng = np.random.default_rng(3)
    pts = []
    while len(pts) < 100:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if distance_to_sigmoid_poles(z) > 0.5:
            pts.append(z)
    z = np.array(pts)
    h = 1e-6
    for fn, dfn in ((act.f, d1), (d1, d2)):
        fd = (fn(z + h) - fn(z - h)) / (2 * h)
        scale = np.maximum(np.abs(dfn(z)), 1.0)
        assert np.max(np.abs(fd - dfn(z)) / scale) <= 1e-6


def test_sigmoid_blows_up_near_pole():
    """No clamping near the pole at i*pi: the closest float64 point
    evaluates to an astronomically large value, and halving the distance
    roughly doubles it."""
    with np.errstate(all="ignore"):
        at_pole = ACTIVATIONS["sigmoid"].f(1j * np.pi)
        closer = ACTIVATIONS["sigmoid"].f(1j * np.pi + 1e-9)
        near = ACTIVATIONS["sigmoid"].f(1j * np.pi + 2e-9)
    assert np.abs(at_pole) > 1e12
    assert np.abs(closer) > 1.5 * np.abs(near)


def test_distance_to_sigmoid_poles():
    assert distance_to_sigmoid_poles(1j * np.pi) == pytest.approx(0.0, abs=1e-15)
    assert distance_to_sigmoid_poles(0.0) == pytest.approx(np.pi)
    assert distance_to_sigmoid_poles(-3j * np.pi) == pytest.approx(0.0, abs=1e-12)
    # vectorized form
    d = distance_to_sigmoid_poles(np.array([0.0, 1j * np.pi, 100 + 1j * np.pi]))
    np.testing.assert_allclose(d, [np.pi, 0.0, 100.0], atol=1e-9)


# points anywhere in a wide box, and points within 1e-6 of a sigmoid pole
# i*pi*(2k+1), where g = f(z) is huge and its derivatives overflow
_BOX = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
_NEAR_POLE = st.builds(
    lambda k, re, im: complex(re, np.pi * (2 * k + 1) + im),
    st.integers(-50, 50),
    st.floats(-1e-6, 1e-6),
    st.floats(-1e-6, 1e-6),
)


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
@settings(max_examples=200, deadline=None)
@given(z=st.lists(st.one_of(_BOX, _NEAR_POLE), min_size=1, max_size=8))
@example(z=[1j * np.pi, -3j * np.pi, 1j * np.pi + 1e-9])  # at and next to the poles
@example(z=[-710.0 + 0j, -800.0 + 1j, -1000.0 - 3j, 800.0 + 0j])  # exp(-z) overflows
@example(z=[0j, 1.0 + 0j])
def test_derivatives_from_the_forward_value_are_bit_identical(name, z):
    """The sigmoid's d1 and d2 read only the forward value g = f(z), and
    the other activations' only z: with the other argument replaced by
    NaN, every bit of the result stays the same, NaN and infinite parts
    included.  So layer_step, which passes the trace's values, gets the
    sigmoid's derivatives without a second exp."""
    act = ACTIVATIONS[name]
    z = np.array(z, dtype=complex)
    nan = np.full_like(z, np.nan)
    with np.errstate(all="ignore"):
        g = act.f(z)
        for fn in (act.d1, act.d2):
            blind = fn(nan, g) if name == "sigmoid" else fn(z, nan)
            np.testing.assert_array_equal(blind.view(float), fn(z, g).view(float))
