"""The float-or-array contract of the public numeric functions: a float t
gives Python scalars, an ndarray t gives arrays of its shape whose every
entry has its own float call's bits, and a list is a TypeError.  The rule
lives in steps.as_rows and steps.shaped."""

import math

import numpy as np
import pytest

from zetasteps import (
    Argument,
    DomainError,
    big_q,
    center_point,
    eval_em_paper,
    eval_reference,
    gram_point,
    pendant_offset,
    rs_theta,
    rs_theta_mod,
    rs_z,
    z_reference,
)
from zetasteps import zeros
from zetasteps.symmetry import symmetric_parts


def _result(r):
    return (r.value, r.terms_used, r.error_estimate)


# name: (the outputs at t as a tuple, smallest |t|, largest |t|, signed t)
CASES = {
    "rs_z": (lambda t: (rs_z(t),), 10.0, 3000.0, False),
    "z_reference": (lambda t: (z_reference(t),), 10.0, 3000.0, False),
    "rs_theta": (lambda t: (rs_theta(t),), 7.0, 1e5, False),
    "rs_theta_mod": (lambda t: (rs_theta_mod(t),), 7.0, 1e5, False),
    "eval_reference": (lambda t: _result(eval_reference(Argument(0.5, t))), 1.0, 3000.0, True),
    "eval_em_paper": (lambda t: _result(eval_em_paper(Argument(0.7, t)))[:2], 50.0, 3000.0, True),
    "big_q": (lambda t: (big_q(Argument(0.3, t)),), 7.0, 3000.0, True),
    "pendant_offset": (lambda t: (pendant_offset(Argument(0.3, t)),), 7.0, 3000.0, True),
    "center_point": (lambda t: (center_point(Argument(0.3, t)),), 7.0, 3000.0, True),
    "symmetric_parts": (lambda t: symmetric_parts(Argument(0.3, t)), 7.0, 3000.0, True),
}


def _ordinates(name, shape):
    _, lo, hi, signed = CASES[name]
    rng = np.random.default_rng([20261019, len(name)])
    t = rng.uniform(lo, hi, shape)
    return t * rng.choice([-1.0, 1.0], shape) if signed else t


@pytest.mark.parametrize("name", sorted(CASES))
def test_float_gives_python_scalars(name):
    outputs = CASES[name][0](float(_ordinates(name, 1)[0]))
    for i, v in enumerate(outputs):
        if name.startswith("eval_") and i == 1:
            assert type(v) is int  # terms_used
        else:
            assert type(v) in (float, complex), (i, type(v))


@pytest.mark.parametrize("name", sorted(CASES))
def test_array_keeps_its_shape_and_each_entry_its_float_bits(name):
    fn = CASES[name][0]
    ts = _ordinates(name, (2, 3))
    batch = fn(ts)
    for got in batch:
        assert isinstance(got, np.ndarray) and got.shape == (2, 3)
    for index, t in np.ndenumerate(ts):
        assert tuple(got[index] for got in batch) == fn(float(t)), (index, t)


@pytest.mark.parametrize("name", sorted(CASES))
def test_list_is_a_type_error(name):
    ts = _ordinates(name, 2).tolist()
    with pytest.raises(TypeError):
        CASES[name][0](ts)


# gram_point takes an int N, or an ndarray of them, where the others take t
def test_gram_point_int_gives_a_python_float():
    assert type(gram_point(12_345)) is float


def test_gram_point_array_keeps_its_shape_and_each_entry_its_int_bits():
    ns = np.random.default_rng([20261019, 10]).integers(0, 300_000, (2, 3))
    got = gram_point(ns)
    assert isinstance(got, np.ndarray) and got.shape == (2, 3)
    for index, n in np.ndenumerate(ns):
        assert float(got[index]).hex() == gram_point(int(n)).hex(), (index, n)


def test_gram_point_list_is_a_type_error():
    with pytest.raises(TypeError):
        gram_point([3, 4])


@pytest.mark.parametrize("ns", [-1, np.array([-2, 4]), np.array([[3, 5, 8], [0, 2, -1]])])
def test_gram_point_negative_entry_refused_before_any_solve(ns, monkeypatch):
    def solve(*args):
        raise AssertionError("solved before the domain check")

    monkeypatch.setattr(zeros.np, "log", solve)  # the seed's first step
    monkeypatch.setattr(zeros, "rs_theta", solve)
    with pytest.raises(DomainError):
        gram_point(ns)


@pytest.mark.parametrize("ns", [math.inf, math.nan, np.array([5.0, math.inf]), np.array([math.nan])],
                         ids=["inf", "nan", "array_inf", "array_nan"])
def test_gram_point_non_finite_entry_refused_before_any_solve(ns, monkeypatch):
    # the index is named before the seed's Newton step, which would warn on
    # inf - inf, and before theta, which would refuse a NaN ordinate instead
    def solve(*args):
        raise AssertionError("solved before the domain check")

    monkeypatch.setattr(zeros.np, "log", solve)
    monkeypatch.setattr(zeros, "rs_theta", solve)
    with pytest.raises(DomainError, match=r"^Gram index must be finite and >= 0, got (inf|nan)$"):
        gram_point(ns)
