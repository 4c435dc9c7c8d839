"""errors._brent, the one bracketed root finder, on its error paths: each
failure of scipy's brentq (kept in tests/oracles.py as the oracle) must come
out with scipy's text, wrapped in a SolverConvergenceError with the bracket,
and an error of the library's own must pass through untouched."""

import math

import pytest

from qtst.errors import DomainError, SolverConvergenceError, _brent, _brentq

from oracles import brentq as scipy_brentq


def _scipy_failure(f, lo, hi, **kwargs):
    with pytest.raises((ValueError, RuntimeError)) as exc:
        scipy_brentq(f, lo, hi, **kwargs)
    return exc.value


def _assert_wraps(f, lo, hi, scipy_error):
    with pytest.raises(SolverConvergenceError) as exc:
        _brent(f, lo, hi)
    assert exc.value.bracket == (lo, hi)
    cause = exc.value.__cause__
    assert type(cause) is type(scipy_error) and str(cause) == str(scipy_error)
    assert str(scipy_error) in str(exc.value)


def test_no_sign_change_is_scipys_value_error_with_the_bracket():
    def f(x):
        return x * x + 1.0

    _assert_wraps(f, -1.0, 2.0, _scipy_failure(f, -1.0, 2.0))


@pytest.mark.parametrize("nan_at", [0.0, 1.0, 0.5], ids=["lo", "hi", "inside"])
def test_nan_is_scipys_value_error_with_the_bracket(nan_at):
    # f(0) = -0.5 and f(1) = 0.5 are equal in size, so the first step bisects
    # to 0.5
    def f(x):
        return math.nan if x == nan_at else x - 0.5

    error = _scipy_failure(f, 0.0, 1.0)
    assert f"x={nan_at}" in str(error)
    _assert_wraps(f, 0.0, 1.0, error)


def test_no_convergence_is_scipys_runtime_error_with_the_bracket():
    # a jump across zero gives interpolation nothing to use: bisection from
    # a bracket 1e300 wide to 1e-300 needs far more than 100 steps
    def f(x):
        return -1.0 if x < 0.1234 else 1.0

    error = _scipy_failure(f, -1e300, 1e300)
    assert str(error) == "Failed to converge after 100 iterations."
    _assert_wraps(f, -1e300, 1e300, error)


@pytest.mark.parametrize("maxiter", range(12))
def test_port_at_a_small_maxiter_fails_or_converges_as_scipy_does(maxiter):
    # scipy fails below 9 iterations here and converges from 9 on
    def f(x):
        return math.exp(x) - 2.0

    try:
        expect = scipy_brentq(f, 0.0, 5.0, maxiter=maxiter).hex()
    except RuntimeError as exc:
        with pytest.raises(RuntimeError) as ours:
            _brentq(f, 0.0, 5.0, 1e-300, maxiter)
        assert str(ours.value) == str(exc)
    else:
        root, f_root = _brentq(f, 0.0, 5.0, 1e-300, maxiter)
        assert root.hex() == expect
        assert f_root.hex() == f(root).hex()


def test_a_library_error_from_f_passes_through_unchanged():
    error = DomainError("kernel rejected its argument")

    def f(x):
        raise error

    with pytest.raises(DomainError) as exc:
        _brent(f, 0.0, 1.0)
    assert exc.value is error


@pytest.mark.parametrize("lo, hi, root", [(0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (-0.0, 1.0, -0.0)])
def test_an_exact_zero_at_an_end_is_that_end(lo, hi, root):
    def f(x):
        return x

    assert _brent(f, lo, hi)[0].hex() == scipy_brentq(f, lo, hi).hex() == root.hex()
    assert _brent(f, lo, hi)[1].hex() == root.hex()
