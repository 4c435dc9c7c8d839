"""Property tests: closed-form kernels and solvers against the slow oracles.

Parameters are drawn from the physical boxes the models are used in; each
property runs on about 50 examples.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qtst import (
    DebyeDielectricFriction,
    DrudeFriction,
    LinearProteinFriction,
    OhmicFriction,
    PeakedFriction,
    kernel_upper_bound,
)
from qtst.kramers import solve_effective_frequency

from oracles import mu_scan, quadrature_kernel, quadrature_spectrum_integral

# derandomize: the same examples on every run, so the suite cannot flake
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


debye_models = st.builds(
    DebyeDielectricFriction, cavity_radius=st.floats(2.0, 5.0), eps_c=st.floats(1.5, 5.0)
)
peaked_models = st.builds(
    PeakedFriction,
    gamma_r=st.floats(0.0, 2000.0),
    width=st.floats(0.0, 2000.0),
    omega_r=st.floats(0.0, 3000.0),
)
# every built-in model with a finite K_e; an Ohmic bath's bound is infinite
finite_ke_models = st.one_of(
    st.builds(DrudeFriction, gamma=st.floats(0.0, 5000.0), omega_d=st.floats(1.0, 5000.0)),
    peaked_models,
    debye_models,
    st.builds(
        LinearProteinFriction,
        delta_gamma=st.floats(0.0, 50.0),
        slope=st.floats(0.0, 1.0),
        cutoff=st.floats(100.0, 1000.0),
    ),
)
# up to the z ~ 1e8 that the Matsubara product reaches, and beyond
z_arrays = st.lists(_log_uniform(1e-2, 1e9), min_size=1, max_size=40).map(np.array)


@PROPERTY
@given(model=debye_models, z=_log_uniform(1.0, 1e5))
def test_debye_kernel_matches_quadrature(model, z):
    assert math.isclose(model.laplace_kernel(z), quadrature_kernel(model, z), rel_tol=1e-9)


@PROPERTY
@given(model=debye_models)
def test_debye_spectrum_integral_matches_quadrature(model):
    assert math.isclose(
        model.spectrum_integral(), quadrature_spectrum_integral(model), rel_tol=1e-9
    )


@PROPERTY
@given(model=peaked_models, omegab=st.floats(100.0, 3000.0))
def test_peaked_quartic_mu_matches_scan(model, omegab):
    mu, _ = solve_effective_frequency(omegab, model)
    assert abs(mu - mu_scan(omegab, model)) <= 1e-10 * omegab


@PROPERTY
@given(model=finite_ke_models, z=z_arrays)
def test_kernel_within_bound_at_array_z(model, z):
    g = model.laplace_kernel(z)
    assert np.all(g >= 0.0)
    assert np.all(g <= kernel_upper_bound(model, z) * (1.0 + 1e-9))


@PROPERTY
@given(model=st.one_of(finite_ke_models, st.builds(OhmicFriction, st.floats(0.0, 5000.0))),
       z=z_arrays)
def test_scalar_and_array_kernels_agree(model, z):
    scalar = [model.laplace_kernel(float(x)) for x in z]
    np.testing.assert_allclose(model.laplace_kernel(z), scalar, rtol=1e-15, atol=0.0)
