"""Each record's ``to_json`` form, pinned exactly: keys, key order and types.

``json.dumps`` compares key order and tells a list from a tuple and an int
from a float, which dict equality does not.
"""

import json

import numpy as np
import pytest

from qtst import (
    ApparentArrhenius,
    CorrectionResult,
    DebyeDielectricFriction,
    DrudeFriction,
    EffectiveBarrier,
    Isotope,
    KIEPrediction,
    LinearProteinFriction,
    OhmicFriction,
    PeakedFriction,
    RateResult,
)

CASES = {
    "ohmic": (OhmicFriction(12.5), {"kind": "ohmic", "gamma": 12.5}),
    "ohmic_int": (OhmicFriction(3), {"kind": "ohmic", "gamma": 3.0}),
    "drude": (DrudeFriction(100.0, 300.0), {"kind": "drude", "gamma": 100.0, "omega_d": 300.0}),
    "peaked": (
        PeakedFriction(50.0, 20.0, 400.0),
        {"kind": "peaked", "gamma_r": 50.0, "width": 20.0, "omega_r": 400.0},
    ),
    "debye": (
        DebyeDielectricFriction(cavity_radius=3.0),
        {
            "kind": "debye_dielectric",
            "cavity_radius": 3.0,
            "eps_c": 2.0,
            "mass": 1.0,
            "eps_inf": 1.54,
            "delta_eps": [71.5, 2.8, 1.6, 0.92],
            "tau_ps": [8.3, 1.0, 0.1, 0.025],
            "omega_4": 175.0,
        },
    ),
    "debye_int_lists": (
        DebyeDielectricFriction(4, delta_eps=(70, 3, 2, 1), tau_ps=(8, 1, 0.1, 0)),
        {
            "kind": "debye_dielectric",
            "cavity_radius": 4.0,
            "eps_c": 2.0,
            "mass": 1.0,
            "eps_inf": 1.54,
            "delta_eps": [70.0, 3.0, 2.0, 1.0],
            "tau_ps": [8.0, 1.0, 0.1, 0.0],
            "omega_4": 175.0,
        },
    ),
    "linear_protein": (
        LinearProteinFriction(),
        {"kind": "linear_protein", "delta_gamma": 20.0, "slope": 0.38, "cutoff": 400.0},
    ),
    "rate": (
        RateResult(T_K=300.0, rate_cm1=2.5e-3, rate_per_s=4.7e8, c_qm=4.25, mu_cm1=950.0,
                   T0_K=217.5, regime="qtst", equilibrium_ok=True, equilibrium_margin=0.25, terms_used=25),
        {"T_K": 300.0, "rate_cm1": 2.5e-3, "rate_per_s": 4.7e8, "c_qm": 4.25, "mu_cm1": 950.0,
         "T0_K": 217.5, "regime": "qtst", "equilibrium_ok": True, "equilibrium_margin": 0.25,
         "terms_used": 25},
    ),
    "rate_classical": (
        RateResult(300.0, 2.5e-3, 4.7e8, 1.0, 950.0, 217.5, "classical"),
        {"T_K": 300.0, "rate_cm1": 2.5e-3, "rate_per_s": 4.7e8, "c_qm": 1.0, "mu_cm1": 950.0,
         "T0_K": 217.5, "regime": "classical", "equilibrium_ok": None, "equilibrium_margin": None,
         "terms_used": None},
    ),
    "correction": (
        CorrectionResult(c_qm=4.25, regime="high_T", terms_used=25, tail_estimate=1e-16),
        {"c_qm": 4.25, "regime": "high_T", "terms_used": 25, "tail_estimate": 1e-16},
    ),
    "effective_barrier": (
        EffectiveBarrier(mu_cm1=950.0, T0_K=217.5, residual=0.0),
        {"mu_cm1": 950.0, "T0_K": 217.5, "residual": 0.0},
    ),
    "apparent_arrhenius": (
        ApparentArrhenius(a_ratio=0.8, delta_E_kJ_per_mol=5.125, T_R=300.0, expansion_ok=False),
        {"a_ratio": 0.8, "delta_E_kJ_per_mol": 5.125, "T_R": 300.0, "expansion_ok": False},
    ),
    "kie_prediction": (
        KIEPrediction(ratio=7.5, T_K=300.0, light=Isotope.H, heavy=Isotope.T, T0_light_K=220.0, valid=True),
        {"ratio": 7.5, "T_K": 300.0, "pair": "H:T", "T0_light_K": 220.0, "valid": True},
    ),
    "kie_prediction_array": (
        KIEPrediction(
            ratio=np.array([7.5, 6.25]), T_K=np.array([300.0, 320.0]), light=Isotope.H, heavy=Isotope.T,
            T0_light_K=220.0, valid=np.array([True, True]),
        ),
        {"ratio": [7.5, 6.25], "T_K": [300.0, 320.0], "pair": "H:T", "T0_light_K": 220.0, "valid": [True, True]},
    ),
}


@pytest.mark.parametrize("record,expected", CASES.values(), ids=CASES.keys())
def test_to_json_is_the_pinned_dict(record, expected):
    payload = record.to_json()
    assert payload == expected
    assert json.dumps(payload) == json.dumps(expected)
