"""Each friction model's ``to_json`` form, the ``--friction`` format that
``friction_model_from_json`` reads, pinned exactly: keys, key order and types.

``json.dumps`` compares key order and tells a list from a tuple and an int
from a float, which dict equality does not.
"""

import json

import pytest

from qtst import (
    DebyeDielectricFriction,
    DrudeFriction,
    LinearProteinFriction,
    OhmicFriction,
    PeakedFriction,
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
}


@pytest.mark.parametrize("record,expected", CASES.values(), ids=CASES.keys())
def test_to_json_is_the_pinned_dict(record, expected):
    payload = record.to_json()
    assert payload == expected
    assert json.dumps(payload) == json.dumps(expected)
