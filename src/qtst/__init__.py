"""Quantum transition state theory for hydrogen-transfer kinetics.

Classical Kramers rates with memory friction, quantum correction factors
above the crossover temperature, kinetic isotope effect prediction and
fitting, and friction/spectral-density models of a protein-solvent
environment.

The package exports exactly the names in its modules' ``__all__`` lists.
"""

# Every scipy module is reached through errors._scipy, which imports it on
# first use, so `import qtst`, the closed forms, every friction kernel,
# every mu solve (Brent's method, errors._brent), the KIE fit (its own
# Levenberg-Marquardt polish on an analytic Jacobian), the model
# barriers' WKB actions (closed forms) and the crossover-regularised
# correction (its own erfcx) load no scipy. Only a tabulated WKB action
# loads scipy.integrate; a tabulated potential builds its PCHIP
# coefficients in Python floats, equal to scipy's by float.hex.
from . import errors, fit, kie, kramers, qcorr, spectral, units, wkb
from .errors import *  # noqa: F403
from .fit import *  # noqa: F403
from .kie import *  # noqa: F403
from .kramers import *  # noqa: F403
from .qcorr import *  # noqa: F403
from .spectral import *  # noqa: F403
from .units import *  # noqa: F403
from .wkb import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (errors, fit, kie, kramers, qcorr, spectral, units, wkb) for name in module.__all__]
