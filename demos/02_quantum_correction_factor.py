"""The quantum correction factor, three ways.

Above the crossover the classical Kramers rate is multiplied by c_qm,
an infinite product over thermal frequencies that always exceeds one.
At zero friction the product collapses to a sinh/sin closed form, which
diverges at T0 because the barrier top is treated as perfectly
parabolic. Keeping the barrier's anharmonicity regularises the
divergence: the crossover-corrected factor stays finite at T0 and
rejoins the closed form a few tens of percent above it.
"""

import numpy as np

from qtst import (
    BarrierSystem,
    correction_closed,
    correction_crossover,
    correction_product,
    crossover_temperature,
)

system = BarrierSystem(omega0_H=3000.0, omegab_H=1000.0, barrier_kJ_per_mol=40.0)
T0 = crossover_temperature(system.omegab)
KAPPA = 10.0

print(f"omega_0 = 3000 cm^-1, omega_b = 1000 cm^-1, T0 = {T0:.1f} K, kappa(T0) = {KAPPA}")
print()
print(f"  {'T/T0':>5} {'T (K)':>7} {'product':>12} {'closed':>12} {'regularised':>12}")
for f in (1.0, 1.02, 1.05, 1.1, 1.3, 1.5, 2.0, 3.0):
    T = f * T0
    closed = prod = float("nan")
    if f > 1.0:
        prod = correction_product(system, None, T).c_qm
        closed = correction_closed(3000.0, 1000.0, T)
    reg = correction_crossover(system, T, KAPPA)
    print(f"  {f:>5.2f} {T:>7.1f} {prod:>12.4g} {closed:>12.4g} {reg:>12.4g}")

print()
print("The product and the closed form agree to better than 1e-6 wherever")
print("both exist; the regularised factor is finite at T0 itself and")
print("approaches the closed form from below as T rises.")
print()

print("At 300 K the correction is substantial for a proton:")
res = correction_product(system, None, 300.0)
print(f"  c_qm(300 K) = {res.c_qm:.1f}  ({res.terms_used} kernel points, "
      f"Euler-Maclaurin tail {res.tail_estimate:.1e} in log c_qm)")
print("so quantum fluctuations at the transition state enhance the rate by")
print("over two orders of magnitude without any below-barrier tunneling.")
