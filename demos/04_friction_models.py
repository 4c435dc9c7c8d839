"""Friction models of the protein-solvent environment, and why they barely
matter for room-temperature proton transfer.

The memory kernel gamma_hat(z) is what enters rate theory, and it obeys
a rigorous bound gamma_hat(z) <= K_e/(M z) set by the environment-induced
curvature K_e. Estimating K_e from chromophore spectroscopy, from a
protein-mode damping fit, or from the dielectric response of water all
give kernels far below the thermal frequency scale (~1300 cm^-1 at room
temperature), which is the weak-friction regime.
"""

import numpy as np

from qtst import (
    DebyeDielectricFriction,
    DrudeFriction,
    LinearProteinFriction,
    OhmicFriction,
    PeakedFriction,
    chromophore_estimate,
    effective_curvature,
    kernel_upper_bound,
    weak_friction_margin,
)

models = {
    "Ohmic (gamma = 50)": OhmicFriction(50.0),
    "Drude (gamma = 100, omega_d = 100)": DrudeFriction(100.0, 100.0),
    "Peaked (gamma_r = 200 at 600 cm^-1)": PeakedFriction(200.0, 150.0, 600.0),
    "Protein-mode fit (20 + 0.38 w, cutoff 400)": LinearProteinFriction(),
    "Water cavity (a = 3 A, eps_c = 2)": DebyeDielectricFriction(cavity_radius=3.0),
}

print("Memory kernel at three frequencies, and its rigorous bound at z = 1000:")
print(f"  {'model':<44} {'g(100)':>8} {'g(1000)':>8} {'g(3000)':>8} {'bound(1000)':>12}")
for name, m in models.items():
    vals = [m.laplace_kernel(z) for z in (100.0, 1000.0, 3000.0)]
    try:
        bound = kernel_upper_bound(m, 1000.0)
        bound_s = f"{bound:>12.2f}"
    except Exception:
        bound_s = f"{'divergent':>12}"
    print(f"  {name:<44} {vals[0]:>8.2f} {vals[1]:>8.2f} {vals[2]:>8.2f} {bound_s}")

print()
print("Weak-friction margins max_n gamma_hat(n*nu)/(n*nu) at 300 K:")
for name, m in models.items():
    print(f"  {name:<44} {weak_friction_margin(m, 300.0):.4f}")
print("Values well below 1 justify dropping friction from the quantum")
print("correction factor entirely.")
print()

print("Chromophore route to the same conclusion: a reorganisation energy of")
print("1000 cm^-1 seen through a 5-debye dipole change gives")
est = chromophore_estimate(1000.0, 5.0)
print(f"  coupling scale (hbar e/d_mu)^2/M = {est.coupling_scale:.1f} cm^-1")
print(f"  bound scale z* = {est.bound_scale:.0f} cm^-1, i.e. gamma_hat(z)/z <= (z*/z)^2")
print("so at z ~ omega_b ~ 1000 cm^-1 the kernel is ~2% of z.")
print()

water = DebyeDielectricFriction(cavity_radius=3.0)
print("Water dielectric function behind the cavity model:")
print(f"  {'w (cm^-1)':>10} {'Re eps':>8} {'Im eps':>8}")
for w in (0.0, 1.0, 10.0, 100.0, 200.0):
    eps = water.epsilon(w)
    print(f"  {w:>10.1f} {eps.real:>8.2f} {eps.imag:>8.2f}")
print(f"  static value {water.epsilon(0.0).real:.1f}, the bulk-water number;")
print(f"  K_e for this cavity: {effective_curvature(water):.0f} cm^-2 (proton units)")
