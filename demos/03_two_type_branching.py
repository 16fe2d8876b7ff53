"""Two-type branching approximation of the two-radius Boolean model.

One type per radius; the mean matrix couples the types through the contact
volumes.  Its largest eigenvalue grows like (kappa (1+rho) / (2 sqrt(rho)))^d,
so the branching process is critical at kappa = 2 sqrt(rho)/(1+rho) in the
high-dimensional limit.  That matches the alternating-path constant only up
to rho = 2; beyond, geometry pushes the true constant higher.
"""

import numpy as np

from contperc.branching import (
    gw_critical_kappa,
    gw_critical_kappa_limit,
    mean_matrix,
    perron_root,
    perron_root_log,
)
from contperc.thresholds import kappa_c1_closed_form

print("mean matrix at d=1, kappa=1, rho=2:")
print(np.exp(mean_matrix(1, 1.0, 2.0)))
print(f"largest eigenvalue: {perron_root(1, 1.0, 2.0):.6f}")

print("\ncritical kappa versus dimension (rho = 1.5):")
for d in (1, 2, 5, 10, 50, 200, 1000):
    print(f"  d={d:5d}  kappa* = {gw_critical_kappa(d, 1.5):.9f}")
print(f"  limit    kappa* = {gw_critical_kappa_limit(1.5):.9f}")

print("\nbranching vs path-constant comparison:")
print("rho    branching limit   path constant   agree?")
for rho in (1.2, 1.6, 2.0, 3.0, 6.0):
    bl = gw_critical_kappa_limit(rho)
    pc = kappa_c1_closed_form(rho)
    print(f"{rho:4.1f}   {bl:.9f}      {pc:.9f}     {abs(bl - pc) < 1e-9}")

print("\ngrowth rate per dimension at kappa just above critical (rho=2):")
kappa = 1.02 * gw_critical_kappa_limit(2.0)
for d in (10, 100, 1000):
    print(f"  d={d:5d}  (1/d) ln r_d = {perron_root_log(d, kappa, 2.0) / d:+.6f}")
