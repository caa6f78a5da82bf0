"""The reuse window behind LRU concentrates around the characteristic time.

At each request epoch, the smallest past window containing C distinct
contents has width tau; an LRU hit occurs iff the requested content was
referenced within tau.  As C grows, tau concentrates around the
characteristic time T, which is why a fixed timer T mimics LRU.  The
sampled spread shrinks roughly like 1/sqrt(C), and an explicit
exponential bound (loose at these sizes) caps the exceedance.
"""

import numpy as np

from ttlapprox import (LRU, Exponential, SimulationConfig, ZipfLaw, build_catalog,
                       characteristic_time, concentration_curve, replicate)

for n, C in ((200, 60), (1000, 300), (4000, 1200)):
    catalog = build_catalog(ZipfLaw(0.0), n, float(n), Exponential(1.0))
    T = characteristic_time(catalog, C).t
    config = SimulationConfig(catalog=catalog, policy=LRU(C), horizon_events=60_000,
                              seed=11, replications=2, tau_stride=2)
    report = replicate(config)
    s = report.tau_samples / T
    exceed = report.tau_exceedance(0.9 * T, 1.1 * T)
    curve = concentration_curve(kappa1=2.0, kappa2=0.0, gamma=0.35,
                                psi=Exponential(1.0), C=C, beta1=C / n)
    print(f"n={n:5d} C={C:5d}: T={T:.4f}  tau/T spread "
          f"[{np.quantile(s, 0.05):.3f}, {np.quantile(s, 0.95):.3f}]  "
          f"P[|tau/T-1|>0.1] = {exceed:.4f}  "
          f"exponential bound = {min(curve.two_sided(0.1), 1.0):.3f}")
