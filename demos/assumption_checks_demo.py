"""Verify the hypotheses of the convergence theorem with
``ttlapprox.assumptions.check_assumptions``.

Four checks: (1) an envelope cdf lower-bounds all standardized
inter-request ccdfs, with mean m_psi in (0, 1] measuring family
variability; (2) a relative-Lipschitz smoothness constant for the family;
(3) the popularity tail keeps its order of magnitude around the cache
size (P1); (4) the cache scales at most linearly with slope below m_psi
(C1).  One flat report holds all four.
"""

from ttlapprox import Exponential, Gamma, Weibull, ZipfLaw, build_catalog
from ttlapprox.assumptions import MaxEnvelope, check_assumptions

n, C = 2000, 600
members = [Exponential(1.0), Gamma(2.0, 2.0), Weibull(1.5, 1.0)]
catalog = build_catalog(ZipfLaw(0.8), n, float(n),
                        [(0.4, members[0]), (0.3, members[1]), (0.3, members[2])])

# mixed shapes: use the pointwise-max construction as the envelope
psi = MaxEnvelope(members)
r = check_assumptions(catalog, C, psi, kappa1=1.2, kappa2=0.0, gamma=0.1, beta1=0.35, rho=0.5)

print(f"envelope: holds={r.envelope_holds}  m_psi={r.m_psi:.4f}  min margin={r.min_margin:.2e}")
print(f"smoothness: B={r.B:.4f} (rho={r.rho})  sup t*density={r.b0:.4f}  "
      f"sup density={r.uniform_lipschitz_M}")
print(f"tail regularity: holds={r.p1_holds}  tail(k1*C)={r.p1_lhs:.4f} > "
      f"gamma*tail(k2*C)={r.p1_rhs:.4f}")
print(f"cache scaling: holds={r.c1_holds}  beta1={r.beta1}  margin to m_psi={r.c1_margin:.4f}")
print(f"all assumptions hold: {r.all_hold}")

print()
print("same catalog, cache at 99% of the contents: scaling check must fail")
r2 = check_assumptions(catalog, 0.99 * n, psi, kappa1=1.2, kappa2=0.0, gamma=0.1, beta1=0.99)
print(f"cache scaling holds: {r2.c1_holds} (beta1={r2.beta1} vs m_psi={r2.m_psi:.4f})")
