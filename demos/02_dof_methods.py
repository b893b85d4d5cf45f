"""Compare the degrees-of-freedom schemes for estimated latent factors.

At large study dimensions (n = 36 subjects after covariates, m = 17862 gene
directions) the classical parameter-counting rules and the conservative
estimator nearly agree for directions orthogonal to the factor loadings; the
conservative estimator alone responds to the loading of the tested gene.
"""

import numpy as np

from factordf import (df_conservative, df_gollob, df_mandel, df_naive,
                      df_noise, noise_floor)

n, m, r_hat = 36, 17862, 2

print(f"total df charged for {r_hat} estimated factors at n={n}, m={m}:")
print(f"  naive (factors as covariates): {df_naive(r_hat).total:.4f}")
print(f"  Gollob parameter count:        {df_gollob(n, m, r_hat).total:.4f}")
mandel = df_mandel(n, m, r_hat, mc_reps=10000, seed=1)
print(f"  Mandel Monte-Carlo:            {mandel.total:.4f} "
      f"(mc se {mandel.mc_se:.5f})")
print(f"  asymptotic noise value:        {df_noise(n, m, r_hat).total:.4f}")
print(f"  conservative, loadings _|_ s:  {df_conservative(n, m, [0, 0]).total:.4f}")
print("\nNote: the Monte-Carlo Mandel value sits about 1% below the asymptotic")
print("noise value; the expected top Wishart eigenvalues are pulled down by")
print("their (Tracy-Widom) fluctuations at finite size.  Each draw takes the")
print("top eigenvalues of the Dumitriu-Edelman bidiagonal model (2n - 1")
print("chi-squares, one tridiagonal solve), not of a dense Wishart matrix.")

print("\nconservative df responds to the tested direction's factor loadings:")
for proj in (0.0, 0.005, 0.02, 0.05):
    est = df_conservative(n, m, [proj, proj / 2])
    print(f"  (vhat_k' s)^2/s's = ({proj:.3f}, {proj / 2:.3f})"
          f" -> total df {est.total:.3f}")
print(f"\nper-factor floor (1 + sqrt(n/m))^2 = {noise_floor(n, m):.4f}")
