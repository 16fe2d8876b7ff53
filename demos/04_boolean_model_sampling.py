"""Sampling and clustering Boolean models in a box.

A configuration is reproducible from its seed alone.  Clusters are the
connected components (scipy.sparse.csgraph) of the intersecting pairs, whose
candidates come from one k-d tree per radius class; the crossing event asks
for a single cluster touching both faces along the first axis.
"""

from contperc.boolean_model import (
    BoxSpec,
    RadiusMixture,
    clusters,
    covered_fraction_empirical,
    covered_fraction_exact,
    percolates,
    sample,
)

mix = RadiusMixture([(1.0, 0.8), (2.0, 0.2)])
box = BoxSpec(2, 32.0)

for lam, label in ((0.05, "subcritical"), (0.32, "supercritical")):
    hits = 0
    sizes = []
    for s in range(50):
        cfg = sample(mix, lam, box, seed=s)
        lab = clusters(cfg, box)
        hits += percolates(lab)
        sizes.append(cfg.n / max(lab.cluster_count(), 1))
    print(
        f"{label}: lambda={lam:.3f}, crossing rate {hits / 50:.2f}, "
        f"mean balls per cluster {sum(sizes) / len(sizes):.1f}"
    )

lam = 0.08
cfg = sample(mix, lam, box, seed=7)
exact = covered_fraction_exact(mix, lam, 2)
emp = covered_fraction_empirical(cfg, box, probes=20_000, seed=8)
# The probe error is the probes' binomial error on this one configuration; it
# leaves out how far the configuration's own coverage lies from the exact value.
print(
    f"\ncovered fraction: exact {exact:.4f}, one-sample empirical {emp.fraction:.4f} "
    f"(probe error +- {emp.stderr:.4f})"
)
