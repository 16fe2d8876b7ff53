"""Critical intensity of the planar disc model as a median over trials.

Each trial is reduced to the intensity at which it first crosses the box;
the estimate is the median of those intensities, with the distribution-free
95% interval given by two of their order statistics.  The ladder of box
sides exposes the finite-size drift; the normalized threshold
lambda_c * v_d * sum w (2r)^d removes the scale and mass of the mixture
(literature value for equal discs: about 4.51, covered area about 0.676).
"""

import sys

from contperc.boolean_model import RadiusMixture
from contperc.estimation import size_ladder

mix = RadiusMixture.dirac(1.0)
ladder = size_ladder(
    mix,
    2,
    [12.0, 24.0, 48.0],
    trials=150,
    seed=11,
    progress=lambda msg: print("  " + msg, file=sys.stderr),
)

print("L      lambda_c    normalized   covered   CI (normalized)")
for est in ladder.estimates:
    print(
        f"{est.box_side:5.0f}  {est.lambda_c:.6f}   {est.normalized:.4f}      "
        f"{est.covered_volume:.4f}    [{est.normalized_ci_low:.4f}, {est.normalized_ci_high:.4f}]"
    )
print(f"drift between levels: {[f'{d:.4f}' for d in ladder.drifts]}")
print(f"systematic-uncertainty flag: {ladder.systematic}")
