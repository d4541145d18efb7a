"""The training objective, taken apart.

Shows the loss pieces at work (BCE + soft Dice for occupancy, MSE for
coordinates, the latent prior with its warm-up) and verifies the hand-coded
reverse-mode gradients against central finite differences, which is the
correctness bar the whole optimization stack rests on.
"""

import numpy as np

from heartfields import netcore, training
from heartfields.anatomy import AnatomicalLabel

rng = np.random.default_rng(0)

# ------------------------------------------------ classification loss terms
targets = rng.integers(0, len(AnatomicalLabel), size=50)  # the losses take integer labels
perfect = np.where(AnatomicalLabel.one_hot(targets) > 0, 20.0, -20.0)
agnostic = np.zeros_like(perfect)
print(f"seg loss, saturated-correct logits: {training.seg_loss(perfect, targets)[0]:.2e}")
print(f"seg loss, all-zero logits:          {training.seg_loss(agnostic, targets)[0]:.3f}")
print(f"  (BCE part alone is ln 2 = {np.log(2):.3f} at zero logits)")

# --------------------------------------------------------------- prior terms
codes = rng.standard_normal((8, 16)) * 0.3
print(f"latent prior (mean squared norm): {training.prior_loss(codes)[0]:.3f}")
for epoch in (0, 25, 50, 100, 400):
    print(f"  prior weight at epoch {epoch:>3}: {training.prior_schedule(epoch):.2e}")

seg, reg, prior = 0.8, 350.0, 2.0
print(
    f"total loss(seg={seg}, reg={reg}, prior={prior}, epoch=60) = "
    f"{training.total_loss(seg, reg, prior, epoch=60):.4f}"
)

# ------------------------------------------- gradient check through the MLP
net = netcore.init_params(netcore.ResidualMlp(8, 5, 16, 2), seed=1)
x = rng.standard_normal((6, 8))
err = netcore.finite_diff_check(net, x)
print(f"network forward/backward vs central differences: max rel err {err:.2e}")

# and the full classification pipeline: d loss / d latent code
latent = rng.standard_normal(4) * 0.2
xyz = rng.standard_normal((5, 3)) * 30
t5 = rng.integers(0, len(AnatomicalLabel), size=5)
net = netcore.init_params(netcore.ResidualMlp(7, len(AnatomicalLabel), 16, 2), seed=2)

# the one forward-loss-backward pass training and reconstruction share;
# keep="inputs" forms the input (and so the code) gradient only
inputs = training.seg_inputs(xyz, latent)
_, analytic, _ = training.through_net(
    net, inputs, lambda z: training.seg_loss(z, t5), latent.size, keep="inputs"
)

numeric = netcore.central_difference(
    lambda h: training.seg_loss(netcore.forward(net, training.seg_inputs(xyz, h)), t5)[0],
    latent, 1e-6,
)
print(
    "d seg_loss / d latent, analytic vs numeric: max rel err "
    f"{netcore.relative_grad_error(analytic, numeric):.2e}"
)
