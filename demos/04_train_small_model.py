"""Train a small joint model end to end (a few minutes on CPU).

Twelve cohort shapes, reduced network and latent sizes. Prints the loss
trajectory and the latent statistics that reconstruction will use as its
prior. For the full-size run use the pipeline commands instead:

    heartfields generate --config exp.cfg
    heartfields train    --config exp.cfg
"""

import numpy as np

from heartfields import anatomy, training

topo = anatomy.build_template()
print("sampling 12 shapes ...")
samples = []
for i in range(12):
    mesh = anatomy.generate_shape(topo, anatomy.sample_params(200 + i))
    samples.append(training.build_sample(mesh, f"s{i:02d}", seg_n=4000, reg_n=3000, seed=i))

cfg = training.TrainConfig(
    epochs=150,
    latent_dim=8,
    hidden_dim=32,
    num_blocks=2,
    seg_batch=512,
    reg_batch=128,
    lr_net=1e-3,
    lr_latent=5e-3,
    val_fraction=0.25,
    train_seed=0,
    dtype="float64",
)
result = training.train(samples, cfg)

print("epoch   seg      reg        prior    total    val")
for row in result.log[::15] + [result.log[-1]]:
    print("%5d  %7.4f  %9.2f  %7.4f  %7.4f  %7.4f" % row)

codes = result.latents.codes
print(f"\ntrain shapes: {len(result.train_ids)}, validation shapes: {len(result.val_ids)}")
print(f"latent code norms: {np.round(np.linalg.norm(codes, axis=1), 2)}")
print(f"latent mean norm: {np.linalg.norm(result.stats.mean):.3f}")
# the stats keep only the inverse covariance: take that of the training codes
train_codes = codes[[result.latents.shape_ids.index(s) for s in result.train_ids]]
eig = np.linalg.eigvalsh(np.cov(train_codes, rowvar=False))
print(f"latent covariance eigenvalues: {np.format_float_scientific(eig.min(), 2)} .. "
      f"{np.format_float_scientific(eig.max(), 2)}")
