"""Reconstruct a held-out shape from its slices and score the result.

Trains a small model, slices an unseen cohort member, optimizes a latent
code against the slice labels through the frozen classifier, decodes the
personalized mesh from the template coordinates, and reports the distance
and overlap metrics. The numbers are those of a deliberately small model;
the pipeline commands run the full-size configuration.
"""

import numpy as np

from heartfields import acquisition as acq
from heartfields import anatomy, harness, inference, training

topo = anatomy.build_template()

print("training a small model on 16 shapes ...")
samples = []
for i in range(16):
    mesh = anatomy.generate_shape(topo, anatomy.sample_params(300 + i))
    samples.append(training.build_sample(mesh, f"s{i:02d}", seg_n=5000, reg_n=3000, seed=i))
cfg = training.TrainConfig(
    epochs=250, latent_dim=8, hidden_dim=48, num_blocks=3,
    seg_batch=768, reg_batch=192, lr_net=1e-3, lr_latent=5e-3,
    val_fraction=0.2, train_seed=0, dtype="float32",
)
result = training.train(samples, cfg)
print(f"final losses: {result.log[-1][1:]}")

# a shape the model has never seen, observed only through its slices
target = anatomy.generate_shape(topo, anatomy.sample_params(9999))
contours = acq.acquire(target, "held_out", density=2.0)
# the pipeline's weights for ideal contours, with a smaller point budget
weights = inference.InferenceWeights(
    lambda_bce=harness.CONDITIONS["ideal"][1], steps=300, max_points=2000,
    lr=harness.ExperimentConfig().infer_lr,
)
rec = inference.optimize_latent(contours, result.seg_net, result.stats, weights)
print(f"latent optimization: {rec.n_points} points, "
      f"loss {rec.loss_trace[0]:.3f} -> {rec.loss_trace.min():.3f}")

pred = inference.predict_mesh(result.reg_net, rec.latent, topo)

ref = harness.CaseReference(target)
m, extras = harness.case_metrics(pred, ref, contours, result.seg_net, rec.latent)

print(f"corresponding-vertex ED {m['ed_mean']:.2f} mm, RMSE {m['rmse']:.2f} mm")
print(f"chamfer: directed {m['chamfer_ab']:.2f} / {m['chamfer_ba']:.2f} mm, "
      f"symmetric {m['chamfer_sym']:.2f} mm")
print(f"point Dice: LVM {m['dice_lvm']:.3f}, RVM {m['dice_rvm']:.3f}")
print(f"LV volume: predicted {m['lv_vol']:.0f} mL, true {extras['true_lv_vol']:.0f} mL")

# a dense label map decoded from the same latent code, over the contours' bounds
lo, dims = inference.label_box(contours.all_points(acq.KIND_CONTOUR)[0], 4.0)
labels = inference.predict_dense_labels(result.seg_net, rec.latent, lo, 4.0, dims)
census = {anatomy.AnatomicalLabel(i).name: int(n) for i, n in
          enumerate(np.bincount(labels.ravel(), minlength=len(anatomy.AnatomicalLabel)))}
print(f"dense label map {labels.shape}: {census}")
