"""Train one adversarial synthesis model on the grouped multivariate data
and inspect what it generates.

The dataset maps two characteristics drawn around group-specific means
into six expression variables. After training, the generator should
produce expressions that track the group structure; we check that by
comparing synthesized batches against the real per-group statistics.
"""

import numpy as np

from sectes import SimConfig, TrainConfig, gen_multivariate_dataset
from sectes.ctes import synthesize_each, train_ctes

dataset = gen_multivariate_dataset(SimConfig(sigma=0.03, seed=0))
print(f"dataset: {dataset.n_samples} rows, {dataset.char_dim} -> "
      f"{dataset.expr_dim}, {dataset.n_groups} groups")

# a shortened run is enough for a visible fit; the published setting
# is iterations=1000
config = TrainConfig(iterations=400, seed=1)
model = train_ctes(dataset, config)
print(f"trained {model.iterations_run} iterations; final losses "
      f"L_D={model.loss_d[-1]:.3f} L_G={model.loss_g[-1]:.3f}")

rng = np.random.default_rng(2)
for group in (1, 3, 5):
    x_center = np.array([0.2 * group, 0.2 * group])
    fake = synthesize_each(model, np.repeat(x_center[None, :], 200, 0),
                           rng=rng, jitter=0.0)
    real = dataset.y[dataset.groups == group]
    print(f"\ngroup {group} (x = {x_center.tolist()}):")
    print(f"  real mean  {np.round(real.mean(axis=0), 3)}")
    print(f"  fake mean  {np.round(fake.mean(axis=0), 3)}")

# jitter on the characteristic diversifies the synthesized batch
probe = np.repeat([[0.6, 0.6]], 500, 0)
tight = synthesize_each(model, probe, rng=np.random.default_rng(3), jitter=0.0)
loose = synthesize_each(model, probe, rng=np.random.default_rng(3), jitter=0.05)
print(f"\nper-feature std without jitter: {np.round(tight.std(axis=0), 4)}")
print(f"per-feature std with jitter:    {np.round(loose.std(axis=0), 4)}")
