"""Selective ensembling: train several models, score them by inverse
validation, and keep only the best.

Adversarial training runs vary in quality from seed to seed. Each
member is scored by training a classifier on the other members' fakes
versus the real expressions and measuring how firmly the member's own
output lands in the fake class; members whose output the classifier
pushes toward "real-adjacent" regions score low and are dropped.
"""

import numpy as np

from sectes import EnsembleConfig, ForestConfig, SimConfig, TrainConfig, \
    gen_multivariate_dataset
from sectes.ensemble import ensemble_synthesize, train_se_ctes

dataset = gen_multivariate_dataset(SimConfig(sigma=0.05, seed=4))

config = EnsembleConfig(
    k=5, h=2,
    train=TrainConfig(iterations=300, seed=0),  # published: iterations=1000
    clf=ForestConfig(n_trees=60),
    seed=7)
ensemble = train_se_ctes(dataset, config)

print("member scores (fraction of own output classified as peer-fake):")
for i, score in enumerate(ensemble.scores):
    mark = " <- selected" if i in ensemble.selected else ""
    print(f"  member {i}: a_{i + 1} = {score:.3f}{mark}")

x = np.array([0.6, 0.6])
pooled = ensemble_synthesize(ensemble, np.repeat(x[None, :], 400, 0),
                             rng=np.random.default_rng(1), jitter=0.0)
real = dataset.y[dataset.groups == 3]
print(f"\nsynthesis at x = {x.tolist()} (group-3 territory):")
print(f"  pooled fake mean {np.round(pooled.mean(axis=0), 3)}")
print(f"  real group mean  {np.round(real.mean(axis=0), 3)}")
print(f"\nthe pooled batch is a uniform mixture over the {config.h} "
      "selected generators, which cancels opposite-signed member biases.")
