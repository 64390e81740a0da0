"""Matrix-valued expressions: length-scale-indexed random fields.

Category i pairs a 64-entry characteristic vector (normal draws shifted
by 20*i) with a zero-mean random field whose covariance decays with
squared pixel distance over length scale i. Larger length scales give
smoother images; a 3x3 mean filter smooths synthesized output further.
"""

import numpy as np

from sectes import GpSimConfig, TrainConfig, gen_scalar_to_matrix_dataset, \
    gp_sample
from sectes.ctes import synthesize_each, train_ctes


def low_pass_filter(image: np.ndarray) -> np.ndarray:
    """3x3 uniform mean filter with replicate padding; shape-preserving."""
    padded = np.pad(image, 1, mode="edge")
    out = np.zeros_like(image)
    for di in range(3):
        for dj in range(3):
            out += padded[di:di + image.shape[0], dj:dj + image.shape[1]]
    return out / 9.0


cfg = GpSimConfig(grid=16, images_per_category=24, categories=5, seed=0)

print("field roughness (mean squared adjacent-pixel difference) by category:")
rng = np.random.default_rng(1)
for cat in range(1, 6):
    fields = [gp_sample(cfg, cat, rng) for _ in range(100)]
    rough = np.mean([np.mean(np.diff(f, axis=1) ** 2) for f in fields])
    print(f"  length scale {cat}: {rough:.3f}")

dataset = gen_scalar_to_matrix_dataset(cfg)
print(f"\ndataset: {dataset.n_samples} images of {dataset.expr_shape}, "
      f"characteristics of dim {dataset.char_dim}")

# matrix expressions swap the dense decoder/encoder for strided
# (de)convolutional stacks; a short run just demonstrates the path
model = train_ctes(dataset, TrainConfig(iterations=40, batch_size=16, seed=3))
print(f"conv model trained {model.iterations_run} iterations; "
      f"L_D={model.loss_d[-1]:.3f} L_G={model.loss_g[-1]:.3f}")

x = dataset.x[dataset.groups == 2][0]
fake = synthesize_each(model, x[None, :], rng=np.random.default_rng(4))
image = fake[0].reshape(dataset.expr_shape)
smoothed = low_pass_filter(image)
print(f"\nsynthesized image: std {image.std():.3f}, "
      f"roughness {np.mean(np.diff(image, axis=1) ** 2):.3f}")
print(f"after 3x3 mean filter: std {smoothed.std():.3f}, "
      f"roughness {np.mean(np.diff(smoothed, axis=1) ** 2):.3f}")
