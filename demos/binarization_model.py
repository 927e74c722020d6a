"""Fit the three-part histogram model to a noisy synthetic volume.

The gray-value histogram of a fluorescence stack has a tall background
peak, a smaller foreground bump, and a shallow bridge of blurred
between-values connecting them. This script renders such a volume,
fits the mixture, and compares the model threshold with plain Otsu.
"""

import numpy as np

from nucsplit.binarize import BinarizationConfig, binarize
from nucsplit.histmodel import background_posterior, em_fit, gray_levels, model_threshold, otsu_threshold
from nucsplit.synthgen import SceneConfig, generate


def main():
    scene = SceneConfig(
        size=(128, 128, 48),
        nucleus_count=8,
        semi_axis_range=(8.0, 11.0),
        mu_b=25.0,
        mu_f=170.0,
        noise_sigma=7.0,
        psf_sigma=1.3,
        seed=6,
    )
    intensity, truth = generate(scene)
    print(f"scene: {scene.nucleus_count} nuclei in {scene.size}, "
          f"background {scene.mu_b}, foreground {scene.mu_f}")

    # the histogram is the count of each gray level
    counts = np.bincount(gray_levels(intensity.data).ravel())
    model = em_fit(counts)
    print("\nfitted mixture:")
    print(f"  background  p={model.p_b:.3f}  mu={model.mu_b:6.2f}  sigma={model.sigma_b:.2f}")
    print(f"  foreground  p={model.p_f:.3f}  mu={model.mu_f:6.2f}  sigma={model.sigma_f:.2f}")
    print(f"  bridge      alpha={model.alpha:.5f}")

    t_model = model_threshold(model)
    t_otsu = otsu_threshold(counts)
    print(f"\nmodel threshold {t_model}, otsu threshold {t_otsu}")

    print("\nbackground posterior along the gray axis:")
    for level in (int(model.mu_b), t_otsu, t_model, int(model.mu_f)):
        print(f"  P(B | {level:3d}) = {background_posterior(model, level):.4f}")

    mask, _ = binarize(intensity, BinarizationConfig(method="model_threshold", sigma_smooth=1.3))
    inside = mask.data[truth.data > 0].mean()
    outside = mask.data[truth.data == 0].mean()
    print(f"\nmask covers {100 * inside:.1f}% of true nucleus voxels, "
          f"{100 * outside:.2f}% of background voxels")


if __name__ == "__main__":
    main()
