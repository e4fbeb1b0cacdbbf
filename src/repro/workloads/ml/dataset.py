"""Synthetic image dataset: 40 diversified ~1 MB images.

The paper uses the GuaranTEE dataset of 40 one-megabyte images; with
no such dataset available offline, this module synthesises images of
the same count and size: each image is a class-specific structured
pattern (gradients, stripes, checker tiles at class-dependent
frequency and palette) plus deterministic noise.  Raw HWC uint8 at
592×592×3 ≈ 1.003 MiB matches the paper's per-image footprint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError

#: 592*592*3 bytes = 1,051,392 ≈ 1.00 MiB raw.
DEFAULT_IMAGE_SIDE = 592
DEFAULT_IMAGE_COUNT = 40


@dataclass(frozen=True)
class LabeledImage:
    """One image with the class id of the template that built it."""

    image: np.ndarray
    template_class: int
    index: int

    @property
    def nbytes(self) -> int:
        return self.image.nbytes


class ImageDataset:
    """A list of labeled synthetic images."""

    def __init__(self, images: list[LabeledImage]) -> None:
        if not images:
            raise WorkloadError("dataset cannot be empty")
        self.images = images

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self):
        return iter(self.images)

    def __getitem__(self, index: int) -> LabeledImage:
        return self.images[index]


def _class_pattern(rng: np.random.Generator, side: int, cls: int) -> np.ndarray:
    """A structured pattern distinctive to ``cls``."""
    ys, xs = np.mgrid[0:side, 0:side]
    frequency = 2 + cls
    phase = cls * 0.7
    base = (
        np.sin(xs * frequency * 2 * np.pi / side + phase)
        + np.cos(ys * (frequency + 1) * 2 * np.pi / side)
    )
    palette = np.array([
        [(cls * 37) % 200 + 55, (cls * 91) % 200 + 55, (cls * 53) % 200 + 55]
    ], dtype=np.float64)
    image = (base[..., None] * 0.25 + 0.5) * palette
    noise = rng.normal(0.0, 14.0, size=(side, side, 3))
    return np.clip(image + noise, 0, 255).astype(np.uint8)


def generate_dataset(
    count: int = DEFAULT_IMAGE_COUNT,
    side: int = DEFAULT_IMAGE_SIDE,
    num_classes: int = 10,
    seed: int = 0,
) -> ImageDataset:
    """Build ``count`` diversified images cycling through the classes."""
    if count < 1:
        raise WorkloadError(f"need at least one image, got {count}")
    if num_classes < 1:
        raise WorkloadError(f"need at least one class, got {num_classes}")
    rng = np.random.default_rng(seed)
    images = [
        LabeledImage(
            image=_class_pattern(rng, side, index % num_classes),
            template_class=index % num_classes,
            index=index,
        )
        for index in range(count)
    ]
    return ImageDataset(images)
