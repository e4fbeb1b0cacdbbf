"""A MobileNet-style image classifier.

The paper's model (MobileNetV1/V2 via TFLite) is a stack of
depthwise-separable convolution blocks; :class:`MobileNetLite` keeps
that architecture — standard conv stem, N depthwise+pointwise blocks
with ReLU6, global average pooling, dense classifier — at a reduced
width/resolution so the pure-numpy forward pass stays fast.

Weights are deterministic per seed (He-style scaled Gaussians), so
classifications are reproducible; the class templates in
:mod:`repro.workloads.ml.dataset` are built to be separable under the
model's first-layer statistics, making label agreement meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.ml import tensor


@dataclass
class MobileNetLite:
    """Depthwise-separable CNN with deterministic weights.

    Parameters
    ----------
    input_size:
        Square input resolution fed to the stem.
    base_channels:
        Stem output channels; each block doubles up to ``max_channels``.
    num_blocks:
        Number of depthwise-separable blocks.
    num_classes:
        Classifier width.
    seed:
        Weight-initialisation seed.
    """

    input_size: int = 64
    base_channels: int = 8
    num_blocks: int = 4
    num_classes: int = 10
    seed: int = 0
    _weights: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.input_size < 16:
            raise WorkloadError(f"input size too small: {self.input_size}")
        if self.num_blocks < 1:
            raise WorkloadError(f"need at least one block: {self.num_blocks}")
        rng = np.random.default_rng(self.seed)
        channels = self.base_channels
        self._weights["stem"] = self._he(rng, (3, 3, 3, channels))
        for block in range(self.num_blocks):
            out_channels = min(channels * 2, 64)
            self._weights[f"dw{block}"] = self._he(rng, (3, 3, channels))
            self._weights[f"pw{block}"] = self._he(rng, (channels, out_channels))
            channels = out_channels
        self._weights["fc_w"] = self._he(rng, (channels, self.num_classes))
        self._weights["fc_b"] = np.zeros(self.num_classes)
        self.feature_channels = channels

    @staticmethod
    def _he(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        fan_in = int(np.prod(shape[:-1])) if len(shape) > 1 else shape[0]
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)

    def preprocess(self, image: np.ndarray) -> np.ndarray:
        """Resize (nearest) and normalise an HWC uint8 image to the stem size."""
        if image.ndim != 3 or image.shape[2] != 3:
            raise WorkloadError(f"expected HWC RGB image, got {image.shape}")
        rows = np.linspace(0, image.shape[0] - 1, self.input_size).astype(int)
        cols = np.linspace(0, image.shape[1] - 1, self.input_size).astype(int)
        resized = image[np.ix_(rows, cols)].astype(np.float64)
        return resized / 127.5 - 1.0

    def forward(self, image: np.ndarray) -> tuple[np.ndarray, int]:
        """Full forward pass; returns (probabilities, total MACs)."""
        x = self.preprocess(image)
        total_macs = 0
        x, macs = tensor.conv2d(x, self._weights["stem"], stride=2)
        total_macs += macs
        x = tensor.relu6(x)
        for block in range(self.num_blocks):
            stride = 2 if block % 2 == 1 else 1
            x, macs = tensor.depthwise_conv2d(
                x, self._weights[f"dw{block}"], stride=stride
            )
            total_macs += macs
            x = tensor.relu6(x)
            x, macs = tensor.pointwise_conv2d(x, self._weights[f"pw{block}"])
            total_macs += macs
            x = tensor.relu6(x)
        features, macs = tensor.global_avg_pool(x)
        total_macs += macs
        logits, macs = tensor.dense(
            features, self._weights["fc_w"], self._weights["fc_b"]
        )
        total_macs += macs
        return tensor.softmax(logits), total_macs

    def classify(self, image: np.ndarray) -> tuple[int, float, int]:
        """Top-1 classification: (label, confidence, MACs)."""
        probabilities, macs = self.forward(image)
        label = int(np.argmax(probabilities))
        return label, float(probabilities[label]), macs
