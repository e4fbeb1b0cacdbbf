"""Tests for the ML inference substrate."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.guestos.context import CostProfile, ExecContext
from repro.guestos.kernel import GuestKernel
from repro.hw.machine import xeon_gold_5515
from repro.sim.rng import SimRng
from repro.workloads.ml import (
    MobileNetLite,
    generate_dataset,
    run_inference_workload,
)
from repro.workloads.ml import tensor
from repro.workloads.ml.dataset import DEFAULT_IMAGE_SIDE
from repro.workloads.ml.inference import classify_image, stage_dataset


def make_kernel():
    return GuestKernel(ExecContext(
        machine=xeon_gold_5515(),
        profile=CostProfile(noise_sigma=0.0),
        rng=SimRng(3),
    ))


class TestTensorOps:
    def test_conv2d_shapes(self):
        x = np.ones((8, 8, 3))
        w = np.ones((3, 3, 3, 4))
        out, macs = tensor.conv2d(x, w)
        assert out.shape == (6, 6, 4)
        assert macs == 6 * 6 * 3 * 3 * 3 * 4

    def test_conv2d_stride(self):
        x = np.ones((9, 9, 1))
        w = np.ones((3, 3, 1, 1))
        out, _ = tensor.conv2d(x, w, stride=2)
        assert out.shape == (4, 4, 1)

    def test_conv2d_identity_kernel(self):
        x = np.arange(25.0).reshape(5, 5, 1)
        w = np.zeros((3, 3, 1, 1))
        w[1, 1, 0, 0] = 1.0   # center tap = identity on the valid region
        out, _ = tensor.conv2d(x, w)
        np.testing.assert_allclose(out[:, :, 0], x[1:4, 1:4, 0])

    def test_conv2d_channel_mismatch(self):
        with pytest.raises(WorkloadError):
            tensor.conv2d(np.ones((5, 5, 2)), np.ones((3, 3, 3, 1)))

    def test_depthwise_preserves_channels(self):
        x = np.ones((6, 6, 5))
        w = np.ones((3, 3, 5))
        out, macs = tensor.depthwise_conv2d(x, w)
        assert out.shape == (4, 4, 5)
        assert macs == 4 * 4 * 3 * 3 * 5

    def test_depthwise_equals_manual(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 5, 2))
        w = rng.normal(size=(3, 3, 2))
        out, _ = tensor.depthwise_conv2d(x, w)
        manual = sum(
            x[di:di + 3, dj:dj + 3, 0] * w[di, dj, 0]
            for di in range(3) for dj in range(3)
        )
        np.testing.assert_allclose(out[:, :, 0], manual)

    def test_pointwise(self):
        x = np.ones((4, 4, 3))
        w = np.ones((3, 2))
        out, macs = tensor.pointwise_conv2d(x, w)
        assert out.shape == (4, 4, 2)
        np.testing.assert_allclose(out, 3.0)
        assert macs == 4 * 4 * 3 * 2

    def test_relu6_clips(self):
        x = np.array([-1.0, 3.0, 9.0])
        np.testing.assert_allclose(tensor.relu6(x), [0.0, 3.0, 6.0])

    def test_global_avg_pool(self):
        x = np.arange(8.0).reshape(2, 2, 2)
        pooled, _ = tensor.global_avg_pool(x)
        np.testing.assert_allclose(pooled, [3.0, 4.0])

    def test_dense(self):
        out, macs = tensor.dense(np.array([1.0, 2.0]),
                                 np.array([[1.0], [1.0]]),
                                 np.array([0.5]))
        np.testing.assert_allclose(out, [3.5])
        assert macs == 2

    def test_softmax_sums_to_one(self):
        probs = tensor.softmax(np.array([1.0, 2.0, 3.0]))
        assert probs.sum() == pytest.approx(1.0)
        assert probs.argmax() == 2

    def test_softmax_handles_large_logits(self):
        probs = tensor.softmax(np.array([1000.0, 1000.0]))
        np.testing.assert_allclose(probs, [0.5, 0.5])


class TestMobileNet:
    def test_deterministic_weights(self):
        a, b = MobileNetLite(seed=5), MobileNetLite(seed=5)
        image = np.zeros((64, 64, 3), dtype=np.uint8)
        assert a.classify(image)[0] == b.classify(image)[0]

    def test_different_seeds_different_models(self):
        image = generate_dataset(count=1, side=64)[0].image
        probs_a, _ = MobileNetLite(seed=1).forward(image)
        probs_b, _ = MobileNetLite(seed=2).forward(image)
        assert not np.allclose(probs_a, probs_b)

    def test_forward_output_is_distribution(self):
        model = MobileNetLite()
        image = generate_dataset(count=1, side=96)[0].image
        probs, macs = model.forward(image)
        assert probs.shape == (model.num_classes,)
        assert probs.sum() == pytest.approx(1.0)
        assert macs > 100_000

    def test_depthwise_separable_cheaper_than_dense_conv(self):
        """The architectural point of MobileNet: fewer MACs per block."""
        model = MobileNetLite()
        image = generate_dataset(count=1, side=96, seed=1)[0].image
        x = model.preprocess(image)
        stem_out, _ = tensor.conv2d(x, model._weights["stem"], stride=2)
        channels = stem_out.shape[2]
        _, dw_macs = tensor.depthwise_conv2d(stem_out, model._weights["dw0"])
        _, pw_macs = tensor.pointwise_conv2d(
            tensor.depthwise_conv2d(stem_out, model._weights["dw0"])[0],
            model._weights["pw0"],
        )
        dense_equivalent = (stem_out.shape[0] - 2) * (stem_out.shape[1] - 2) \
            * 9 * channels * model._weights["pw0"].shape[1]
        assert dw_macs + pw_macs < dense_equivalent

    def test_rejects_tiny_input(self):
        with pytest.raises(WorkloadError):
            MobileNetLite(input_size=8)

    def test_preprocess_normalises(self):
        model = MobileNetLite()
        image = np.full((100, 100, 3), 255, dtype=np.uint8)
        processed = model.preprocess(image)
        assert processed.shape == (model.input_size, model.input_size, 3)
        assert processed.max() == pytest.approx(1.0)


class TestDataset:
    def test_default_images_are_about_1mb(self):
        dataset = generate_dataset(count=2)
        for item in dataset:
            assert abs(item.nbytes - (1 << 20)) < 60_000
        assert DEFAULT_IMAGE_SIDE == 592

    def test_forty_images_by_default(self):
        assert len(generate_dataset()) == 40

    def test_deterministic(self):
        a = generate_dataset(count=3, side=32, seed=9)
        b = generate_dataset(count=3, side=32, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.image, y.image)

    def test_classes_cycle(self):
        dataset = generate_dataset(count=12, side=32, num_classes=4)
        assert [item.template_class for item in dataset] == [
            0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3
        ]

    def test_rejects_empty(self):
        with pytest.raises(WorkloadError):
            generate_dataset(count=0)

    def test_same_class_images_more_similar_than_cross_class(self):
        dataset = generate_dataset(count=4, side=64, num_classes=2, seed=3)
        same = np.mean(np.abs(
            dataset[0].image.astype(int) - dataset[2].image.astype(int)
        ))
        cross = np.mean(np.abs(
            dataset[0].image.astype(int) - dataset[1].image.astype(int)
        ))
        assert same < cross


class TestInference:
    def test_classify_charges_costs(self):
        kernel = make_kernel()
        model = MobileNetLite()
        dataset = generate_dataset(count=1, side=64)
        paths = stage_dataset(kernel, dataset)
        before = kernel.ctx.elapsed_ns()
        result = classify_image(kernel, model, dataset[0], paths[0])
        assert result.elapsed_ns > 0
        assert kernel.ctx.elapsed_ns() > before
        assert 0 <= result.label < model.num_classes
        assert 0.0 < result.confidence <= 1.0

    def test_full_workload_covers_dataset(self):
        kernel = make_kernel()
        results = run_inference_workload(
            kernel, MobileNetLite(), generate_dataset(count=5, side=64)
        )
        assert len(results) == 5
        assert [r.index for r in results] == [0, 1, 2, 3, 4]

    def test_labels_deterministic_across_runs(self):
        model = MobileNetLite(seed=11)
        dataset = generate_dataset(count=4, side=64, seed=2)
        labels_a = [
            r.label for r in run_inference_workload(make_kernel(), model, dataset)
        ]
        labels_b = [
            r.label for r in run_inference_workload(make_kernel(), model, dataset)
        ]
        assert labels_a == labels_b

    def test_same_template_same_label(self):
        """Images built from one template classify identically."""
        model = MobileNetLite(seed=11)
        dataset = generate_dataset(count=10, side=64, num_classes=5, seed=2)
        by_template = {}
        results = run_inference_workload(make_kernel(), model, dataset)
        for result in results:
            by_template.setdefault(result.template_class, set()).add(result.label)
        agreement = sum(1 for labels in by_template.values() if len(labels) == 1)
        assert agreement >= len(by_template) - 1   # allow one noisy template
