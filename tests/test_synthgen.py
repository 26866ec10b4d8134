import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest

import _render_ref
from _box_ref import iou
from _containerfile import edit_container
from lirrdet import container, synthgen
from lirrdet.lirr import DomainLabel
from lirrdet.synthgen import (
    Background,
    BenchmarkConfig,
    DatasetError,
    DomainParams,
    RenderError,
    Sample,
    SceneSpec,
    TargetTexture,
    SOURCE_DOMAIN,
    TARGET_DOMAIN,
    _CHUNK_PX,
    _Row,
    _coverage_map,
    load_dataset,
    make_benchmark,
    render_scene,
    render_scene_parts,
    save_dataset,
)

FLAT = DomainParams(illumination_gain=1.0, noise_sigma=0.0, background=Background.CLUTTER,
                    clutter_density=0.0, target_texture=TargetTexture.FLAT)


def scan_box(parts, eps=1e-3):
    """Tight box of pixels whose pre-noise value departs from the background."""
    hit = np.abs(parts.prenoise - parts.background) > eps
    rows = np.flatnonzero(hit.any(axis=1))
    cols = np.flatnonzero(hit.any(axis=0))
    return (float(cols[0]), float(rows[0]), float(cols[-1] + 1), float(rows[-1] + 1))


class TestParamValidation:
    @pytest.mark.parametrize("kwargs", [
        {"illumination_gain": 0.0},
        {"illumination_gain": -1.0},
        {"gradient_strength": 1.0},
        {"gradient_strength": -0.1},
        {"noise_sigma": -0.01},
        {"clutter_density": 1.5},
    ])
    def test_domain_params_rejects(self, kwargs):
        with pytest.raises(ValueError):
            DomainParams(**kwargs)

    @pytest.mark.parametrize("field,value", [
        ("illumination_gain", math.nan), ("noise_sigma", math.inf), ("gradient_direction", math.nan),
        ("gradient_direction", -math.inf), ("gradient_strength", math.nan), ("clutter_density", math.nan),
    ])
    def test_domain_params_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            DomainParams(**{field: value})

    def test_enum_coercion_from_strings(self):
        p = DomainParams(background="starfield", target_texture="panelled")
        assert p.background is Background.STARFIELD
        assert p.target_texture is TargetTexture.PANELLED

    @pytest.mark.parametrize("kwargs", [
        {"size": 8},
        {"polygon_sides": (2, 5)},
        {"polygon_sides": (5, 4)},
        {"scale_range": (0.3, 0.2)},
        {"scale_range": (0.0, 0.2)},
        {"position_range": (-0.1, 0.5)},
        {"position_range": (0.2, 1.2)},
        {"polygon_sides": (3,)},
        {"scale_range": (0.1, 0.2, 0.3)},
    ])
    def test_scene_spec_rejects(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SceneSpec(**kwargs)

    @pytest.mark.parametrize("field,value", [
        ("scale_range", (math.nan, 0.3)), ("rotation_range", (0.0, math.inf)),
        ("position_range", (0.2, math.nan)), ("scale_range", (0.1, math.inf)),
    ])
    def test_scene_spec_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SceneSpec(**{field: value})


class TestRenderScene:
    def test_deterministic(self):
        spec = SceneSpec(seed=9)
        a = render_scene(spec, SOURCE_DOMAIN, 17)
        b = render_scene(spec, SOURCE_DOMAIN, 17)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.gt_boxes, b.gt_boxes)
        assert np.array_equal(a.gt_classes, b.gt_classes)
        assert a.image_id == b.image_id == 17

    def test_index_and_seed_vary_output(self):
        spec = SceneSpec(seed=9)
        base = render_scene(spec, SOURCE_DOMAIN, 17)
        other_index = render_scene(spec, SOURCE_DOMAIN, 18)
        other_seed = render_scene(SceneSpec(seed=10), SOURCE_DOMAIN, 17)
        assert not np.array_equal(base.image, other_index.image)
        assert not np.array_equal(base.image, other_seed.image)

    def test_sample_contract(self):
        spec = SceneSpec(seed=3)
        for idx in range(25):
            s = render_scene(spec, TARGET_DOMAIN, idx, domain=DomainLabel.TARGET)
            assert s.image.shape == (1, 64, 64)
            assert s.image.dtype == np.float32
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert s.domain is DomainLabel.TARGET
            assert len(s.gt_boxes) == 1 and len(s.gt_classes) == 1
            x1, y1, x2, y2 = s.gt_boxes[0]
            assert 0 <= x1 < x2 <= 64 and 0 <= y1 < y2 <= 64

    def test_two_value_example(self):
        # flat target on a flat background with unit gain and no noise leaves
        # exactly the background shade and the target shade off the edges
        parts = render_scene_parts(SceneSpec(seed=5), FLAT, 11)
        off_edge = np.isin(parts.coverage, [0.0, 1.0])
        values = np.unique(parts.sample.image[0][off_edge])
        assert values.size == 2

    def test_gt_equals_scan_box_on_flat_background(self):
        spec = SceneSpec(seed=21)
        for idx in range(50):
            parts = render_scene_parts(spec, FLAT, idx)
            assert tuple(parts.sample.gt_boxes[0]) == scan_box(parts)

    def test_gt_close_to_scan_box_on_default_domains(self):
        spec = SceneSpec(seed=22)
        for idx in range(200):
            for params in (SOURCE_DOMAIN, TARGET_DOMAIN):
                parts = render_scene_parts(spec, params, idx)
                assert iou(tuple(parts.sample.gt_boxes[0]), scan_box(parts)) >= 0.9

    def test_noise_is_applied_after_boxes(self):
        spec = SceneSpec(seed=7)
        noisy_params = DomainParams(noise_sigma=0.08, background=Background.CLUTTER,
                                    clutter_density=0.0)
        quiet_params = DomainParams(noise_sigma=0.0, background=Background.CLUTTER,
                                    clutter_density=0.0)
        noisy = render_scene_parts(spec, noisy_params, 4)
        quiet = render_scene_parts(spec, quiet_params, 4)
        assert np.array_equal(noisy.prenoise, quiet.prenoise)
        assert np.array_equal(noisy.sample.gt_boxes, quiet.sample.gt_boxes)
        assert not np.array_equal(noisy.sample.image, quiet.sample.image)

    def test_degenerate_scale_raises(self):
        spec = SceneSpec(scale_range=(1e-4, 2e-4))
        with pytest.raises(RenderError, match="degenerate"):
            render_scene(spec, FLAT, 0)

    def test_illumination_gradient_tilts_background(self):
        params = DomainParams(gradient_direction=0.0, gradient_strength=0.5,
                              background=Background.CLUTTER, clutter_density=0.0)
        parts = render_scene_parts(SceneSpec(seed=2), params, 0)
        left = parts.background[:, :16].mean()
        right = parts.background[:, -16:].mean()
        assert right > left * 1.5

    def test_panelled_texture_has_bands(self):
        params = DomainParams(noise_sigma=0.0, background=Background.CLUTTER,
                              clutter_density=0.0, target_texture=TargetTexture.PANELLED)
        parts = render_scene_parts(SceneSpec(seed=13), params, 8)
        inside = parts.coverage == 1.0
        assert np.unique(parts.sample.image[0][inside]).size >= 2


def _render_fields(parts):
    s = parts.sample
    return {"background": parts.background, "coverage": parts.coverage, "prenoise": parts.prenoise,
            "image": s.image, "gt_boxes": s.gt_boxes, "gt_classes": s.gt_classes}


def _assert_matches_reference(spec, params, index):
    got = _render_fields(render_scene_parts(spec, params, index))
    want = _render_fields(_render_ref.render_scene_parts(spec, params, index))
    for name, ref in want.items():
        assert (got[name].dtype, got[name].shape) == (ref.dtype, ref.shape), name
        assert got[name].tobytes() == ref.tobytes(), (name, spec, params, index)


class TestRenderOracle:
    """render_scene_parts against the full-frame renderer in tests/_render_ref.py."""

    GRID = [DomainParams(illumination_gain=0.8, gradient_direction=2.0, gradient_strength=0.3,
                         noise_sigma=0.02, background=bg, clutter_density=density, target_texture=tex)
            for bg, tex, density in itertools.product(Background, TargetTexture, (0.0, 0.3, 1.0))]

    @pytest.mark.parametrize("seed,size", list(itertools.product((1, 2, 3), (16, 64, 96))))
    def test_grid_matches_reference(self, seed, size):
        spec = SceneSpec(size=size, seed=seed)
        for params, index in itertools.product(self.GRID, range(10)):
            _assert_matches_reference(spec, params, index)

    @pytest.mark.parametrize("params", [SOURCE_DOMAIN, TARGET_DOMAIN], ids=["source", "target"])
    def test_default_domain_matches_reference(self, params):
        for index in range(200):
            _assert_matches_reference(SceneSpec(), params, index)

    def test_coverage_on_the_subsample_lattice(self):
        # vertices on subsample centres put subsamples exactly on edges, where
        # the inside test's ties decide
        rng = np.random.default_rng(0)
        for _ in range(300):
            cx, cy = rng.integers(12, 52, size=2) + 0.125 + 0.25 * rng.integers(0, 4, size=2)
            dx, dy = 0.25 * rng.integers(1, 40, size=2)
            shape = rng.choice(["rect", "diamond", "triangle"])
            verts = {"rect": [(cx - dx, cy - dy), (cx + dx, cy - dy), (cx + dx, cy + dy), (cx - dx, cy + dy)],
                     "diamond": [(cx, cy - dy), (cx + dx, cy), (cx, cy + dy), (cx - dx, cy)],
                     "triangle": [(cx - dx, cy - dy), (cx + dx, cy - dy), (cx - dx, cy + dy)]}[shape]
            verts = np.clip(np.array(verts), 1.125, 62.875)
            for v in (verts, verts[::-1]):
                assert _coverage_map(v, 64).tobytes() == _render_ref.coverage_map(v, 64).tobytes(), v

    def test_make_benchmark_digest_is_pinned(self):
        # computed before windowed rendering (numpy 2.4, x86-64)
        splits = make_benchmark(BenchmarkConfig(source_count=6, target_train_small=2,
                                                target_train_full=3, target_test_count=4))
        samples = splits.source_train + splits.target_train_full + splits.target_test
        images = hashlib.sha256(np.stack([s.image for s in samples]).tobytes()).hexdigest()
        annotations = hashlib.sha256("".join(
            json.dumps([s.image_id, int(s.domain), s.gt_boxes.tolist(), s.gt_classes.tolist()]) + "\n"
            for s in samples).encode()).hexdigest()
        assert images == "11ba98a5044a1a2514ed5a948eebb7bc2a88ada22d94617d631101bce9d42592"
        assert annotations == "25a3d7eb5a3edb3b4b3cd558331db274f9085acd45429984bcff7650d5d1e352"


def _assert_split_renders_alone(split, spec, params, render=render_scene):
    """Every sample of a chunked split equals its scene rendered alone."""
    for s in split:
        alone = render(spec, params, s.image_id)
        assert s.image.tobytes() == alone.image.tobytes(), (s.image_id, params)
        assert s.gt_boxes.tobytes() == alone.gt_boxes.tobytes() and s.gt_boxes.shape == (1, 4)
        assert s.gt_classes.tobytes() == alone.gt_classes.tobytes() and s.gt_classes.dtype == np.int64


class TestChunks:
    """make_benchmark renders _CHUNK_PX pixels at a time; each scene must not see its neighbours."""

    CHUNK = _CHUNK_PX // 64**2

    @pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_chunk_boundaries(self, count):
        cfg = BenchmarkConfig(source_count=count, target_train_small=1, target_train_full=count,
                              target_test_count=1, source_start=3)
        splits = make_benchmark(cfg)
        assert [s.image_id for s in splits.source_train] == list(range(3, 3 + count))
        assert [s.image_id for s in splits.target_train_full] == list(range(10000, 10000 + count))
        assert all(s.domain is DomainLabel.SOURCE for s in splits.source_train)
        assert all(s.domain is DomainLabel.TARGET for s in splits.target_train_full + splits.target_test)
        _assert_split_renders_alone(splits.source_train, cfg.scene, cfg.source)
        _assert_split_renders_alone(splits.target_train_full, cfg.scene, cfg.target)

    @pytest.mark.parametrize("size", [16, 64, 96])
    def test_grid_params_render_alone(self, size):
        spec = SceneSpec(size=size, seed=4)
        chunk = max(_CHUNK_PX // size**2, 1)
        for params in TestRenderOracle.GRID:
            splits = make_benchmark(BenchmarkConfig(scene=spec, source=params, target=params,
                                                    source_count=chunk + 1, target_train_small=1,
                                                    target_train_full=1, target_test_count=1))
            assert [s.image_id for s in splits.source_train] == list(range(chunk + 1))
            _assert_split_renders_alone(splits.source_train, spec, params)

    def test_retried_polygons_match_the_reference(self):
        # at this scale most polygon attempts leave the frame and are drawn again
        spec = SceneSpec(scale_range=(0.48, 0.56))
        splits = make_benchmark(BenchmarkConfig(scene=spec, source_count=self.CHUNK + 5, source_start=40,
                                                target_train_small=1, target_train_full=1, target_test_count=1))
        _assert_split_renders_alone(splits.source_train, spec, SOURCE_DOMAIN,
                                    lambda *scene: _render_ref.render_scene_parts(*scene).sample)

    def test_failing_polygon_mid_chunk_raises_its_error(self):
        spec = SceneSpec(scale_range=(0.48, 0.56))
        start = 28 - self.CHUNK // 2
        errors = {}
        for index in range(start, start + self.CHUNK):
            try:
                render_scene(spec, SOURCE_DOMAIN, index)
            except RenderError as e:
                errors[index] = str(e)
        assert list(errors) == [28]  # one failure, in the middle of the chunk
        with pytest.raises(RenderError) as err:
            make_benchmark(BenchmarkConfig(scene=spec, source_count=self.CHUNK, source_start=start,
                                           target_train_small=1, target_train_full=1, target_test_count=1))
        assert str(err.value) == errors[28]

    def test_chunk_temporaries_do_not_grow_with_the_split(self):
        make_benchmark(BenchmarkConfig(source_count=1, target_train_small=1, target_train_full=1,
                                       target_test_count=1))  # caches and imports
        extra = []
        for count in (300, 600):
            tracemalloc.start()
            try:
                make_benchmark(BenchmarkConfig(source_count=count, target_train_small=5,
                                               target_train_full=10, target_test_count=20))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - (count + 30) * 64 * 64 * 4)  # above the split buffers
        # at most a dozen float64 planes of one chunk; samples cost well under 1 KB apiece
        assert max(extra) < 12 * _CHUNK_PX * 8 and extra[1] - extra[0] < 300 * 1024, extra


class TestMakeBenchmark:
    def test_default_counts_and_structure(self):
        splits = make_benchmark()
        assert len(splits.source_train) == 2000
        assert len(splits.target_train_small) == 50
        assert len(splits.target_train_full) == 100
        assert len(splits.target_test) == 200

        small_ids = {s.image_id for s in splits.target_train_small}
        full_ids = {s.image_id for s in splits.target_train_full}
        test_ids = {s.image_id for s in splits.target_test}
        source_ids = {s.image_id for s in splits.source_train}
        assert small_ids <= full_ids
        assert not full_ids & test_ids
        assert not source_ids & (full_ids | test_ids)

        assert all(s.domain is DomainLabel.SOURCE for s in splits.source_train)
        assert all(s.domain is DomainLabel.TARGET for s in splits.target_train_full)
        assert all(s.domain is DomainLabel.TARGET for s in splits.target_test)

    def test_each_split_is_rows_of_one_spill_file(self):
        cfg = BenchmarkConfig(source_count=6, target_train_small=2,
                              target_train_full=3, target_test_count=4)
        splits = make_benchmark(cfg)
        files = set()
        for split, params in ((splits.source_train, cfg.source), (splits.target_train_full, cfg.target),
                              (splits.target_test, cfg.target)):
            block = vars(split[0])["image"].block
            assert block.offset == 0 and block.nbytes == len(split) * 4 * 64 * 64
            assert [vars(s)["image"] for s in split] == [_Row(block, (1, 64, 64), i) for i in range(len(split))]
            files.add(block.file)
            for s in split:
                assert s.image.dtype == np.float32 and not s.image.flags.writeable
                assert s.image.tobytes() == render_scene(cfg.scene, params, s.image_id, s.domain).image.tobytes()
        assert len(files) == 3
        small, full = splits.target_train_small, splits.target_train_full
        assert len(small) == 2 and all(a is b for a, b in zip(small, full))

    def test_rendering_and_saving_hold_no_split(self, tmp_path):
        cfg = BenchmarkConfig(source_count=300, target_train_small=1, target_train_full=1, target_test_count=1)
        for params in (cfg.source, cfg.target):  # fill the per-size and per-domain caches first
            render_scene(cfg.scene, params, 0)
        tracemalloc.start()
        try:
            splits = make_benchmark(cfg)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            save_dataset(splits.source_train, tmp_path / "spilled.bin")
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        nbytes = 302 * 4 * 64 * 64
        assert held < 0.1 * nbytes, held
        assert peak < 0.1 * nbytes, peak
        copies = [dataclasses.replace(s, image=s.image.copy()) for s in splits.source_train]
        save_dataset(copies, tmp_path / "in_memory.bin")
        assert (tmp_path / "spilled.bin").read_bytes() == (tmp_path / "in_memory.bin").read_bytes()

    def test_saving_a_spilled_split_reads_its_rows_in_runs(self, tmp_path, monkeypatch):
        splits = make_benchmark(BenchmarkConfig(source_count=300, target_train_small=1, target_train_full=1,
                                                target_test_count=1))
        pread, calls = os.pread, []
        monkeypatch.setattr(os, "pread", lambda *args: calls.append(args[1]) or pread(*args))
        save_dataset(splits.source_train, tmp_path / "spilled.bin")
        monkeypatch.undo()
        # two passes, each a pread per run of 16 consecutive rows; one per image per pass before
        assert len(calls) <= 2 * math.ceil(300 / 16), len(calls)
        assert max(calls) <= _CHUNK_PX * 4
        copies = [dataclasses.replace(s, image=s.image.copy()) for s in splits.source_train]
        save_dataset(copies, tmp_path / "in_memory.bin")
        assert (tmp_path / "spilled.bin").read_bytes() == (tmp_path / "in_memory.bin").read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count descriptors")
    def test_a_render_error_leaves_no_file_open_or_behind(self, tmp_path, monkeypatch):
        render, calls = synthgen._render, []

        def failing(*args):  # the third chunk: the second of the full target split
            calls.append(args[2])
            if len(calls) == 3:
                raise RenderError("no polygon")
            return render(*args)
        monkeypatch.setattr(synthgen, "_render", failing)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        before = len(os.listdir("/proc/self/fd"))
        chunk = _CHUNK_PX // 64**2  # one chunk of source, two of full target
        with pytest.raises(RenderError, match="no polygon") as caught:
            make_benchmark(BenchmarkConfig(source_count=chunk, target_train_small=1, target_train_full=2 * chunk))
        assert calls == [0, 10000, 10000 + chunk]
        # counted while the traceback, and so the finished source split, is still held
        assert caught.tb is not None and len(os.listdir("/proc/self/fd")) == before
        assert list(tmp_path.iterdir()) == []

    def test_brightness_gap(self):
        cfg = BenchmarkConfig(source_count=60, target_train_small=10,
                              target_train_full=20, target_test_count=60)
        splits = make_benchmark(cfg)
        src = np.mean([s.image.mean() for s in splits.source_train])
        tgt = np.mean([s.image.mean() for s in splits.target_test])
        assert src - tgt >= 0.05

    def test_overlapping_ranges_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            BenchmarkConfig(source_count=2000, target_train_start=1500)
        with pytest.raises(ValueError, match="overlapping"):
            BenchmarkConfig(target_train_start=20000, target_train_full=300)

    def test_size_validation(self):
        with pytest.raises(ValueError, match="target_train_small"):
            BenchmarkConfig(target_train_small=200, target_train_full=100)
        with pytest.raises(ValueError, match="positive"):
            BenchmarkConfig(source_count=0)

    def test_config_echo_is_json_ready(self):
        import json
        echo = BenchmarkConfig().to_dict()
        parsed = json.loads(json.dumps(echo))
        assert parsed["source"]["background"] == "clutter"
        assert parsed["target"]["target_texture"] == "panelled"
        assert parsed["source_count"] == 2000


def _stacked_reference(samples, path, config=None):
    """The file `save_dataset` wrote before it streamed the images: one np.stack block."""
    annotations = "".join(json.dumps({
        "image_id": int(s.image_id),
        "domain": int(s.domain),
        "boxes": np.asarray(s.gt_boxes, dtype=np.float64).tolist(),
        "classes": np.asarray(s.gt_classes, dtype=np.int64).tolist(),
    }) + "\n" for s in samples)
    header = {"count": len(samples), "image_shape": list(samples[0].image.shape), "config": config or {}}
    container.write(path, header, {"images": np.stack([s.image for s in samples], dtype="<f4"),
                                   "annotations": annotations.encode()})


def _samples(images):
    return [Sample(image=im, gt_boxes=np.array([[1.0, 2.0, 5.5, 6.0]] * (i % 3)),
                   gt_classes=np.ones(i % 3, dtype=np.int64), domain=DomainLabel(i % 2), image_id=7 * i)
            for i, im in enumerate(images)]


class TestSaveLoad:
    @pytest.mark.parametrize("dtype,count", [("float32", 5), ("float64", 5), (">f4", 5), ("float32", 1)])
    def test_streamed_images_give_the_stacked_file(self, tmp_path, dtype, count):
        images = np.random.default_rng(7).random((count, 1, 9, 7)).astype(dtype)
        samples = _samples(list(images))
        save_dataset(samples, tmp_path / "streamed.bin", config={"note": dtype})
        _stacked_reference(samples, tmp_path / "stacked.bin", config={"note": dtype})
        assert (tmp_path / "streamed.bin").read_bytes() == (tmp_path / "stacked.bin").read_bytes()

    def test_save_makes_no_copy_of_the_images(self, tmp_path):
        images = np.random.default_rng(8).random((300, 1, 64, 64), dtype=np.float32)
        samples = _samples(images)
        tracemalloc.start()
        try:
            save_dataset(samples, tmp_path / "split.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * images.nbytes, peak
        assert load_dataset(tmp_path / "split.bin").samples[299].image.tobytes() == images[299].tobytes()

    def test_loaded_split_holds_no_images(self, tmp_path):
        images = np.random.default_rng(9).random((300, 1, 64, 64), dtype=np.float32)
        save_dataset(_samples(images), tmp_path / "split.bin")
        tracemalloc.start()
        try:
            samples = load_dataset(tmp_path / "split.bin").samples
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.1 * images.nbytes, held
        for i, s in enumerate(samples):
            assert s.image.dtype == np.float32 and not s.image.flags.writeable
            assert s.image.tobytes() == images[i].tobytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count descriptors")
    def test_dropping_the_samples_closes_the_file(self, tmp_path):
        path = tmp_path / "split.bin"
        save_dataset(_samples(np.zeros((3, 1, 8, 8), np.float32)), path)
        before = len(os.listdir("/proc/self/fd"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(200):
                samples = load_dataset(path).samples
                last = samples.pop()
                del samples
                assert len(os.listdir("/proc/self/fd")) == before + 1  # held by the last sample
                assert last.image.shape == (1, 8, 8)
                del last
                assert len(os.listdir("/proc/self/fd")) == before
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_an_atomic_replace_leaves_the_loaded_bytes(self, tmp_path):
        path = tmp_path / "split.bin"
        old, new = np.random.default_rng(10).random((2, 4, 1, 8, 8), dtype=np.float32)
        save_dataset(_samples(old), path)
        samples = load_dataset(path).samples
        save_dataset(_samples(new), path)
        assert [s.image.tobytes() for s in samples] == [im.tobytes() for im in old]
        assert [s.image.tobytes() for s in load_dataset(path).samples] == [im.tobytes() for im in new]

    @pytest.mark.parametrize("rewrite", ["size", "mtime"])
    def test_an_in_place_rewrite_raises_on_the_next_image(self, tmp_path, rewrite):
        path = tmp_path / "split.bin"
        save_dataset(_samples(np.zeros((2, 1, 8, 8), np.float32)), path)
        samples = load_dataset(path).samples
        assert samples[1].image.shape == (1, 8, 8)
        if rewrite == "size":
            with open(path, "ab") as f:
                f.write(b"\0")
        else:  # same bytes, a later mtime: no reliance on the file system's timestamp granularity
            os.utime(path, ns=(path.stat().st_atime_ns, path.stat().st_mtime_ns + 10**9))
        with pytest.raises(DatasetError, match=re.escape(f"{path}: the file changed in place")):
            samples[1].image

    def make_small_dataset(self):
        cfg = BenchmarkConfig(source_count=6, target_train_small=2,
                              target_train_full=3, target_test_count=4)
        splits = make_benchmark(cfg)
        return splits.source_train + splits.target_test, cfg

    def test_round_trip_bitwise(self, tmp_path):
        samples, cfg = self.make_small_dataset()
        path = tmp_path / "data.bin"
        save_dataset(samples, path, config=cfg.to_dict())
        ds = load_dataset(path)
        assert ds.config == cfg.to_dict()
        assert len(ds.samples) == len(samples)
        for orig, back in zip(samples, ds.samples):
            assert np.array_equal(orig.image, back.image)
            assert orig.image.dtype == back.image.dtype
            assert np.array_equal(orig.gt_boxes, back.gt_boxes)
            assert np.array_equal(orig.gt_classes, back.gt_classes)
            assert orig.domain is back.domain
            assert orig.image_id == back.image_id

    def test_header_cross_checks_config(self, tmp_path):
        import json
        samples, cfg = self.make_small_dataset()
        path = tmp_path / "data.bin"
        save_dataset(samples, path, config=cfg.to_dict())
        with open(path, "rb") as f:
            header = json.loads(f.readline())
        assert header["count"] == len(samples)
        assert tuple(header["image_shape"]) == samples[0].image.shape
        assert header["config"]["scene"]["size"] == cfg.scene.size

    def test_truncated_file(self, tmp_path):
        samples, _ = self.make_small_dataset()
        path = tmp_path / "data.bin"
        save_dataset(samples, path)
        blob = path.read_bytes()
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(blob[:len(blob) // 3])
        with pytest.raises(DatasetError, match="truncated"):
            load_dataset(clipped)

    def test_corrupted_image_bytes(self, tmp_path):
        samples, _ = self.make_small_dataset()
        path = tmp_path / "data.bin"
        save_dataset(samples, path)
        blob = bytearray(path.read_bytes())
        header_end = blob.find(b"\n")
        blob[header_end + 100] ^= 0xFF
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match="'images' checksum"):
            load_dataset(bad)

    def test_corrupted_annotations(self, tmp_path):
        samples, _ = self.make_small_dataset()
        path = tmp_path / "data.bin"
        save_dataset(samples, path)
        blob = bytearray(path.read_bytes())
        blob[-2] ^= 0x01
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match="'annotations' checksum"):
            load_dataset(bad)

    def test_version_mismatch(self, tmp_path):
        samples, _ = self.make_small_dataset()
        path = tmp_path / "data.bin"
        save_dataset(samples, path)
        edit_container(path, header=lambda h: h.update(version=99))
        with pytest.raises(DatasetError, match="version"):
            load_dataset(path)

    # the image block's size and CRC live in the block table; these three keep
    # the ids of the header keys that used to hold them
    @pytest.mark.parametrize("key,value,match", [
        pytest.param("blocks", lambda t: [[t[0][0], t[0][2]], t[1]], r"'blocks' entry \['images'",
                     id="image_nbytes-None-image_nbytes"),
        ("count", None, "count"),
        ("image_shape", None, "image_shape"),
        pytest.param("blocks", lambda t: [t[0][:2], t[1]], r"'blocks' entry \['images'",
                     id="image_crc32-None-image_crc32"),
        ("count", 7, "count"),
        ("count", 20, "count"),
        ("image_shape", [1, 16, 16], "image_shape"),
        ("image_shape", [2, 64, 64], "image_shape"),
        ("image_shape", [-1, 32, -32], "image_shape"),
        ("image_shape", "abc", "image_shape"),
        pytest.param("blocks", lambda t: [[t[0][0], "x", t[0][2]], t[1]], r"'blocks' entry \['images'",
                     id="image_nbytes-x-image_nbytes"),
        ("config", [1, 2], "config"),
    ])
    def test_bad_header_field(self, tmp_path, key, value, match):
        samples, _ = self.make_small_dataset()
        path = tmp_path / "data.bin"
        save_dataset(samples, path)

        def edit(header):
            if value is None:
                del header[key]
            else:
                header[key] = value(header[key]) if callable(value) else value
        edit_container(path, header=edit)
        with pytest.raises(DatasetError, match=match):
            load_dataset(path)

    @pytest.mark.parametrize("key,value", [("count", True), ("image_shape", [True, 64, 64])])
    def test_boolean_header_integer_rejected(self, tmp_path, key, value):
        # one 64-px sample, so only the boolean itself is wrong
        samples, _ = self.make_small_dataset()
        path = tmp_path / "data.bin"
        save_dataset(samples[:1], path)
        edit_container(path, header=lambda h: h.update({key: value}))
        with pytest.raises(DatasetError, match="expected an integer, got True") as err:
            load_dataset(path)
        assert f"'{key}' {value!r}" in str(err.value)

    @pytest.mark.parametrize("edit,match", [
        (lambda rec: [1, 2], "record 1 is not a JSON object"),
        (lambda rec: b"{", "record 1 is not valid JSON"),
        (lambda rec: {k: v for k, v in rec.items() if k != "boxes"}, "record 1: key 'boxes'"),
        (lambda rec: {k: v for k, v in rec.items() if k != "image_id"}, "record 1: key 'image_id'"),
        (lambda rec: {**rec, "domain": 7}, "record 1: key 'domain'"),
        (lambda rec: {**rec, "boxes": [1.0, 2.0, 3.0]}, "record 1: key 'boxes'"),
        (lambda rec: {**rec, "image_id": "a"}, "record 1: key 'image_id'"),
        (lambda rec: {**rec, "domain": True}, "record 1: key 'domain'"),
        (lambda rec: {**rec, "classes": []}, "record 1: 0 'classes' for"),
        (lambda rec: b"\xff", "annotation block is not UTF-8"),
        (lambda rec: b"[" * 100_000, "record 1 is not valid JSON"),
        (lambda rec: {**rec, "image_id": 0}, "record 1: image_id 0 repeats record 0"),
        (lambda rec: {**rec, "boxes": [[1.0, 2.0, math.nan, 8.0]], "classes": [1]},
         "record 1: key 'boxes' holds \\[1.0, 2.0, nan, 8.0\\]"),
        (lambda rec: {**rec, "boxes": [[1.0, 2.0, 6.0, 8.0], [-math.inf, 2.0, 6.0, 8.0]], "classes": [1, 1]},
         "record 1: key 'boxes' holds \\[-inf, 2.0, 6.0, 8.0\\]"),
        (lambda rec: {**rec, "boxes": [[4.0, 2.0, 4.0, 8.0]], "classes": [1]},
         "record 1: key 'boxes' holds \\[4.0, 2.0, 4.0, 8.0\\]"),
        (lambda rec: {**rec, "boxes": [[1.0, 9.0, 6.0, 8.0]], "classes": [1]},
         "record 1: key 'boxes' holds \\[1.0, 9.0, 6.0, 8.0\\]"),
    ], ids=["array", "bad-json", "no-boxes", "no-image_id", "domain-7", "boxes-3", "image_id-str",
            "domain-true", "classes-count", "not-utf8", "too-deep", "image_id-repeated", "boxes-nan",
            "boxes-inf", "boxes-zero-width", "boxes-y2-below-y1"])
    def test_bad_annotation_record(self, tmp_path, edit, match):
        import json
        samples, _ = self.make_small_dataset()
        path = tmp_path / "data.bin"
        save_dataset(samples, path)

        def edit_record_1(blocks):
            lines = blocks["annotations"].splitlines()
            edited = edit(json.loads(lines[1]))
            lines[1] = edited if isinstance(edited, bytes) else json.dumps(edited).encode()
            blocks["annotations"] = b"\n".join(lines) + b"\n"
        edit_container(path, blocks=edit_record_1)
        with pytest.raises(DatasetError, match=match):
            load_dataset(path)

    def test_garbage_header(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not json\n\x00\x01")
        with pytest.raises(DatasetError, match="header"):
            load_dataset(bad)
        bad.write_bytes(b"[1, 2]\n\x00\x01")
        with pytest.raises(DatasetError, match="header is not a JSON object"):
            load_dataset(bad)
        bad.write_bytes(b"\xff\xfe\xfa\n\x00")
        with pytest.raises(DatasetError, match="invalid header"):
            load_dataset(bad)
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        with pytest.raises(DatasetError, match="header"):
            load_dataset(empty)

    def test_save_rejects_empty_and_ragged(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            save_dataset([], tmp_path / "x.bin")
        samples, _ = self.make_small_dataset()
        ragged = samples[0]
        ragged.image = np.zeros((1, 32, 32), dtype=np.float32)
        with pytest.raises(ValueError, match="shapes"):
            save_dataset(samples, tmp_path / "y.bin")
