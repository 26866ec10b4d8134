"""Seeded synthetic detection benchmark with a controllable appearance gap.

Scenes are procedural 2-D composites: a bright convex polygon target over a
procedural background, an illumination field multiplied in, sensor noise
added last. Two domain parameter sets rendered over disjoint index ranges
stand in for a paired source/target dataset; the gap is a distribution
shift in lighting, background, texture, and noise, which is all the
training side consumes.

Every sample is a pure function of (scene spec, domain params, index), so
datasets are reproducible byte for byte. Ground-truth boxes are the tight
pixel bounds of the rendered silhouette, computed before noise.

Stars and clutter blobs are drawn only inside their own window, the
pixels that meet the square around the disc where they can show. A blob
only raises pixels within its radius r. A star of peak b and width r is
b * exp(-d^2 / 2r^2), which is below the starfield's initial fill `floor`
past d = r * sqrt(2 ln(b / floor)); the background is at least `floor`
everywhere, so there the max keeps it. Outside its window a star or blob
therefore cannot beat the background, and the image equals a full-frame
render; pixels inside go through the same float operations.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, asdict
from enum import Enum
from typing import NamedTuple

import numpy as np

from .container import json_int, read, write
from .jsonconfig import from_json_dict
from .lirr import DomainLabel

# supersampling factor for silhouette coverage; 4x4 subsamples per pixel
_SS = 4
_MIN_AREA = 4.0
_MAX_RETRIES = 10


class DatasetError(Exception):
    """Raised for malformed, truncated, or corrupted dataset files."""


class RenderError(Exception):
    """Raised when scene geometry cannot be realized."""


class Background(str, Enum):
    STARFIELD = "starfield"
    CLUTTER = "clutter"
    EARTH_GRADIENT = "earth_gradient"


class TargetTexture(str, Enum):
    FLAT = "flat"
    PANELLED = "panelled"


@dataclass(frozen=True)
class DomainParams:
    illumination_gain: float = 1.0
    gradient_direction: float = 0.0
    gradient_strength: float = 0.0
    noise_sigma: float = 0.0
    background: Background = Background.CLUTTER
    clutter_density: float = 0.5
    target_texture: TargetTexture = TargetTexture.FLAT

    def __post_init__(self):
        if self.illumination_gain <= 0:
            raise ValueError(f"illumination_gain must be > 0, got {self.illumination_gain}")
        if not 0.0 <= self.gradient_strength < 1.0:
            raise ValueError(f"gradient_strength must be in [0, 1), got {self.gradient_strength}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.clutter_density <= 1.0:
            raise ValueError(f"clutter_density must be in [0, 1], got {self.clutter_density}")
        object.__setattr__(self, "background", Background(self.background))
        object.__setattr__(self, "target_texture", TargetTexture(self.target_texture))


@dataclass(frozen=True)
class SceneSpec:
    size: int = 64
    polygon_sides: tuple = (3, 8)
    scale_range: tuple = (0.14, 0.30)
    position_range: tuple = (0.25, 0.75)
    rotation_range: tuple = (0.0, 2.0 * math.pi)
    seed: int = 0

    def __post_init__(self):
        if self.size < 16:
            raise ValueError(f"size must be >= 16, got {self.size}")
        for name in ("polygon_sides", "scale_range", "position_range", "rotation_range"):
            pair = getattr(self, name)
            if len(pair) != 2 or pair[1] < pair[0]:
                raise ValueError(f"{name} must be an ordered (lo, hi) pair, got {pair}")
        if self.polygon_sides[0] < 3:
            raise ValueError(f"polygon_sides must start at 3 or more, got {self.polygon_sides}")
        if self.scale_range[0] <= 0:
            raise ValueError(f"scale_range must be positive, got {self.scale_range}")
        if self.position_range[0] < 0 or self.position_range[1] > 1:
            raise ValueError(f"position_range must lie in [0, 1], got {self.position_range}")


@dataclass
class Sample:
    image: np.ndarray          # (1, H, W) float32 in [0, 1]
    gt_boxes: np.ndarray       # (G, 4) float64, pixel xyxy
    gt_classes: np.ndarray     # (G,) int64
    domain: DomainLabel
    image_id: int


class RenderParts(NamedTuple):
    """Intermediate renders exposed for inspection and oracles."""
    background: np.ndarray    # illuminated background alone, pre-noise
    coverage: np.ndarray      # silhouette coverage in [0, 1]
    prenoise: np.ndarray      # full composite before sensor noise
    sample: Sample


def _unit_polygon(n: int, phase: float) -> np.ndarray:
    ang = phase + 2.0 * math.pi * np.arange(n) / n
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _cross_sum(verts: np.ndarray) -> float:
    """Twice the signed area: positive for counter-clockwise vertices."""
    x, y = verts[:, 0], verts[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _sample_polygon(rng, spec: SceneSpec) -> np.ndarray:
    """Stretched rotated regular polygon, centered then clamped into frame.

    The family is affine images of regular polygons, so convexity is free.
    """
    size = spec.size
    for _ in range(_MAX_RETRIES):
        n = int(rng.integers(spec.polygon_sides[0], spec.polygon_sides[1] + 1))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        rx, ry = size * rng.uniform(*spec.scale_range, size=2)
        theta = rng.uniform(*spec.rotation_range)
        base = _unit_polygon(n, phase) * [rx, ry]
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        verts = base @ rot.T
        cx = rng.uniform(*spec.position_range) * size
        cy = rng.uniform(*spec.position_range) * size
        # clamp the center so the silhouette sits fully inside the frame
        lo = 1.0 - verts.min(axis=0)
        hi = (size - 1.0) - verts.max(axis=0)
        if np.any(lo > hi):
            continue
        center = np.clip([cx, cy], lo, hi)
        verts = verts + center
        if 0.5 * abs(_cross_sum(verts)) >= _MIN_AREA:
            return verts
    raise RenderError(f"degenerate polygon after {_MAX_RETRIES} attempts "
                      f"(scale_range {spec.scale_range} too small for area {_MIN_AREA})")


def _coverage_map(verts: np.ndarray, size: int) -> np.ndarray:
    """Supersampled inside-test on the polygon's pixel bounding box.

    A subsample (x, y) is inside when (bx-ax)(y-ay) >= (by-ay)(x-ax) for
    every edge a->b of the counter-clockwise polygon; for finite floats this
    is the sign test of the rounded cross product. The right side is
    monotone in x, so each edge keeps a prefix (by >= ay) or a suffix
    (by < ay) of every subsample row, and a row's inside set is one run.
    """
    c0 = max(int(math.floor(verts[:, 0].min())) - 1, 0)
    r0 = max(int(math.floor(verts[:, 1].min())) - 1, 0)
    c1 = min(int(math.ceil(verts[:, 0].max())) + 1, size - 1)
    r1 = min(int(math.ceil(verts[:, 1].max())) + 1, size - 1)
    w, h = c1 - c0 + 1, r1 - r0 + 1

    offs = (np.arange(_SS) + 0.5) / _SS
    xs = c0 + (np.arange(w)[:, None] + offs[None, :]).reshape(-1)
    ys = r0 + (np.arange(h)[:, None] + offs[None, :]).reshape(-1)

    if _cross_sum(verts) < 0:
        verts = verts[::-1]
    lo, hi = np.zeros(len(ys), dtype=np.intp), np.full(len(ys), len(xs))
    pts = verts.tolist()
    for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
        left, right = (bx - ax) * (ys - ay), (by - ay) * (xs - ax)
        if by >= ay:
            hi = np.minimum(hi, right.searchsorted(left, side="right"))
        else:
            lo = np.maximum(lo, len(xs) - right[::-1].searchsorted(left, side="right"))

    # subsamples of each row's run [lo, hi) that fall in each pixel column
    starts = np.arange(0, len(xs), _SS)
    per_row = np.maximum(np.minimum(hi[:, None], starts + _SS) - np.maximum(lo[:, None], starts), 0)
    cov = np.zeros((size, size))
    cov[r0:r1 + 1, c0:c1 + 1] = per_row.reshape(h, _SS, w).sum(axis=1) / _SS**2
    return cov


@functools.lru_cache
def _grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (cols, rows) pixel-centre coordinates of a size x size frame."""
    cols, rows = np.meshgrid(np.arange(size) + 0.5, np.arange(size) + 0.5)
    cols.flags.writeable = rows.flags.writeable = False
    return cols, rows


def _window(x: float, y: float, radius: float) -> tuple[slice, slice]:
    """(rows, cols) slices of the pixels that meet the square of half-side
    `radius` centred on (x, y), for x, y >= 0. Every pixel centre left out
    is at least radius + 1/2 from (x, y) along one axis."""
    return (slice(max(math.floor(y - radius), 0), math.floor(y + radius) + 1),
            slice(max(math.floor(x - radius), 0), math.floor(x + radius) + 1))


def _texture_map(rng, verts, params: DomainParams, size: int) -> np.ndarray:
    """Per-pixel target brightness; either one value or brightness bands."""
    if params.target_texture is TargetTexture.FLAT:
        return np.full((size, size), rng.uniform(0.80, 0.95))
    n_panels = int(rng.integers(2, 5))
    shades = rng.uniform(0.75, 0.95, size=n_panels)
    axis_ang = rng.uniform(0.0, 2.0 * math.pi)
    u = np.array([math.cos(axis_ang), math.sin(axis_ang)])
    proj_v = verts @ u
    lo, hi = proj_v.min(), proj_v.max()
    cols, rows = _grid(size)
    t = ((cols * u[0] + rows * u[1]) - lo) / max(hi - lo, 1e-9)
    bands = np.clip((t * n_panels).astype(int), 0, n_panels - 1)
    return shades[bands]


def _render_background(rng, params: DomainParams, size: int) -> np.ndarray:
    xs = np.arange(size) + 0.5
    if params.background is Background.STARFIELD:
        floor = rng.uniform(0.02, 0.06)
        bg = np.full((size, size), floor)
        for _ in range(rng.poisson(35)):
            sx, sy = rng.uniform(0, size, size=2)
            b = rng.uniform(0.35, 0.65)
            r = rng.uniform(0.6, 1.4)
            rows, cols = _window(sx, sy, r * math.sqrt(2.0 * math.log(b / floor)))
            d2 = (xs[cols] - sx) ** 2 + ((xs[rows] - sy) ** 2)[:, None]
            win = bg[rows, cols]
            np.maximum(win, b * np.exp(-d2 / (2.0 * r * r)), out=win)
        return bg
    if params.background is Background.CLUTTER:
        bg = np.full((size, size), rng.uniform(0.08, 0.15))
        for _ in range(int(round(params.clutter_density * 25))):
            bx, by = rng.uniform(0, size, size=2)
            b = rng.uniform(0.15, 0.50)
            r = rng.uniform(2.0, 6.0)
            rows, cols = _window(bx, by, r)
            win = bg[rows, cols]
            np.maximum(win, b, out=win, where=(xs[cols] - bx) ** 2 + ((xs[rows] - by) ** 2)[:, None] <= r * r)
        return bg
    # smooth ramp across the frame in a random direction
    cols, rows = _grid(size)
    ang = rng.uniform(0.0, 2.0 * math.pi)
    u = np.array([math.cos(ang), math.sin(ang)])
    t = cols * u[0] + rows * u[1]
    t = (t - t.min()) / max(t.max() - t.min(), 1e-9)
    lo = rng.uniform(0.05, 0.20)
    hi = rng.uniform(0.30, 0.45)
    return lo + (hi - lo) * t


@functools.lru_cache
def _illumination(params: DomainParams, size: int) -> np.ndarray:
    """Read-only illumination field of one domain at one frame size."""
    cols, rows = _grid(size)
    ux = math.cos(params.gradient_direction)
    uy = math.sin(params.gradient_direction)
    half = size / 2.0
    t = ((cols - half) * ux + (rows - half) * uy) / half
    illum = params.illumination_gain * (1.0 + params.gradient_strength * t)
    illum.flags.writeable = False
    return illum


def render_scene_parts(spec: SceneSpec, params: DomainParams, index: int) -> RenderParts:
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index)))
    verts = _sample_polygon(rng, spec)
    coverage = _coverage_map(verts, spec.size)
    texture = _texture_map(rng, verts, params, spec.size)
    bg = _render_background(rng, params, spec.size)
    illum = _illumination(params, spec.size)

    bg_render = np.clip(illum * bg, 0.0, 1.0)
    prenoise = np.clip(illum * ((1.0 - coverage) * bg + coverage * texture), 0.0, 1.0)
    img = prenoise
    if params.noise_sigma > 0:
        img = np.clip(img + rng.normal(0.0, params.noise_sigma, size=img.shape), 0.0, 1.0)

    covered_rows = np.flatnonzero(coverage.any(axis=1))
    covered_cols = np.flatnonzero(coverage.any(axis=0))
    box = np.array([[covered_cols[0], covered_rows[0],
                     covered_cols[-1] + 1, covered_rows[-1] + 1]], dtype=np.float64)
    sample = Sample(
        image=img.astype(np.float32)[None],
        gt_boxes=box,
        gt_classes=np.array([1], dtype=np.int64),
        domain=DomainLabel.SOURCE,
        image_id=index,
    )
    return RenderParts(background=bg_render, coverage=coverage, prenoise=prenoise, sample=sample)


def render_scene(spec: SceneSpec, params: DomainParams, index: int,
                 domain: DomainLabel = DomainLabel.SOURCE) -> Sample:
    sample = render_scene_parts(spec, params, index).sample
    sample.domain = domain
    return sample


SOURCE_DOMAIN = DomainParams(
    illumination_gain=1.0,
    noise_sigma=0.01,
    background=Background.CLUTTER,
    clutter_density=0.5,
    target_texture=TargetTexture.FLAT,
)

TARGET_DOMAIN = DomainParams(
    illumination_gain=0.55,
    gradient_direction=0.8,
    gradient_strength=0.25,
    noise_sigma=0.05,
    background=Background.STARFIELD,
    clutter_density=0.0,
    target_texture=TargetTexture.PANELLED,
)


@dataclass(frozen=True)
class BenchmarkConfig:
    scene: SceneSpec = field(default_factory=SceneSpec)
    source: DomainParams = field(default_factory=lambda: SOURCE_DOMAIN)
    target: DomainParams = field(default_factory=lambda: TARGET_DOMAIN)
    source_count: int = 2000
    target_train_small: int = 50
    target_train_full: int = 100
    target_test_count: int = 200
    source_start: int = 0
    target_train_start: int = 10000
    target_test_start: int = 20000

    def __post_init__(self):
        for name in ("source_count", "target_train_small", "target_train_full", "target_test_count"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.target_train_small > self.target_train_full:
            raise ValueError("target_train_small cannot exceed target_train_full")
        spans = [
            (self.source_start, self.source_start + self.source_count),
            (self.target_train_start, self.target_train_start + self.target_train_full),
            (self.target_test_start, self.target_test_start + self.target_test_count),
        ]
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            if b0 < a1:
                raise ValueError(f"overlapping index ranges: [{a0},{a1}) and [{b0},{b1})")

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("source", "target"):
            d[key]["background"] = d[key]["background"].value
            d[key]["target_texture"] = d[key]["target_texture"].value
        # normalize tuples to lists so the echo survives a JSON round trip
        return json.loads(json.dumps(d))


def benchmark_config_from_dict(d: dict) -> BenchmarkConfig:
    """Rebuild a BenchmarkConfig from its to_dict() echo (or any part of it);
    unknown keys and wrong-typed values raise ValueError."""
    return from_json_dict(BenchmarkConfig, d)


@dataclass
class BenchmarkSplits:
    source_train: list
    target_train_small: list
    target_train_full: list
    target_test: list


def make_benchmark(config: BenchmarkConfig = BenchmarkConfig()) -> BenchmarkSplits:
    """Render all splits, each into one (count, 1, H, W) float32 array whose rows
    are the samples' images. The small target split is a prefix of the full one."""
    def run(params, domain, start, count):
        samples = []
        for i, row in enumerate(np.empty((count, 1, config.scene.size, config.scene.size), np.float32)):
            samples.append(render_scene(config.scene, params, start + i, domain))
            row[...] = samples[-1].image   # the render is freed once the sample holds its row
            samples[-1].image = row
        return samples

    source_train = run(config.source, DomainLabel.SOURCE, config.source_start, config.source_count)
    target_full = run(config.target, DomainLabel.TARGET, config.target_train_start, config.target_train_full)
    target_test = run(config.target, DomainLabel.TARGET, config.target_test_start, config.target_test_count)
    return BenchmarkSplits(
        source_train=source_train,
        target_train_small=target_full[:config.target_train_small],
        target_train_full=target_full,
        target_test=target_test,
    )


@dataclass
class Dataset:
    samples: list
    config: dict


def save_dataset(samples, path, config: dict | None = None) -> None:
    samples = list(samples)
    if not samples:
        raise ValueError("cannot save an empty dataset")
    shapes = {s.image.shape for s in samples}
    if len(shapes) > 1:
        raise ValueError(f"inconsistent image shapes: {sorted(shapes)}")

    annotations = "".join(json.dumps({
        "image_id": int(s.image_id),
        "domain": int(s.domain),
        "boxes": np.asarray(s.gt_boxes, dtype=np.float64).tolist(),
        "classes": np.asarray(s.gt_classes, dtype=np.int64).tolist(),
    }) + "\n" for s in samples)
    header = {"count": len(samples), "image_shape": list(samples[0].image.shape), "config": config or {}}
    write(path, header, {"images": [np.ascontiguousarray(s.image, dtype="<f4") for s in samples],
                         "annotations": annotations.encode()})


def load_dataset(path) -> Dataset:
    header, blocks = read(path, DatasetError)
    count, shape, config = header.get("count"), header.get("image_shape"), header.get("config", {})
    if not isinstance(config, dict):
        raise DatasetError(f"{path}: header 'config' {config!r} is not a JSON object")
    if set(blocks) != {"images", "annotations"}:
        raise DatasetError(f"{path}: blocks {list(blocks)} are not 'images' and 'annotations'")
    try:
        if json_int(count) < 0 or not isinstance(shape, list) or min(map(json_int, shape), default=1) < 1:
            raise ValueError("negative count or image size")
        images = np.frombuffer(blocks["images"], dtype="<f4").reshape((count, *shape))
    except (TypeError, ValueError) as e:
        raise DatasetError(f"{path}: header 'count' {count!r} and 'image_shape' {shape!r} do not "
                           f"describe the {blocks['images'].nbytes}-byte 'images' block ({e})") from e
    try:
        lines = str(blocks["annotations"], "utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise DatasetError(f"{path}: annotation block is not UTF-8: {e}") from e
    if len(lines) != count:
        raise DatasetError(f"{path}: annotation count {len(lines)} does not match header count {count}")
    samples = [_sample(path, i, line, images[i]) for i, line in enumerate(lines)]
    first = {}
    for i, sample in enumerate(samples):
        if first.setdefault(sample.image_id, i) != i:  # results are keyed by image_id
            raise DatasetError(f"{path}: annotation record {i}: image_id {sample.image_id} "
                               f"repeats record {first[sample.image_id]}")
    return Dataset(samples=samples, config=config)


# annotation key -> (Sample field, conversion)
_RECORD_FIELDS = {
    "boxes": ("gt_boxes", lambda v: np.array(v, dtype=np.float64).reshape(-1, 4)),
    "classes": ("gt_classes", lambda v: np.array(v, dtype=np.int64)),
    "domain": ("domain", lambda v: DomainLabel(json_int(v))),
    "image_id": ("image_id", json_int),
}


def _sample(path, i: int, line: str, image: np.ndarray) -> Sample:
    try:
        rec = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as e:
        raise DatasetError(f"{path}: annotation record {i} is not valid JSON: {e}") from e
    if not isinstance(rec, dict):
        raise DatasetError(f"{path}: annotation record {i} is not a JSON object")
    fields = {}
    for key, (name, convert) in _RECORD_FIELDS.items():
        try:
            fields[name] = convert(rec[key])
        except (KeyError, TypeError, ValueError) as e:
            raise DatasetError(f"{path}: annotation record {i}: key {key!r} is missing or invalid ({e})") from e
    if len(fields["gt_classes"]) != len(fields["gt_boxes"]):
        raise DatasetError(f"{path}: annotation record {i}: {len(fields['gt_classes'])} 'classes' "
                           f"for {len(fields['gt_boxes'])} 'boxes'")
    return Sample(image=image, **fields)
