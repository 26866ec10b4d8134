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

Scenes are rendered in chunks of consecutive indices (`_CHUNK_PX` pixels
at a time). Per scene, Python runs only what follows that scene's own
generator, in the order one scene alone draws it: the polygon attempts, the
texture draws, one `rng.random((n, 4))` block for its n stars or blobs (a
uniform is lo + (hi - lo) * random() either way) and its standard normal
noise field; then the silhouette's inside test, on its own bounding box.
The rest runs once per chunk on (chunk, H, W) arrays: polygon geometry,
backgrounds, textures, illumination, composite, noise scale and add, cast
and tight boxes. The bytes equal a scene rendered alone because every pixel goes
through the same float operations: the vertices are rotated with one
stacked matmul, the same BLAS product per polygon as a single one; the
polygon area keeps its per-polygon `np.dot`, as a batched sum rounds
differently; and the stars and blobs of a chunk meet the background in one
`np.maximum.at`, whose result does not depend on order.

Each star or blob is stamped on a window of pixels around it. A blob only
raises pixels within its radius r. A star of peak b and width r is
b * exp(-d^2 / 2r^2), which is below the starfield's initial fill `floor`
past d = r * sqrt(2 ln(b / floor)); the background is at least `floor`
everywhere, so there the max keeps it. A window that holds the square of
that half-side around the disc therefore gives the full-frame image.
"""

from __future__ import annotations

import errno
import functools
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .container import InFile, OpenFile, json_int, read, write
from .detector.model import DomainLabel
from .jsonconfig import check_finite, from_json_dict, to_json

# supersampling factor for silhouette coverage; 4x4 subsamples per pixel
_SS = 4
_MIN_AREA = 4.0
_MAX_RETRIES = 10
# pixels rendered at once: 16 images at 64 px, whose float64 planes take 512 KB each.
# The process keeps the heap that set-up frees into training, so chunks stay this small.
_CHUNK_PX = 16 * 64 * 64


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
        check_finite(self)
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
        check_finite(self)
        if self.size < 16:
            raise ValueError(f"size must be >= 16, got {self.size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


class _Row(NamedTuple):
    """Image `index` of a loaded or rendered split: a row of the 'images' block of a
    split file, or of a split's spill file."""
    block: InFile
    shape: tuple
    index: int

    def read(self, count: int = 1) -> np.ndarray:
        """This row, or the `count` rows from it as one (count, *shape) array, with one pread."""
        nbytes = 4 * math.prod(self.shape)
        data = self.block.file.pread(count * nbytes, self.block.offset + self.index * nbytes)
        return np.frombuffer(data, dtype="<f4").reshape(self.shape if count == 1 else (count, *self.shape))


class _Image:
    """`Sample.image`: the array it was given, or for a loaded or rendered sample a
    read-only array read from its file with one pread on each access."""

    def __get__(self, sample, owner=None):
        if sample is None:
            raise AttributeError("image")  # the field has no default
        image = vars(sample)["image"]
        return image.read() if isinstance(image, _Row) else image

    def __set__(self, sample, image):
        vars(sample)["image"] = image


@dataclass
class Sample:
    image: np.ndarray = _Image()  # (1, H, W) float32 in [0, 1]
    gt_boxes: np.ndarray          # (G, 4) float64, pixel xyxy
    gt_classes: np.ndarray        # (G,) int64
    domain: DomainLabel
    image_id: int


class RenderParts(NamedTuple):
    """Intermediate renders exposed for inspection and oracles."""
    background: np.ndarray    # illuminated background alone, pre-noise
    coverage: np.ndarray      # silhouette coverage in [0, 1]
    prenoise: np.ndarray      # full composite before sensor noise
    sample: Sample


def _cross_sum(verts: np.ndarray) -> float:
    """Twice the signed area: positive for counter-clockwise vertices."""
    x, y = verts[:, 0], verts[:, 1]
    return float(np.dot(x, np.concatenate((y[1:], y[:1]))) - np.dot(y, np.concatenate((x[1:], x[:1]))))


def _uniform(u, lo, hi):
    """rng.uniform(lo, hi) from the rng.random() draws u, as numpy computes it."""
    lo = np.asarray(lo, dtype=float)
    return lo + (np.asarray(hi, dtype=float) - lo) * u


def _polygons(rngs, spec: SceneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each generator's stretched rotated regular polygon, centred then clamped
    into the frame: (B, N, 2) vertices, of which the first n (B,) are used.

    The family is affine images of regular polygons, so convexity is free.
    Each generator draws its attempts itself; the geometry of every pending
    attempt runs at once, and an attempt that fails is drawn again."""
    size, top = spec.size, spec.polygon_sides[1]
    (s0, s1), (t0, t1), (p0, p1) = spec.scale_range, spec.rotation_range, spec.position_range
    lo, hi = [0.0, s0, s0, t0, p0, p0], [2.0 * math.pi, s1, s1, t1, p1, p1]
    verts, n = np.zeros((len(rngs), top, 2)), np.zeros(len(rngs), dtype=int)
    misses = np.zeros((len(rngs), 2), dtype=int)  # attempts off the frame, attempts too small
    todo = np.arange(len(rngs))
    for _ in range(_MAX_RETRIES):
        draws = np.empty((len(todo), 7))
        for row, i in zip(draws, todo):
            row[0] = rngs[i].integers(spec.polygon_sides[0], top + 1)
            rngs[i].random(out=row[1:])
        k = draws[:, 0].astype(int)
        phase, rx, ry, theta, cx, cy = _uniform(draws[:, 1:], lo, hi).T
        pad = (np.arange(top) >= k[:, None])[..., None]
        ang = phase[:, None] + 2.0 * math.pi * np.arange(top) / k[:, None]
        unit = np.stack([np.cos(ang), np.sin(ang)], axis=2)
        base = np.where(pad, 0.0, unit * (size * np.stack([rx, ry], axis=1))[:, None])
        c, s = np.cos(theta), np.sin(theta)
        v = base @ np.stack([c, s, -s, c], axis=1).reshape(-1, 2, 2)  # one BLAS product per polygon
        # clamp the center so the silhouette sits fully inside the frame
        low = 1.0 - np.where(pad, np.inf, v).min(axis=1)
        high = (size - 1.0) - np.where(pad, -np.inf, v).max(axis=1)
        fits = (low <= high).all(axis=1)
        v += np.clip(np.stack([cx, cy], axis=1) * size, low, high)[:, None]
        ok = fits.copy()
        for j in np.flatnonzero(fits):
            ok[j] = 0.5 * abs(_cross_sum(v[j, :k[j]])) >= _MIN_AREA
        misses[todo] += np.stack([~fits, fits & ~ok], axis=1)
        verts[todo[ok]], n[todo[ok]] = v[ok], k[ok]
        todo = todo[~ok]
        if not len(todo):
            return verts, n
    why = zip(misses[todo[0]], (f"did not fit the {size}-px frame",
                                f"had a degenerate area below {_MIN_AREA}"))
    raise RenderError(f"no polygon after {_MAX_RETRIES} attempts with scale_range {spec.scale_range}: "
                      + ", ".join(f"{m} {text}" for m, text in why if m))


def _coverage_map(verts: np.ndarray, size: int) -> np.ndarray:
    """Supersampled inside-test on the polygon's pixel bounding box.

    A subsample (x, y) is inside when (bx-ax)(y-ay) >= (by-ay)(x-ax) for
    every edge a->b of the counter-clockwise polygon; for finite floats this
    is the sign test of the rounded cross product. The right side is
    monotone in x, so each edge keeps a prefix (by >= ay) or a suffix
    (by < ay) of every subsample row, and a row's inside set is one run.
    """
    (x0, y0), (x1, y1) = verts.min(axis=0), verts.max(axis=0)
    c0, r0 = max(math.floor(x0) - 1, 0), max(math.floor(y0) - 1, 0)
    c1, r1 = min(math.ceil(x1) + 1, size - 1), min(math.ceil(y1) + 1, size - 1)
    w, h = c1 - c0 + 1, r1 - r0 + 1

    offs = (np.arange(_SS) + 0.5) / _SS
    xs = c0 + (np.arange(w)[:, None] + offs[None, :]).reshape(-1)
    ys = r0 + (np.arange(h)[:, None] + offs[None, :]).reshape(-1)

    if _cross_sum(verts) < 0:
        verts = verts[::-1]
    (ax, ay), (dx, dy) = verts.T, (np.concatenate((verts[1:], verts[:1])) - verts).T
    lefts, rights = dx[:, None] * (ys - ay[:, None]), dy[:, None] * (xs - ax[:, None])
    lo, hi = np.zeros(len(ys), dtype=np.intp), np.full(len(ys), len(xs))
    for left, right, up in zip(lefts, rights, dy >= 0):
        if up:
            np.minimum(hi, right.searchsorted(left, side="right"), out=hi)
        else:
            np.maximum(lo, len(xs) - right[::-1].searchsorted(left, side="right"), out=lo)

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


def _textures(rngs, verts, n, params: DomainParams, size: int) -> np.ndarray:
    """Per-pixel target brightness (B, H, W), or (B, 1, 1) for one value per target."""
    if params.target_texture is TargetTexture.FLAT:
        return np.array([rng.uniform(0.80, 0.95) for rng in rngs])[:, None, None]
    shades, panel = np.zeros((len(rngs), 4)), np.zeros((len(rngs), 5, 1, 1))  # (panels, ux, uy, lo, span)
    for rng, v, k, s, p in zip(rngs, verts, n, shades, panel[..., 0, 0]):
        p[0] = rng.integers(2, 5)
        s[:int(p[0])] = rng.uniform(0.75, 0.95, size=int(p[0]))
        axis_ang = rng.uniform(0.0, 2.0 * math.pi)
        p[1:3] = math.cos(axis_ang), math.sin(axis_ang)
        proj_v = v[:k] @ p[1:3]
        p[3], p[4] = proj_v.min(), max(proj_v.max() - proj_v.min(), 1e-9)
    m, ux, uy, lo, span = panel.swapaxes(0, 1)
    cols, rows = _grid(size)
    t = ((cols * ux + rows * uy) - lo) / span
    bands = np.clip((t * m).astype(int), 0, m.astype(int) - 1)
    return np.take_along_axis(shades, bands.reshape(len(rngs), -1), axis=1).reshape(bands.shape)


def _backgrounds(rngs, params: DomainParams, size: int) -> np.ndarray:
    """(B, H, W) backgrounds; every star or blob of the chunk is stamped on a
    window as wide as the chunk's widest, all in one np.maximum.at."""
    count = len(rngs)
    if params.background is Background.EARTH_GRADIENT:
        # smooth ramp across the frame in a random direction
        ang, lo, hi = _uniform(np.array([rng.random(3) for rng in rngs]),
                               [0.0, 0.05, 0.30], [2.0 * math.pi, 0.20, 0.45]).T[..., None, None]
        cols, rows = _grid(size)
        t = cols * np.cos(ang) + rows * np.sin(ang)
        t0 = t.min(axis=(1, 2), keepdims=True)
        t = (t - t0) / np.maximum(t.max(axis=(1, 2), keepdims=True) - t0, 1e-9)
        return lo + (hi - lo) * t
    star = params.background is Background.STARFIELD
    fill, spots = np.empty(count), []
    for i, rng in enumerate(rngs):
        fill[i] = rng.uniform(0.02, 0.06) if star else rng.uniform(0.08, 0.15)
        spots.append(rng.random((rng.poisson(35) if star else round(params.clutter_density * 25), 4)))
    bg = np.repeat(fill, size * size).reshape(count, size, size)
    owner = np.repeat(np.arange(count), [len(s) for s in spots])
    x, y, b, r = _uniform(np.concatenate(spots), [0, 0, 0.35, 0.6] if star else [0, 0, 0.15, 2.0],
                          [size, size, 0.65, 1.4] if star else [size, size, 0.50, 6.0]).T
    if not len(x):
        return bg
    radius = r * np.sqrt(2.0 * np.log(b / fill[owner])) if star else r
    pix = np.arange(int(2 * radius.max()) + 2)
    rows = np.floor(y - radius).astype(int)[:, None] + pix
    cols = np.floor(x - radius).astype(int)[:, None] + pix
    d2 = ((cols + 0.5 - x[:, None]) ** 2)[:, None, :] + ((rows + 0.5 - y[:, None]) ** 2)[:, :, None]
    b, r = b[:, None, None], r[:, None, None]
    value = b * np.exp(-d2 / (2.0 * r * r)) if star else np.where(d2 <= r * r, b, 0.0)
    inside = ((rows >= 0) & (rows < size))[:, :, None] & ((cols >= 0) & (cols < size))[:, None, :]
    np.maximum.at(bg.reshape(-1), ((owner[:, None, None] * size + rows[:, :, None]) * size
                                   + cols[:, None, :])[inside], value[inside])
    return bg


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


def _render(spec: SceneSpec, params: DomainParams, start: int, images: np.ndarray,
            domain: DomainLabel = DomainLabel.SOURCE):
    """Render scenes start, start + 1, ... into the (B, 1, H, W) float32 `images`.
    Returns their samples and the chunk's background, coverage and pre-noise planes."""
    size = spec.size
    rngs = [np.random.default_rng(np.random.SeedSequence((spec.seed, start + i))) for i in range(len(images))]
    verts, n = _polygons(rngs, spec)
    cov = np.stack([_coverage_map(v[:k], size) for v, k in zip(verts, n)])
    covered = cov * _textures(rngs, verts, n, params, size)
    bg = _backgrounds(rngs, params, size)
    prenoise = 1.0 - cov
    prenoise *= bg
    prenoise += covered
    prenoise *= _illumination(params, size)
    np.clip(prenoise, 0.0, 1.0, out=prenoise)
    img = prenoise
    if params.noise_sigma > 0:
        img = covered  # reused: rng.normal(0, sigma) is sigma times the standard normal draws
        for rng, plane in zip(rngs, img):
            rng.standard_normal(out=plane)
        img *= params.noise_sigma
        img += prenoise
        np.clip(img, 0.0, 1.0, out=img)
    images[:, 0] = img

    rows, cols = cov.any(axis=2), cov.any(axis=1)
    boxes = np.stack([cols.argmax(axis=1), rows.argmax(axis=1), size - cols[:, ::-1].argmax(axis=1),
                      size - rows[:, ::-1].argmax(axis=1)], axis=1).astype(np.float64)
    samples = [Sample(image=image, gt_boxes=boxes[i:i + 1], gt_classes=np.array([1], dtype=np.int64),
                      domain=domain, image_id=start + i) for i, image in enumerate(images)]
    return samples, bg, cov, prenoise


def render_scene_parts(spec: SceneSpec, params: DomainParams, index: int) -> RenderParts:
    image = np.empty((1, 1, spec.size, spec.size), np.float32)
    samples, bg, cov, prenoise = _render(spec, params, index, image)
    background = np.clip(_illumination(params, spec.size) * bg[0], 0.0, 1.0)
    return RenderParts(background=background, coverage=cov[0], prenoise=prenoise[0], sample=samples[0])


def render_scene(spec: SceneSpec, params: DomainParams, index: int,
                 domain: DomainLabel = DomainLabel.SOURCE) -> Sample:
    """Scene `index` alone, labelled `domain`: a chunk of one, the same bytes as in a split."""
    image = np.empty((1, 1, spec.size, spec.size), np.float32)
    return _render(spec, params, index, image, domain)[0][0]


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
        for name in ("source_start", "target_train_start", "target_test_start"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
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

    from_dict = classmethod(from_json_dict)  # unknown keys and wrong-typed values raise ValueError
    to_dict = to_json


@dataclass
class BenchmarkSplits:
    source_train: list
    target_train_small: list
    target_train_full: list
    target_test: list


def make_benchmark(config: BenchmarkConfig = BenchmarkConfig()) -> BenchmarkSplits:
    """Render all splits. Each split is rendered a chunk at a time into one buffer and
    spilled to its own unnamed temporary file (`tempfile.TemporaryFile`, in the temp dir),
    and each sample's image is its row of that file, read on use as in a loaded split.
    The small target split is a prefix of the full one.

    Before any pixel is rendered, each split's sample list is allocated, so a count too
    large for memory raises MemoryError, and the temp dir must have room for every
    split's pixels, or OSError(ENOSPC) is raised."""
    plan = {"source_train": (config.source, DomainLabel.SOURCE, config.source_start, config.source_count),
            "target_train_full": (config.target, DomainLabel.TARGET, config.target_train_start,
                                  config.target_train_full),
            "target_test": (config.target, DomainLabel.TARGET, config.target_test_start,
                            config.target_test_count)}
    splits, need, tmpdir = {}, 0, tempfile.gettempdir()
    for name, (*_, count) in plan.items():
        try:
            splits[name] = [None] * count
        except MemoryError as e:
            raise MemoryError(f"split {name} of {count} samples") from e
        need += 4 * count * config.scene.size**2
        if shutil.disk_usage(tmpdir).free < need:
            raise OSError(errno.ENOSPC, f"split {name} brings the rendered pixels to {need} bytes, "
                                        "more than is free in", tmpdir)
    files = []
    try:
        for name, (params, domain, start, _) in plan.items():
            files.append(_spill(name, config.scene, params, domain, start, splits[name]))
    except BaseException:
        for file in files:
            file.close()
        raise
    full = splits["target_train_full"]
    return BenchmarkSplits(source_train=splits["source_train"],
                           target_train_small=full[:config.target_train_small],
                           target_train_full=full, target_test=splits["target_test"])


def _spill(name: str, spec: SceneSpec, params: DomainParams, domain: DomainLabel, start: int,
           samples: list) -> OpenFile:
    """Render scenes start, start + 1, ... into `samples`, one per slot, through one
    chunk-sized buffer whose bytes are appended to an unnamed temporary file; each
    sample's image becomes its row of that file, which is returned."""
    shape = (1, spec.size, spec.size)
    buf = np.empty((max(_CHUNK_PX // spec.size**2, 1), *shape), "<f4")
    with tempfile.TemporaryFile() as f:
        for i in range(0, len(samples), len(buf)):
            images = buf[:len(samples) - i]
            samples[i:i + len(images)] = _render(spec, params, start + i, images, domain)[0]
            f.write(images)
        f.flush()
        file = OpenFile(f"the spill file of split {name}", DatasetError, fd=os.dup(f.fileno()))
    block = InFile(file, 0, 4 * len(samples) * math.prod(shape))
    for i, sample in enumerate(samples):
        sample.image = _Row(block, shape, i)
    return file


@dataclass
class Dataset:
    samples: list
    config: dict


def save_dataset(samples, path, config: dict | None = None) -> None:
    """Write `samples` to `path`. The images are streamed to the file twice, to size and
    then to write them, so a split whose images are read on use is never held whole:
    consecutive rows of one file are read with one pread per `_CHUNK_PX` pixels."""
    samples = list(samples)
    if not samples:
        raise ValueError("cannot save an empty dataset")
    shape = vars(samples[0])["image"].shape  # a _Row knows its shape without a read
    per_run = max(_CHUNK_PX // math.prod(shape), 1)

    def images():
        run = []  # rows of one block that follow one another, not yet read
        for s in samples:
            image = vars(s)["image"]
            if image.shape != shape:
                raise ValueError(f"inconsistent image shapes: {shape} and {image.shape}")
            if run and not (isinstance(image, _Row) and image.block == run[0].block and len(run) < per_run
                            and image.index == run[0].index + len(run)):
                yield run[0].read(len(run))
                run = []
            if isinstance(image, _Row):
                run.append(image)
            else:
                yield np.ascontiguousarray(image, dtype="<f4")
        if run:
            yield run[0].read(len(run))

    annotations = "".join(json.dumps({
        "image_id": int(s.image_id),
        "domain": int(s.domain),
        "boxes": np.asarray(s.gt_boxes, dtype=np.float64).tolist(),
        "classes": np.asarray(s.gt_classes, dtype=np.int64).tolist(),
    }) + "\n" for s in samples)
    header = {"count": len(samples), "image_shape": list(shape), "config": config or {}}
    write(path, header, {"images": images, "annotations": annotations.encode()})


def load_dataset(path) -> Dataset:
    """Check the split file at `path` and load its annotations. Each sample's image
    stays in the file, which is held open until the last sample is dropped."""
    header, blocks = read(path, DatasetError, in_file={"images"})
    count, shape, config = header.get("count"), header.get("image_shape"), header.get("config", {})
    if not isinstance(config, dict):
        raise DatasetError(f"{path}: header 'config' {config!r} is not a JSON object")
    if set(blocks) != {"images", "annotations"}:
        raise DatasetError(f"{path}: blocks {list(blocks)} are not 'images' and 'annotations'")
    try:
        if json_int(count) < 0 or not isinstance(shape, list) or min(map(json_int, shape), default=1) < 1:
            raise ValueError("negative count or image size")
        if 4 * count * math.prod(shape) != blocks["images"].nbytes:
            raise ValueError(f"{count} images of {4 * math.prod(shape)} bytes")
    except (TypeError, ValueError) as e:
        raise DatasetError(f"{path}: header 'count' {count!r} and 'image_shape' {shape!r} do not "
                           f"describe the {blocks['images'].nbytes}-byte 'images' block ({e})") from e
    try:
        lines = str(blocks["annotations"], "utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise DatasetError(f"{path}: annotation block is not UTF-8: {e}") from e
    if len(lines) != count:
        raise DatasetError(f"{path}: annotation count {len(lines)} does not match header count {count}")
    images, shape = blocks["images"], tuple(shape)
    samples = [_sample(path, i, line, _Row(images, shape, i)) for i, line in enumerate(lines)]
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


def _sample(path, i: int, line: str, image: _Row) -> Sample:
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
    for box in fields["gt_boxes"].tolist():  # Python floats: a tenth of numpy's time on one box
        x1, y1, x2, y2 = box
        if not (x1 < x2 and y1 < y2 and all(map(math.isfinite, box))):
            raise DatasetError(f"{path}: annotation record {i}: key 'boxes' holds {box}, "
                               "not a finite box with x1 < x2 and y1 < y2")
    return Sample(image=image, **fields)
