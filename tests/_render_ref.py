"""Full-frame reference renderer for `lirrdet.synthgen`.

Every star and clutter blob is evaluated over the whole frame, and the
silhouette's inside test runs on a meshgrid of all subsamples with the
cross product of every edge. Each scene is drawn alone, with the polygon
attempts, the per-star calls and the noise exactly as the per-image renderer
drew them. `render_scene_parts` must match this byte for byte, so its
windows, its chunked draws and its inside test are checked against code
that has none of them.
"""

import math

import numpy as np

from lirrdet.lirr import DomainLabel
from lirrdet.synthgen import _MAX_RETRIES, _MIN_AREA, _SS, Background, RenderParts, Sample, TargetTexture


def _grid(size):
    return np.meshgrid(np.arange(size) + 0.5, np.arange(size) + 0.5)


def _cross_sum(verts):
    x, y = verts[:, 0], verts[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def sample_polygon(rng, spec):
    size = spec.size
    for _ in range(_MAX_RETRIES):
        n = int(rng.integers(spec.polygon_sides[0], spec.polygon_sides[1] + 1))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        rx, ry = size * rng.uniform(*spec.scale_range, size=2)
        theta = rng.uniform(*spec.rotation_range)
        ang = phase + 2.0 * math.pi * np.arange(n) / n
        base = np.stack([np.cos(ang), np.sin(ang)], axis=1) * [rx, ry]
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        verts = base @ rot.T
        cx = rng.uniform(*spec.position_range) * size
        cy = rng.uniform(*spec.position_range) * size
        lo = 1.0 - verts.min(axis=0)
        hi = (size - 1.0) - verts.max(axis=0)
        if np.any(lo > hi):
            continue
        verts = verts + np.clip([cx, cy], lo, hi)
        if 0.5 * abs(_cross_sum(verts)) >= _MIN_AREA:
            return verts
    raise ValueError(f"no polygon after {_MAX_RETRIES} attempts")


def coverage_map(verts, size):
    c0 = max(int(math.floor(verts[:, 0].min())) - 1, 0)
    r0 = max(int(math.floor(verts[:, 1].min())) - 1, 0)
    c1 = min(int(math.ceil(verts[:, 0].max())) + 1, size - 1)
    r1 = min(int(math.ceil(verts[:, 1].max())) + 1, size - 1)
    w, h = c1 - c0 + 1, r1 - r0 + 1
    offs = (np.arange(_SS) + 0.5) / _SS
    xs = c0 + (np.arange(w)[:, None] + offs[None, :]).reshape(-1)
    ys = r0 + (np.arange(h)[:, None] + offs[None, :]).reshape(-1)
    px, py = np.meshgrid(xs, ys)
    # counter-clockwise order, so inside means every cross product >= 0
    if _cross_sum(verts) < 0:
        verts = verts[::-1]
    inside = np.ones(px.shape, dtype=bool)
    for i in range(len(verts)):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % len(verts)]
        inside &= (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0.0
    sub = inside.reshape(h, _SS, w, _SS).swapaxes(1, 2).astype(np.float64)
    cov = np.zeros((size, size))
    cov[r0:r1 + 1, c0:c1 + 1] = sub.mean(axis=(2, 3))
    return cov


def texture_map(rng, verts, params, size):
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


def render_background(rng, params, size):
    cols, rows = _grid(size)
    if params.background is Background.STARFIELD:
        bg = np.full((size, size), rng.uniform(0.02, 0.06))
        for _ in range(rng.poisson(35)):
            sx, sy = rng.uniform(0, size, size=2)
            b = rng.uniform(0.35, 0.65)
            r = rng.uniform(0.6, 1.4)
            d2 = (cols - sx) ** 2 + (rows - sy) ** 2
            bg = np.maximum(bg, b * np.exp(-d2 / (2.0 * r * r)))
        return bg
    if params.background is Background.CLUTTER:
        bg = np.full((size, size), rng.uniform(0.08, 0.15))
        for _ in range(int(round(params.clutter_density * 25))):
            bx, by = rng.uniform(0, size, size=2)
            b = rng.uniform(0.15, 0.50)
            r = rng.uniform(2.0, 6.0)
            mask = (cols - bx) ** 2 + (rows - by) ** 2 <= r * r
            bg = np.where(mask, np.maximum(bg, b), bg)
        return bg
    ang = rng.uniform(0.0, 2.0 * math.pi)
    u = np.array([math.cos(ang), math.sin(ang)])
    t = cols * u[0] + rows * u[1]
    t = (t - t.min()) / max(t.max() - t.min(), 1e-9)
    lo = rng.uniform(0.05, 0.20)
    hi = rng.uniform(0.30, 0.45)
    return lo + (hi - lo) * t


def illumination(params, size):
    cols, rows = _grid(size)
    ux = math.cos(params.gradient_direction)
    uy = math.sin(params.gradient_direction)
    half = size / 2.0
    t = ((cols - half) * ux + (rows - half) * uy) / half
    return params.illumination_gain * (1.0 + params.gradient_strength * t)


def render_scene_parts(spec, params, index) -> RenderParts:
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index)))
    verts = sample_polygon(rng, spec)
    coverage = coverage_map(verts, spec.size)
    texture = texture_map(rng, verts, params, spec.size)
    bg = render_background(rng, params, spec.size)
    illum = illumination(params, spec.size)

    bg_render = np.clip(illum * bg, 0.0, 1.0)
    prenoise = np.clip(illum * ((1.0 - coverage) * bg + coverage * texture), 0.0, 1.0)
    img = prenoise
    if params.noise_sigma > 0:
        img = np.clip(img + rng.normal(0.0, params.noise_sigma, size=img.shape), 0.0, 1.0)

    covered_rows = np.flatnonzero(coverage.any(axis=1))
    covered_cols = np.flatnonzero(coverage.any(axis=0))
    box = np.array([[covered_cols[0], covered_rows[0],
                     covered_cols[-1] + 1, covered_rows[-1] + 1]], dtype=np.float64)
    sample = Sample(image=img.astype(np.float32)[None], gt_boxes=box,
                    gt_classes=np.array([1], dtype=np.int64),
                    domain=DomainLabel.SOURCE, image_id=index)
    return RenderParts(background=bg_render, coverage=coverage, prenoise=prenoise, sample=sample)
