"""Independent reference implementations used to check the library.

Everything here is written as plain scalar loops straight from the
definitions: no homography shortcut, no vectorization, no calls into the
package's numeric paths. Slow on purpose; only run on small inputs.
"""

import math

import numpy as np


def ssim_ref(a, b):
    """Per-pixel SSIM, 3x3 replicate-padded windows, C1=0.01^2, C2=0.03^2."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 2:
        a = a[..., None]
        b = b[..., None]
    h, w, c = a.shape
    c1, c2 = 0.01**2, 0.03**2
    out = np.zeros((h, w, c))
    for i in range(h):
        for j in range(w):
            for k in range(c):
                wa, wb = [], []
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        ii = min(max(i + di, 0), h - 1)
                        jj = min(max(j + dj, 0), w - 1)
                        wa.append(a[ii, jj, k])
                        wb.append(b[ii, jj, k])
                mu_a = sum(wa) / 9.0
                mu_b = sum(wb) / 9.0
                var_a = sum(x * x for x in wa) / 9.0 - mu_a * mu_a
                var_b = sum(x * x for x in wb) / 9.0 - mu_b * mu_b
                cov = sum(x * y for x, y in zip(wa, wb)) / 9.0 - mu_a * mu_b
                num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
                den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
                out[i, j, k] = num / den
    return out


def photometric_error_ref(pred, target, alpha=0.85):
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.ndim == 2:
        pred = pred[..., None]
        target = target[..., None]
    s = ssim_ref(pred, target)
    h, w, c = pred.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for k in range(c):
                acc += alpha / 2.0 * (1.0 - s[i, j, k]) + (1 - alpha) * abs(
                    pred[i, j, k] - target[i, j, k]
                )
            out[i, j] = acc / c
    return out


def min_reprojection_ref(target, synthesized, alpha=0.85):
    """Returns (scalar over covered pixels, per-pixel map with 0 where uncovered)."""
    pes = [photometric_error_ref(img, target, alpha) for img, _ in synthesized]
    h, w = pes[0].shape
    per_pixel = np.zeros((h, w))
    total, count = 0.0, 0
    for i in range(h):
        for j in range(w):
            vals = [
                pe[i, j] for pe, (_, valid) in zip(pes, synthesized) if valid[i, j]
            ]
            if vals:
                per_pixel[i, j] = min(vals)
                total += min(vals)
                count += 1
    return (total / count if count else 0.0), per_pixel


def consistency_mask_ref(d_cv, d_hat):
    h, w = d_cv.shape
    out = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            a, b = d_cv[i, j], d_hat[i, j]
            out[i, j] = max((a - b) / b, (b - a) / a) > 1.0
    return out


def consistency_loss_ref(d_t, d_hat, mask):
    h, w = d_t.shape
    total = 0.0
    for i in range(h):
        for j in range(w):
            total += (1.0 if mask[i, j] else 0.0) * abs(d_t[i, j] - d_hat[i, j])
    return total / (h * w)


def smoothness_ref(depth, img):
    depth = np.asarray(depth, dtype=float)
    img = np.asarray(img, dtype=float)
    if img.ndim == 2:
        img = img[..., None]
    h, w = depth.shape
    c = img.shape[2]
    disp = 1.0 / depth
    disp = disp / disp.mean()
    sx, nx = 0.0, 0
    for i in range(h):
        for j in range(w - 1):
            gi = sum(abs(img[i, j + 1, k] - img[i, j, k]) for k in range(c)) / c
            sx += abs(disp[i, j + 1] - disp[i, j]) * math.exp(-gi)
            nx += 1
    sy, ny = 0.0, 0
    for i in range(h - 1):
        for j in range(w):
            gi = sum(abs(img[i + 1, j, k] - img[i, j, k]) for k in range(c)) / c
            sy += abs(disp[i + 1, j] - disp[i, j]) * math.exp(-gi)
            ny += 1
    # a grid with no neighbour pairs (one row, or one column) contributes 0
    return (sx / nx if nx else 0.0) + (sy / ny if ny else 0.0)


def depth_metrics_ref(pred, gt, cap=80.0):
    """Dict of the seven metrics computed with scalar accumulation."""
    vals = []
    h, w = gt.shape
    for i in range(h):
        for j in range(w):
            g = gt[i, j]
            if 0 < g < cap:
                p = min(max(pred[i, j], 1e-3), cap)
                vals.append((p, g))
    n = len(vals)
    abs_rel = sum(abs(p - g) / g for p, g in vals) / n
    sq_rel = sum((p - g) ** 2 / g for p, g in vals) / n
    rmse = math.sqrt(sum((p - g) ** 2 for p, g in vals) / n)
    rmse_log = math.sqrt(sum((math.log(p) - math.log(g)) ** 2 for p, g in vals) / n)
    deltas = []
    for k in (1, 2, 3):
        thr = 1.25**k
        deltas.append(sum(1 for p, g in vals if max(p / g, g / p) < thr) / n)
    return {
        "abs_rel": abs_rel,
        "sq_rel": sq_rel,
        "rmse": rmse,
        "rmse_log": rmse_log,
        "delta1": deltas[0],
        "delta2": deltas[1],
        "delta3": deltas[2],
    }


def _bilinear_scalar(img, u, v):
    """Sample one (possibly multi-channel) pixel; returns (value, in_bounds)."""
    h, w = img.shape[:2]
    if not (0 <= u <= w - 1 and 0 <= v <= h - 1):
        return None, False
    u0, v0 = int(math.floor(u)), int(math.floor(v))
    u1, v1 = min(u0 + 1, w - 1), min(v0 + 1, h - 1)
    fu, fv = u - u0, v - v0
    top = img[v0, u0] * (1 - fu) + img[v0, u1] * fu
    bot = img[v1, u0] * (1 - fu) + img[v1, u1] * fu
    return top * (1 - fv) + bot * fv, True


def cost_volume_ref(target_feat, sources, fx, fy, cx, cy, depths):
    """Per-pixel plane-sweep reference.

    ``sources`` is a list of (feature_array, R, t) with R, t mapping
    target-camera points into the source camera. Returns (costs, counts)
    with +inf where no source lands in bounds.
    """
    h, w, c = target_feat.shape
    p = len(depths)
    costs = np.full((h, w, p), np.inf)
    counts = np.zeros((h, w, p), dtype=int)
    for i in range(h):
        for j in range(w):
            for pi in range(p):
                d = depths[pi]
                x = (j - cx) * d / fx
                y = (i - cy) * d / fy
                point = np.array([x, y, d])
                total, count = 0.0, 0
                for feat, R, t in sources:
                    q = R @ point + t
                    if q[2] <= 0:
                        continue
                    u = fx * q[0] / q[2] + cx
                    v = fy * q[1] / q[2] + cy
                    sample, ok = _bilinear_scalar(feat, u, v)
                    if not ok:
                        continue
                    diff = sum(abs(sample[k] - target_feat[i, j, k]) for k in range(c)) / c
                    total += diff
                    count += 1
                if count:
                    costs[i, j, pi] = total / count
                counts[i, j, pi] = count
    return costs, counts


def box_downsample_ref(img, scale):
    """Mean of each scale x scale block, partial edge blocks over what exists."""
    img = np.asarray(img, dtype=float)
    h, w = img.shape[:2]
    hp = -(-h // scale)
    wp = -(-w // scale)
    out = np.empty((hp, wp) + img.shape[2:])
    for i in range(hp):
        for j in range(wp):
            block = img[i * scale : (i + 1) * scale, j * scale : (j + 1) * scale]
            out[i, j] = block.mean(axis=(0, 1))
    return out
