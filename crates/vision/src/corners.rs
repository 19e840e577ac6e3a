//! Harris-style corner detection.
//!
//! The 3D-reconstruction sub-algorithm starts by finding "possible corners
//! to match", whose count "varies on each image" — the unpredictability
//! that forces dynamic memory. The detector computes image gradients, the
//! Harris structure tensor over a window, the corner response
//! `R = det(M) − k·tr(M)²`, and keeps local maxima above a threshold.

use crate::image::Image;

/// A detected corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// X coordinate in pixels.
    pub x: usize,
    /// Y coordinate in pixels.
    pub y: usize,
    /// Harris response at the corner (higher = stronger).
    pub strength: i64,
}

/// Size in bytes of a corner record on the modelled 32-bit target
/// (two coordinates + strength), used when the pipeline allocates corner
/// arrays through the manager under test.
pub const CORNER_RECORD_BYTES: usize = 16;

/// Detector parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerParams {
    /// Response threshold; raising it finds fewer, stronger corners.
    pub threshold: i64,
    /// Non-maximum-suppression radius in pixels.
    pub nms_radius: usize,
}

impl Default for CornerParams {
    fn default() -> Self {
        CornerParams {
            threshold: 500_000,
            nms_radius: 4,
        }
    }
}

/// Detect corners in `img`.
///
/// Returns corners sorted by descending strength.
pub fn detect_corners(img: &Image, params: CornerParams) -> Vec<Corner> {
    let w = img.width();
    let h = img.height();
    if w < 8 || h < 8 {
        return Vec::new();
    }
    // Gradient products, 3 planes of i32 — the "memory intensive"
    // intermediate state of the real pipeline.
    let mut ixx = vec![0i32; w * h];
    let mut iyy = vec![0i32; w * h];
    let mut ixy = vec![0i32; w * h];
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            let gx = img.at(x as isize + 1, y as isize) as i32
                - img.at(x as isize - 1, y as isize) as i32;
            let gy = img.at(x as isize, y as isize + 1) as i32
                - img.at(x as isize, y as isize - 1) as i32;
            ixx[y * w + x] = gx * gx;
            iyy[y * w + x] = gy * gy;
            ixy[y * w + x] = gx * gy;
        }
    }
    // Harris response over a 3x3 window; k = 1/16 in fixed point.
    let mut response = vec![0i64; w * h];
    for y in 2..h - 2 {
        for x in 2..w - 2 {
            let (mut sxx, mut syy, mut sxy) = (0i64, 0i64, 0i64);
            for oy in 0..3 {
                for ox in 0..3 {
                    let i = (y + oy - 1) * w + (x + ox - 1);
                    sxx += ixx[i] as i64;
                    syy += iyy[i] as i64;
                    sxy += ixy[i] as i64;
                }
            }
            let det = sxx * syy - sxy * sxy;
            let tr = sxx + syy;
            response[y * w + x] = det / 256 - (tr * tr) / 16 / 256;
        }
    }
    // Threshold + non-maximum suppression.
    let r = params.nms_radius as isize;
    let mut corners = Vec::new();
    for y in 2..h - 2 {
        for x in 2..w - 2 {
            let v = response[y * w + x];
            if v < params.threshold {
                continue;
            }
            let mut is_max = true;
            'nms: for oy in -r..=r {
                for ox in -r..=r {
                    let (nx, ny) = (x as isize + ox, y as isize + oy);
                    if nx < 0 || ny < 0 || nx as usize >= w || ny as usize >= h {
                        continue;
                    }
                    let nv = response[ny as usize * w + nx as usize];
                    if nv > v || (nv == v && (ny, nx) < (y as isize, x as isize)) {
                        is_max = false;
                        break 'nms;
                    }
                }
            }
            if is_max {
                corners.push(Corner { x, y, strength: v });
            }
        }
    }
    corners.sort_by(|a, b| {
        b.strength
            .cmp(&a.strength)
            .then(a.y.cmp(&b.y))
            .then(a.x.cmp(&b.x))
    });
    corners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::SyntheticScene;

    #[test]
    fn finds_the_seeded_features() {
        let scene = SyntheticScene::new(1, 160, 120, 12);
        let img = scene.render(0.0, 0.0);
        let corners = detect_corners(&img, CornerParams::default());
        assert!(
            corners.len() >= 10,
            "expected most of 12 blobs, got {}",
            corners.len()
        );
        // Every strong corner should be near a seeded feature.
        for c in corners.iter().take(12) {
            let near = scene
                .features
                .iter()
                .any(|&(fx, fy)| (c.x as f64 - fx).abs() <= 4.0 && (c.y as f64 - fy).abs() <= 4.0);
            assert!(near, "corner at ({}, {}) matches no feature", c.x, c.y);
        }
    }

    #[test]
    fn corner_count_varies_with_content() {
        // The unpredictability that motivates dynamic memory: different
        // images yield different corner counts.
        let counts: Vec<usize> = (0..5)
            .map(|seed| {
                let scene = SyntheticScene::new(seed, 160, 120, 8 + seed as usize * 7);
                detect_corners(&scene.render(0.0, 0.0), CornerParams::default()).len()
            })
            .collect();
        let distinct: std::collections::HashSet<usize> = counts.iter().copied().collect();
        assert!(distinct.len() >= 3, "counts should vary: {counts:?}");
    }

    #[test]
    fn flat_image_has_no_corners() {
        let img = Image::new(64, 64); // all black
        assert!(detect_corners(&img, CornerParams::default()).is_empty());
    }

    #[test]
    fn nms_keeps_one_corner_per_blob() {
        let scene = SyntheticScene::new(2, 120, 120, 1);
        let img = scene.render(0.0, 0.0);
        let corners = detect_corners(&img, CornerParams::default());
        // One blob => a handful of responses collapse to very few corners.
        assert!(
            (1..=3).contains(&corners.len()),
            "expected 1-3 corners, got {}",
            corners.len()
        );
    }

    #[test]
    fn results_sorted_by_strength() {
        let scene = SyntheticScene::new(3, 160, 120, 15);
        let corners = detect_corners(&scene.render(0.0, 0.0), CornerParams::default());
        assert!(corners.windows(2).all(|w| w[0].strength >= w[1].strength));
    }

    #[test]
    fn tiny_images_are_rejected_gracefully() {
        let img = Image::new(4, 4);
        assert!(detect_corners(&img, CornerParams::default()).is_empty());
    }
}
