//! Corner matching by normalised cross-correlation (NCC).
//!
//! For every corner of the reference image, candidate corners of the second
//! image within a search radius are compared over a 7×7 patch; the best
//! NCC score above a threshold becomes a match. Candidate-list sizes are
//! input-dependent, which is exactly the dynamic behaviour the paper
//! profiles ("number of possible corners to match varies on each image").

use crate::corners::Corner;
use crate::image::Image;

/// A corner correspondence between two images.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    /// Corner position in the reference image.
    pub from: (usize, usize),
    /// Corner position in the second image.
    pub to: (usize, usize),
    /// NCC score in [−1, 1] scaled by 1000 (fixed point).
    pub score: i32,
}

/// Size in bytes of a match record on the modelled target.
pub const MATCH_RECORD_BYTES: usize = 24;

/// Matcher parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchParams {
    /// Search radius around the expected position, in pixels.
    pub search_radius: f64,
    /// Minimum accepted NCC score (scaled by 1000).
    pub min_score: i32,
}

impl Default for MatchParams {
    fn default() -> Self {
        MatchParams {
            search_radius: 24.0,
            min_score: 600,
        }
    }
}

const PATCH: isize = 3; // 7x7 patch

fn ncc(a: &Image, ax: usize, ay: usize, b: &Image, bx: usize, by: usize) -> i32 {
    let n = ((2 * PATCH + 1) * (2 * PATCH + 1)) as i64;
    let (mut sa, mut sb) = (0i64, 0i64);
    for oy in -PATCH..=PATCH {
        for ox in -PATCH..=PATCH {
            sa += a.at(ax as isize + ox, ay as isize + oy) as i64;
            sb += b.at(bx as isize + ox, by as isize + oy) as i64;
        }
    }
    let (ma, mb) = (sa / n, sb / n);
    let (mut cov, mut va, mut vb) = (0i64, 0i64, 0i64);
    for oy in -PATCH..=PATCH {
        for ox in -PATCH..=PATCH {
            let da = a.at(ax as isize + ox, ay as isize + oy) as i64 - ma;
            let db = b.at(bx as isize + ox, by as isize + oy) as i64 - mb;
            cov += da * db;
            va += da * da;
            vb += db * db;
        }
    }
    if va == 0 || vb == 0 {
        return 0;
    }
    let denom = ((va as f64).sqrt() * (vb as f64).sqrt()).max(1.0);
    (cov as f64 / denom * 1000.0) as i32
}

/// Match corners of `a` against corners of `b`.
///
/// Returns one best match per reference corner (greedy, score-thresholded).
pub fn match_corners(
    img_a: &Image,
    corners_a: &[Corner],
    img_b: &Image,
    corners_b: &[Corner],
    params: MatchParams,
) -> Vec<Match> {
    let mut matches = Vec::new();
    for ca in corners_a {
        let mut best: Option<Match> = None;
        for cb in corners_b {
            let dx = cb.x as f64 - ca.x as f64;
            let dy = cb.y as f64 - ca.y as f64;
            if dx * dx + dy * dy > params.search_radius * params.search_radius {
                continue;
            }
            let score = ncc(img_a, ca.x, ca.y, img_b, cb.x, cb.y);
            if score >= params.min_score && best.is_none_or(|m| score > m.score) {
                best = Some(Match {
                    from: (ca.x, ca.y),
                    to: (cb.x, cb.y),
                    score,
                });
            }
        }
        if let Some(m) = best {
            matches.push(m);
        }
    }
    matches
}

/// Robustly estimate the dominant displacement from matches
/// (component-wise median — a RANSAC-lite that tolerates outliers).
///
/// Returns `None` when there are no matches.
pub fn estimate_displacement(matches: &[Match]) -> Option<(f64, f64)> {
    if matches.is_empty() {
        return None;
    }
    let mut dxs: Vec<f64> = matches
        .iter()
        .map(|m| m.to.0 as f64 - m.from.0 as f64)
        .collect();
    let mut dys: Vec<f64> = matches
        .iter()
        .map(|m| m.to.1 as f64 - m.from.1 as f64)
        .collect();
    dxs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    dys.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Some((dxs[dxs.len() / 2], dys[dys.len() / 2]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corners::{detect_corners, CornerParams};
    use crate::image::SyntheticScene;

    fn pipeline_n(seed: u64, n: usize, dx: f64, dy: f64) -> (Vec<Match>, Option<(f64, f64)>) {
        let scene = SyntheticScene::new(seed, 200, 150, n);
        let a = scene.render(0.0, 0.0);
        let b = scene.render(dx, dy);
        let ca = detect_corners(&a, CornerParams::default());
        let cb = detect_corners(&b, CornerParams::default());
        let ms = match_corners(&a, &ca, &b, &cb, MatchParams::default());
        let est = estimate_displacement(&ms);
        (ms, est)
    }

    fn pipeline(seed: u64, dx: f64, dy: f64) -> (Vec<Match>, Option<(f64, f64)>) {
        pipeline_n(seed, 20, dx, dy)
    }

    #[test]
    fn recovers_known_displacement() {
        let (ms, est) = pipeline(1, 7.0, -4.0);
        assert!(ms.len() >= 8, "need enough matches, got {}", ms.len());
        let (dx, dy) = est.unwrap();
        assert!((dx - 7.0).abs() <= 1.5, "dx estimate {dx}");
        assert!((dy + 4.0).abs() <= 1.5, "dy estimate {dy}");
    }

    #[test]
    fn zero_displacement_matches_in_place() {
        let (_, est) = pipeline(2, 0.0, 0.0);
        let (dx, dy) = est.unwrap();
        assert!(dx.abs() <= 1.0 && dy.abs() <= 1.0, "({dx},{dy})");
    }

    #[test]
    fn identical_patch_has_maximal_ncc() {
        let scene = SyntheticScene::new(3, 64, 64, 1);
        let img = scene.render(0.0, 0.0);
        let (fx, fy) = scene.features[0];
        let s = ncc(
            &img,
            fx as usize,
            fy as usize,
            &img,
            fx as usize,
            fy as usize,
        );
        assert!(s > 990, "self-NCC must be ~1000, got {s}");
    }

    #[test]
    fn matches_starve_outside_search_radius() {
        // All blobs look alike, so accidental cross-matches exist; but a
        // displacement far beyond the 24 px search radius must cut the
        // match count well below the aligned case. Use a sparse scene so
        // the starvation effect is not drowned by accidental
        // blob-to-neighbouring-blob matches (at 20 blobs on 200x150 the
        // mean spacing is only ~1.6x the search radius).
        let (aligned, _) = pipeline_n(4, 7, 0.0, 0.0);
        let (far, _) = pipeline_n(4, 7, 60.0, 0.0);
        assert!(
            far.len() * 2 < aligned.len(),
            "far {} vs aligned {}",
            far.len(),
            aligned.len()
        );
    }

    #[test]
    fn estimator_tolerates_outliers() {
        let mut ms: Vec<Match> = (0..9)
            .map(|i| Match {
                from: (10 + i, 10),
                to: (13 + i, 12),
                score: 900,
            })
            .collect();
        // Two wild outliers.
        ms.push(Match {
            from: (50, 50),
            to: (90, 10),
            score: 800,
        });
        ms.push(Match {
            from: (60, 60),
            to: (10, 90),
            score: 800,
        });
        let (dx, dy) = estimate_displacement(&ms).unwrap();
        assert_eq!(dx, 3.0);
        assert_eq!(dy, 2.0);
    }

    #[test]
    fn empty_matches_give_none() {
        assert!(estimate_displacement(&[]).is_none());
    }
}
