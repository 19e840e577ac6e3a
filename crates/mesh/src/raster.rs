//! Minimal software rasterizer with a z-buffer.
//!
//! Projects mesh triangles orthographically and rasterizes them into a
//! small framebuffer — the "final phases of the rendering process" whose
//! allocation pattern (per-triangle fragment runs, freed in depth order
//! rather than allocation order) defeats Obstacks in the paper's third
//! case study.

use crate::mesh::Mesh;

/// A z-buffered framebuffer.
#[derive(Debug, Clone)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    depth: Vec<f32>,
    color: Vec<u8>,
}

impl Framebuffer {
    /// A cleared framebuffer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "framebuffer dims must be positive");
        Framebuffer {
            width,
            height,
            depth: vec![f32::INFINITY; width * height],
            color: vec![0; width * height],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of pixels covered by at least one fragment.
    pub fn covered_pixels(&self) -> usize {
        self.color.iter().filter(|&&c| c != 0).count()
    }

    /// Reset depth and color.
    pub fn clear(&mut self) {
        self.depth.fill(f32::INFINITY);
        self.color.fill(0);
    }
}

/// Statistics of rasterizing one mesh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasterStats {
    /// Triangles submitted.
    pub triangles: usize,
    /// Triangles surviving back-face culling.
    pub front_facing: usize,
    /// Fragments written (z-test passes).
    pub fragments: usize,
}

/// Rasterize `mesh` at `(cx, cy)` with radius `scale` pixels, depth-offset
/// by `z_offset`, painting `color`.
pub fn rasterize(
    fb: &mut Framebuffer,
    mesh: &Mesh,
    cx: f32,
    cy: f32,
    scale: f32,
    z_offset: f32,
    color: u8,
) -> RasterStats {
    let mut stats = RasterStats {
        triangles: mesh.faces.len(),
        ..RasterStats::default()
    };
    // Orthographic projection: x,y scaled, z kept for the z-test.
    let project = |v: [f32; 3]| -> (f32, f32, f32) {
        (cx + v[0] * scale, cy + v[1] * scale, v[2] + z_offset)
    };
    for &[a, b, c] in &mesh.faces {
        let pa = project(mesh.vertices[a as usize]);
        let pb = project(mesh.vertices[b as usize]);
        let pc = project(mesh.vertices[c as usize]);
        // Back-face cull via signed area.
        let area = (pb.0 - pa.0) * (pc.1 - pa.1) - (pc.0 - pa.0) * (pb.1 - pa.1);
        if area <= 0.0 {
            continue;
        }
        stats.front_facing += 1;
        // Bounding-box scanline fill with barycentric inside test.
        let min_x = pa.0.min(pb.0).min(pc.0).floor().max(0.0) as usize;
        let max_x = (pa.0.max(pb.0).max(pc.0).ceil() as usize).min(fb.width - 1);
        let min_y = pa.1.min(pb.1).min(pc.1).floor().max(0.0) as usize;
        let max_y = (pa.1.max(pb.1).max(pc.1).ceil() as usize).min(fb.height - 1);
        for y in min_y..=max_y {
            for x in min_x..=max_x {
                let (px, py) = (x as f32 + 0.5, y as f32 + 0.5);
                let w0 = (pb.0 - pa.0) * (py - pa.1) - (pb.1 - pa.1) * (px - pa.0);
                let w1 = (pc.0 - pb.0) * (py - pb.1) - (pc.1 - pb.1) * (px - pb.0);
                let w2 = (pa.0 - pc.0) * (py - pc.1) - (pa.1 - pc.1) * (px - pc.0);
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                let z = (pa.2 + pb.2 + pc.2) / 3.0; // flat depth per triangle
                let idx = y * fb.width + x;
                if z < fb.depth[idx] {
                    fb.depth[idx] = z;
                    fb.color[idx] = color;
                    stats.fragments += 1;
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::LodChain;

    #[test]
    fn sphere_covers_roughly_a_disc() {
        let chain = LodChain::new(4);
        let mut fb = Framebuffer::new(64, 64);
        rasterize(&mut fb, chain.level(4), 32.0, 32.0, 20.0, 0.0, 1);
        let covered = fb.covered_pixels() as f64;
        let disc = std::f64::consts::PI * 20.0 * 20.0;
        assert!(
            (covered - disc).abs() / disc < 0.15,
            "coverage {covered} vs disc {disc}"
        );
    }

    #[test]
    fn nearer_object_wins_the_z_test() {
        let chain = LodChain::new(3);
        let mut fb = Framebuffer::new(64, 64);
        rasterize(&mut fb, chain.level(3), 32.0, 32.0, 15.0, 10.0, 1); // far
        rasterize(&mut fb, chain.level(3), 32.0, 32.0, 15.0, 0.0, 2); // near
                                                                      // Centre pixel must show the near object's color.
        assert_eq!(fb.color[32 * 64 + 32], 2);
    }

    #[test]
    fn culling_halves_the_triangles() {
        let chain = LodChain::new(3);
        let mut fb = Framebuffer::new(32, 32);
        let stats = rasterize(&mut fb, chain.level(3), 16.0, 16.0, 10.0, 0.0, 1);
        let ratio = stats.front_facing as f64 / stats.triangles as f64;
        assert!(
            (0.35..=0.65).contains(&ratio),
            "roughly half a closed mesh faces the camera: {ratio}"
        );
    }

    #[test]
    fn clear_resets_everything() {
        let chain = LodChain::new(2);
        let mut fb = Framebuffer::new(32, 32);
        rasterize(&mut fb, chain.level(2), 16.0, 16.0, 10.0, 0.0, 1);
        assert!(fb.covered_pixels() > 0);
        fb.clear();
        assert_eq!(fb.covered_pixels(), 0);
    }

    #[test]
    fn finer_lod_rasterizes_more_triangles_same_coverage() {
        let chain = LodChain::new(5);
        let mut fb_lo = Framebuffer::new(64, 64);
        let lo = rasterize(&mut fb_lo, chain.level(1), 32.0, 32.0, 20.0, 0.0, 1);
        let mut fb_hi = Framebuffer::new(64, 64);
        let hi = rasterize(&mut fb_hi, chain.level(5), 32.0, 32.0, 20.0, 0.0, 1);
        assert!(hi.triangles > 100 * lo.triangles / 10);
        let c_lo = fb_lo.covered_pixels() as f64;
        let c_hi = fb_hi.covered_pixels() as f64;
        assert!((c_hi - c_lo).abs() / c_hi < 0.35, "{c_lo} vs {c_hi}");
    }
}
