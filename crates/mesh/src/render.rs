//! The rendering driver: the complete third case study.
//!
//! Per frame, every object picks a mesh LOD from its viewing distance and
//! its vertex/index buffers are allocated from the manager under test in
//! stack order (phase 0, where Obstacks shines). The final pipeline stages
//! (phase 1) allocate fragment and span buffers that are released in
//! *depth* order — not allocation order — and evict long-lived texture
//! caches at input-dependent times; this is the non-LIFO behaviour that
//! "Obstacks cannot exploit … in the final phases of the rendering
//! process".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use dmm_core::error::Result;
use dmm_core::manager::{Allocator, BlockHandle};

use crate::mesh::LodChain;
use crate::raster::{rasterize, Framebuffer};

/// Configuration of a rendering run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RenderConfig {
    /// RNG seed for object paths and cache eviction.
    pub seed: u64,
    /// Frames to render.
    pub frames: usize,
    /// Objects in the scene.
    pub objects: usize,
    /// Framebuffer width.
    pub fb_width: usize,
    /// Framebuffer height.
    pub fb_height: usize,
    /// Finest subdivision level available.
    pub max_level: usize,
}

impl Default for RenderConfig {
    fn default() -> Self {
        RenderConfig {
            seed: 1,
            frames: 30,
            objects: 8,
            fb_width: 96,
            fb_height: 96,
            max_level: 5,
        }
    }
}

impl RenderConfig {
    /// A fast configuration for unit tests.
    pub fn small(seed: u64) -> Self {
        RenderConfig {
            seed,
            frames: 6,
            objects: 4,
            fb_width: 48,
            fb_height: 48,
            max_level: 3,
        }
    }
}

/// Outcome of a rendering run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RenderStats {
    /// Frames rendered.
    pub frames: usize,
    /// Object draws (frames × objects).
    pub draws: usize,
    /// Total fragments written.
    pub fragments: usize,
    /// Sum over frames of the finest level drawn.
    pub finest_level_sum: usize,
}

/// Run the rendering case study on `alloc`.
///
/// # Errors
///
/// Propagates allocator failures.
pub fn run_rendering(alloc: &mut dyn Allocator, cfg: &RenderConfig) -> Result<RenderStats> {
    let chain = LodChain::new(cfg.max_level);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut fb = Framebuffer::new(cfg.fb_width, cfg.fb_height);

    // Object paths: oscillating distances with per-object phase.
    let paths: Vec<(f32, f32)> = (0..cfg.objects)
        .map(|_| {
            (
                rng.gen_range(1.0f32..24.0),
                rng.gen_range(0.0f32..std::f32::consts::TAU),
            )
        })
        .collect();

    // Long-lived per-object texture caches, evicted at random times
    // during the final phase. Kept small relative to the frame volume so
    // the Obstacks penalty stays in the paper's regime (a final-phase
    // handicap, not a catastrophe).
    alloc.set_phase(1);
    let mut caches: Vec<(BlockHandle, usize)> = (0..cfg.objects)
        .map(|_| {
            let size = rng.gen_range(1_024..4_096);
            alloc.alloc(size).map(|h| (h, size))
        })
        .collect::<Result<Vec<_>>>()?;

    let mut stats = RenderStats {
        frames: 0,
        draws: 0,
        fragments: 0,
        finest_level_sum: 0,
    };

    for frame in 0..cfg.frames {
        fb.clear();
        // Between frames (still the previous frame's final phase): an
        // occasional texture-cache eviction — a long-lived block dies and
        // is replaced while the per-frame stack is empty.
        if frame > 0 && !caches.is_empty() && rng.gen_bool(0.15) {
            alloc.set_phase(1);
            let victim = rng.gen_range(0..caches.len());
            let (h, _) = caches.swap_remove(victim);
            alloc.free(h)?;
            let size = rng.gen_range(1_024..4_096);
            caches.push((alloc.alloc(size)?, size));
        }
        // ---- Phase 0: LOD refinement (stack-like) -------------------
        alloc.set_phase(0);
        let t = frame as f32 * 0.3;
        let mut mesh_buffers: Vec<BlockHandle> = Vec::new();
        let mut frame_draws: Vec<(usize, f32)> = Vec::new(); // (level, depth)
        let mut finest = 0usize;
        for (i, &(base, phase)) in paths.iter().enumerate() {
            let distance = (base * (1.2 + (t + phase).sin())).max(0.5);
            let level = chain.level_for_distance(distance);
            finest = finest.max(level);
            let mesh = chain.level(level);
            let (vb, ib) = mesh.buffer_bytes();
            mesh_buffers.push(alloc.alloc(vb)?);
            mesh_buffers.push(alloc.alloc(ib)?);
            let scale = (cfg.fb_width as f32 / 4.0) / distance.max(1.0);
            let cx = (i as f32 + 0.5) / cfg.objects as f32 * cfg.fb_width as f32;
            let cy = cfg.fb_height as f32 / 2.0;
            let rs = rasterize(
                &mut fb,
                mesh,
                cx,
                cy,
                scale.min(20.0),
                distance,
                (i + 1) as u8,
            );
            stats.fragments += rs.fragments;
            frame_draws.push((level, distance));
            stats.draws += 1;
        }
        stats.finest_level_sum += finest;

        // ---- Phase 1: final pipeline stages (non-LIFO) --------------
        alloc.set_phase(1);
        // Fragment-run buffers, one per object, sized by coverage.
        let mut frag_buffers: Vec<(BlockHandle, f32)> = Vec::new();
        for &(level, depth) in &frame_draws {
            let faces = chain.level(level).faces.len();
            let bytes = 64 + faces * 4;
            frag_buffers.push((alloc.alloc(bytes)?, depth));
        }
        // Composite back-to-front: free in *depth* order, not stack order.
        frag_buffers.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite depth"));
        for (h, _) in frag_buffers {
            alloc.free(h)?;
        }
        // ---- End of frame: pop the refinement stack -----------------
        alloc.set_phase(0);
        for h in mesh_buffers.into_iter().rev() {
            alloc.free(h)?;
        }
        stats.frames += 1;
    }

    alloc.set_phase(1);
    for (h, _) in caches {
        alloc.free(h)?;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmm_core::manager::PolicyAllocator;
    use dmm_core::profile::Profile;
    use dmm_core::space::presets;
    use dmm_core::trace::RecordingAllocator;

    #[test]
    fn render_run_is_leak_free_and_draws() {
        let mut alloc = RecordingAllocator::new();
        let stats = run_rendering(&mut alloc, &RenderConfig::small(1)).unwrap();
        assert_eq!(stats.frames, 6);
        assert_eq!(stats.draws, 24);
        assert!(stats.fragments > 200, "fragments: {}", stats.fragments);
        assert_eq!(alloc.stats().live_requested, 0);
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut a = RecordingAllocator::new();
            run_rendering(&mut a, &RenderConfig::small(2)).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_has_two_phases_with_stack_like_refinement() {
        let mut alloc = RecordingAllocator::new();
        run_rendering(&mut alloc, &RenderConfig::small(3)).unwrap();
        let trace = alloc.finish().unwrap();
        assert_eq!(trace.phases(), vec![0, 1]);
        let profile = Profile::of(&trace);
        let p0 = profile.phases.iter().find(|p| p.phase == 0).unwrap();
        let p1 = profile.phases.iter().find(|p| p.phase == 1).unwrap();
        assert!(
            p0.stack_like,
            "refinement phase must free in reverse allocation order"
        );
        assert!(!p1.stack_like, "final phase must not be stack-like");
        assert!(p0.allocs > 0 && p1.allocs > 0);
    }

    #[test]
    fn lod_varies_across_frames() {
        let mut alloc = RecordingAllocator::new();
        run_rendering(&mut alloc, &RenderConfig::small(4)).unwrap();
        let trace = alloc.finish().unwrap();
        // Buffer sizes must vary (different LODs at different distances).
        let profile = Profile::of(&trace);
        assert!(
            profile.histogram.distinct() > 6,
            "expected varied buffer sizes, got {}",
            profile.histogram.distinct()
        );
    }

    #[test]
    fn runs_on_policy_allocator_with_invariants() {
        let mut alloc = PolicyAllocator::new(presets::drr_paper()).unwrap();
        run_rendering(&mut alloc, &RenderConfig::small(5)).unwrap();
        alloc.check_invariants().unwrap();
        assert_eq!(alloc.stats().live_requested, 0);
    }
}
