//! Scalable (progressive) triangle meshes.
//!
//! The rendering case study "adapts the quality of each object on the
//! screen with scalable meshes according to the position of the user"
//! (Luebke-style level of detail). A [`LodChain`] holds a sphere mesh at
//! increasing subdivision levels; the renderer picks a level per object per
//! frame from the viewing distance, so vertex/face buffer sizes vary at
//! run time — the DM behaviour under study.

use serde::{Deserialize, Serialize};

/// An indexed triangle mesh.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mesh {
    /// Vertex positions.
    pub vertices: Vec<[f32; 3]>,
    /// Triangles as vertex-index triples.
    pub faces: Vec<[u32; 3]>,
}

/// Bytes of one vertex record on the modelled target (3 × f32).
pub const VERTEX_BYTES: usize = 12;
/// Bytes of one face record on the modelled target (3 × u32).
pub const FACE_BYTES: usize = 12;

impl Mesh {
    /// The unit octahedron — the base of every LOD chain.
    pub fn octahedron() -> Mesh {
        Mesh {
            vertices: vec![
                [1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, -1.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0],
            ],
            faces: vec![
                [0, 2, 4],
                [2, 1, 4],
                [1, 3, 4],
                [3, 0, 4],
                [2, 0, 5],
                [1, 2, 5],
                [3, 1, 5],
                [0, 3, 5],
            ],
        }
    }

    /// Bytes the vertex + index buffers occupy on the modelled target.
    pub fn buffer_bytes(&self) -> (usize, usize) {
        (
            self.vertices.len() * VERTEX_BYTES,
            self.faces.len() * FACE_BYTES,
        )
    }

    /// One step of sphere-projected 4-to-1 subdivision: each edge gains a
    /// midpoint vertex (normalised onto the unit sphere), each face splits
    /// into four.
    pub fn subdivide(&self) -> Mesh {
        use std::collections::HashMap;
        let mut vertices = self.vertices.clone();
        let mut midpoint: HashMap<(u32, u32), u32> = HashMap::new();
        let mut faces = Vec::with_capacity(self.faces.len() * 4);

        let mut mid = |a: u32, b: u32, vertices: &mut Vec<[f32; 3]>| -> u32 {
            let key = (a.min(b), a.max(b));
            if let Some(&m) = midpoint.get(&key) {
                return m;
            }
            let va = vertices[a as usize];
            let vb = vertices[b as usize];
            let mut m = [
                (va[0] + vb[0]) / 2.0,
                (va[1] + vb[1]) / 2.0,
                (va[2] + vb[2]) / 2.0,
            ];
            let norm = (m[0] * m[0] + m[1] * m[1] + m[2] * m[2]).sqrt().max(1e-9);
            m = [m[0] / norm, m[1] / norm, m[2] / norm];
            vertices.push(m);
            let idx = (vertices.len() - 1) as u32;
            midpoint.insert(key, idx);
            idx
        };

        for &[a, b, c] in &self.faces {
            let ab = mid(a, b, &mut vertices);
            let bc = mid(b, c, &mut vertices);
            let ca = mid(c, a, &mut vertices);
            faces.push([a, ab, ca]);
            faces.push([ab, b, bc]);
            faces.push([ca, bc, c]);
            faces.push([ab, bc, ca]);
        }
        Mesh { vertices, faces }
    }

    /// Euler characteristic `V − E + F` (2 for sphere topology).
    pub fn euler_characteristic(&self) -> i64 {
        use std::collections::HashSet;
        let mut edges: HashSet<(u32, u32)> = HashSet::new();
        for &[a, b, c] in &self.faces {
            for (u, v) in [(a, b), (b, c), (c, a)] {
                edges.insert((u.min(v), u.max(v)));
            }
        }
        self.vertices.len() as i64 - edges.len() as i64 + self.faces.len() as i64
    }
}

/// A chain of subdivision levels of the base mesh.
#[derive(Debug, Clone)]
pub struct LodChain {
    levels: Vec<Mesh>,
}

impl LodChain {
    /// Build levels `0..=max_level` (level 0 = octahedron).
    ///
    /// # Panics
    ///
    /// Panics if `max_level > 7` (face counts explode as `8·4^level`).
    pub fn new(max_level: usize) -> Self {
        assert!(max_level <= 7, "max_level > 7 explodes face counts");
        let mut levels = vec![Mesh::octahedron()];
        for _ in 0..max_level {
            let next = levels.last().expect("non-empty").subdivide();
            levels.push(next);
        }
        LodChain { levels }
    }

    /// Number of levels (max level + 1).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The mesh at `level`, clamped to the chain.
    pub fn level(&self, level: usize) -> &Mesh {
        &self.levels[level.min(self.levels.len() - 1)]
    }

    /// Pick a level for an object at `distance` (near ⇒ finest).
    ///
    /// Matches the QoS idea of the paper's reference \[14\]: quality degrades
    /// smoothly as the object recedes.
    pub fn level_for_distance(&self, distance: f32) -> usize {
        let max = self.levels.len() - 1;
        if distance <= 1.0 {
            return max;
        }
        let drop = distance.log2().floor() as usize;
        max.saturating_sub(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octahedron_is_a_sphere_topologically() {
        let m = Mesh::octahedron();
        assert_eq!(m.vertices.len(), 6);
        assert_eq!(m.faces.len(), 8);
        assert_eq!(m.euler_characteristic(), 2);
    }

    #[test]
    fn subdivision_multiplies_faces_by_four() {
        let m = Mesh::octahedron();
        let s = m.subdivide();
        assert_eq!(s.faces.len(), 32);
        // V' = V + E (one midpoint per edge); octahedron has 12 edges.
        assert_eq!(s.vertices.len(), 6 + 12);
        assert_eq!(
            s.euler_characteristic(),
            2,
            "subdivision preserves topology"
        );
        let ss = s.subdivide();
        assert_eq!(ss.faces.len(), 128);
        assert_eq!(ss.euler_characteristic(), 2);
    }

    #[test]
    fn subdivided_vertices_lie_on_the_unit_sphere() {
        let s = Mesh::octahedron().subdivide().subdivide();
        for v in &s.vertices {
            let r = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
            assert!((r - 1.0).abs() < 1e-5, "radius {r}");
        }
    }

    #[test]
    fn lod_chain_levels_grow() {
        let chain = LodChain::new(4);
        assert_eq!(chain.level_count(), 5);
        for l in 1..5 {
            assert!(chain.level(l).faces.len() > chain.level(l - 1).faces.len());
        }
        // Clamping beyond the last level.
        assert_eq!(chain.level(99).faces.len(), chain.level(4).faces.len());
    }

    #[test]
    fn nearer_objects_get_finer_levels() {
        let chain = LodChain::new(5);
        let near = chain.level_for_distance(0.5);
        let mid = chain.level_for_distance(4.0);
        let far = chain.level_for_distance(64.0);
        assert!(near > mid, "near {near} vs mid {mid}");
        assert!(mid > far, "mid {mid} vs far {far}");
        assert_eq!(near, 5);
    }

    #[test]
    fn buffer_bytes_match_counts() {
        let m = Mesh::octahedron();
        let (vb, fb) = m.buffer_bytes();
        assert_eq!(vb, 6 * 12);
        assert_eq!(fb, 8 * 12);
    }

    #[test]
    #[should_panic(expected = "max_level")]
    fn oversized_chain_is_rejected() {
        let _ = LodChain::new(8);
    }
}
