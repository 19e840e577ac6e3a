//! The simulated heap substrate.
//!
//! Managers in this workspace do not run on the host allocator — they run on
//! a byte-exact simulation of an embedded memory system, so that footprint
//! numbers are deterministic and reproducible:
//!
//! - [`Arena`] — the `sbrk`-style system memory;
//! - [`block`] — block spans and the classic offset-keyed
//!   [`block::BlockMap`] (today the debug-only shadow oracle of the
//!   tiling, and the block table of the hand-rolled Lea baseline);
//! - [`tiling`] — the boundary-tag [`tiling::Tiling`] block store: the
//!   authoritative, handle-addressed intrusive neighbour list every
//!   policy manager runs on;
//! - [`index`] — the free-block index structures of decision tree A1.

pub mod arena;
pub mod block;
pub mod index;
pub mod tiling;

pub use arena::Arena;
pub use block::{Block, BlockMap, BlockState, Run, Span};
pub use index::FreeIndex;
pub use tiling::{BlockRef, TiledBlock, Tiling};
