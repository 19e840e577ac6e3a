//! The simulated system memory the managers draw from.
//!
//! An [`Arena`] models a classic `sbrk`-style contiguous address space:
//! managers extend it at the top to get fresh memory and may shrink it at
//! the top to give memory back (the paper's custom managers "return large
//! coalesced chunks back to the system"). The arena never hands out
//! overlapping regions; its break-point high-water mark is the manager's
//! maximum memory footprint.

use crate::error::{Error, Result};

/// A simulated contiguous address space with `sbrk`/`trim` semantics.
///
/// # Examples
///
/// ```
/// use dmm_core::heap::Arena;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Arena::unbounded();
/// let base = a.sbrk(4096)?;
/// assert_eq!(base, 0);
/// assert_eq!(a.brk(), 4096);
/// a.trim(1024); // release the top 3 KiB
/// assert_eq!(a.brk(), 1024);
/// assert_eq!(a.peak_brk(), 4096);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Arena {
    brk: usize,
    peak_brk: usize,
    limit: Option<usize>,
    sbrk_calls: u64,
    trim_calls: u64,
}

impl Arena {
    /// An arena with no capacity limit.
    pub fn unbounded() -> Self {
        Arena::default()
    }

    /// An arena that refuses to grow beyond `limit` bytes.
    pub fn with_limit(limit: usize) -> Self {
        Arena {
            limit: Some(limit),
            ..Arena::default()
        }
    }

    /// Extend the arena by `bytes` and return the offset of the new region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] if a limit is configured and would be
    /// exceeded.
    pub fn sbrk(&mut self, bytes: usize) -> Result<usize> {
        if let Some(limit) = self.limit {
            if self.brk + bytes > limit {
                return Err(Error::OutOfMemory {
                    requested: bytes,
                    limit,
                });
            }
        }
        let base = self.brk;
        self.brk += bytes;
        self.peak_brk = self.peak_brk.max(self.brk);
        self.sbrk_calls += 1;
        Ok(base)
    }

    /// Shrink the arena down to `new_brk`, returning the released bytes to
    /// the system.
    ///
    /// # Panics
    ///
    /// Panics if `new_brk` exceeds the current break (that would *grow* the
    /// arena; use [`Arena::sbrk`]).
    pub fn trim(&mut self, new_brk: usize) {
        assert!(
            new_brk <= self.brk,
            "trim to {new_brk} beyond current brk {}",
            self.brk
        );
        if new_brk < self.brk {
            self.brk = new_brk;
            self.trim_calls += 1;
        }
    }

    /// Current break — bytes presently reserved from the system.
    pub fn brk(&self) -> usize {
        self.brk
    }

    /// High-water mark of the break: the *maximum memory footprint*.
    pub fn peak_brk(&self) -> usize {
        self.peak_brk
    }

    /// Configured capacity limit, if any.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// Number of `sbrk` extensions performed.
    pub fn sbrk_calls(&self) -> u64 {
        self.sbrk_calls
    }

    /// Number of trims performed.
    pub fn trim_calls(&self) -> u64 {
        self.trim_calls
    }

    /// Forget all state, returning the arena to zero size.
    pub fn reset(&mut self) {
        let limit = self.limit;
        *self = Arena::default();
        self.limit = limit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbrk_is_contiguous() {
        let mut a = Arena::unbounded();
        assert_eq!(a.sbrk(100).unwrap(), 0);
        assert_eq!(a.sbrk(50).unwrap(), 100);
        assert_eq!(a.brk(), 150);
        assert_eq!(a.sbrk_calls(), 2);
    }

    #[test]
    fn limit_is_enforced() {
        let mut a = Arena::with_limit(128);
        a.sbrk(100).unwrap();
        let err = a.sbrk(29).unwrap_err();
        assert!(matches!(
            err,
            Error::OutOfMemory {
                requested: 29,
                limit: 128
            }
        ));
        // A fitting request still succeeds.
        a.sbrk(28).unwrap();
        assert_eq!(a.brk(), 128);
    }

    #[test]
    fn peak_survives_trim() {
        let mut a = Arena::unbounded();
        a.sbrk(4096).unwrap();
        a.trim(0);
        assert_eq!(a.brk(), 0);
        assert_eq!(a.peak_brk(), 4096);
        // Growing again reuses the released range.
        assert_eq!(a.sbrk(100).unwrap(), 0);
        assert_eq!(a.peak_brk(), 4096);
    }

    #[test]
    fn trim_to_same_brk_is_noop() {
        let mut a = Arena::unbounded();
        a.sbrk(64).unwrap();
        a.trim(64);
        assert_eq!(a.trim_calls(), 0);
    }

    #[test]
    #[should_panic(expected = "beyond current brk")]
    fn trim_cannot_grow() {
        let mut a = Arena::unbounded();
        a.sbrk(10).unwrap();
        a.trim(20);
    }

    #[test]
    fn reset_preserves_limit() {
        let mut a = Arena::with_limit(1024);
        a.sbrk(512).unwrap();
        a.reset();
        assert_eq!(a.brk(), 0);
        assert_eq!(a.peak_brk(), 0);
        assert_eq!(a.limit(), Some(1024));
    }
}
