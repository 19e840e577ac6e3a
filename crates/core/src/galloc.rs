//! Expose composed managers through Rust's real `GlobalAlloc` interface.
//!
//! [`ArenaAlloc`] backs a simulated manager with an actual fixed-capacity
//! byte buffer, so any manager built from the search space can serve real
//! reads and writes. Offsets issued by the simulated arena become pointers
//! into the buffer; a mutex serialises access, making the adapter `Sync` as
//! `GlobalAlloc` requires.
//!
//! The buffer is reserved up front (embedded-style static heap), so pointers
//! stay stable for the adapter's lifetime. Requests that exceed the reserved
//! capacity fail — `alloc` returns null, exactly like an exhausted embedded
//! heap.

// The one module of the workspace that needs `unsafe` (every other crate
// forbids it): each unsafe operation must sit in its own block with its
// obligation discharged locally, not ride on the enclosing unsafe fn.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout};
use std::collections::HashMap;
use std::ptr::NonNull;

use parking_lot::Mutex;

use crate::manager::{Allocator, BlockHandle};
use crate::units::MIN_ALIGN;

struct Inner<M> {
    manager: M,
    by_ptr: HashMap<usize, BlockHandle>,
}

/// A fixed-capacity real-memory adapter for any [`Allocator`].
///
/// # Examples
///
/// ```
/// use dmm_core::galloc::ArenaAlloc;
/// use dmm_core::manager::PolicyAllocator;
/// use dmm_core::space::presets;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cfg = presets::drr_paper();
/// cfg.params.arena_limit = Some(64 * 1024);
/// let heap = ArenaAlloc::with_capacity(PolicyAllocator::new(cfg)?, 64 * 1024);
/// let p = heap.allocate(1024).expect("fits");
/// // Real memory: write and read back through the pointer.
/// unsafe {
///     std::ptr::write_bytes(p.as_ptr(), 0xAB, 1024);
///     assert_eq!(*p.as_ptr().add(512), 0xAB);
/// }
/// heap.deallocate(p);
/// # Ok(())
/// # }
/// ```
pub struct ArenaAlloc<M> {
    inner: Mutex<Inner<M>>,
    buffer: Box<[u8]>,
}

impl<M: std::fmt::Debug> std::fmt::Debug for ArenaAlloc<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaAlloc")
            .field("capacity", &self.buffer.len())
            .finish_non_exhaustive()
    }
}

impl<M: Allocator> ArenaAlloc<M> {
    /// Wrap `manager` over a freshly reserved buffer of `capacity` bytes.
    ///
    /// For hard guarantees set the manager's
    /// [`arena_limit`](crate::space::config::Params::arena_limit) to the
    /// same capacity; the adapter additionally refuses any block that would
    /// fall outside the buffer.
    pub fn with_capacity(manager: M, capacity: usize) -> Self {
        ArenaAlloc {
            inner: Mutex::new(Inner {
                manager,
                by_ptr: HashMap::new(),
            }),
            buffer: vec![0u8; capacity].into_boxed_slice(),
        }
    }

    /// Reserved capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.buffer.len()
    }

    /// Bytes the wrapped manager currently reserves from its arena.
    pub fn footprint(&self) -> usize {
        self.inner.lock().manager.footprint()
    }

    /// Allocate `size` bytes with the heap's natural alignment
    /// ([`MIN_ALIGN`]); returns `None` when the manager or capacity is
    /// exhausted.
    pub fn allocate(&self, size: usize) -> Option<NonNull<u8>> {
        self.alloc_aligned(size, MIN_ALIGN)
    }

    fn alloc_aligned(&self, size: usize, align: usize) -> Option<NonNull<u8>> {
        let over = if align > MIN_ALIGN { align } else { 0 };
        let mut inner = self.inner.lock();
        let handle = inner.manager.alloc(size + over).ok()?;
        let offset = handle.offset();
        if offset + size + over > self.buffer.len() {
            // Block falls outside the real buffer: back out.
            let _ = inner.manager.free(handle);
            return None;
        }
        let base = self.buffer.as_ptr() as usize + offset;
        let addr = if over > 0 {
            (base + align - 1) & !(align - 1)
        } else {
            base
        };
        inner.by_ptr.insert(addr, handle);
        // Safety: `addr` points into a live, non-null buffer.
        Some(unsafe { NonNull::new_unchecked(addr as *mut u8) })
    }

    /// Release a pointer returned by [`ArenaAlloc::allocate`].
    ///
    /// Unknown pointers are ignored (mirroring `free(NULL)` tolerance but
    /// observable through [`ArenaAlloc::live_count`]).
    pub fn deallocate(&self, ptr: NonNull<u8>) {
        let mut inner = self.inner.lock();
        if let Some(handle) = inner.by_ptr.remove(&(ptr.as_ptr() as usize)) {
            let _ = inner.manager.free(handle);
        }
    }

    /// Number of live blocks issued through this adapter.
    pub fn live_count(&self) -> usize {
        self.inner.lock().by_ptr.len()
    }
}

// Safety: all interior mutability is behind the mutex; the buffer itself is
// only written through pointers handed to exactly one owner at a time.
unsafe impl<M: Allocator + Send> Sync for ArenaAlloc<M> {}
unsafe impl<M: Allocator + Send> Send for ArenaAlloc<M> {}

unsafe impl<M: Allocator + Send> GlobalAlloc for ArenaAlloc<M> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match self.alloc_aligned(layout.size().max(1), layout.align()) {
            Some(p) => p.as_ptr(),
            None => std::ptr::null_mut(),
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, _layout: Layout) {
        if let Some(p) = NonNull::new(ptr) {
            self.deallocate(p);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let Some(old) = NonNull::new(ptr) else {
            // Safety: `layout.align()` is a valid power of two by the
            // caller's `Layout` contract; the size is the caller's request.
            return unsafe {
                self.alloc(Layout::from_size_align_unchecked(new_size, layout.align()))
            };
        };
        if layout.align() > MIN_ALIGN {
            // Over-aligned blocks cannot resize in place safely; fall back
            // to allocate-copy-free.
            // Safety: alignment is a valid power of two per the `Layout`
            // contract (same as above).
            let fresh =
                unsafe { self.alloc(Layout::from_size_align_unchecked(new_size, layout.align())) };
            if !fresh.is_null() {
                // Safety: `ptr` is live for `layout.size()` bytes per the
                // realloc contract, `fresh` is a distinct block at least
                // `new_size` bytes long, and the copy length is the
                // minimum of the two.
                unsafe { std::ptr::copy_nonoverlapping(ptr, fresh, layout.size().min(new_size)) };
                self.deallocate(old);
            }
            return fresh;
        }
        let mut inner = self.inner.lock();
        let Some(handle) = inner.by_ptr.remove(&(ptr as usize)) else {
            return std::ptr::null_mut();
        };
        match inner.manager.realloc(handle, new_size.max(1)) {
            Ok(new_handle) => {
                let offset = new_handle.offset();
                if offset + new_size > self.buffer.len() {
                    // Landed outside the real buffer: undo.
                    let _ = inner.manager.free(new_handle);
                    return std::ptr::null_mut();
                }
                let new_ptr = (self.buffer.as_ptr() as usize + offset) as *mut u8;
                if !std::ptr::eq(new_ptr, ptr) {
                    // Safety: both pointers lie inside the adapter's
                    // buffer, the old block is live for `layout.size()`
                    // bytes and the new one for `new_size`; `copy`
                    // tolerates the ranges overlapping.
                    unsafe { std::ptr::copy(ptr, new_ptr, layout.size().min(new_size)) };
                }
                inner.by_ptr.insert(new_ptr as usize, new_handle);
                new_ptr
            }
            Err(_) => {
                // Original stays live per the realloc contract.
                inner.by_ptr.insert(ptr as usize, handle);
                std::ptr::null_mut()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PolicyAllocator;
    use crate::space::presets;

    fn heap(capacity: usize) -> ArenaAlloc<PolicyAllocator> {
        let mut cfg = presets::drr_paper();
        cfg.params.arena_limit = Some(capacity);
        ArenaAlloc::with_capacity(PolicyAllocator::new(cfg).unwrap(), capacity)
    }

    #[test]
    fn real_data_round_trips() {
        let h = heap(64 * 1024);
        let n = 100;
        let ptrs: Vec<NonNull<u8>> = (0..n)
            .map(|i| {
                let p = h.allocate(64 + i).expect("fits");
                unsafe { std::ptr::write_bytes(p.as_ptr(), i as u8, 64 + i) };
                p
            })
            .collect();
        for (i, p) in ptrs.iter().enumerate() {
            unsafe {
                assert_eq!(*p.as_ptr(), i as u8);
                assert_eq!(*p.as_ptr().add(63 + i), i as u8);
            }
        }
        for p in ptrs {
            h.deallocate(p);
        }
        assert_eq!(h.live_count(), 0);
    }

    #[test]
    fn live_blocks_do_not_overlap() {
        let h = heap(256 * 1024);
        let sizes = [17usize, 64, 3, 255, 1000, 8, 4096];
        let ptrs: Vec<(usize, usize)> = sizes
            .iter()
            .map(|&s| (h.allocate(s).unwrap().as_ptr() as usize, s))
            .collect();
        for (i, &(a, sa)) in ptrs.iter().enumerate() {
            for &(b, sb) in ptrs.iter().skip(i + 1) {
                assert!(a + sa <= b || b + sb <= a, "overlap: {a}+{sa} vs {b}+{sb}");
            }
        }
    }

    #[test]
    fn exhaustion_returns_none_and_recovers() {
        let h = heap(8 * 1024);
        let a = h.allocate(4000).unwrap();
        let b = h.allocate(3000).unwrap();
        assert!(h.allocate(4000).is_none(), "over capacity must fail");
        h.deallocate(a);
        h.deallocate(b);
        assert!(h.allocate(4000).is_some(), "freed memory is reusable");
    }

    #[test]
    fn global_alloc_interface_respects_alignment() {
        let h = heap(64 * 1024);
        unsafe {
            for align in [1usize, 2, 4, 8, 16, 64, 256] {
                let layout = Layout::from_size_align(100, align).unwrap();
                let p = GlobalAlloc::alloc(&h, layout);
                assert!(!p.is_null());
                assert_eq!(p as usize % align, 0, "misaligned for align={align}");
                GlobalAlloc::dealloc(&h, p, layout);
            }
        }
    }

    #[test]
    fn zero_size_layout_is_served() {
        let h = heap(4096);
        unsafe {
            let layout = Layout::from_size_align(0, 1).unwrap();
            let p = GlobalAlloc::alloc(&h, layout);
            assert!(!p.is_null());
            GlobalAlloc::dealloc(&h, p, layout);
        }
    }

    #[test]
    fn realloc_preserves_data_in_place_and_across_moves() {
        let h = heap(128 * 1024);
        unsafe {
            let layout = Layout::from_size_align(256, 8).unwrap();
            let p = GlobalAlloc::alloc(&h, layout);
            assert!(!p.is_null());
            for i in 0..256 {
                *p.add(i) = i as u8;
            }
            // Grow: contents up to the old size must survive.
            let q = GlobalAlloc::realloc(&h, p, layout, 4096);
            assert!(!q.is_null());
            for i in 0..256 {
                assert_eq!(*q.add(i), i as u8, "byte {i} lost in grow");
            }
            // Shrink: prefix must survive.
            let layout2 = Layout::from_size_align(4096, 8).unwrap();
            let r = GlobalAlloc::realloc(&h, q, layout2, 64);
            assert!(!r.is_null());
            for i in 0..64 {
                assert_eq!(*r.add(i), i as u8, "byte {i} lost in shrink");
            }
            GlobalAlloc::dealloc(&h, r, Layout::from_size_align(64, 8).unwrap());
        }
        assert_eq!(h.live_count(), 0);
    }

    #[test]
    fn failed_realloc_keeps_the_original_block() {
        let h = heap(16 * 1024);
        unsafe {
            let layout = Layout::from_size_align(1024, 8).unwrap();
            let p = GlobalAlloc::alloc(&h, layout);
            assert!(!p.is_null());
            *p = 42;
            // Growing far beyond capacity must fail...
            let q = GlobalAlloc::realloc(&h, p, layout, 1 << 20);
            assert!(q.is_null());
            // ...while the original stays live and intact.
            assert_eq!(*p, 42);
            assert_eq!(h.live_count(), 1);
            GlobalAlloc::dealloc(&h, p, layout);
        }
    }

    #[test]
    fn adapter_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ArenaAlloc<PolicyAllocator>>();
    }

    #[test]
    fn works_with_vec_like_usage_pattern() {
        // Grow-and-shrink byte buffers by hand through the adapter.
        let h = heap(128 * 1024);
        let mut cur = h.allocate(16).unwrap();
        let mut cap = 16usize;
        unsafe { std::ptr::write_bytes(cur.as_ptr(), 7, cap) };
        for _ in 0..8 {
            let bigger = h.allocate(cap * 2).unwrap();
            unsafe {
                std::ptr::copy_nonoverlapping(cur.as_ptr(), bigger.as_ptr(), cap);
                assert_eq!(*bigger.as_ptr().add(cap - 1), 7);
                std::ptr::write_bytes(bigger.as_ptr(), 7, cap * 2);
            }
            h.deallocate(cur);
            cur = bigger;
            cap *= 2;
        }
        h.deallocate(cur);
        assert_eq!(h.live_count(), 0);
    }
}
