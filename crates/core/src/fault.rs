//! Deterministic fault injection for the resilience layer.
//!
//! A [`FaultPlan`] is an explicit, seeded description of which faults to
//! inject where: candidate panics and budget exhaustion keyed by config
//! fingerprint, shard deaths (transient or fatal) keyed by shard index,
//! plus byte-level helpers ([`truncate_at`], [`flip_bit`]) for corrupting
//! durable files. The chaos test suite builds plans from fault-free runs
//! (pick a non-winner fingerprint, panic it, assert the winner is
//! unchanged), so every recovery path is exercised reproducibly — no
//! wall-clock, no global RNG, same faults on every run.
//!
//! Production code never constructs a plan; the
//! [`ExplorationEngine`](crate::methodology::ExplorationEngine) and the
//! sharded explorer merely consult one when a test installs it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// A deterministic schedule of injected faults.
///
/// Empty by default: a default plan injects nothing.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Candidates (by [`DmConfig::fingerprint`](crate::space::DmConfig::fingerprint))
    /// whose replay panics mid-flight — exercising the engine's
    /// `catch_unwind` quarantine (`EX001`).
    panic_configs: BTreeSet<u64>,
    /// Candidates whose replay runs under a ~zero step budget —
    /// exercising the `budget_exceeded` path (`EX002`) without needing a
    /// genuinely pathological config.
    exhaust_budget: BTreeSet<u64>,
    /// Shard index → how many attempts fail before one succeeds —
    /// exercising bounded retry (`EX003`). Decremented as faults fire.
    shard_transient: Mutex<BTreeMap<usize, usize>>,
    /// Shards that fail on every attempt — exercising permanent shard
    /// failure (`EX004`) and the degraded-merge policy.
    shard_fatal: BTreeSet<usize>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Panic the replay of the candidate with this fingerprint.
    pub fn panic_candidate(mut self, fingerprint: u64) -> Self {
        self.panic_configs.insert(fingerprint);
        self
    }

    /// Exhaust the budget of the candidate with this fingerprint.
    pub fn exhaust_candidate(mut self, fingerprint: u64) -> Self {
        self.exhaust_budget.insert(fingerprint);
        self
    }

    /// Fail the first `failures` attempts at `shard`, then let it succeed.
    pub fn kill_shard_transiently(self, shard: usize, failures: usize) -> Self {
        self.shard_transient
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(shard, failures);
        self
    }

    /// Fail every attempt at `shard`.
    pub fn kill_shard(mut self, shard: usize) -> Self {
        self.shard_fatal.insert(shard);
        self
    }

    /// Whether this candidate's replay should panic.
    pub fn should_panic(&self, fingerprint: u64) -> bool {
        self.panic_configs.contains(&fingerprint)
    }

    /// Whether this candidate's replay should run out of budget.
    pub fn should_exhaust(&self, fingerprint: u64) -> bool {
        self.exhaust_budget.contains(&fingerprint)
    }

    /// Consume one shard-death fault for `shard`, if any is scheduled.
    /// Returns `true` when the current attempt must fail. Fatal shards
    /// always fail; transient ones fail until their count drains.
    pub fn take_shard_fault(&self, shard: usize) -> bool {
        if self.shard_fatal.contains(&shard) {
            return true;
        }
        let mut transient = self
            .shard_transient
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        match transient.get_mut(&shard) {
            Some(left) if *left > 0 => {
                *left -= 1;
                true
            }
            _ => false,
        }
    }

    /// Whether the plan schedules any fault at all.
    pub fn is_empty(&self) -> bool {
        self.panic_configs.is_empty()
            && self.exhaust_budget.is_empty()
            && self.shard_fatal.is_empty()
            && self
                .shard_transient
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .values()
                .all(|&n| n == 0)
    }
}

/// Return the first `at` bytes of `bytes` — a torn write / killed
/// process, for corrupting durable files in tests.
pub fn truncate_at(bytes: &[u8], at: usize) -> Vec<u8> {
    bytes[..at.min(bytes.len())].to_vec()
}

/// Return `bytes` with bit `bit` (absolute, little-endian within each
/// byte) flipped — single-bit rot, for checksum tests.
pub fn flip_bit(bytes: &[u8], bit: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let byte = bit / 8;
    if byte < out.len() {
        out[byte] ^= 1 << (bit % 8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert!(!p.should_panic(42));
        assert!(!p.should_exhaust(42));
        assert!(!p.take_shard_fault(0));
    }

    #[test]
    fn transient_shard_faults_drain() {
        let p = FaultPlan::new().kill_shard_transiently(3, 2);
        assert!(p.take_shard_fault(3));
        assert!(p.take_shard_fault(3));
        assert!(!p.take_shard_fault(3), "third attempt succeeds");
        assert!(!p.take_shard_fault(1), "other shards unaffected");
    }

    #[test]
    fn fatal_shard_faults_never_drain() {
        let p = FaultPlan::new().kill_shard(1);
        for _ in 0..5 {
            assert!(p.take_shard_fault(1));
        }
    }

    #[test]
    fn byte_helpers() {
        let bytes = [0u8, 0xFF, 0b1010_1010];
        assert_eq!(truncate_at(&bytes, 2), vec![0, 0xFF]);
        assert_eq!(truncate_at(&bytes, 99), bytes.to_vec());
        assert_eq!(flip_bit(&bytes, 0), vec![1, 0xFF, 0b1010_1010]);
        assert_eq!(flip_bit(&bytes, 17), vec![0, 0xFF, 0b1010_1000]);
        assert_eq!(
            flip_bit(&bytes, 800),
            bytes.to_vec(),
            "out of range is a no-op"
        );
    }
}
