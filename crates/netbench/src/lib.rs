//! # dmm-netbench
//!
//! The Deficit Round Robin (DRR) packet scheduler of Shreedhar & Varghese
//! (SIGCOMM '95), as shipped in the NetBench suite — the paper's first case
//! study. Packets arrive from a traffic source, are buffered in per-flow
//! queues, and a link of configurable rate serves the queues in DRR order:
//! each round a queue's *deficit counter* grows by a quantum, and the queue
//! may send packets while their size fits the accumulated deficit —
//! byte-level fair scheduling with O(1) work per packet.
//!
//! Every packet buffer comes from the [`Allocator`] under test, so the
//! scheduler's DM behaviour (highly variable block sizes, queue build-up
//! during bursts, frees at service time) is exactly what the manager sees.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use dmm_core::error::Result;
use dmm_core::manager::{Allocator, BlockHandle};
use dmm_trafficgen::Packet;

/// DRR scheduler parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrrConfig {
    /// Deficit quantum added to a queue each round, in bytes. Shreedhar &
    /// Varghese recommend at least the maximum packet size.
    pub quantum: usize,
    /// Outgoing link rate in bits per second.
    pub link_rate_bps: u64,
}

impl Default for DrrConfig {
    fn default() -> Self {
        DrrConfig {
            quantum: 1500,
            link_rate_bps: 10_000_000,
        }
    }
}

#[derive(Debug)]
struct QueuedPacket {
    handle: BlockHandle,
    size: usize,
    arrival_ns: u64,
}

#[derive(Debug, Default)]
struct FlowQueue {
    deficit: usize,
    packets: VecDeque<QueuedPacket>,
    bytes: usize,
}

/// Statistics of one scheduler run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DrrRunStats {
    /// Packets that entered the scheduler.
    pub packets_in: usize,
    /// Packets transmitted.
    pub packets_out: usize,
    /// Bytes transmitted.
    pub bytes_out: usize,
    /// Bytes transmitted per flow.
    pub bytes_per_flow: Vec<usize>,
    /// Largest backlog (bytes buffered) seen at any instant.
    pub max_backlog_bytes: usize,
    /// DRR rounds executed.
    pub rounds: u64,
    /// Packets still queued at the end of the run (before draining).
    pub residual_packets: usize,
}

/// The DRR scheduler, buffering through an external allocator.
#[derive(Debug)]
pub struct DrrScheduler {
    cfg: DrrConfig,
    queues: Vec<FlowQueue>,
    /// Round-robin list of indices of non-empty queues.
    active: VecDeque<usize>,
    /// Link credit in bytes (grows with time, shrinks with transmission).
    credit: f64,
    last_service_ns: u64,
    stats: DrrRunStats,
}

impl DrrScheduler {
    /// A scheduler for `flows` queues.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero or the quantum is zero.
    pub fn new(flows: u32, cfg: DrrConfig) -> Self {
        assert!(flows > 0, "at least one flow required");
        assert!(cfg.quantum > 0, "quantum must be positive");
        DrrScheduler {
            queues: (0..flows).map(|_| FlowQueue::default()).collect(),
            active: VecDeque::new(),
            credit: 0.0,
            last_service_ns: 0,
            stats: DrrRunStats {
                bytes_per_flow: vec![0; flows as usize],
                ..DrrRunStats::default()
            },
            cfg,
        }
    }

    /// Total bytes currently buffered.
    pub fn backlog_bytes(&self) -> usize {
        self.queues.iter().map(|q| q.bytes).sum()
    }

    /// Buffer an arriving packet, allocating its payload from `alloc`.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn enqueue(&mut self, alloc: &mut dyn Allocator, pkt: &Packet) -> Result<()> {
        let handle = alloc.alloc(pkt.size)?;
        let flow = pkt.flow as usize % self.queues.len();
        let q = &mut self.queues[flow];
        let was_empty = q.packets.is_empty();
        q.packets.push_back(QueuedPacket {
            handle,
            size: pkt.size,
            arrival_ns: pkt.arrival_ns,
        });
        q.bytes += pkt.size;
        if was_empty {
            self.active.push_back(flow);
        }
        self.stats.packets_in += 1;
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.backlog_bytes());
        Ok(())
    }

    /// Serve the link up to absolute time `now_ns`, freeing transmitted
    /// packet buffers back to `alloc`.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn service_until(&mut self, alloc: &mut dyn Allocator, now_ns: u64) -> Result<()> {
        if now_ns > self.last_service_ns {
            let dt = (now_ns - self.last_service_ns) as f64;
            self.credit += dt * self.cfg.link_rate_bps as f64 / 8e9;
            self.last_service_ns = now_ns;
            // Credit never accumulates beyond one quantum-round per queue:
            // an idle link does not bank unlimited future capacity.
            let cap = (self.queues.len() * self.cfg.quantum * 2) as f64;
            self.credit = self.credit.min(cap.max(3000.0));
        }
        self.drain_credit(alloc)
    }

    fn drain_credit(&mut self, alloc: &mut dyn Allocator) -> Result<()> {
        // Deficit Round Robin main loop (Shreedhar & Varghese, Fig. 4).
        while let Some(&flow) = self.active.front() {
            let head_size = match self.queues[flow].packets.front() {
                Some(p) => p.size,
                None => {
                    self.active.pop_front();
                    continue;
                }
            };
            if (head_size as f64) > self.credit {
                break; // link has no capacity right now
            }
            self.stats.rounds += 1;
            self.queues[flow].deficit += self.cfg.quantum;
            // Send while the deficit covers the head packet.
            while let Some(p) = self.queues[flow].packets.front() {
                if p.size > self.queues[flow].deficit || (p.size as f64) > self.credit {
                    break;
                }
                let p = self.queues[flow].packets.pop_front().expect("head exists");
                self.queues[flow].deficit -= p.size;
                self.queues[flow].bytes -= p.size;
                self.credit -= p.size as f64;
                alloc.free(p.handle)?;
                self.stats.packets_out += 1;
                self.stats.bytes_out += p.size;
                self.stats.bytes_per_flow[flow] += p.size;
                let _ = p.arrival_ns;
            }
            // Rotate or retire the queue.
            self.active.pop_front();
            if self.queues[flow].packets.is_empty() {
                self.queues[flow].deficit = 0;
            } else {
                self.active.push_back(flow);
            }
        }
        Ok(())
    }

    /// Transmit everything that is still buffered (end-of-run drain).
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn drain(&mut self, alloc: &mut dyn Allocator) -> Result<()> {
        self.stats.residual_packets = self.queues.iter().map(|q| q.packets.len()).sum();
        self.credit = f64::INFINITY;
        self.drain_credit(alloc)?;
        self.credit = 0.0;
        Ok(())
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &DrrRunStats {
        &self.stats
    }
}

/// Feed a packet stream through a DRR scheduler on top of `alloc`.
///
/// This is the complete DRR case-study application: arrivals interleave
/// with link service in timestamp order, and the final backlog is drained.
///
/// # Errors
///
/// Propagates allocator failures.
pub fn run_drr(
    alloc: &mut dyn Allocator,
    packets: &[Packet],
    flows: u32,
    cfg: DrrConfig,
) -> Result<DrrRunStats> {
    let mut sched = DrrScheduler::new(flows, cfg);
    for pkt in packets {
        sched.service_until(alloc, pkt.arrival_ns)?;
        sched.enqueue(alloc, pkt)?;
    }
    sched.drain(alloc)?;
    Ok(sched.stats.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmm_core::manager::PolicyAllocator;
    use dmm_core::space::presets;
    use dmm_core::trace::RecordingAllocator;
    use dmm_trafficgen::{TrafficConfig, TrafficGenerator};

    fn mk_packets(seed: u64, ms: u64) -> Vec<Packet> {
        TrafficGenerator::new(TrafficConfig {
            seed,
            duration_ms: ms,
            ..TrafficConfig::default()
        })
        .collect()
    }

    #[test]
    fn all_packets_eventually_served_and_freed() {
        let packets = mk_packets(1, 100);
        let mut alloc = RecordingAllocator::new();
        let stats = run_drr(&mut alloc, &packets, 16, DrrConfig::default()).unwrap();
        assert_eq!(stats.packets_in, packets.len());
        assert_eq!(stats.packets_out, packets.len());
        assert_eq!(alloc.stats().live_requested, 0, "every buffer freed");
        assert_eq!(
            stats.bytes_out,
            packets.iter().map(|p| p.size).sum::<usize>()
        );
    }

    #[test]
    fn deterministic_runs() {
        let packets = mk_packets(2, 60);
        let run = || {
            let mut alloc = RecordingAllocator::new();
            run_drr(&mut alloc, &packets, 16, DrrConfig::default()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn slow_link_builds_backlog() {
        let packets = mk_packets(3, 60);
        let fast = {
            let mut a = RecordingAllocator::new();
            run_drr(
                &mut a,
                &packets,
                16,
                DrrConfig {
                    link_rate_bps: 100_000_000,
                    ..DrrConfig::default()
                },
            )
            .unwrap()
        };
        let slow = {
            let mut a = RecordingAllocator::new();
            run_drr(
                &mut a,
                &packets,
                16,
                DrrConfig {
                    link_rate_bps: 2_000_000,
                    ..DrrConfig::default()
                },
            )
            .unwrap()
        };
        assert!(
            slow.max_backlog_bytes > fast.max_backlog_bytes,
            "congestion must buffer more: slow {} vs fast {}",
            slow.max_backlog_bytes,
            fast.max_backlog_bytes
        );
    }

    #[test]
    fn drr_is_fair_between_equal_backlogged_flows() {
        // Two flows, both permanently backlogged with different packet
        // sizes; DRR must serve them byte-fairly (the paper's "same amount
        // of data passed and sent from each internal queue").
        let mut packets = Vec::new();
        for i in 0..2000u64 {
            packets.push(Packet {
                arrival_ns: i, // effectively simultaneous
                size: if i % 2 == 0 { 1500 } else { 64 },
                flow: (i % 2) as u32,
            });
        }
        let mut alloc = RecordingAllocator::new();
        let mut sched = DrrScheduler::new(
            2,
            DrrConfig {
                quantum: 1500,
                link_rate_bps: 5_000_000,
            },
        );
        for p in &packets {
            sched.enqueue(&mut alloc, p).unwrap();
        }
        // Serve a congested window, not the full drain.
        sched.service_until(&mut alloc, 1_000_000_000).unwrap();
        let served = &sched.stats().bytes_per_flow;
        let (a, b) = (served[0] as f64, served[1] as f64);
        assert!(a > 0.0 && b > 0.0);
        let ratio = a.max(b) / a.min(b);
        assert!(ratio < 1.35, "byte-fairness violated: {a} vs {b}");
        sched.drain(&mut alloc).unwrap();
    }

    #[test]
    fn fifo_order_within_a_flow() {
        let packets: Vec<Packet> = (0..64)
            .map(|i| Packet {
                arrival_ns: i,
                size: 100 + i as usize,
                flow: 0,
            })
            .collect();
        let mut alloc = RecordingAllocator::new();
        let mut sched = DrrScheduler::new(1, DrrConfig::default());
        for p in &packets {
            sched.enqueue(&mut alloc, p).unwrap();
        }
        sched.drain(&mut alloc).unwrap();
        // Drain must have sent exactly everything, in order. Order is
        // observable through bytes_out matching the cumulative sum.
        assert_eq!(sched.stats().packets_out, 64);
        assert_eq!(
            sched.stats().bytes_out,
            packets.iter().map(|p| p.size).sum::<usize>()
        );
    }

    #[test]
    fn works_on_a_real_policy_allocator() {
        let packets = mk_packets(4, 60);
        let mut alloc = PolicyAllocator::new(presets::drr_paper()).unwrap();
        let stats = run_drr(&mut alloc, &packets, 16, DrrConfig::default()).unwrap();
        assert_eq!(stats.packets_out, packets.len());
        alloc.check_invariants().unwrap();
        assert_eq!(alloc.stats().live_requested, 0);
    }

    #[test]
    fn backlog_stresses_allocator_peak() {
        // The DM claim: the scheduler's peak footprint tracks the backlog.
        let packets = mk_packets(5, 60);
        let mut alloc = PolicyAllocator::new(presets::drr_paper()).unwrap();
        let stats = run_drr(
            &mut alloc,
            &packets,
            16,
            DrrConfig {
                link_rate_bps: 2_000_000, // congested
                ..DrrConfig::default()
            },
        )
        .unwrap();
        assert!(alloc.stats().peak_footprint >= stats.max_backlog_bytes);
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn zero_flows_rejected() {
        let _ = DrrScheduler::new(0, DrrConfig::default());
    }
}
