//! The DRR case study end to end: synthetic internet traffic through the
//! Deficit-Round-Robin scheduler, with every packet buffer drawn from the
//! manager under test — then the Figure 5 footprint curves.
//!
//! Run with `cargo run --release --example drr_scheduler [-- --full]`.

use dmm::netbench::{run_drr, DrrConfig};
use dmm::prelude::*;
use dmm::report::{ascii_footprint_plot, NamedSeries};
use dmm::trafficgen::{stream_stats, TrafficConfig, TrafficGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = std::env::args().any(|a| a == "--full");

    // Synthetic stand-in for the ITA/LBL traces: trimodal sizes, ON/OFF
    // Pareto bursts, 10 Mbit/s mean rate.
    let traffic = TrafficConfig {
        seed: 7,
        duration_ms: if full { 2_000 } else { 120 },
        ..TrafficConfig::default()
    };
    let packets: Vec<_> = TrafficGenerator::new(traffic).collect();
    let stats = stream_stats(&packets);
    println!(
        "traffic: {} packets, mean size {:.0} B, {:.2} Mbit/s, {} flows",
        stats.packets,
        stats.mean_size,
        stats.rate_bps / 1e6,
        stats.flows
    );

    // Drive the scheduler directly on one manager to see app-level output.
    let mut mgr = PolicyAllocator::new(presets::drr_paper())?;
    let drr = run_drr(
        &mut mgr,
        &packets,
        16,
        DrrConfig {
            quantum: 1500,
            link_rate_bps: 12_000_000,
        },
    )?;
    println!(
        "scheduler: {} in / {} out, max backlog {} B, peak footprint {} B",
        drr.packets_in,
        drr.packets_out,
        drr.max_backlog_bytes,
        mgr.stats().peak_footprint
    );

    // Figure 5: footprint over time, Lea vs. the methodology's manager.
    let workload = if full {
        DrrWorkload::case_study(7)
    } else {
        DrrWorkload::quick(7)
    };
    let trace = workload.record()?;
    let sample = (trace.len() / 300).max(1);
    let outcome = Methodology::new()
        .with_name("custom DM manager 1")
        .explore(&trace)?;
    let compiled = CompiledTrace::compile(&trace);
    let mut lea = LeaAllocator::new();
    let lea_fs = replay_compiled_sampled(&compiled, &mut lea, sample)?;
    let mut custom = PolicyAllocator::new(outcome.config)?;
    let custom_fs = replay_compiled_sampled(&compiled, &mut custom, sample)?;
    let (lea_s, custom_s) = (
        lea_fs.series.expect("series"),
        custom_fs.series.expect("series"),
    );
    println!("\nFigure 5 (ASCII): DM footprint of Lea vs custom over the run\n");
    print!(
        "{}",
        ascii_footprint_plot(
            &[
                NamedSeries {
                    name: "Lea",
                    series: &lea_s
                },
                NamedSeries {
                    name: "custom DM manager 1",
                    series: &custom_s
                },
            ],
            90,
            20,
        )
    );
    Ok(())
}
