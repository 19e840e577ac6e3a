//! Regenerates **Figure 5**: DRR memory-footprint-over-time for Lea vs.
//! the methodology's custom manager.
//!
//! Usage: `cargo run -p dmm-bench --release --bin fig5_drr_timeline
//! [--quick] [--csv]` — CSV emits `series,event,footprint` rows.

fn main() {
    let opts = dmm_bench::opts::parse();
    let (lea, custom, plot) =
        dmm_bench::fig5_drr_timeline(opts.quick).expect("figure 5 harness failed");
    if opts.csv {
        println!("series,event,footprint");
        for p in &lea.points {
            println!("lea,{},{}", p.event, p.footprint);
        }
        for p in &custom.points {
            println!("custom,{},{}", p.event, p.footprint);
        }
    } else {
        println!("Figure 5: memory footprint behaviour of Lea and our DM manager (DRR)\n");
        print!("{plot}");
    }
}
