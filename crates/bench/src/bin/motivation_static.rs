//! Regenerates the **Section 1 motivation**: a static worst-case pool vs.
//! dynamic memory management on the DRR traces.
//!
//! Usage: `cargo run -p dmm-bench --release --bin motivation_static
//! [--quick] [--csv] [--seeds=N]`

fn main() {
    let opts = dmm_bench::opts::parse();
    let table =
        dmm_bench::motivation_static(opts.seeds, opts.quick).expect("motivation harness failed");
    if opts.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_ascii());
    }
}
