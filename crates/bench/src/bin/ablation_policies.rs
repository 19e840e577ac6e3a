//! Design-choice ablations: one-tree deviations (fit algorithm, coalescing
//! policy) from the paper's DRR custom manager.
//!
//! Usage: `cargo run -p dmm-bench --release --bin ablation_policies
//! [--quick] [--csv]`

fn main() {
    let opts = dmm_bench::opts::parse();
    let table = dmm_bench::ablation_policies(opts.quick).expect("ablation harness failed");
    if opts.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_ascii());
    }
}
