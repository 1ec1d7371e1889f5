//! Reproduces **Fig. 4(c)(d)** of the paper: the cost of the dovetail
//! merging step.  For each representative distribution we time DTSort with
//! (1) the DTMerge algorithm, (2) the parallel-merge baseline (PLMerge), and
//! (3) the merge step skipped entirely ("Others", a lower bound that does
//! not produce fully sorted output), for 32-bit and 64-bit keys.
//!
//! Each strategy's merge time is its merge step summed over every recursive
//! call, not a difference of two wall times; the speedup reads `n/a` when a
//! merge time is below timer resolution.
//!
//! Usage: `cargo run -p bench --release --bin fig4_merge_ablation -- [--n 1e7] [--reps 3]`

use bench::experiments::{measure_merge_ablation, merge_speedup};
use bench::{Args, Table};
use workloads::dist::merge_ablation_instances;

fn run(bits: u32, args: &Args) {
    println!(
        "\n=== Dovetail merge ablation, {bits}-bit keys (Fig. 4{}) ===",
        if bits == 32 { "c" } else { "d" }
    );
    let mut table = Table::new(vec![
        "Instance",
        "DTMerge(s)",
        "PLMerge(s)",
        "NoMerge(s)",
        "merge(ms) DT",
        "merge(ms) PL",
        "merge speedup",
    ]);
    for dist in merge_ablation_instances() {
        let [dt, pl, none] = measure_merge_ablation(&dist, args.n, bits, args.reps, 42);
        table.add_row(vec![
            dist.label(),
            format!("{:.3}", dt.total_s),
            format!("{:.3}", pl.total_s),
            format!("{:.3}", none.total_s),
            format!("{:.3}", dt.merge_s * 1e3),
            format!("{:.3}", pl.merge_s * 1e3),
            merge_speedup(pl, dt).map_or_else(|| "n/a".to_string(), |x| format!("{x:.2}x")),
        ]);
    }
    table.print();
}

fn main() {
    let args = Args::parse();
    args.apply_thread_limit();
    println!(
        "Fig. 4(c)(d) reproduction — {} threads.  Paper reference: DTMerge accelerates the merge step by 1.7-2.8x on heavy/BExp inputs.",
        rayon::current_num_threads()
    );
    run(32, &args);
    run(64, &args);
}
