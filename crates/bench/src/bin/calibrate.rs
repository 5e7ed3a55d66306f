//! Timing calibration: runs one suite entry (by name) and prints its row and
//! wall-clock time. Used to size the suite for laptop-scale campaigns.

use std::time::Instant;

use moa_bench::{format_table2, format_table3, run_suite_entry};
use moa_circuits::suite::entry;

fn main() {
    for name in std::env::args().skip(1) {
        let Some(e) = entry(&name) else {
            eprintln!("unknown suite circuit `{name}`");
            continue;
        };
        let start = Instant::now();
        let row = run_suite_entry(&e);
        let elapsed = start.elapsed();
        println!("{}", format_table2(&[(row.clone(), &e)]));
        println!("{}", format_table3(&[(row.clone(), &e)]));
        println!(
            "{name}: {:?} (condition-C skips: prop {}, truncated {})\n",
            elapsed, row.proposed.skipped_condition_c, row.proposed.truncated
        );
    }
}
