//! E15 — concurrent throughput under attack: runs
//! [`sdrad_bench::scenarios::e15`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e15");
}
