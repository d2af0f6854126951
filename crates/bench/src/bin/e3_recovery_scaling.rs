//! E3 — recovery-time scaling with dataset size: runs
//! [`sdrad_bench::scenarios::e3`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e3");
}
