//! E8 — isolation-mechanism round-trip costs: runs
//! [`sdrad_bench::scenarios::e8`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e8");
}
