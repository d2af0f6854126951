//! E10 — life-cycle assessment: runs
//! [`sdrad_bench::scenarios::e10`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e10");
}
