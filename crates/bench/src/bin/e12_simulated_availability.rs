//! E12 — simulated availability vs the closed form: runs
//! [`sdrad_bench::scenarios::e12`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e12");
}
