//! E21 — lock-free hand-off latency across a worker sweep: runs
//! [`sdrad_bench::scenarios::e21`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e21");
}
