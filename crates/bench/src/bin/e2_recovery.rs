//! E2 — recovery latency, restart vs rewind: runs
//! [`sdrad_bench::scenarios::e2`] at its full size.

fn main() {
    sdrad_bench::scenarios::run_full("e2");
}
