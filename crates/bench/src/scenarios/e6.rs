//! E6 — serialization formats for SDRaD-FFI argument passing: the
//! crate evaluation the paper plans (§III), over the three formats
//! `sdrad-serial` implements (bincode-like `wire`, postcard-like
//! `compact`, JSON/CBOR-class `tagged`).
//!
//! Encoded sizes are deterministic: the size ordering (`compact` ≤
//! `wire` ≤ `tagged` at every payload) is asserted and the 4 KiB sizes
//! are `exact` rows. Latencies are `info`.

use std::hint::black_box;

use sdrad_ffi::Sandbox;
use sdrad_serial::{from_bytes, to_bytes, Format};
use serde::{Deserialize, Serialize};

use crate::{fmt_bytes, fmt_duration, measure, Report};

const PAYLOADS: [usize; 5] = [8, 64, 512, 4096, 65536];

/// A representative FFI argument: an id, options, and a data buffer.
#[derive(Serialize, Deserialize, Clone, PartialEq, Debug)]
struct FfiArgs {
    request_id: u64,
    flags: Vec<u32>,
    name: String,
    payload: Vec<u8>,
}

fn args_with_payload(len: usize) -> FfiArgs {
    FfiArgs {
        request_id: 0xDEAD_BEEF,
        flags: vec![1, 2, 3, 4],
        name: "legacy_decode".into(),
        payload: (0..len).map(|i| (i % 251) as u8).collect(),
    }
}

/// Times `size` round trips per format and payload, and `size` × 3/5
/// full sandboxed calls per format.
#[must_use]
pub fn run(size: usize) -> Report {
    let mut r = Report::new("e6", "cross-domain argument serialization");
    let columns = ["payload", "wire", "compact", "tagged"];
    r.begin_table("encoded size by format and payload", &columns);
    for len in PAYLOADS {
        let args = args_with_payload(len);
        let sizes = Format::ALL.map(|format| to_bytes(format, &args).unwrap().len());
        let [wire, compact, tagged] = sizes;
        assert!(compact <= wire && wire <= tagged, "size order {sizes:?}");
        if len == 4096 {
            for (format, bytes) in Format::ALL.iter().zip(sizes) {
                let name = format!("{}_4k_bytes", format.name());
                r.exact(&name, bytes as f64, "bytes");
            }
        }
        let mut row = vec![fmt_bytes(len as u64)];
        row.extend(sizes.map(|bytes| fmt_bytes(bytes as u64)));
        r.row(&row);
    }

    r.begin_table("round-trip (encode+decode) latency", &columns);
    for len in PAYLOADS {
        let args = args_with_payload(len);
        let mut row = vec![fmt_bytes(len as u64)];
        for format in Format::ALL {
            let per_op = measure(size as u32, || {
                let bytes = to_bytes(format, &args).unwrap();
                let back: FfiArgs = from_bytes(format, &bytes).unwrap();
                black_box(back);
            });
            row.push(fmt_duration(per_op));
        }
        r.row(&row);
    }

    // End-to-end: the full sandboxed invocation (marshal in, run in
    // domain, marshal out) per format.
    r.begin_table(
        "full sandboxed call (4 KiB payload) by format",
        &["format", "per call", "vs direct"],
    );
    let args = args_with_payload(4096);
    for format in Format::ALL {
        let time = |mut sandbox: Sandbox| {
            measure((size * 3 / 5) as u32, || {
                let len = |a: FfiArgs| a.payload.len();
                black_box(sandbox.invoke("payload_len", &args, len).unwrap());
            })
        };
        let direct = time(Sandbox::direct().format(format));
        let isolated = time(Sandbox::in_process().unwrap().format(format));
        r.row(&[
            format.name().to_string(),
            fmt_duration(isolated),
            format!("{:.1}x", isolated.as_secs_f64() / direct.as_secs_f64()),
        ]);
        let name = format!("{}_call_ns", format.name());
        r.info(&name, isolated.as_nanos() as f64, "ns");
    }
    r.note(
        "compact produces the smallest payloads, wire the fastest encode/decode, tagged pays \
         size+time for self-validation — the trade-off space the paper's planned crate \
         evaluation spans",
    );
    r
}
