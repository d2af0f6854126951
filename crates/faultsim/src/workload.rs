//! Client traffic generators for the evaluation servers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic benign kvstore workload: a mix of `set` and `get`
/// requests over a bounded key space (the usual cache access pattern:
/// reads dominate).
#[derive(Debug)]
pub struct KvWorkload {
    rng: StdRng,
    key_space: usize,
    value_len: usize,
    read_fraction: f64,
}

impl KvWorkload {
    /// Creates a workload over `key_space` keys with `value_len`-byte
    /// values and the given read fraction (e.g. `0.9` = 90 % gets).
    #[must_use]
    pub fn new(seed: u64, key_space: usize, value_len: usize, read_fraction: f64) -> Self {
        KvWorkload {
            rng: StdRng::seed_from_u64(seed),
            key_space: key_space.max(1),
            value_len,
            read_fraction: read_fraction.clamp(0.0, 1.0),
        }
    }

    /// Next request, as raw protocol bytes.
    pub fn next_request(&mut self) -> Vec<u8> {
        let key = self.rng.gen_range(0..self.key_space);
        if self.rng.gen_bool(self.read_fraction) {
            format!("get key-{key}\r\n").into_bytes()
        } else {
            let mut request = format!("set key-{key} {}\r\n", self.value_len).into_bytes();
            let fill = (key % 251) as u8;
            request.extend(std::iter::repeat_n(fill, self.value_len));
            request.extend_from_slice(b"\r\n");
            request
        }
    }

    /// `n` requests concatenated (pipelined).
    pub fn burst(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..n {
            out.extend(self.next_request());
        }
        out
    }
}

/// The kvstore exploit request: an `xstat` whose declared length dwarfs
/// the data, guaranteed to smash canaries (or crash the baseline).
#[must_use]
pub fn kv_exploit_request(declared: usize) -> Vec<u8> {
    let data = b"pwnd";
    let mut request = format!("xstat {declared} {}\r\n", data.len()).into_bytes();
    request.extend_from_slice(data);
    request.extend_from_slice(b"\r\n");
    request
}

/// A benign kvstore `set` filling request used to preload datasets.
#[must_use]
pub fn kv_preload_request(key_index: usize, value_len: usize) -> Vec<u8> {
    let mut request = format!("set key-{key_index} {value_len}\r\n").into_bytes();
    request.extend(std::iter::repeat_n((key_index % 251) as u8, value_len));
    request.extend_from_slice(b"\r\n");
    request
}

/// A benign httpd GET for one of the published paths.
#[must_use]
pub fn http_get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// The httpd chunked exploit request (declared chunk size ≫ actual).
#[must_use]
pub fn http_exploit_request(declared: usize) -> Vec<u8> {
    format!(
        "POST /upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{declared:x}\r\nhi\r\n0\r\n\r\n"
    )
    .into_bytes()
}

/// A benign chunked upload of `chunks` × `chunk_len` bytes.
#[must_use]
pub fn http_upload_request(chunks: usize, chunk_len: usize) -> Vec<u8> {
    let mut body = String::new();
    for i in 0..chunks {
        let data: String =
            std::iter::repeat_n(char::from(b'a' + (i % 26) as u8), chunk_len).collect();
        body.push_str(&format!("{chunk_len:x}\r\n{data}\r\n"));
    }
    body.push_str("0\r\n\r\n");
    format!("POST /upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{body}").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdrad_httpd::{scan_request, Method, RequestView};
    use sdrad_kvstore::{parse_command, Command};

    /// Parses `request` with the kvstore's own parser, which must
    /// consume all of it.
    fn kv_parse(request: &[u8]) -> Command<'_> {
        let (command, consumed) = parse_command(request).expect("kv request parses");
        assert_eq!(consumed, request.len(), "kv request parses whole");
        command
    }

    /// Frames `request` with the httpd's own scanner, which must
    /// consume all of it.
    fn http_frame(request: &[u8]) -> RequestView<'_> {
        let (view, consumed) = scan_request(request).expect("http request frames");
        assert_eq!(consumed, request.len(), "http request frames whole");
        view
    }

    #[test]
    fn workload_is_deterministic() {
        let mut a = KvWorkload::new(9, 100, 32, 0.9);
        let mut b = KvWorkload::new(9, 100, 32, 0.9);
        for _ in 0..50 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn read_fraction_shapes_the_mix() {
        let mut workload = KvWorkload::new(1, 10, 8, 0.9);
        let mut gets = 0;
        for _ in 0..1000 {
            if workload.next_request().starts_with(b"get") {
                gets += 1;
            }
        }
        assert!((850..=950).contains(&gets), "gets = {gets}");
    }

    #[test]
    fn requests_are_well_formed() {
        let mut workload = KvWorkload::new(2, 10, 16, 0.5);
        for _ in 0..100 {
            let request = workload.next_request();
            assert!(matches!(
                kv_parse(&request),
                Command::Get(_) | Command::Set { .. }
            ));
        }
        let preload = kv_preload_request(3, 100);
        assert!(matches!(
            kv_parse(&preload),
            Command::Set { key: "key-3", value, ttl: None } if value.len() == 100
        ));
        let get = http_get_request("/x");
        let view = http_frame(&get);
        assert_eq!((view.method, view.path), (Method::Get, "/x"));
        let upload = http_upload_request(3, 10);
        assert!(http_frame(&upload).chunked);

        // The exploits are well-formed requests that lie about a length:
        // both parsers accept them whole, and the lie reaches the
        // vulnerable handler intact.
        let exploit = kv_exploit_request(4096);
        assert_eq!(
            kv_parse(&exploit),
            Command::XStat {
                declared: 4096,
                data: b"pwnd"
            }
        );
        let exploit = http_exploit_request(0xfff);
        let view = http_frame(&exploit);
        assert_eq!((view.method, view.path), (Method::Post, "/upload"));
        assert!(view.chunked);
        assert_eq!(view.body, b"fff\r\nhi\r\n0\r\n\r\n");
    }

    #[test]
    fn burst_concatenates() {
        let mut workload = KvWorkload::new(3, 10, 8, 1.0);
        let burst = workload.burst(5);
        assert_eq!(burst.iter().filter(|&&b| b == b'\n').count(), 5);
    }
}
