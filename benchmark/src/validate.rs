//! Response splitters and validators: every byte the server answers is
//! split off the stream and checked against what the request must
//! produce.
//!
//! The generator knows only the bytes it sent, so expectations are
//! derived from those bytes ([`KvExpect::of`], [`HttpExpect::of`]) and
//! from the data convention of `sdrad_faultsim::workload`: `key-<k>`
//! always holds `value_len` bytes of fill `k % 251`, so after the
//! preload every `get` is a hit with a known value.

/// What a splitter found at the head of a receive buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Split<T> {
    /// One complete response of `usize` bytes.
    Complete(T, usize),
    /// A proper prefix of a response: wait for more bytes.
    Incomplete,
    /// Not a response of this protocol; the stream cannot be re-synced.
    Garbage,
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

fn parse_usize(digits: &[u8]) -> Option<usize> {
    std::str::from_utf8(digits).ok()?.parse().ok()
}

// --------------------------------------------------------------------- kv

/// One memcached-style response, borrowing the receive buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum KvReply<'a> {
    Stored,
    Miss,
    Value {
        key: &'a [u8],
        data: &'a [u8],
    },
    ServerError(&'a [u8]),
    /// Any other single-line response (`ERROR`, `DELETED`, …).
    Line(&'a [u8]),
}

/// Longest first line a kv response can have before the splitter calls
/// the stream garbage instead of waiting for a terminator forever.
const KV_MAX_LINE: usize = 512;

pub fn split_kv(buf: &[u8]) -> Split<KvReply<'_>> {
    let Some(eol) = find_crlf(buf) else {
        return if buf.len() > KV_MAX_LINE {
            Split::Garbage
        } else {
            Split::Incomplete
        };
    };
    let line = &buf[..eol];
    let after = eol + 2;
    if let Some(rest) = line.strip_prefix(b"VALUE ") {
        let mut fields = rest.split(|&b| b == b' ');
        let (Some(key), Some(len), None) = (fields.next(), fields.next(), fields.next()) else {
            return Split::Garbage;
        };
        let Some(len) = parse_usize(len) else {
            return Split::Garbage;
        };
        const TAIL: &[u8] = b"\r\nEND\r\n";
        let total = after + len + TAIL.len();
        if buf.len() < total {
            // Whatever of the tail has arrived must already match.
            let tail_seen = buf.len().saturating_sub(after + len);
            return if buf[buf.len() - tail_seen..] == TAIL[..tail_seen] {
                Split::Incomplete
            } else {
                Split::Garbage
            };
        }
        if &buf[after + len..total] != TAIL {
            return Split::Garbage;
        }
        let data = &buf[after..after + len];
        return Split::Complete(KvReply::Value { key, data }, total);
    }
    let reply = match line {
        b"STORED" => KvReply::Stored,
        b"END" => KvReply::Miss,
        _ => match line.strip_prefix(b"SERVER_ERROR ") {
            Some(message) => KvReply::ServerError(message),
            None if line.is_empty() || !line[0].is_ascii_uppercase() => return Split::Garbage,
            None => KvReply::Line(line),
        },
    };
    Split::Complete(reply, after)
}

/// What one kv request must be answered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvExpect {
    /// `get key-<k>` after the preload: a hit carrying the key's fill.
    Hit { key: u32 },
    /// `set …`.
    Stored,
    /// `xstat` with an oversized declared length: contained by a rewind.
    Contained,
}

impl KvExpect {
    /// Derives the expectation from the request bytes the generator is
    /// about to send.
    ///
    /// # Panics
    ///
    /// On a request the faultsim generators do not produce — a broken
    /// generator must not be mistaken for a broken server.
    pub fn of(request: &[u8]) -> KvExpect {
        if let Some(rest) = request.strip_prefix(b"get key-") {
            let digits = &rest[..find_crlf(rest).expect("get line is terminated")];
            let key = parse_usize(digits).expect("numeric key");
            KvExpect::Hit {
                key: u32::try_from(key).expect("key index fits u32"),
            }
        } else if request.starts_with(b"set key-") {
            KvExpect::Stored
        } else if request.starts_with(b"xstat ") {
            KvExpect::Contained
        } else {
            panic!(
                "unexpected generated request: {:?}",
                String::from_utf8_lossy(&request[..request.len().min(40)])
            );
        }
    }

    pub fn is_exploit(self) -> bool {
        self == KvExpect::Contained
    }

    /// Whether `reply` is the right answer, given the workload's
    /// `value_len`.
    pub fn accepts(self, reply: &KvReply<'_>, value_len: usize) -> bool {
        match (self, reply) {
            (KvExpect::Hit { key }, KvReply::Value { key: got, data }) => {
                let fill = (key % 251) as u8;
                got.strip_prefix(b"key-").and_then(parse_usize) == Some(key as usize)
                    && data.len() == value_len
                    && data.iter().all(|&b| b == fill)
            }
            (KvExpect::Stored, KvReply::Stored) => true,
            (KvExpect::Contained, KvReply::ServerError(message)) => {
                message.starts_with(b"contained")
            }
            _ => false,
        }
    }
}

/// The ticket path hands back one whole response per request: it must
/// split as exactly one reply with nothing trailing, and be the right
/// one.
pub fn ticket_reply_ok(expect: KvExpect, response: &[u8], value_len: usize) -> bool {
    match split_kv(response) {
        Split::Complete(reply, used) => used == response.len() && expect.accepts(&reply, value_len),
        Split::Incomplete | Split::Garbage => false,
    }
}

// ------------------------------------------------------------------- http

#[derive(Debug, PartialEq, Eq)]
pub struct HttpReply<'a> {
    pub status: u16,
    pub body: &'a [u8],
}

/// Largest response head the splitter waits for.
const HTTP_MAX_HEAD: usize = 4096;

pub fn split_http(buf: &[u8]) -> Split<HttpReply<'_>> {
    const PREFIX: &[u8] = b"HTTP/1.1 ";
    let seen = buf.len().min(PREFIX.len());
    if buf[..seen] != PREFIX[..seen] {
        return Split::Garbage;
    }
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > HTTP_MAX_HEAD {
            Split::Garbage
        } else {
            Split::Incomplete
        };
    };
    let head = &buf[..head_end];
    let status = head
        .get(PREFIX.len()..PREFIX.len() + 3)
        .and_then(parse_usize)
        .and_then(|code| u16::try_from(code).ok());
    let length = head
        .split(|&b| b == b'\n')
        .find_map(|line| line.strip_prefix(b"Content-Length: "))
        .map(|value| value.strip_suffix(b"\r").unwrap_or(value))
        .and_then(parse_usize);
    let (Some(status), Some(length)) = (status, length) else {
        return Split::Garbage;
    };
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Split::Incomplete;
    }
    let body = &buf[head_end + 4..total];
    Split::Complete(HttpReply { status, body }, total)
}

/// What one http request must be answered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpExpect {
    /// `GET /`: 200 with the published page.
    Page,
    /// Chunked `POST /upload`: 201 echoing the decoded byte count.
    Uploaded { bytes: usize },
}

impl HttpExpect {
    /// Derives the expectation from the request bytes; the decoded size
    /// of an upload is the sum of its declared chunk sizes.
    ///
    /// # Panics
    ///
    /// On a request the faultsim generators do not produce.
    pub fn of(request: &[u8]) -> HttpExpect {
        if request.starts_with(b"GET / ") {
            return HttpExpect::Page;
        }
        assert!(
            request.starts_with(b"POST /upload "),
            "unexpected generated request"
        );
        let head_end = request
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("request head is terminated");
        let mut rest = &request[head_end + 4..];
        let mut bytes = 0;
        loop {
            let eol = find_crlf(rest).expect("chunk size line is terminated");
            let size = std::str::from_utf8(&rest[..eol])
                .ok()
                .and_then(|hex| usize::from_str_radix(hex, 16).ok())
                .expect("hex chunk size");
            if size == 0 {
                return HttpExpect::Uploaded { bytes };
            }
            bytes += size;
            rest = &rest[eol + 2 + size + 2..];
        }
    }

    pub fn accepts(self, reply: &HttpReply<'_>, page: &[u8]) -> bool {
        match self {
            HttpExpect::Page => reply.status == 200 && reply.body == page,
            HttpExpect::Uploaded { bytes } => {
                reply.status == 201 && reply.body == format!("{bytes} bytes").as_bytes()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdrad_faultsim::workload::{
        http_get_request, http_upload_request, kv_exploit_request, kv_preload_request, KvWorkload,
    };
    use sdrad_kvstore::{Isolation, Server, ServerConfig};

    const VALUE_LEN: usize = 64;

    /// Real responses from the real server for a seeded request stream.
    fn kv_exchange(n: usize) -> Vec<(KvExpect, Vec<u8>)> {
        let mut server = Server::new(ServerConfig::default(), Isolation::PerClient).unwrap();
        for key in 0..50 {
            server.handle(&kv_preload_request(key, VALUE_LEN));
        }
        sdrad::quiet_fault_traps();
        let mut workload = KvWorkload::new(7, 50, VALUE_LEN, 0.7);
        (0..n)
            .map(|i| {
                let request = if i % 10 == 9 {
                    kv_exploit_request(65_536)
                } else {
                    workload.next_request()
                };
                (KvExpect::of(&request), server.handle(&request))
            })
            .collect()
    }

    #[test]
    fn kv_responses_split_at_every_byte_boundary() {
        for (expect, response) in kv_exchange(40) {
            for cut in 0..response.len() {
                assert_eq!(
                    split_kv(&response[..cut]),
                    Split::Incomplete,
                    "{expect:?} cut at {cut}"
                );
            }
            let Split::Complete(reply, used) = split_kv(&response) else {
                panic!("{expect:?} did not split");
            };
            assert_eq!(used, response.len());
            assert!(expect.accepts(&reply, VALUE_LEN), "{expect:?} vs {reply:?}");
            assert!(ticket_reply_ok(expect, &response, VALUE_LEN));
        }
    }

    #[test]
    fn kv_pipelined_burst_splits_into_its_responses_in_order() {
        let exchange = kv_exchange(200);
        let stream: Vec<u8> = exchange.iter().flat_map(|(_, r)| r.clone()).collect();
        let mut at = 0;
        for (expect, response) in &exchange {
            let Split::Complete(reply, used) = split_kv(&stream[at..]) else {
                panic!("burst desynchronised at byte {at}");
            };
            assert_eq!(used, response.len());
            assert!(expect.accepts(&reply, VALUE_LEN));
            at += used;
        }
        assert_eq!(at, stream.len());
        assert_eq!(split_kv(&stream[at..]), Split::Incomplete);
    }

    #[test]
    fn kv_wrong_value_wrong_key_and_wrong_kind_are_rejected() {
        let hit = KvExpect::Hit { key: 300 };
        let fill = (300 % 251) as u8;
        let good = [fill; VALUE_LEN];
        let accepts =
            |key: &[u8], data: &[u8]| hit.accepts(&KvReply::Value { key, data }, VALUE_LEN);
        assert!(accepts(b"key-300", &good));
        let mut flipped = good;
        flipped[VALUE_LEN - 1] ^= 1;
        assert!(!accepts(b"key-300", &flipped), "one wrong byte");
        assert!(!accepts(b"key-300", &good[1..]), "short value");
        assert!(!accepts(b"key-301", &good), "another key's answer");
        assert!(
            !hit.accepts(&KvReply::Miss, VALUE_LEN),
            "a miss after preload"
        );
        assert!(!KvExpect::Stored.accepts(&KvReply::Line(b"ERROR"), VALUE_LEN));
        // An exploit that is answered as if it were benign was not contained.
        assert!(!KvExpect::Contained.accepts(&KvReply::Line(b"STAT xstat_checksum 1"), VALUE_LEN));
        assert!(!KvExpect::Contained.accepts(&KvReply::ServerError(b"server crashed"), VALUE_LEN));
        // The ticket path rejects trailing bytes and truncation.
        assert!(ticket_reply_ok(KvExpect::Stored, b"STORED\r\n", VALUE_LEN));
        assert!(!ticket_reply_ok(
            KvExpect::Stored,
            b"STORED\r\nEND\r\n",
            VALUE_LEN
        ));
        assert!(!ticket_reply_ok(KvExpect::Stored, b"STORED\r", VALUE_LEN));
    }

    #[test]
    fn kv_garbage_is_not_waited_for() {
        assert_eq!(split_kv(b"VALUE key-1 4\r\nabcdXXEND\r\n"), Split::Garbage);
        assert_eq!(split_kv(b"VALUE key-1 4\r\nabcd\r\nENX"), Split::Garbage);
        assert_eq!(split_kv(b"VALUE key-1\r\n"), Split::Garbage);
        assert_eq!(split_kv(b"\r\n"), Split::Garbage);
        assert_eq!(split_kv(&[b'A'; KV_MAX_LINE + 1]), Split::Garbage);
    }

    fn http_exchange() -> (Vec<u8>, Vec<(HttpExpect, Vec<u8>)>) {
        let page: Vec<u8> = (0..4096u32).map(|i| b'a' + (i % 23) as u8).collect();
        let mut server = sdrad_httpd::HttpServer::new(sdrad_httpd::Isolation::Domain).unwrap();
        server.publish("/", "text/html", page.clone());
        let requests = [
            http_get_request("/"),
            http_upload_request(4, 1024),
            http_upload_request(3, 10),
            http_get_request("/"),
        ];
        let exchange = requests
            .iter()
            .map(|request| (HttpExpect::of(request), server.handle(request)))
            .collect();
        (page, exchange)
    }

    #[test]
    fn http_expectations_come_from_the_request_bytes() {
        assert_eq!(HttpExpect::of(&http_get_request("/")), HttpExpect::Page);
        assert_eq!(
            HttpExpect::of(&http_upload_request(4, 1024)),
            HttpExpect::Uploaded { bytes: 4096 }
        );
    }

    #[test]
    fn http_responses_split_at_every_byte_boundary_and_in_bursts() {
        let (page, exchange) = http_exchange();
        for (_, response) in &exchange {
            for cut in 0..response.len() {
                assert_eq!(split_http(&response[..cut]), Split::Incomplete, "cut {cut}");
            }
        }
        let stream: Vec<u8> = exchange.iter().flat_map(|(_, r)| r.clone()).collect();
        let mut at = 0;
        for (expect, response) in &exchange {
            let Split::Complete(reply, used) = split_http(&stream[at..]) else {
                panic!("burst desynchronised at byte {at}");
            };
            assert_eq!(used, response.len());
            assert!(expect.accepts(&reply, &page), "{expect:?}");
            at += used;
        }
        assert_eq!(at, stream.len());
    }

    #[test]
    fn http_wrong_count_wrong_page_and_wrong_status_are_rejected() {
        let page = b"<h1>home</h1>".to_vec();
        let upload = HttpExpect::Uploaded { bytes: 4096 };
        let reply = |status, body| HttpReply { status, body };
        assert!(upload.accepts(&reply(201, b"4096 bytes"), &page));
        assert!(
            !upload.accepts(&reply(201, b"4095 bytes"), &page),
            "wrong count"
        );
        assert!(!upload.accepts(&reply(400, b"contained: canary"), &page));
        assert!(HttpExpect::Page.accepts(&reply(200, &page), &page));
        assert!(!HttpExpect::Page.accepts(&reply(200, &page[1..]), &page));
        assert!(!HttpExpect::Page.accepts(&reply(404, b"not found"), &page));
        assert_eq!(split_http(b"HTTP/1.0 200 OK\r\n\r\n"), Split::Garbage);
        assert_eq!(split_http(b"HTTP/1.1 200 OK\r\n\r\n"), Split::Garbage);
    }
}
