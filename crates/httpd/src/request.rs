//! HTTP/1.1 request parsing.

use std::fmt;

/// HTTP request methods the server understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET`
    Get,
    /// `HEAD`
    Head,
    /// `POST`
    Post,
    /// `PUT`
    Put,
    /// `DELETE`
    Delete,
}

impl Method {
    /// Parses a method token.
    #[must_use]
    pub fn parse(token: &str) -> Option<Method> {
        match token {
            "GET" => Some(Method::Get),
            "HEAD" => Some(Method::Head),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        };
        f.write_str(text)
    }
}

/// Parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// More bytes are needed (sessions keep buffering).
    Incomplete,
    /// The request violates HTTP framing; answer 400 and close.
    Malformed(&'static str),
    /// Headers exceed the configured limit (DoS guard).
    TooLarge,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Incomplete => write!(f, "request incomplete"),
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::TooLarge => write!(f, "request too large"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Maximum bytes of request head (request line + headers) accepted.
const MAX_HEAD: usize = 16 * 1024;

/// Maximum body bytes accepted via `Content-Length`.
const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed request.
///
/// For chunked requests the body holds the *raw, undecoded* chunked
/// stream; decoding — the vulnerable operation — is the server's job so
/// that it can run under isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    /// Request target (path, no normalization beyond percent-free check).
    pub path: String,
    /// Header name/value pairs, in order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes: literal for `Content-Length`, raw chunk stream for
    /// `Transfer-Encoding: chunked`.
    pub body: Vec<u8>,
    /// Whether the body is a raw chunked stream.
    pub chunked: bool,
}

impl HttpRequest {
    /// First value of header `name` (case-insensitive), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The borrowed view of this request — what the serving paths take.
    #[must_use]
    pub fn view(&self) -> RequestView<'_> {
        RequestView {
            method: self.method,
            path: &self.path,
            chunked: self.chunked,
            body: &self.body,
        }
    }
}

/// One scanned request, borrowing the input it was scanned from: what
/// routing and serving need, with nothing copied out of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestView<'a> {
    /// Request method.
    pub method: Method,
    /// Request target.
    pub path: &'a str,
    /// Whether the body is a raw chunked stream.
    pub chunked: bool,
    /// Body bytes, as in [`HttpRequest::body`].
    pub body: &'a [u8],
}

/// Scans one complete request from the front of `input` without
/// allocating, returning its borrowed view and the bytes consumed. The
/// grammar, limits and error precedence are [`parse_request`]'s — that
/// function is this scan plus owned copies.
///
/// # Errors
///
/// As [`parse_request`].
pub fn scan_request(input: &[u8]) -> Result<(RequestView<'_>, usize), HttpError> {
    scan(input, |_, _| {})
}

/// Parses one complete request from the front of `input`, returning it and
/// the bytes consumed.
///
/// # Errors
///
/// [`HttpError::Incomplete`] until a full request is buffered;
/// [`HttpError::Malformed`] / [`HttpError::TooLarge`] for invalid input.
pub fn parse_request(input: &[u8]) -> Result<(HttpRequest, usize), HttpError> {
    let mut headers = Vec::new();
    let (view, consumed) = scan(input, |name, value| {
        headers.push((name.to_ascii_lowercase(), value.to_string()));
    })?;
    let request = HttpRequest {
        method: view.method,
        path: view.path.to_string(),
        headers,
        body: view.body.to_vec(),
        chunked: view.chunked,
    };
    Ok((request, consumed))
}

/// The one request grammar: validates the head, reports every header
/// (name as sent, value trimmed) to `on_header`, then frames the body.
fn scan(
    input: &[u8],
    mut on_header: impl FnMut(&str, &str),
) -> Result<(RequestView<'_>, usize), HttpError> {
    let head_end = find_head_end(input)?;
    let head = std::str::from_utf8(&input[..head_end])
        .map_err(|_| HttpError::Malformed("head is not UTF-8"))?;
    let mut lines = Lines(Some(head));

    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = request_line.split(' ');
    let method =
        Method::parse(parts.next().unwrap_or("")).ok_or(HttpError::Malformed("unknown method"))?;
    let path = parts
        .next()
        .ok_or(HttpError::Malformed("missing request target"))?;
    if !path.starts_with('/') {
        return Err(HttpError::Malformed("request target must be absolute path"));
    }
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing HTTP version"))?;
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    if parts.next().is_some() {
        return Err(HttpError::Malformed("garbage after HTTP version"));
    }

    // Only the first occurrence of a framing header counts.
    let mut transfer_encoding = None;
    let mut content_length = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed("invalid header name"));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("transfer-encoding") {
            transfer_encoding.get_or_insert(value);
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length.get_or_insert(value);
        }
        on_header(name, value);
    }

    let body_start = head_end + 4;
    let chunked = transfer_encoding.is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    let body_len = if chunked {
        // Capture the raw chunk stream up to the terminating 0-chunk.
        raw_chunked_len(&input[body_start..])?
    } else {
        let declared = match content_length {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed("content-length is not a number"))?,
            None => 0,
        };
        if declared > MAX_BODY {
            return Err(HttpError::TooLarge);
        }
        if input.len() < body_start + declared {
            return Err(HttpError::Incomplete);
        }
        declared
    };
    let view = RequestView {
        method,
        path,
        chunked,
        body: &input[body_start..body_start + body_len],
    };
    Ok((view, body_start + body_len))
}

/// The `\r\n`-separated lines of a request head.
struct Lines<'a>(Option<&'a str>);

impl<'a> Iterator for Lines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.0?;
        match find_crlf(rest.as_bytes()) {
            Some(end) => {
                self.0 = Some(&rest[end + 2..]);
                Some(&rest[..end])
            }
            None => self.0.take(),
        }
    }
}

/// Offset of the first `needle` in `haystack`. Whole 32-byte blocks
/// without a match are skipped with one branch-free test each (a shape
/// the compiler turns into vector compares); the block that holds the
/// match, and any tail, go eight bytes per step.
fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    const LOW: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    let mut offset = 0;
    for block in haystack.chunks_exact(32) {
        if block.iter().fold(false, |hit, &b| hit | (b == needle)) {
            break;
        }
        offset += 32;
    }
    let pattern = u64::from_le_bytes([needle; 8]);
    for word in haystack[offset..].chunks_exact(8) {
        // Zero exactly where a byte equals `needle`; the classic
        // has-zero-byte test then flags the lowest such byte exactly
        // (borrow artefacts only ever appear above a true match).
        let diff = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)")) ^ pattern;
        let hits = diff.wrapping_sub(LOW) & !diff & HIGH;
        if hits != 0 {
            return Some(offset + hits.trailing_zeros() as usize / 8);
        }
        offset += 8;
    }
    haystack[offset..]
        .iter()
        .position(|&b| b == needle)
        .map(|pos| offset + pos)
}

/// Offset of the first `\r\n` in `bytes` — the one CRLF finder the head
/// scan, the chunk framing and the chunk decoder's walk all share.
pub(crate) fn find_crlf(bytes: &[u8]) -> Option<usize> {
    let mut from = 0;
    loop {
        let cr = from + find_byte(&bytes[from..], b'\r')?;
        if bytes.get(cr + 1) == Some(&b'\n') {
            return Some(cr);
        }
        from = cr + 1;
    }
}

/// Finds the end of the head (`\r\n\r\n`), enforcing the size limit.
fn find_head_end(input: &[u8]) -> Result<usize, HttpError> {
    let window = &input[..input.len().min(MAX_HEAD)];
    let mut from = 0;
    while let Some(pos) = find_crlf(&window[from..]) {
        let line_end = from + pos;
        if window[line_end + 2..].starts_with(b"\r\n") {
            return Ok(line_end);
        }
        from = line_end + 2;
    }
    if input.len() >= MAX_HEAD {
        return Err(HttpError::TooLarge);
    }
    Err(HttpError::Incomplete)
}

/// Computes the byte length of a raw chunked stream (through the final
/// `0\r\n\r\n`), using only *framing* — it does not trust the size fields
/// beyond navigation, and rejects streams whose declared sizes leave the
/// buffer. (The *vulnerable* trusting decode lives in the server.)
fn raw_chunked_len(raw: &[u8]) -> Result<usize, HttpError> {
    let mut pos = 0;
    loop {
        let line_end = find_crlf(&raw[pos..]).ok_or(HttpError::Incomplete)?;
        let size_text = std::str::from_utf8(&raw[pos..pos + line_end])
            .map_err(|_| HttpError::Malformed("chunk size is not UTF-8"))?;
        let size = usize::from_str_radix(size_text.trim(), 16)
            .map_err(|_| HttpError::Malformed("chunk size is not hex"))?;
        pos += line_end + 2;
        if size == 0 {
            // Expect trailing CRLF after the zero chunk.
            if raw.len() < pos + 2 {
                return Err(HttpError::Incomplete);
            }
            if &raw[pos..pos + 2] != b"\r\n" {
                return Err(HttpError::Malformed("missing final CRLF"));
            }
            return Ok(pos + 2);
        }
        // For *framing*, chunk data runs to the next CRLF or the declared
        // size, whichever comes first. This keeps benign streams exact and
        // lets lying streams (declared ≫ actual) still frame as a request
        // — so the exploit payload reaches the vulnerable decoder, where
        // trusting the declared size is the planted bug. (Simplification:
        // chunk payloads containing literal CRLF are not supported.)
        let until_crlf = find_crlf(&raw[pos..]).ok_or(HttpError::Incomplete)?;
        pos += size.min(until_crlf);
        if raw.len() < pos + 2 {
            return Err(HttpError::Incomplete);
        }
        if &raw[pos..pos + 2] == b"\r\n" {
            pos += 2;
        } else {
            // Declared size smaller than the data line: resynchronise.
            let next = find_crlf(&raw[pos..]).ok_or(HttpError::Incomplete)?;
            pos += next + 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_get() {
        let input = b"GET /index.html HTTP/1.1\r\nHost: example\r\nAccept: */*\r\n\r\n";
        let (req, used) = parse_request(input).unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/index.html");
        assert_eq!(req.header("host"), Some("example"));
        assert_eq!(req.header("HOST"), Some("example"), "case-insensitive");
        assert_eq!(used, input.len());
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_content_length() {
        let input = b"POST /echo HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyNEXT";
        let (req, used) = parse_request(input).unwrap();
        assert_eq!(req.body, b"body");
        assert_eq!(&input[used..], b"NEXT");
    }

    #[test]
    fn incomplete_requests_buffer() {
        assert_eq!(
            parse_request(b"GET / HT").unwrap_err(),
            HttpError::Incomplete
        );
        assert_eq!(
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort").unwrap_err(),
            HttpError::Incomplete
        );
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let cases: &[&[u8]] = &[
            b"BREW /pot HTTP/1.1\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Header Name: x\r\n\r\n",
            b"GET / HTTP/1.1\r\nnocolon\r\n\r\n",
        ];
        for case in cases {
            assert!(
                matches!(parse_request(case), Err(HttpError::Malformed(_))),
                "accepted: {}",
                String::from_utf8_lossy(case)
            );
        }
    }

    #[test]
    fn oversized_head_is_too_large() {
        let mut input = b"GET / HTTP/1.1\r\n".to_vec();
        while input.len() < 17 * 1024 {
            input.extend_from_slice(b"X-Filler: aaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        assert_eq!(parse_request(&input).unwrap_err(), HttpError::TooLarge);
    }

    #[test]
    fn oversized_content_length_is_too_large() {
        let input = b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert_eq!(parse_request(input).unwrap_err(), HttpError::TooLarge);
    }

    #[test]
    fn chunked_body_is_captured_raw() {
        let input =
            b"POST /upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let (req, used) = parse_request(input).unwrap();
        assert!(req.chunked);
        assert_eq!(req.body, b"4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n");
        assert_eq!(used, input.len());
    }

    #[test]
    fn chunked_with_lying_size_still_parses_for_the_decoder() {
        // Declared size fff (4095) but only 2 bytes present: framing
        // resynchronises so the request reaches the vulnerable decoder.
        let input =
            b"POST /upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nfff\r\nhi\r\n0\r\n\r\n";
        let (req, _) = parse_request(input).unwrap();
        assert!(req.chunked);
        assert!(!req.body.is_empty());
    }

    #[test]
    fn chunked_incomplete_waits() {
        let input = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWi";
        assert_eq!(parse_request(input).unwrap_err(), HttpError::Incomplete);
    }

    #[test]
    fn bad_chunk_size_is_malformed() {
        let input = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhi\r\n0\r\n\r\n";
        assert!(matches!(parse_request(input), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn crlf_finder_matches_a_naive_scan_at_every_offset() {
        let naive = |bytes: &[u8]| bytes.windows(2).position(|w| w == b"\r\n");
        // Lengths on both sides of the 32-byte block and 8-byte word
        // steps; lone CRs ahead of the real terminator; 0x8d/0x0c sit one
        // bit away from CR in the word test.
        for len in 0..100 {
            let filler: Vec<u8> = (0..len).map(|i| [b'a', 0x8d, 0x0c, 0xff][i % 4]).collect();
            assert_eq!(find_crlf(&filler), None);
            for at in 0..len.saturating_sub(1) {
                let mut bytes = filler.clone();
                bytes[at] = b'\r';
                bytes[at + 1] = b'\n';
                bytes[at / 2] = b'\r';
                assert_eq!(find_crlf(&bytes), naive(&bytes), "len {len} crlf at {at}");
            }
        }
    }

    #[test]
    fn scan_borrows_what_parse_copies() {
        let input = b"POST /echo HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyNEXT";
        let (view, used) = scan_request(input).unwrap();
        let (request, parsed) = parse_request(input).unwrap();
        assert_eq!(used, parsed);
        assert_eq!(view, request.view());
        assert_eq!((view.path, view.body), ("/echo", &b"body"[..]));
    }

    #[test]
    fn methods_display_round_trip() {
        for m in [
            Method::Get,
            Method::Head,
            Method::Post,
            Method::Put,
            Method::Delete,
        ] {
            assert_eq!(Method::parse(&m.to_string()), Some(m));
        }
        assert_eq!(Method::parse("PATCH"), None);
    }
}
