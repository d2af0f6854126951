//! The memcached-style text protocol, including the vulnerable `xstat`
//! command.

use std::fmt;

/// A parsed client command, borrowing the request buffer.
///
/// Borrowed on purpose: the serving hot path frames, classifies and
/// parses every request (sometimes more than once — framing happens per
/// pump pass), and an owned command would charge a key `String` and a
/// value `Vec` per parse. Owned copies are made only where data actually
/// crosses a boundary — [`stage_command`] copies through the domain
/// heap, exactly as the SDRaD retrofit does.
///
/// [`stage_command`]: crate::stage_command
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command<'req> {
    /// `get <key>` — look up one key.
    Get(&'req str),
    /// `set <key> <len> [ttl]` followed by `<len>` data bytes. The
    /// optional `ttl` is a logical-clock lifetime (0 = immortal, matching
    /// memcached's exptime 0).
    Set {
        /// Key to store under.
        key: &'req str,
        /// Value payload.
        value: &'req [u8],
        /// Lifetime in server ticks; `None` = immortal.
        ttl: Option<u64>,
    },
    /// `delete <key>`.
    Delete(&'req str),
    /// `stats` — server counters.
    Stats,
    /// `flush_all` — drop all entries.
    Flush,
    /// `xstat <declared> <actual>` followed by `<actual>` data bytes: an
    /// extended-stats command whose handler trusts the *declared* length —
    /// the planted memory-safety bug (cf. Memcached CVE-2011-4971 /
    /// classic length-confusion bugs).
    XStat {
        /// Length the client *claims* the blob has (trusted, unchecked).
        declared: usize,
        /// The actual blob bytes received.
        data: &'req [u8],
    },
    /// `quit` — close the session.
    Quit,
}

/// Why a request failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The request line was not a known command.
    UnknownCommand(String),
    /// A command had the wrong number or form of arguments.
    BadArguments(&'static str),
    /// The data block did not match the declared length or terminator.
    BadDataBlock,
    /// The request is incomplete — more bytes are needed (not an error;
    /// sessions wait for the rest).
    Incomplete,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnknownCommand(cmd) => write!(f, "unknown command `{cmd}`"),
            ProtocolError::BadArguments(what) => write!(f, "bad arguments: {what}"),
            ProtocolError::BadDataBlock => write!(f, "data block malformed"),
            ProtocolError::Incomplete => write!(f, "request incomplete"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A server response, rendered with [`Response::to_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `VALUE <key> <len>\r\n<data>\r\nEND\r\n`
    Value {
        /// The key that was found.
        key: String,
        /// Its value.
        value: Vec<u8>,
    },
    /// `END\r\n` — get miss.
    Miss,
    /// `STORED\r\n`
    Stored,
    /// `DELETED\r\n`
    Deleted,
    /// `NOT_FOUND\r\n`
    NotFound,
    /// `OK\r\n`
    Ok,
    /// Multi-line stats payload, each `STAT <name> <value>\r\n`, ending
    /// `END\r\n`.
    Stats(Vec<(String, u64)>),
    /// `ERROR\r\n` — unparseable request.
    Error,
    /// `SERVER_ERROR <msg>\r\n` — the request was understood but failed;
    /// notably the response a *contained fault* produces.
    ServerError(String),
}

impl Response {
    /// Renders the response in memcached text form.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out);
        out
    }

    /// Renders the response into an existing buffer, appending to it.
    ///
    /// Formats directly into `out` (no intermediate `String`), so callers
    /// serving the hot path can reuse response storage across requests.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        match self {
            Response::Value { key, value } => write_value(out, key, value),
            Response::Miss => out.extend_from_slice(b"END\r\n"),
            Response::Stored => out.extend_from_slice(b"STORED\r\n"),
            Response::Deleted => out.extend_from_slice(b"DELETED\r\n"),
            Response::NotFound => out.extend_from_slice(b"NOT_FOUND\r\n"),
            Response::Ok => out.extend_from_slice(b"OK\r\n"),
            Response::Stats(pairs) => {
                for (name, value) in pairs {
                    let _ = write!(out, "STAT {name} {value}\r\n");
                }
                out.extend_from_slice(b"END\r\n");
            }
            Response::Error => out.extend_from_slice(b"ERROR\r\n"),
            Response::ServerError(msg) => {
                let _ = write!(out, "SERVER_ERROR {msg}\r\n");
            }
        }
    }
}

/// Renders a `get` hit, `VALUE <key> <len>\r\n<data>\r\nEND\r\n`, into
/// `out` — the one `VALUE` renderer. [`Response::write_to`] calls it for
/// an owned value; serving paths call it with bytes borrowed straight
/// from the store, so a hit copies its value once, into the reply.
pub fn write_value(out: &mut Vec<u8>, key: &str, value: &[u8]) {
    use std::io::Write as _;
    // Writing into a Vec<u8> is infallible.
    let _ = write!(out, "VALUE {key} {}\r\n", value.len());
    out.extend_from_slice(value);
    out.extend_from_slice(b"\r\nEND\r\n");
}

/// Parses one complete request from the front of `input`.
///
/// Returns the command (borrowing `input`) and the number of bytes
/// consumed. Allocation-free on every well-formed request — only the
/// [`ProtocolError::UnknownCommand`] cold path owns its verb.
///
/// # Errors
///
/// [`ProtocolError::Incomplete`] when more bytes are needed (callers keep
/// buffering); other variants for malformed requests (callers answer
/// `ERROR` and skip the line).
pub fn parse_command(input: &[u8]) -> Result<(Command<'_>, usize), ProtocolError> {
    let line_end = input
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(ProtocolError::Incomplete)?;
    let line = std::str::from_utf8(&input[..line_end])
        .map_err(|_| ProtocolError::BadArguments("request line is not UTF-8"))?
        .trim_end_matches('\r');
    let consumed_line = line_end + 1;
    let mut parts = line.split_ascii_whitespace();
    let verb = parts.next().unwrap_or("");

    match verb {
        "get" => {
            let key = parts
                .next()
                .ok_or(ProtocolError::BadArguments("get needs a key"))?;
            if parts.next().is_some() {
                return Err(ProtocolError::BadArguments("get takes one key"));
            }
            Ok((Command::Get(key), consumed_line))
        }
        "set" => {
            let key = parts
                .next()
                .ok_or(ProtocolError::BadArguments("set needs a key"))?;
            let len: usize = parts
                .next()
                .ok_or(ProtocolError::BadArguments("set needs a length"))?
                .parse()
                .map_err(|_| ProtocolError::BadArguments("set length is not a number"))?;
            let ttl = match parts.next() {
                None => None,
                Some(text) => {
                    let ticks: u64 = text
                        .parse()
                        .map_err(|_| ProtocolError::BadArguments("set ttl is not a number"))?;
                    (ticks > 0).then_some(ticks)
                }
            };
            let (value, data_consumed) = take_data_block(&input[consumed_line..], len)?;
            Ok((
                Command::Set { key, value, ttl },
                consumed_line + data_consumed,
            ))
        }
        "delete" => {
            let key = parts
                .next()
                .ok_or(ProtocolError::BadArguments("delete needs a key"))?;
            Ok((Command::Delete(key), consumed_line))
        }
        "stats" => Ok((Command::Stats, consumed_line)),
        "flush_all" => Ok((Command::Flush, consumed_line)),
        "quit" => Ok((Command::Quit, consumed_line)),
        "xstat" => {
            let declared: usize = parts
                .next()
                .ok_or(ProtocolError::BadArguments("xstat needs a declared length"))?
                .parse()
                .map_err(|_| ProtocolError::BadArguments("xstat length is not a number"))?;
            let actual: usize = parts
                .next()
                .ok_or(ProtocolError::BadArguments("xstat needs an actual length"))?
                .parse()
                .map_err(|_| ProtocolError::BadArguments("xstat length is not a number"))?;
            let (data, data_consumed) = take_data_block(&input[consumed_line..], actual)?;
            Ok((
                Command::XStat { declared, data },
                consumed_line + data_consumed,
            ))
        }
        "" => Err(ProtocolError::BadArguments("empty request line")),
        other => Err(ProtocolError::UnknownCommand(other.to_string())),
    }
}

/// Takes a `<len>` data block plus its `\r\n` terminator.
fn take_data_block(input: &[u8], len: usize) -> Result<(&[u8], usize), ProtocolError> {
    if input.len() < len + 2 {
        return Err(ProtocolError::Incomplete);
    }
    if &input[len..len + 2] != b"\r\n" {
        return Err(ProtocolError::BadDataBlock);
    }
    Ok((&input[..len], len + 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_get() {
        let (cmd, used) = parse_command(b"get mykey\r\n").unwrap();
        assert_eq!(cmd, Command::Get("mykey"));
        assert_eq!(used, 11);
    }

    #[test]
    fn parse_set_with_data_block() {
        let input = b"set k 5\r\nhello\r\nget k\r\n";
        let (cmd, used) = parse_command(input).unwrap();
        assert_eq!(
            cmd,
            Command::Set {
                key: "k",
                value: b"hello",
                ttl: None
            }
        );
        // The next command starts right after.
        let (next, _) = parse_command(&input[used..]).unwrap();
        assert_eq!(next, Command::Get("k"));
    }

    #[test]
    fn set_data_may_contain_newlines() {
        let input = b"set k 5\r\na\nb\nc\r\n";
        let (cmd, _) = parse_command(input).unwrap();
        assert_eq!(
            cmd,
            Command::Set {
                key: "k",
                value: b"a\nb\nc",
                ttl: None
            }
        );
    }

    #[test]
    fn set_accepts_an_optional_ttl() {
        let (cmd, _) = parse_command(b"set k 2 30\r\nab\r\n").unwrap();
        assert_eq!(
            cmd,
            Command::Set {
                key: "k",
                value: b"ab",
                ttl: Some(30)
            }
        );
        // TTL 0 means immortal, like memcached's exptime 0.
        let (cmd, _) = parse_command(b"set k 2 0\r\nab\r\n").unwrap();
        assert!(matches!(cmd, Command::Set { ttl: None, .. }));
        assert!(matches!(
            parse_command(b"set k 2 soon\r\nab\r\n").unwrap_err(),
            ProtocolError::BadArguments(_)
        ));
    }

    #[test]
    fn incomplete_requests_ask_for_more() {
        assert_eq!(
            parse_command(b"get ke").unwrap_err(),
            ProtocolError::Incomplete
        );
        assert_eq!(
            parse_command(b"set k 10\r\nshort\r\n").unwrap_err(),
            ProtocolError::Incomplete
        );
    }

    #[test]
    fn bad_terminator_is_rejected() {
        assert_eq!(
            parse_command(b"set k 2\r\nabXX").unwrap_err(),
            ProtocolError::BadDataBlock
        );
    }

    #[test]
    fn unknown_command_is_reported() {
        assert!(matches!(
            parse_command(b"frobnicate\r\n").unwrap_err(),
            ProtocolError::UnknownCommand(cmd) if cmd == "frobnicate"
        ));
    }

    #[test]
    fn xstat_carries_declared_and_actual() {
        let (cmd, _) = parse_command(b"xstat 4096 4\r\nboom\r\n").unwrap();
        assert_eq!(
            cmd,
            Command::XStat {
                declared: 4096,
                data: b"boom"
            }
        );
    }

    #[test]
    fn simple_commands_parse() {
        assert_eq!(parse_command(b"stats\r\n").unwrap().0, Command::Stats);
        assert_eq!(parse_command(b"flush_all\r\n").unwrap().0, Command::Flush);
        assert_eq!(parse_command(b"quit\r\n").unwrap().0, Command::Quit);
    }

    #[test]
    fn responses_render_like_memcached() {
        assert_eq!(
            Response::Value {
                key: "k".into(),
                value: b"vv".to_vec()
            }
            .to_bytes(),
            b"VALUE k 2\r\nvv\r\nEND\r\n"
        );
        assert_eq!(Response::Stored.to_bytes(), b"STORED\r\n");
        assert_eq!(
            Response::ServerError("contained fault".into()).to_bytes(),
            b"SERVER_ERROR contained fault\r\n"
        );
        let stats = Response::Stats(vec![("hits".into(), 3)]);
        assert_eq!(stats.to_bytes(), b"STAT hits 3\r\nEND\r\n");
    }

    #[test]
    fn non_utf8_request_line_is_bad_arguments() {
        assert!(matches!(
            parse_command(b"\xFF\xFE\r\n").unwrap_err(),
            ProtocolError::BadArguments(_)
        ));
    }
}
