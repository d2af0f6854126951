//! The subprocess worker protocol (Sandcrust-style process isolation).
//!
//! The process backend is the baseline the paper's §IV argues against:
//! real OS-process isolation with its context-switch and IPC costs. It is
//! implemented for real here — a worker subprocess executing registered
//! functions over length-prefixed pipes — so the comparison in experiment
//! E8 measures genuine process-boundary costs rather than assuming them.
//!
//! Frame format (both directions): `u32` little-endian length followed by
//! that many payload bytes. Payloads are `wire`-format serde values of
//! [`WireRequest`] / [`WireResponse`].

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::process::{Child, Command, Stdio};

use serde::{Deserialize, Serialize};

use crate::serial::{from_bytes, to_bytes, Format};
use crate::{FfiError, Registry};

/// Maximum accepted frame length (16 MiB): a corrupt or malicious length
/// prefix must not cause unbounded allocation in either endpoint.
const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// A request sent to the worker.
#[derive(Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct WireRequest {
    /// Registered function name.
    pub name: String,
    /// Serialized arguments (in the sandbox's payload format).
    pub args: Vec<u8>,
    /// Format of `args` and of the result.
    pub format: Format,
}

/// A response from the worker.
#[derive(Debug, Serialize, Deserialize, PartialEq, Eq)]
pub enum WireResponse {
    /// The function ran; serialized result attached.
    Ok(Vec<u8>),
    /// The function name was not registered.
    Unknown,
    /// The function failed (decode error or panic); message attached.
    Failed(String),
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` signals a clean EOF at a
/// frame boundary (peer closed the pipe).
///
/// # Errors
///
/// Propagates I/O errors; oversized frames are `InvalidData`.
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match reader.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Runs the worker side: reads requests from `input`, executes them
/// against `registry`, writes responses to `output`. Returns on EOF.
///
/// A binary acting as a worker calls this from `main` (see the bundled
/// `sdrad-ffi-worker` binary).
///
/// # Errors
///
/// Propagates I/O errors on the pipes; function panics are contained and
/// reported as [`WireResponse::Failed`].
pub fn run_worker<R: Read, W: Write>(registry: &Registry, input: R, output: W) -> io::Result<()> {
    let mut reader = BufReader::new(input);
    let mut writer = BufWriter::new(output);
    while let Some(frame) = read_frame(&mut reader)? {
        let response = match from_bytes::<WireRequest>(Format::Wire, &frame) {
            Ok(request) => {
                match registry.invoke_raw(&request.name, &request.args, request.format) {
                    Ok(result) => WireResponse::Ok(result),
                    Err(None) => WireResponse::Unknown,
                    Err(Some(msg)) => WireResponse::Failed(msg),
                }
            }
            Err(e) => WireResponse::Failed(format!("malformed request: {e}")),
        };
        let bytes = to_bytes(Format::Wire, &response)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_frame(&mut writer, &bytes)?;
    }
    Ok(())
}

/// Client handle to a worker subprocess.
#[derive(Debug)]
pub struct ProcessWorker {
    child: Child,
    command: Command,
    /// Requests served by the current worker incarnation.
    pub served: u64,
    /// Times the worker was (re)spawned.
    pub spawns: u64,
}

impl ProcessWorker {
    /// Spawns a worker from `command` (stdin/stdout piped).
    ///
    /// # Errors
    ///
    /// [`FfiError::Backend`] if the process cannot be started.
    pub fn spawn(mut command: Command) -> Result<Self, FfiError> {
        command.stdin(Stdio::piped()).stdout(Stdio::piped());
        let child = Self::start(&mut command)?;
        Ok(ProcessWorker {
            child,
            command,
            served: 0,
            spawns: 1,
        })
    }

    fn start(command: &mut Command) -> Result<Child, FfiError> {
        command
            .spawn()
            .map_err(|e| FfiError::Backend(format!("spawning worker: {e}")))
    }

    /// Sends one request and waits for the response.
    ///
    /// # Errors
    ///
    /// [`FfiError::WorkerDied`] if the pipe breaks (the host remains
    /// healthy; call [`respawn`](Self::respawn) to recover);
    /// [`FfiError::UnknownFunction`] / [`FfiError::WorkerError`] for
    /// worker-reported failures.
    pub fn call(&mut self, name: &str, args: Vec<u8>, format: Format) -> Result<Vec<u8>, FfiError> {
        let request = WireRequest {
            name: name.to_string(),
            args,
            format,
        };
        let bytes = to_bytes(Format::Wire, &request)?;

        let stdin = self
            .child
            .stdin
            .as_mut()
            .ok_or_else(|| FfiError::WorkerDied("stdin closed".into()))?;
        write_frame(stdin, &bytes).map_err(|e| FfiError::WorkerDied(e.to_string()))?;

        let stdout = self
            .child
            .stdout
            .as_mut()
            .ok_or_else(|| FfiError::WorkerDied("stdout closed".into()))?;
        let frame = read_frame(stdout)
            .map_err(|e| FfiError::WorkerDied(e.to_string()))?
            .ok_or_else(|| FfiError::WorkerDied("worker closed pipe".into()))?;

        self.served += 1;
        match from_bytes::<WireResponse>(Format::Wire, &frame)? {
            WireResponse::Ok(result) => Ok(result),
            WireResponse::Unknown => Err(FfiError::UnknownFunction(name.to_string())),
            WireResponse::Failed(msg) => Err(FfiError::WorkerError(msg)),
        }
    }

    /// Kills the current worker (if any) and starts a fresh one — the
    /// process-isolation recovery path, whose cost E8 compares against a
    /// domain rewind.
    ///
    /// # Errors
    ///
    /// [`FfiError::Backend`] if the replacement cannot be spawned.
    pub fn respawn(&mut self) -> Result<(), FfiError> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.child = Self::start(&mut self.command)?;
        self.spawns += 1;
        self.served = 0;
        Ok(())
    }
}

impl Drop for ProcessWorker {
    fn drop(&mut self) {
        // Closing stdin lets the worker exit its loop; kill as a fallback.
        self.child.stdin.take();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::register_builtins;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected_on_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn worker_loop_serves_requests_in_memory() {
        let mut registry = Registry::new();
        register_builtins(&mut registry);

        // Two requests: a sum and an unknown function.
        let mut input = Vec::new();
        let req1 = WireRequest {
            name: "sum".into(),
            args: to_bytes(Format::Wire, &vec![1u64, 2, 3]).unwrap(),
            format: Format::Wire,
        };
        write_frame(&mut input, &to_bytes(Format::Wire, &req1).unwrap()).unwrap();
        let req2 = WireRequest {
            name: "missing".into(),
            args: vec![],
            format: Format::Wire,
        };
        write_frame(&mut input, &to_bytes(Format::Wire, &req2).unwrap()).unwrap();

        let mut output = Vec::new();
        run_worker(&registry, io::Cursor::new(input), &mut output).unwrap();

        let mut cursor = io::Cursor::new(output);
        let frame1 = read_frame(&mut cursor).unwrap().unwrap();
        let resp1: WireResponse = from_bytes(Format::Wire, &frame1).unwrap();
        match resp1 {
            WireResponse::Ok(bytes) => {
                let sum: u64 = from_bytes(Format::Wire, &bytes).unwrap();
                assert_eq!(sum, 6);
            }
            other => panic!("unexpected {other:?}"),
        }
        let frame2 = read_frame(&mut cursor).unwrap().unwrap();
        let resp2: WireResponse = from_bytes(Format::Wire, &frame2).unwrap();
        assert_eq!(resp2, WireResponse::Unknown);
    }

    #[test]
    fn worker_loop_contains_panics() {
        let mut registry = Registry::new();
        register_builtins(&mut registry);
        let mut input = Vec::new();
        let req = WireRequest {
            name: "boom".into(),
            args: to_bytes(Format::Wire, &"bang".to_string()).unwrap(),
            format: Format::Wire,
        };
        write_frame(&mut input, &to_bytes(Format::Wire, &req).unwrap()).unwrap();
        // A second request after the panic must still be served.
        let req2 = WireRequest {
            name: "echo".into(),
            args: to_bytes(Format::Wire, &vec![9u8]).unwrap(),
            format: Format::Wire,
        };
        write_frame(&mut input, &to_bytes(Format::Wire, &req2).unwrap()).unwrap();

        let mut output = Vec::new();
        run_worker(&registry, io::Cursor::new(input), &mut output).unwrap();
        let mut cursor = io::Cursor::new(output);
        let resp1: WireResponse =
            from_bytes(Format::Wire, &read_frame(&mut cursor).unwrap().unwrap()).unwrap();
        assert!(matches!(resp1, WireResponse::Failed(msg) if msg.contains("bang")));
        let resp2: WireResponse =
            from_bytes(Format::Wire, &read_frame(&mut cursor).unwrap().unwrap()).unwrap();
        assert!(matches!(resp2, WireResponse::Ok(_)));
    }

    #[test]
    fn unknown_format_index_gets_failed_response() {
        let mut registry = Registry::new();
        register_builtins(&mut registry);
        // A hand-built `echo` request whose format is the variant index
        // `index`: name, empty args, then the index as a `u32`.
        let frame = |index: u32| {
            let mut bytes = to_bytes(Format::Wire, "echo").unwrap();
            bytes.extend(to_bytes(Format::Wire, &Vec::<u8>::new()).unwrap());
            bytes.extend(index.to_le_bytes());
            bytes
        };
        let tagged: WireRequest = from_bytes(Format::Wire, &frame(2)).unwrap();
        assert_eq!(tagged.format, Format::Tagged);

        let mut input = Vec::new();
        write_frame(&mut input, &frame(3)).unwrap();
        let next = WireRequest {
            name: "echo".into(),
            args: to_bytes(Format::Wire, &vec![9u8]).unwrap(),
            format: Format::Wire,
        };
        write_frame(&mut input, &to_bytes(Format::Wire, &next).unwrap()).unwrap();

        let mut output = Vec::new();
        run_worker(&registry, io::Cursor::new(input), &mut output).unwrap();
        let mut cursor = io::Cursor::new(output);
        let resp1: WireResponse =
            from_bytes(Format::Wire, &read_frame(&mut cursor).unwrap().unwrap()).unwrap();
        assert!(matches!(resp1, WireResponse::Failed(msg) if msg.starts_with("malformed request")));
        let resp2: WireResponse =
            from_bytes(Format::Wire, &read_frame(&mut cursor).unwrap().unwrap()).unwrap();
        assert!(matches!(resp2, WireResponse::Ok(_)));
    }

    #[test]
    fn malformed_request_frame_gets_failed_response() {
        let registry = Registry::new();
        let mut input = Vec::new();
        write_frame(&mut input, &[0xFF, 0xEE, 0xDD]).unwrap();
        let mut output = Vec::new();
        run_worker(&registry, io::Cursor::new(input), &mut output).unwrap();
        let mut cursor = io::Cursor::new(output);
        let resp: WireResponse =
            from_bytes(Format::Wire, &read_frame(&mut cursor).unwrap().unwrap()).unwrap();
        assert!(matches!(resp, WireResponse::Failed(msg) if msg.contains("malformed")));
    }
}
