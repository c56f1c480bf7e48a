//! The client side of xqserve's wire protocol, and the server process the
//! benchmark spawns, samples and kills.
//!
//! The client is deliberately plain: each request leaves in one `write`,
//! replies are read through a `BufReader`, and no socket option is set. What
//! it measures over loopback is what any straightforward client would see.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// The error code of a commit conflict that outlived the server's own
/// retries; the only reply a client is expected to resubmit.
pub const ERR_CONFLICT: &str = "XQB0052";
/// A conflict reply is resubmitted this many times before it counts as failed.
pub const RESUBMITS: u32 = 3;

/// One framed reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// `OK ...` as opposed to `ERR ...`.
    pub ok: bool,
    /// `read` / `write` / `stats` / `pong` for `OK`, the error code for `ERR`.
    pub tag: String,
    pub body: Vec<u8>,
    /// Bytes the server sent for this reply, head line included.
    pub wire_bytes: usize,
}

impl Reply {
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Parse a reply's head line (`OK <kind> <epoch> <len>` or
/// `ERR <code> <len>`) into `(ok, tag, body length)`.
pub fn parse_head(line: &str) -> Result<(bool, String, usize), String> {
    let words: Vec<&str> = line.trim_end().split(' ').collect();
    let bad = || format!("malformed reply head: {line:?}");
    let len = words
        .last()
        .and_then(|w| w.parse::<usize>().ok())
        .ok_or_else(bad)?;
    match words.as_slice() {
        ["OK", kind, epoch, _] if epoch.parse::<u64>().is_ok() => {
            Ok((true, (*kind).to_string(), len))
        }
        ["ERR", code, _] => Ok((false, (*code).to_string(), len)),
        _ => Err(bad()),
    }
}

/// Read one framed reply.
pub fn read_reply(reader: &mut impl BufRead) -> Result<Reply, String> {
    let mut head = String::new();
    let n = reader
        .read_line(&mut head)
        .map_err(|e| format!("read reply head: {e}"))?;
    if n == 0 {
        return Err("server closed the connection".to_string());
    }
    let (ok, tag, len) = parse_head(&head)?;
    let mut body = vec![0u8; len];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read reply body: {e}"))?;
    Ok(Reply {
        ok,
        tag,
        body,
        wire_bytes: n + len,
    })
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
}

impl Conn {
    /// Connect and consume the banner line.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut banner = String::new();
        reader
            .read_line(&mut banner)
            .map_err(|e| format!("read banner: {e}"))?;
        if !banner.starts_with("XQSERVE 1 ") {
            return Err(format!("unexpected banner: {banner:?}"));
        }
        Ok(Conn {
            stream,
            reader,
            request: Vec::new(),
        })
    }

    fn round_trip(&mut self) -> Result<Reply, String> {
        self.stream
            .write_all(&self.request)
            .map_err(|e| format!("write request: {e}"))?;
        read_reply(&mut self.reader)
    }

    /// `QUERY <len>\n<text>`, sent as one buffer.
    pub fn query(&mut self, text: &str) -> Result<Reply, String> {
        self.request.clear();
        write!(self.request, "QUERY {}\n{text}", text.len()).expect("write to Vec");
        self.round_trip()
    }

    /// A bodiless command: `PING` or `STATS`.
    pub fn command(&mut self, word: &str) -> Result<Reply, String> {
        self.request.clear();
        writeln!(self.request, "{word}").expect("write to Vec");
        self.round_trip()
    }
}

/// A spawned `xqserve`. Killed and reaped when dropped, so a panic anywhere
/// in the benchmark leaves no server behind.
pub struct ServerProc {
    child: Child,
    /// Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Start `exe` with `args` and wait for its `listening on` line. The
    /// benchmark's own environment is already scrubbed of `XQB_*` (see
    /// `main`), so the child runs on the server's defaults.
    pub fn spawn(exe: &Path, args: &[String]) -> Result<ServerProc, String> {
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim_end()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "xqserve {args:?} did not report its address (said {line:?})"
                ))
            }
        }
    }

    /// Spawn and connect once: the time from `spawn` to the banner is the
    /// set-up (or recovery) time a client sees.
    pub fn spawn_connected(exe: &Path, args: &[String]) -> Result<(ServerProc, Conn, f64), String> {
        let started = std::time::Instant::now();
        let server = ServerProc::spawn(exe, args)?;
        let conn = Conn::connect(server.addr)?;
        Ok((server, conn, started.elapsed().as_secs_f64()))
    }

    /// SIGKILL, then reap: nothing is flushed on the way out.
    pub fn kill(mut self) {
        self.kill_and_wait();
    }

    fn kill_and_wait(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// CPU time the server process has used so far, user plus system, in
    /// clock ticks: fields 14 and 15 of `/proc/<pid>/stat`. That sum covers
    /// threads that have already exited, which matters here — the server
    /// evaluates every request on a thread of its own, gone by the time
    /// anyone looks (the per-thread `task/*/schedstat` files miss it).
    pub fn cpu_ticks(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_cpu_ticks(&stat).ok_or_else(|| format!("{path}: unexpected content {stat:?}"))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// `/proc/<pid>/stat` reports CPU time in ticks of 1/100 s (`USER_HZ`, a
/// constant of the Linux ABI).
pub const CPU_TICK_US: f64 = 10_000.0;

/// utime + stime of one `/proc/<pid>/stat` line. The command name, field 2,
/// may itself hold spaces and parentheses, so fields are counted from the
/// last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace();
    // After the command name comes field 3; utime is field 14.
    let utime = fields.nth(11)?.parse::<u64>().ok()?;
    let stime = fields.next()?.parse::<u64>().ok()?;
    Some(utime + stime)
}

/// Peak resident set so far (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib_of(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill_and_wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ok_err_and_empty_frames() {
        assert_eq!(
            parse_head("OK read 12 27\n"),
            Ok((true, "read".to_string(), 27))
        );
        assert_eq!(
            parse_head("OK pong 0 0\n"),
            Ok((true, "pong".to_string(), 0))
        );
        assert_eq!(
            parse_head("ERR XQB0052 61\n"),
            Ok((false, "XQB0052".to_string(), 61))
        );
        assert!(parse_head("OK read 27\n").is_err());
        assert!(parse_head("OK read x 27\n").is_err());
        assert!(parse_head("BYE 0\n").is_err());
        assert!(parse_head("\n").is_err());
    }

    #[test]
    fn reads_consecutive_frames_including_zero_length_bodies() {
        let wire = b"OK write 4 0\nOK read 4 5\nhelloERR XQB0001 3\nbad";
        let mut reader = BufReader::new(&wire[..]);
        let a = read_reply(&mut reader).unwrap();
        assert!(a.ok && a.tag == "write" && a.body.is_empty());
        assert_eq!(a.wire_bytes, 13);
        let b = read_reply(&mut reader).unwrap();
        assert_eq!((b.tag.as_str(), b.text().as_str()), ("read", "hello"));
        let c = read_reply(&mut reader).unwrap();
        assert!(!c.ok && c.tag == "XQB0001" && c.text() == "bad");
        assert!(read_reply(&mut reader).is_err(), "end of stream");
    }

    #[test]
    fn cpu_ticks_are_utime_plus_stime_after_the_command_name() {
        let line = "4242 (xq serve) 1) S 1 4242 4242 0 -1 4194304 901 0 0 0 \
                    37 5 0 0 20 0 3 0 123456 1000000 500 18446744073709551615 1 1 0\n";
        assert_eq!(parse_cpu_ticks(line), Some(42));
        assert_eq!(parse_cpu_ticks("4242 (xqserve) S 1"), None);
        assert_eq!(parse_cpu_ticks(""), None);
    }

    #[test]
    fn a_truncated_body_is_an_error() {
        let mut reader = BufReader::new(&b"OK read 1 10\nshort"[..]);
        assert!(read_reply(&mut reader).is_err());
    }
}
