//! `xqserve` — the multi-session XQuery! server (docs/SERVER.md).
//!
//! One durable store, many concurrent TCP sessions: queries proven to
//! request no update (they may construct nodes) run concurrently against
//! a pinned snapshot; everything else commits through the engine's
//! undo-journal + WAL path.
//!
//! ```console
//! $ xqserve --addr 127.0.0.1:7878 --store /var/lib/xqb
//! $ xqserve --self-test            # in-process protocol round-trip
//! ```
//!
//! ## Wire protocol (line-framed, length-prefixed bodies)
//!
//! On connect the server sends one banner line:
//! `XQSERVE 1 session=<id> epoch=<n>` — or `ERR XQB0050 <len>` + body and
//! closes when the session limit is reached or the OS refuses the
//! connection's handler thread. Then, per request:
//!
//! | request                       | response                            |
//! |-------------------------------|-------------------------------------|
//! | `QUERY <len>\n` + len bytes   | `OK <read\|write> <epoch> <len>\n` + body, or `ERR <code> <len>\n` + message |
//! | `STATS\n`                     | `OK stats <epoch> <len>\n` + JSON   |
//! | `PING\n`                      | `OK pong <epoch> 0\n`               |
//! | `QUIT\n`                      | `BYE 0\n`, connection closes        |
//! | `SHUTDOWN\n`                  | `BYE 0\n`, whole server stops       |
//!
//! A command line longer than [`MAX_LINE_BYTES`] or a `QUERY` body longer
//! than [`MAX_QUERY_BYTES`] is answered `ERR XQB-PROTO` and the connection
//! closes: the unread tail cannot be resynchronised.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use xquery_bang::cli::{self, Args};
use xquery_bang::xqsyn::stack::spawn_deep;
use xquery_bang::{Error, Server, ServerConfig};

/// Longest command line accepted, newline included (`QUERY <len>` needs
/// under 30 bytes).
const MAX_LINE_BYTES: usize = 4 << 10;
/// Largest `QUERY` body accepted.
const MAX_QUERY_BYTES: usize = 16 << 20;

const USAGE: &str = "usage: xqserve [OPTIONS]";
const FLAGS: &str = "  \
  --addr <HOST:PORT>        listen address (default 127.0.0.1:0;
                            port 0 picks a free port, printed at start)
  -d, --doc <VAR>=<FILE>    parse FILE and bind its document to $VAR
  --max-sessions <N>        concurrent session cap, XQB0050 beyond (64)
  --max-inflight <N>        concurrent request cap, XQB0051 beyond (32)
  --no-occ                  serialize every write under the engine lock
                            (disables optimistic concurrent writers)
  --max-retries <N>         conflict retries before XQB0052 (8)
  --self-test               start on a free port, run a protocol and
                            concurrency round-trip against it, exit
";

/// The admission and commit policy `args` ask for.
fn server_config(args: &Args) -> Result<ServerConfig, String> {
    let default = ServerConfig::default();
    Ok(ServerConfig {
        max_sessions: args.num("--max-sessions")?.unwrap_or(default.max_sessions),
        max_inflight: args.num("--max-inflight")?.unwrap_or(default.max_inflight),
        occ_writers: !args.has("--no-occ"),
        max_retries: args.num("--max-retries")?.unwrap_or(default.max_retries),
        ..default
    })
}

fn build_server(args: &Args) -> Result<Server, String> {
    let config = server_config(args)?;
    let mut engine = cli::engine(args)?;
    for spec in args.values("--doc") {
        let (var, file) = spec
            .split_once('=')
            .ok_or(format!("expected VAR=FILE in \"{spec}\""))?;
        let xml = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        engine
            .load_document(var, &xml)
            .map_err(|e| format!("cannot parse {file}: {e}"))?;
    }
    Ok(engine.into_server(config))
}

/// Write one framed response, `{head} {len}\n{body}`, as one write: a
/// head sent apart from its body would wait for the peer's delayed ACK.
fn frame(stream: &mut TcpStream, head: &str, body: &str) -> std::io::Result<()> {
    let mut reply = format!("{head} {}\n", body.len());
    reply.push_str(body);
    stream.write_all(reply.as_bytes())
}

fn error_code(e: &Error) -> &str {
    match e {
        Error::Eval(x) => x.code,
        Error::Parse(_) => "XQB-PARSE",
    }
}

/// Serve one accepted connection: banner, then the request loop.
fn handle_connection(
    mut stream: TcpStream,
    server: &Server,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    // Every reply is one complete write; holding it back for coalescing
    // could only delay it.
    stream.set_nodelay(true)?;
    let session = match server.open_session() {
        Ok(s) => s,
        Err(e) => {
            frame(
                &mut stream,
                &format!("ERR {}", error_code(&e)),
                &e.to_string(),
            )?;
            return Ok(());
        }
    };
    stream.write_all(
        format!(
            "XQSERVE 1 session={} epoch={}\n",
            session.id(),
            server.epoch()
        )
        .as_bytes(),
    )?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    loop {
        line.clear();
        // Both reads below are bounded by what the peer may legitimately
        // send, never by what it claims or withholds.
        let got = (&mut reader)
            .take(MAX_LINE_BYTES as u64)
            .read_line(&mut line)?;
        if got == 0 {
            return Ok(()); // client hung up
        }
        if got == MAX_LINE_BYTES && !line.ends_with('\n') {
            return frame(&mut stream, "ERR XQB-PROTO", "command line too long");
        }
        let line = line.trim_end();
        if let Some(len) = line.strip_prefix("QUERY ") {
            let len: usize = match len.trim().parse() {
                Ok(n) => n,
                Err(_) => {
                    frame(&mut stream, "ERR XQB-PROTO", "bad QUERY length")?;
                    continue;
                }
            };
            if len > MAX_QUERY_BYTES {
                return frame(&mut stream, "ERR XQB-PROTO", "QUERY body too long");
            }
            // The buffer grows with the bytes that actually arrive.
            let mut buf = Vec::new();
            (&mut reader).take(len as u64).read_to_end(&mut buf)?;
            if buf.len() < len {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let query = match String::from_utf8(buf) {
                Ok(q) => q,
                Err(_) => {
                    frame(&mut stream, "ERR XQB-PROTO", "query is not UTF-8")?;
                    continue;
                }
            };
            match session.execute(&query) {
                Ok(r) => frame(
                    &mut stream,
                    &format!("OK {} {}", r.kind.as_str(), r.epoch),
                    &r.body,
                )?,
                Err(e) => frame(
                    &mut stream,
                    &format!("ERR {}", error_code(&e)),
                    &e.to_string(),
                )?,
            }
        } else {
            match line {
                "STATS" => {
                    let stats = server.stats();
                    frame(
                        &mut stream,
                        &format!("OK stats {}", stats.epoch),
                        &stats.to_json(),
                    )?;
                }
                "PING" => frame(&mut stream, &format!("OK pong {}", server.epoch()), "")?,
                "QUIT" => {
                    frame(&mut stream, "BYE", "")?;
                    return Ok(());
                }
                "SHUTDOWN" => {
                    frame(&mut stream, "BYE", "")?;
                    shutdown.store(true, Ordering::SeqCst);
                    return Ok(());
                }
                "" => {}
                _ => frame(&mut stream, "ERR XQB-PROTO", "unknown command")?,
            }
        }
    }
}

/// Most handler `JoinHandle`s the accept loop has held at once. Bounded by
/// the connections open at the same time, not by those ever accepted;
/// `--self-test` checks that after churning connections.
static PEAK_RETAINED_HANDLES: AtomicUsize = AtomicUsize::new(0);

/// Join, in place, every handler that has already returned.
fn reap_finished(handles: &mut Vec<std::thread::JoinHandle<()>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// The accept loop: one thread per connection, until `SHUTDOWN` (the
/// flag is re-checked after every accepted connection; the shutting-down
/// handler wakes the loop by connecting once). A handler thread carries
/// the deep stack parsing and evaluation need (`xqsyn::stack`), so its
/// requests run on it without spawning; if the OS refuses the thread,
/// that connection alone is answered `XQB0050` and closed. Handlers that
/// have finished are joined at every accept, so the handles retained are
/// those of live connections.
fn serve(listener: TcpListener, server: Server) -> std::io::Result<()> {
    let shutdown = Arc::new(AtomicBool::new(false));
    let addr = listener.local_addr()?;
    let mut handles = Vec::new();
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = stream?;
        reap_finished(&mut handles);
        // A spawn that fails drops its closure, stream included: keep a
        // second handle to answer on.
        let refusal = stream.try_clone();
        let server = server.clone();
        let shutdown = shutdown.clone();
        let wake_addr = addr;
        let spawned = spawn_deep("xqserve-conn", move || {
            let was_shutdown = {
                let r = handle_connection(stream, &server, &shutdown);
                if let Err(e) = r {
                    eprintln!("xqserve: connection error: {e}");
                }
                shutdown.load(Ordering::SeqCst)
            };
            if was_shutdown {
                // Unblock the accept loop so it can observe the flag.
                let _ = TcpStream::connect(wake_addr);
            }
        });
        match spawned {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                eprintln!("xqserve: cannot start a connection handler: {e}");
                if let Ok(mut stream) = refusal {
                    let _ = frame(
                        &mut stream,
                        "ERR XQB0050",
                        &format!("cannot start a session handler: {e}"),
                    );
                }
            }
        }
        PEAK_RETAINED_HANDLES.fetch_max(handles.len(), Ordering::Relaxed);
    }
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}

// ----------------------------------------------------------------------
// self-test: a real-TCP protocol and concurrency round-trip
// ----------------------------------------------------------------------

/// A minimal protocol client for the self-test.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut c = Client { stream, reader };
        let banner = c.read_line()?;
        if !banner.starts_with("XQSERVE 1 ") {
            return Err(format!("bad banner: {banner}"));
        }
        Ok(c)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        Ok(line.trim_end().to_string())
    }

    /// Send one command line (plus an optional length-prefixed body) and
    /// return `(head_words, body)`.
    fn request(&mut self, line: &str, body: Option<&str>) -> Result<(Vec<String>, String), String> {
        let msg = match body {
            Some(b) => format!("{line} {}\n{b}", b.len()),
            None => format!("{line}\n"),
        };
        self.stream
            .write_all(msg.as_bytes())
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("write: {e}"))?;
        let head = self.read_line()?;
        let mut words: Vec<String> = head.split(' ').map(str::to_string).collect();
        let len: usize = words
            .pop()
            .ok_or("empty response head")?
            .parse()
            .map_err(|_| format!("bad response head: {head}"))?;
        let mut buf = vec![0u8; len];
        self.reader
            .read_exact(&mut buf)
            .map_err(|e| format!("read body: {e}"))?;
        Ok((words, String::from_utf8_lossy(&buf).into_owned()))
    }

    fn query(&mut self, q: &str) -> Result<(Vec<String>, String), String> {
        self.request("QUERY", Some(q))
    }
}

fn expect(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("self-test: {what}"))
    }
}

fn self_test(args: &Args) -> Result<(), String> {
    let config = server_config(args)?;
    let mut engine = cli::engine(args)?;
    engine
        .load_document("doc", "<log/>")
        .map_err(|e| e.to_string())?;
    let server = engine.into_server(config);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let accept = std::thread::spawn({
        let server = server.clone();
        move || serve(listener, server)
    });

    // 1. read → write → read on one connection.
    let mut c = Client::connect(addr)?;
    let (head, body) = c.query("count($doc/log/*)")?;
    expect(head == ["OK", "read", "0"] && body == "0", "initial read")?;
    let (head, _) = c.query("insert { <e/> } into { $doc/log }")?;
    expect(head == ["OK", "write", "1"], "write commits epoch 1")?;
    let (head, body) = c.query("count($doc/log/*)")?;
    expect(
        head == ["OK", "read", "1"] && body == "1",
        "read sees commit",
    )?;

    // 2. no per-reply stall: 50 round trips of a one-byte reply take well
    //    under a second. A head written apart from its body waits for the
    //    client's delayed ACK, ~40 ms per reply.
    let started = std::time::Instant::now();
    for _ in 0..50 {
        let (head, body) = c.query("1")?;
        expect(head[..2] == ["OK", "read"] && body == "1", "round trip")?;
    }
    let took = started.elapsed();
    expect(
        took < std::time::Duration::from_secs(1),
        &format!("50 sequential round trips took {took:?}"),
    )?;

    // 3. concurrent sessions: readers on their own connections while the
    //    first connection keeps writing.
    let readers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || -> Result<(), String> {
                let mut c = Client::connect(addr)?;
                for _ in 0..20 {
                    let (head, body) = c.query("count($doc/log/e)")?;
                    expect(head[..2] == ["OK", "read"], "concurrent read routed read")?;
                    let n: u64 = body.parse().map_err(|_| "non-numeric count".to_string())?;
                    expect(n >= 1, "snapshot at least as fresh as epoch 1")?;
                }
                c.request("QUIT", None).ok();
                Ok(())
            })
        })
        .collect();
    for i in 0..10 {
        let (head, _) = c.query(&format!("insert {{ <e n=\"{i}\"/> }} into {{ $doc/log }}"))?;
        expect(head[..2] == ["OK", "write"], "interleaved write")?;
    }
    for r in readers {
        r.join().map_err(|_| "reader panicked")??;
    }

    // 4. an error reply keeps the connection usable.
    let (head, _) = c.query("1 div 0")?;
    expect(head[0] == "ERR", "error frames as ERR")?;
    let (head, body) = c.query("count($doc/log/e)")?;
    expect(
        head[..2] == ["OK", "read"] && body == "11",
        "connection survives error",
    )?;

    // 5. hostile framing: a length no honest client sends, and a command
    //    line that never ends. Each is refused with XQB-PROTO and only that
    //    connection closes; the first session keeps answering.
    let oversized_line = "A".repeat(MAX_LINE_BYTES);
    for hostile in ["QUERY 99999999999999\n", oversized_line.as_str()] {
        let mut h = Client::connect(addr)?;
        h.stream
            .write_all(hostile.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut reply = String::new();
        h.reader
            .read_to_string(&mut reply)
            .map_err(|e| format!("hostile connection not closed cleanly: {e}"))?;
        expect(
            reply.starts_with("ERR XQB-PROTO "),
            "hostile framing refused with XQB-PROTO, then closed",
        )?;
        let (head, body) = c.query("count($doc/log/e)")?;
        expect(
            head[..2] == ["OK", "read"] && body == "11",
            "other sessions survive hostile framing",
        )?;
    }

    // 6. connection churn: handler threads are joined as they finish.
    for _ in 0..1000 {
        let (head, _) = Client::connect(addr)?.request("QUIT", None)?;
        expect(head == ["BYE"], "churned connection quits")?;
    }

    // 7. stats and shutdown.
    let (head, body) = c.request("STATS", None)?;
    expect(head[..2] == ["OK", "stats"], "stats frame")?;
    expect(
        body.contains("\"reads\":") && body.contains("\"writes\":"),
        "stats JSON",
    )?;
    let (head, _) = c.request("SHUTDOWN", None)?;
    expect(head == ["BYE"], "clean shutdown")?;
    accept
        .join()
        .map_err(|_| "accept loop panicked")?
        .map_err(|e| e.to_string())?;
    let peak_retained = PEAK_RETAINED_HANDLES.load(Ordering::Relaxed);
    expect(
        peak_retained <= 16,
        &format!("accept loop retained {peak_retained} thread handles"),
    )?;
    println!("xqserve self-test: PASS");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = cli::parse(USAGE, FLAGS, std::env::args().skip(1))?;
    if let Some(arg) = args.positional.first() {
        return Err(format!("unexpected argument \"{arg}\""));
    }
    if args.has("--self-test") {
        return self_test(&args);
    }
    let server = build_server(&args).map_err(|e| format!("xqserve: {e}"))?;
    let addr = args.value("--addr").unwrap_or("127.0.0.1:0");
    let listener =
        TcpListener::bind(addr).map_err(|e| format!("xqserve: cannot bind {addr}: {e}"))?;
    match listener.local_addr() {
        Ok(bound) => println!("xqserve listening on {bound}"),
        Err(_) => println!("xqserve listening on {addr}"),
    }
    serve(listener, server).map_err(|e| format!("xqserve: {e}"))
}
