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
//! closes when the session limit is reached. Then, per request:
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
use xquery_bang::{ConflictPolicy, Engine, Error, Server, ServerConfig};

/// Longest command line accepted, newline included (`QUERY <len>` needs
/// under 30 bytes).
const MAX_LINE_BYTES: usize = 4 << 10;
/// Largest `QUERY` body accepted.
const MAX_QUERY_BYTES: usize = 16 << 20;

fn usage() -> &'static str {
    "usage: xqserve [OPTIONS]\n\
     \n\
     options:\n\
       --addr <HOST:PORT>        listen address (default 127.0.0.1:0;\n\
                                 port 0 picks a free port, printed at start)\n\
       --store <DIR>             open (or create) the durable store at DIR\n\
                                 (default: $XQB_STORE_PATH; fsync policy from\n\
                                 $XQB_DURABILITY = always|batch|off)\n\
       -d, --doc <VAR>=<FILE>    parse FILE and bind its document to $VAR\n\
       --max-sessions <N>        concurrent session cap, XQB0050 beyond (64)\n\
       --max-inflight <N>        concurrent request cap, XQB0051 beyond (32)\n\
       --no-occ                  serialize every write under the engine lock\n\
                                 (disables optimistic concurrent writers)\n\
       --conflict-policy <P>     abort (default) or lww / last-writer-wins\n\
       --max-retries <N>         conflict retries before XQB0052 (8)\n\
       --threads <N>             per-request worker threads ($XQB_THREADS or 1)\n\
       --fuel <N>                per-request step budget (XQB0041)\n\
       --deadline-ms <N>         per-request wall-clock deadline (XQB0042)\n\
       --self-test               start on a free port, run a protocol and\n\
                                 concurrency round-trip against it, exit\n\
       -h, --help                this message"
}

struct Options {
    addr: String,
    store: Option<String>,
    documents: Vec<(String, String)>,
    max_sessions: usize,
    max_inflight: usize,
    occ_writers: bool,
    conflict_policy: ConflictPolicy,
    max_retries: usize,
    threads: Option<usize>,
    fuel: Option<u64>,
    deadline_ms: Option<u64>,
    self_test: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:0".to_string(),
        store: None,
        documents: Vec::new(),
        max_sessions: 64,
        max_inflight: 32,
        occ_writers: true,
        conflict_policy: ConflictPolicy::Abort,
        max_retries: 8,
        threads: None,
        fuel: None,
        deadline_ms: None,
        self_test: false,
    };
    fn parse_num<T: std::str::FromStr>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String> {
        let v = args
            .next()
            .ok_or_else(|| format!("missing argument for {flag}"))?;
        v.parse()
            .map_err(|_| format!("bad value \"{v}\" for {flag}"))
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(usage().to_string()),
            "--addr" => opts.addr = args.next().ok_or("missing argument for --addr")?,
            "--store" => opts.store = Some(args.next().ok_or("missing argument for --store")?),
            "-d" | "--doc" => {
                let spec = args.next().ok_or("missing argument for --doc")?;
                let (var, file) = spec.split_once('=').ok_or("expected --doc VAR=FILE")?;
                opts.documents.push((var.to_string(), file.to_string()));
            }
            "--max-sessions" => opts.max_sessions = parse_num(&mut args, "--max-sessions")?,
            "--max-inflight" => opts.max_inflight = parse_num(&mut args, "--max-inflight")?,
            "--no-occ" => opts.occ_writers = false,
            "--conflict-policy" => {
                let v = args
                    .next()
                    .ok_or("missing argument for --conflict-policy")?;
                opts.conflict_policy = ConflictPolicy::parse(&v)
                    .ok_or_else(|| format!("bad value \"{v}\" for --conflict-policy"))?;
            }
            "--max-retries" => opts.max_retries = parse_num(&mut args, "--max-retries")?,
            "--threads" => opts.threads = Some(parse_num(&mut args, "--threads")?),
            "--fuel" => opts.fuel = Some(parse_num(&mut args, "--fuel")?),
            "--deadline-ms" => opts.deadline_ms = Some(parse_num(&mut args, "--deadline-ms")?),
            "--self-test" => opts.self_test = true,
            other => return Err(format!("unknown option {other}\n\n{}", usage())),
        }
    }
    Ok(opts)
}

fn build_server(opts: &Options) -> Result<Server, String> {
    let mut engine = Engine::new();
    if let Some(dir) = &opts.store {
        engine
            .open_store(dir)
            .map_err(|e| format!("cannot open store {dir}: {e}"))?;
    }
    for (var, file) in &opts.documents {
        let xml = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        engine
            .load_document(var, &xml)
            .map_err(|e| format!("cannot parse {file}: {e}"))?;
    }
    Ok(host(engine, opts))
}

/// Host `engine` behind the admission and commit policy `opts` asks for.
/// Resource policy is the engine's own (`Engine::new` read `XQB_THREADS`
/// and the `Limits` variables): the flags override it there, once.
fn host(mut engine: Engine, opts: &Options) -> Server {
    let mut limits = *engine.limits();
    limits.fuel = opts.fuel.or(limits.fuel);
    limits.deadline_ms = opts.deadline_ms.or(limits.deadline_ms);
    engine.set_limits(limits);
    if let Some(threads) = opts.threads {
        engine.set_threads(threads);
    }
    engine.into_server(ServerConfig {
        max_sessions: opts.max_sessions,
        max_inflight: opts.max_inflight,
        occ_writers: opts.occ_writers,
        conflict_policy: opts.conflict_policy,
        max_retries: opts.max_retries,
        ..ServerConfig::default()
    })
}

/// Write one framed response: `{head} {len}\n{body}`.
fn frame(stream: &mut TcpStream, head: &str, body: &str) -> std::io::Result<()> {
    stream.write_all(format!("{head} {}\n", body.len()).as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
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
    stream.flush()?;
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
/// handler wakes the loop by connecting once). Handlers that have finished
/// are joined at every accept, so the handles retained are those of live
/// connections.
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
        let server = server.clone();
        let shutdown = shutdown.clone();
        let wake_addr = addr;
        handles.push(std::thread::spawn(move || {
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
        }));
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

fn self_test(opts: &Options) -> Result<(), String> {
    let mut engine = Engine::new();
    engine
        .load_document("doc", "<log/>")
        .map_err(|e| e.to_string())?;
    let server = host(engine, opts);
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

    // 2. concurrent sessions: readers on their own connections while the
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

    // 3. an error reply keeps the connection usable.
    let (head, _) = c.query("1 div 0")?;
    expect(head[0] == "ERR", "error frames as ERR")?;
    let (head, body) = c.query("count($doc/log/e)")?;
    expect(
        head[..2] == ["OK", "read"] && body == "11",
        "connection survives error",
    )?;

    // 4. hostile framing: a length no honest client sends, and a command
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

    // 5. connection churn: handler threads are joined as they finish.
    for _ in 0..1000 {
        let (head, _) = Client::connect(addr)?.request("QUIT", None)?;
        expect(head == ["BYE"], "churned connection quits")?;
    }

    // 6. stats and shutdown.
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
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if opts.self_test {
        return match self_test(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let server = match build_server(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xqserve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listener = match TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("xqserve: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(addr) => println!("xqserve listening on {addr}"),
        Err(_) => println!("xqserve listening on {}", opts.addr),
    }
    match serve(listener, server) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xqserve: {e}");
            ExitCode::FAILURE
        }
    }
}
