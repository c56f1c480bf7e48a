//! A tiny interactive XQuery! shell.
//!
//! Run with: `cargo run --example repl`
//!
//! Commands:
//!   :load <var> <file>   parse an XML file and bind its document to $var
//!   :xmark <var> <n>     bind an XMark document with n persons to $var
//!   :open <dir>          recover the durable store at <dir> and attach it
//!                        (recovered documents bind to $doc, $doc2, ...)
//!   :save <dir>          persist the current store to <dir> and keep it
//!                        attached (later updates append to its redo log)
//!   :plan <query>        show the optimizer's plan for a query
//!   :analyze <query>     run a query and show the plan with live counters
//!   :limits [k v]        show resource limits, or set one knob: depth,
//!                        fuel, deadline-ms, memory-items ("off" disarms)
//!   :quit                exit
//! Anything else is evaluated as an XQuery! program. Updates persist in
//! the session store between queries.

use std::io::{BufRead, Write};
use xmarkgen::{Scale, XmarkGen};
use xquery_bang::{Engine, Item};

fn print_limits(engine: &Engine) {
    let l = engine.limits();
    let opt = |v: Option<u64>| v.map_or("off".to_string(), |n| n.to_string());
    println!(
        "depth = {}, fuel = {}, deadline-ms = {}, memory-items = {}",
        l.max_depth,
        opt(l.fuel),
        opt(l.deadline_ms),
        opt(l.memory_items)
    );
}

fn set_limit(engine: &mut Engine, knob: &str, value: &str) -> Result<(), String> {
    let mut l = *engine.limits();
    let parse_opt = |v: &str| -> Result<Option<u64>, String> {
        if v == "off" {
            Ok(None)
        } else {
            v.parse::<u64>()
                .map(Some)
                .map_err(|_| format!("bad value \"{v}\" (expected a number or \"off\")"))
        }
    };
    match knob {
        "depth" => {
            l.max_depth = value
                .parse::<usize>()
                .map_err(|_| format!("bad value \"{value}\" (depth is always finite)"))?
                .max(1);
        }
        "fuel" => l.fuel = parse_opt(value)?,
        "deadline-ms" => l.deadline_ms = parse_opt(value)?,
        "memory-items" => l.memory_items = parse_opt(value)?,
        other => {
            return Err(format!(
                "unknown limit \"{other}\" (depth, fuel, deadline-ms, memory-items)"
            ))
        }
    }
    engine.set_limits(l);
    Ok(())
}

fn main() {
    let mut engine = Engine::new();
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    println!("XQuery! shell — :load, :xmark, :open, :save, :plan, :analyze, :limits, :quit");
    loop {
        print!("xq!> ");
        out.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            break;
        }
        if let Some(rest) = line.strip_prefix(":load ") {
            let mut parts = rest.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some(var), Some(path)) => match std::fs::read_to_string(path) {
                    Ok(xml) => match engine.load_document(var, &xml) {
                        Ok(_) => println!("bound ${var}"),
                        Err(e) => eprintln!("parse error: {e}"),
                    },
                    Err(e) => eprintln!("cannot read {path}: {e}"),
                },
                _ => eprintln!("usage: :load <var> <file>"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":xmark ") {
            let mut parts = rest.split_whitespace();
            match (
                parts.next(),
                parts.next().and_then(|s| s.parse::<usize>().ok()),
            ) {
                (Some(var), Some(n)) => {
                    let scale = Scale::join_sides(n, n / 2);
                    match XmarkGen::new(42).generate(&mut engine.store, &scale) {
                        Ok(doc) => {
                            engine.bind(var, xqdm::seq![Item::Node(doc)]);
                            println!("bound ${var} to an XMark document ({n} persons)");
                        }
                        Err(e) => eprintln!("generation failed: {e}"),
                    }
                }
                _ => eprintln!("usage: :xmark <var> <persons>"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":open ") {
            let dir = rest.trim();
            if dir.is_empty() {
                eprintln!("usage: :open <dir>");
                continue;
            }
            match engine.open_store(dir) {
                Ok(report) => {
                    let roots = engine.store.document_roots().len();
                    println!(
                        "opened {dir}: {} commit(s) replayed{}, {roots} document(s) bound, \
                         fingerprint {:016x}",
                        report.replayed_commits,
                        if report.from_checkpoint {
                            " from checkpoint"
                        } else {
                            ""
                        },
                        engine.store.fingerprint()
                    );
                }
                Err(e) => eprintln!("cannot open store: {e}"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":save ") {
            let dir = rest.trim();
            if dir.is_empty() {
                eprintln!("usage: :save <dir>");
                continue;
            }
            match engine.save_store(dir) {
                Ok(()) => println!(
                    "saved to {dir} (fingerprint {:016x}); updates now persist there",
                    engine.store.fingerprint()
                ),
                Err(e) => eprintln!("cannot save store: {e}"),
            }
            continue;
        }
        if line == ":limits" {
            print_limits(&engine);
            continue;
        }
        if let Some(rest) = line.strip_prefix(":limits ") {
            let mut parts = rest.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some(knob), Some(value)) => match set_limit(&mut engine, knob, value) {
                    Ok(()) => print_limits(&engine),
                    Err(msg) => eprintln!("{msg}"),
                },
                _ => eprintln!("usage: :limits <depth|fuel|deadline-ms|memory-items> <n|off>"),
            }
            continue;
        }
        if let Some(query) = line.strip_prefix(":plan ") {
            // The annotated plan the engine's compiled pipeline would
            // execute, module functions included.
            match engine.explain(query) {
                Ok(plan) => println!("{plan}"),
                Err(e) => eprintln!("error: {e}"),
            }
            continue;
        }
        if let Some(query) = line.strip_prefix(":analyze ") {
            // EXPLAIN ANALYZE: the query really runs (updates persist),
            // then the plan prints with live per-node counters.
            match engine.explain_analyze(query) {
                Ok(report) => println!("{report}"),
                Err(e) => eprintln!("error: {e}"),
            }
            continue;
        }
        match engine.run(line) {
            Ok(seq) => match engine.serialize(&seq) {
                Ok(s) if s.is_empty() => println!("()"),
                Ok(s) => println!("{s}"),
                Err(e) => eprintln!("serialization error: {e}"),
            },
            Err(e) => eprintln!("error: {e}"),
        }
    }
}
