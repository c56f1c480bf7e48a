//! `xqbang` — command-line XQuery! runner.
//!
//! ```console
//! $ xqbang query.xq                         # run a query file
//! $ xqbang -q 'count(1 to 10)'              # run an inline query
//! $ xqbang -d auction=site.xml query.xq     # bind $auction to a document
//! $ xqbang --plan query.xq                  # print the optimizer's plan
//! $ xqbang --xmark auction=0.01 query.xq    # bind a generated XMark doc
//! ```
//!
//! Exit code 0 on success, 1 on any parse/evaluation error.

use std::process::ExitCode;
use xquery_bang::cli;
use xquery_bang::xmarkgen::{Scale, XmarkGen};
use xquery_bang::Item;

const USAGE: &str = "usage: xqbang [OPTIONS] [QUERY_FILE]";
const FLAGS: &str = "  \
  -q, --query <XQUERY>      run an inline query instead of a file
  -d, --doc <VAR>=<FILE>    parse FILE and bind its document to $VAR
  --xmark <VAR>=<FACTOR>    bind $VAR to a generated XMark document
  --plan                    print the compiled plan instead of running
  --analyze                 run the query and print the plan annotated
                            with live per-node counters (EXPLAIN ANALYZE)
  --pretty                  indent XML output
  --check                   static-check the query, do not run it
";

/// Split a `VAR=...` flag value.
fn binding(spec: &str) -> Result<(&str, &str), String> {
    spec.split_once('=')
        .ok_or(format!("expected VAR=... in \"{spec}\""))
}

fn run() -> Result<(), String> {
    let args = cli::parse(USAGE, FLAGS, std::env::args().skip(1))?;
    let query = match (args.value("--query"), args.positional.as_slice()) {
        (_, [_, _, ..]) => return Err("more than one query file".to_string()),
        (Some(q), _) => q.to_string(),
        (None, [f]) => std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?,
        (None, []) => return Err(format!("no query given\n\n{}", cli::help(USAGE, FLAGS))),
    };
    let documents: Vec<_> = args
        .values("--doc")
        .map(binding)
        .collect::<Result<_, _>>()?;
    let xmark: Vec<_> = args
        .values("--xmark")
        .map(binding)
        .collect::<Result<_, _>>()?;

    let mut engine = cli::engine(&args)?;
    for (var, file) in documents {
        let xml = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        engine
            .load_document(var, &xml)
            .map_err(|e| format!("{file}: {e}"))?;
    }
    for (var, factor) in xmark {
        let factor: f64 = factor
            .parse()
            .map_err(|_| format!("bad factor \"{factor}\""))?;
        let doc = XmarkGen::new(42)
            .generate(&mut engine.store, &Scale::factor(factor))
            .map_err(|e| e.to_string())?;
        engine.bind(var, xqdm::seq![Item::Node(doc)]);
    }

    if args.has("--check") {
        let diags = engine.check(&query).map_err(|e| e.to_string())?;
        if diags.is_empty() {
            println!("ok: no findings");
            return Ok(());
        }
        let mut had_error = false;
        for d in &diags {
            let sev = match d.severity {
                xquery_bang::xqcore::Severity::Error => {
                    had_error = true;
                    "error"
                }
                xquery_bang::xqcore::Severity::Warning => "warning",
            };
            println!("{sev}[{}]: {}", d.code, d.message);
        }
        if had_error {
            return Err(format!("{} finding(s)", diags.len()));
        }
        return Ok(());
    }

    if args.has("--plan") {
        // The engine's EXPLAIN: the annotated plan the compiled pipeline
        // would execute, including declared-function sections.
        println!("{}", engine.explain(&query).map_err(|e| e.to_string())?);
        return Ok(());
    }

    if args.has("--analyze") {
        // EXPLAIN ANALYZE: the query really runs (effects apply), then the
        // plan prints with live per-node counters and a totals line.
        println!(
            "{}",
            engine.explain_analyze(&query).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    let result = engine.run(&query).map_err(|e| e.to_string())?;
    let rendered = if args.has("--pretty") {
        let mut parts = Vec::with_capacity(result.len());
        for it in &result {
            parts.push(match it {
                Item::Node(n) => xquery_bang::xqdm::xml::serialize_pretty(&engine.store, *n)
                    .map_err(|e| e.to_string())?,
                Item::Atomic(a) => a.string_value(),
            });
        }
        parts.join("\n")
    } else {
        engine.serialize(&result).map_err(|e| e.to_string())?
    };
    println!("{rendered}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
