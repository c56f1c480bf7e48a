//! The command line `xqbang` and `xqserve` share. A flag table is its own
//! help text: a row is `  <spellings> [<VALUE>]  <help>`, a continuation
//! line starts with blanks, and [`parse`] reads from the rows which flags
//! exist and which take a value. [`ENGINE_FLAGS`] is the one table of
//! engine settings both binaries accept, and [`engine`] applies it: the
//! engine reads nothing from its process, so these flags are how a binary
//! configures it.

use crate::xqcore::obs::TraceSink;
use crate::xqcore::Limits;
use crate::{Engine, SyncMode};
use std::sync::Arc;

/// Every engine setting a binary can reach, each once. (The escaped
/// newline keeps the first row's indent and drops the source's.)
pub const ENGINE_FLAGS: &str = "  \
  --store <DIR>             open (or create) the durable store at DIR:
                            committed updates persist in its redo log,
                            recovered documents bind to $doc, $doc2, ...
  --durability <MODE>       fsync policy of the durable store:
                            always (default), batch or off
  --max-depth <N>           recursion-depth limit, XQB0040 beyond (512)
  --fuel <N>                evaluation-step budget per run, XQB0041
                            beyond (default unlimited)
  --deadline-ms <N>         wall-clock deadline per run in ms, XQB0042
                            beyond (default unlimited)
  --memory-items <N>        materialized-item budget per run, XQB0043
                            beyond (default unlimited)
  --slow-ms <MS>            log each run taking at least MS ms as one
                            JSON line on stderr (default off)
  --trace <FILE>            write JSON-lines trace spans to FILE
";

/// The flags given, by their last spelling in the table, and the other
/// arguments.
#[derive(Default)]
pub struct Args {
    /// `(flag, value)` in command-line order; a switch's value is empty.
    given: Vec<(String, String)>,
    /// The arguments that are not flags.
    pub positional: Vec<String>,
}

impl Args {
    /// Every value given to `flag`, in order.
    pub fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.given
            .iter()
            .filter(move |(name, _)| name == flag)
            .map(|(_, value)| value.as_str())
    }

    /// The last value given to `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.given.iter().rev().find(|(name, _)| name == flag)?;
        Some(value)
    }

    /// Was `flag` given?
    pub fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The last value given to `flag`, as a number.
    pub fn num<N: std::str::FromStr>(&self, flag: &str) -> Result<Option<N>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value \"{v}\" for {flag}"))
            })
            .transpose()
    }
}

/// The help text of a binary whose first line is `usage` and whose own
/// flags are the table `flags`.
pub fn help(usage: &str, flags: &str) -> String {
    format!("{usage}\n\noptions:\n{flags}{ENGINE_FLAGS}  -h, --help                this message")
}

/// Each row of `table`: the flag's spellings and whether it takes a value.
fn rows(table: &str) -> impl Iterator<Item = (Vec<&str>, bool)> {
    table.lines().filter_map(|line| {
        let spec = line.trim_start().split("  ").next()?;
        let names = spec.split([',', ' ']).filter(|w| w.starts_with('-'));
        spec.starts_with('-')
            .then(|| (names.collect(), spec.contains('<')))
    })
}

/// Parse `args` (program name excluded) against `flags` and
/// [`ENGINE_FLAGS`]. `-h` / `--help` and an unknown flag are errors whose
/// text is, or ends in, the help.
pub fn parse(
    usage: &str,
    flags: &str,
    args: impl IntoIterator<Item = String>,
) -> Result<Args, String> {
    let table: Vec<_> = rows(flags).chain(rows(ENGINE_FLAGS)).collect();
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "-h" || arg == "--help" {
            return Err(help(usage, flags));
        }
        if !arg.starts_with('-') {
            parsed.positional.push(arg);
            continue;
        }
        let (names, takes_value) = table
            .iter()
            .find(|(names, _)| names.contains(&arg.as_str()))
            .ok_or_else(|| format!("unknown option \"{arg}\"\n\n{}", help(usage, flags)))?;
        let value = if *takes_value {
            args.next().ok_or(format!("missing argument for {arg}"))?
        } else {
            String::new()
        };
        let flag = names.last().expect("a row names its flag");
        parsed.given.push((flag.to_string(), value));
    }
    Ok(parsed)
}

/// A fresh engine configured by the [`ENGINE_FLAGS`] in `args`: policy
/// first, so `--durability` is in force before `--store` opens whatever
/// the flag order, then the store. A bad value, an unwritable trace file
/// and an unopenable store are errors.
pub fn engine(args: &Args) -> Result<Engine, String> {
    let mut engine = Engine::new();
    if let Some(mode) = args.value("--durability") {
        let sync = SyncMode::parse(mode).ok_or(format!("bad value \"{mode}\" for --durability"))?;
        engine.set_durability(sync);
    }
    let defaults = Limits::default();
    engine.set_limits(Limits {
        max_depth: args
            .num("--max-depth")?
            .map_or(defaults.max_depth, |d: usize| d.max(1)),
        fuel: args.num("--fuel")?,
        deadline_ms: args.num("--deadline-ms")?,
        memory_items: args.num("--memory-items")?,
        ..defaults
    });
    // NaN would compare false against every run and silently log nothing.
    let slow_ms: Option<f64> = args.num("--slow-ms")?;
    if slow_ms.is_some_and(|ms| !(0.0..f64::INFINITY).contains(&ms)) {
        let v = args.value("--slow-ms").unwrap_or_default();
        return Err(format!("bad value \"{v}\" for --slow-ms"));
    }
    engine.set_slow_query_threshold(slow_ms);
    if let Some(path) = args.value("--trace") {
        let sink =
            TraceSink::to_path(path).map_err(|e| format!("cannot open trace {path}: {e}"))?;
        engine.set_trace(Arc::new(sink));
    }
    if let Some(dir) = args.value("--store") {
        engine
            .open_store(dir)
            .map_err(|e| format!("cannot open store {dir}: {e}"))?;
    }
    Ok(engine)
}
