//! The built-in function library.
//!
//! The F&O subset that the paper's queries (and any realistic XQuery
//! workload) need: sequence functions, aggregates, string functions,
//! numerics, node functions, and the `xs:` constructor casts. Dispatch is
//! by local name and arity — the `fn:` prefix is optional, as in XQuery's
//! default function namespace. Arguments arrive fully evaluated, left to
//! right, per the paper's function-call rule.

use crate::env::{DynEnv, Scope};
use xqdm::atomic::{value_compare, Atomic, CompareOp};
use xqdm::item::{self, Item, Sequence};
use xqdm::seq;
use xqdm::{Store, XdmError, XdmResult};

/// Dispatch a built-in call. Every built-in served here merely reads the
/// store, so the full evaluator and the parallel workers share this one
/// entry point. Returns `None` when `name` is not such a built-in: a
/// user-declared function, or [`is_parse_xml`] — the one built-in that
/// needs `&mut Store`, which only the full evaluator can run
/// ([`parse_xml`]).
pub fn dispatch(
    name: &str,
    args: Vec<Sequence>,
    store: &Store,
    scope: &Scope,
    env: &DynEnv,
) -> Option<XdmResult<Sequence>> {
    // Internal / constructor functions keyed on the full prefixed name.
    if let Some(r) = dispatch_prefixed(name, &args, store, scope) {
        return Some(r);
    }
    let local = name.strip_prefix("fn:").unwrap_or(name);
    if !is_builtin_local(local) || local == "parse-xml" {
        return None;
    }
    Some(call(local, args, store, env))
}

/// Does `name` call `fn:parse-xml`?
pub fn is_parse_xml(name: &str) -> bool {
    name.strip_prefix("fn:").unwrap_or(name) == "parse-xml"
}

/// `fn:parse-xml`: the parsed document's nodes are allocated in `store`;
/// `max_depth` is the run's element-nesting bound (`Limits::max_xml_depth`).
pub fn parse_xml(store: &mut Store, args: Vec<Sequence>, max_depth: usize) -> XdmResult<Sequence> {
    let mut it = args.into_iter();
    if it.len() != 1 {
        return Err(wrong_arity("parse-xml", it.len()));
    }
    let s = opt_string(it.next().expect("one argument"), store)?;
    let doc = xqdm::xml::parse_document_with_limit(store, &s, max_depth)?;
    Ok(seq![Item::Node(doc)])
}

/// Built-ins the effect lattice rates `Pure` but which the parallel gate
/// must still reject: `fn:parse-xml` allocates store nodes behind its
/// read-only rating, `fn:trace` writes to stderr, whose line order a
/// fan-out would scramble, and `xqb:stats`/`xqb:reset-stats` read or
/// clear ambient registry state a fan-out would make nondeterministic.
pub fn is_par_opaque(name: &str) -> bool {
    matches!(
        name.strip_prefix("fn:").unwrap_or(name),
        "parse-xml" | "trace" | "xqb:stats" | "xqb:reset-stats"
    )
}

/// Is `name` (possibly `fn:`-prefixed, or a special `fs:`/`xs:` name) a
/// built-in?
pub fn is_builtin(name: &str) -> bool {
    matches!(
        name,
        "fs:avt"
            | "fs:intersect"
            | "fs:except"
            | "xs:integer"
            | "xs:string"
            | "xs:double"
            | "xs:boolean"
            | "xqb:explain"
            | "xqb:stats"
            | "xqb:reset-stats"
            | "xqb:fingerprint"
    ) || is_builtin_local(name.strip_prefix("fn:").unwrap_or(name))
}

fn is_builtin_local(local: &str) -> bool {
    const NAMES: &[&str] = &[
        "count",
        "empty",
        "exists",
        "not",
        "boolean",
        "string",
        "string-length",
        "data",
        "number",
        "concat",
        "string-join",
        "contains",
        "starts-with",
        "ends-with",
        "substring",
        "substring-before",
        "substring-after",
        "upper-case",
        "lower-case",
        "normalize-space",
        "translate",
        "sum",
        "avg",
        "min",
        "max",
        "abs",
        "round",
        "floor",
        "ceiling",
        "distinct-values",
        "reverse",
        "subsequence",
        "insert-before",
        "remove",
        "index-of",
        "exactly-one",
        "zero-or-one",
        "one-or-more",
        "last",
        "position",
        "name",
        "local-name",
        "root",
        "true",
        "false",
        "deep-equal",
        "error",
        "trace",
        "head",
        "tail",
        "parse-xml",
        "serialize",
    ];
    NAMES.contains(&local)
}

fn wrong_arity(name: &str, n: usize) -> XdmError {
    XdmError::new(
        "XPST0017",
        format!("wrong number of arguments ({n}) for fn:{name}"),
    )
}

fn call(local: &str, args: Vec<Sequence>, store: &Store, env: &DynEnv) -> XdmResult<Sequence> {
    let nargs = args.len();
    let mut it = args.into_iter();
    let mut next = move || it.next().unwrap_or_default();

    match (local, nargs) {
        // ---------- sequences ----------
        ("count", 1) => Ok(seq![Item::integer(next().len() as i64)]),
        ("empty", 1) => Ok(seq![Item::boolean(next().is_empty())]),
        ("exists", 1) => Ok(seq![Item::boolean(!next().is_empty())]),
        ("not", 1) => Ok(seq![Item::boolean(!item::effective_boolean(
            &next(),
            store,
        )?)]),
        ("boolean", 1) => Ok(seq![Item::boolean(item::effective_boolean(
            &next(),
            store,
        )?)]),
        ("distinct-values", 1) => {
            let atoms = item::atomize(&next(), store)?;
            let mut out: Vec<Atomic> = Vec::new();
            for a in atoms {
                let dup = out
                    .iter()
                    .any(|b| matches!(value_compare(CompareOp::Eq, &a, b), Ok(true)));
                if !dup {
                    out.push(a);
                }
            }
            Ok(out.into_iter().map(Item::Atomic).collect())
        }
        ("reverse", 1) => {
            let mut v = next();
            v.reverse();
            Ok(v)
        }
        ("subsequence", 2 | 3) => {
            let seq = next();
            let start = one_double(next(), store)?.round() as i64;
            let end = if nargs == 3 {
                start + one_double(next(), store)?.round() as i64
            } else {
                i64::MAX
            };
            Ok(seq
                .into_iter()
                .enumerate()
                .filter(|(i, _)| {
                    let pos = (*i + 1) as i64;
                    pos >= start && pos < end
                })
                .map(|(_, x)| x)
                .collect())
        }
        ("insert-before", 3) => {
            let seq = next();
            let pos = one_integer(next(), store)?.max(1) as usize;
            let ins = next();
            let at = (pos - 1).min(seq.len());
            let mut out = seq.into_vec();
            out.splice(at..at, ins);
            Ok(out.into())
        }
        ("remove", 2) => {
            let seq = next();
            let pos = one_integer(next(), store)?;
            Ok(seq
                .into_iter()
                .enumerate()
                .filter(|(i, _)| (*i + 1) as i64 != pos)
                .map(|(_, x)| x)
                .collect())
        }
        ("index-of", 2) => {
            let seq = item::atomize(&next(), store)?;
            let target = one_atomic(next(), store)?;
            Ok(seq
                .iter()
                .enumerate()
                .filter(|(_, a)| matches!(value_compare(CompareOp::Eq, a, &target), Ok(true)))
                .map(|(i, _)| Item::integer((i + 1) as i64))
                .collect())
        }
        ("exactly-one", 1) => {
            let v = next();
            if v.len() == 1 {
                Ok(v)
            } else {
                Err(XdmError::value(
                    "FORG0005",
                    "fn:exactly-one called with a non-singleton",
                ))
            }
        }
        ("zero-or-one", 1) => {
            let v = next();
            if v.len() <= 1 {
                Ok(v)
            } else {
                Err(XdmError::value(
                    "FORG0003",
                    "fn:zero-or-one called with more than one item",
                ))
            }
        }
        ("one-or-more", 1) => {
            let v = next();
            if v.is_empty() {
                Err(XdmError::value("FORG0004", "fn:one-or-more called with ()"))
            } else {
                Ok(v)
            }
        }
        ("head", 1) => Ok(next().into_iter().take(1).collect()),
        ("tail", 1) => Ok(next().into_iter().skip(1).collect()),
        // ---------- focus ----------
        ("position", 0) => Ok(seq![Item::integer(env.focus()?.position as i64)]),
        ("last", 0) => Ok(seq![Item::integer(env.focus()?.size as i64)]),
        // ---------- strings ----------
        ("string", 0 | 1) => {
            let v = if nargs == 0 { focus_seq(env)? } else { next() };
            match item::zero_or_one(v)? {
                None => Ok(seq![Item::string("")]),
                Some(x) => Ok(seq![Item::string(x.string_value(store)?)]),
            }
        }
        ("string-length", 0 | 1) => {
            let v = if nargs == 0 { focus_seq(env)? } else { next() };
            let s = opt_string(v, store)?;
            Ok(seq![Item::integer(s.chars().count() as i64)])
        }
        ("data", 1) => Ok(item::atomize(&next(), store)?
            .into_iter()
            .map(Item::Atomic)
            .collect()),
        ("number", 0 | 1) => {
            let v = if nargs == 0 { focus_seq(env)? } else { next() };
            let d = match item::zero_or_one(v)? {
                None => f64::NAN,
                Some(x) => x.atomize(store)?.to_double().unwrap_or(f64::NAN),
            };
            Ok(seq![Item::double(d)])
        }
        ("concat", n) if n >= 2 => {
            let mut out = String::new();
            for _ in 0..n {
                let v = next();
                match item::zero_or_one(v)? {
                    None => {}
                    Some(x) => out.push_str(&x.string_value(store)?),
                }
            }
            Ok(seq![Item::string(out)])
        }
        ("string-join", 2) => {
            let seq = next();
            let sep = opt_string(next(), store)?;
            let parts: Vec<String> = seq
                .iter()
                .map(|i| i.string_value(store))
                .collect::<XdmResult<_>>()?;
            Ok(seq![Item::string(parts.join(&sep))])
        }
        ("contains", 2) => {
            let (a, b) = (opt_string(next(), store)?, opt_string(next(), store)?);
            Ok(seq![Item::boolean(a.contains(&b))])
        }
        ("starts-with", 2) => {
            let (a, b) = (opt_string(next(), store)?, opt_string(next(), store)?);
            Ok(seq![Item::boolean(a.starts_with(&b))])
        }
        ("ends-with", 2) => {
            let (a, b) = (opt_string(next(), store)?, opt_string(next(), store)?);
            Ok(seq![Item::boolean(a.ends_with(&b))])
        }
        ("substring", 2 | 3) => {
            let s = opt_string(next(), store)?;
            let start = one_double(next(), store)?.round() as i64;
            let end = if nargs == 3 {
                start + one_double(next(), store)?.round() as i64
            } else {
                i64::MAX
            };
            let out: String = s
                .chars()
                .enumerate()
                .filter(|(i, _)| {
                    let pos = (*i + 1) as i64;
                    pos >= start && pos < end
                })
                .map(|(_, c)| c)
                .collect();
            Ok(seq![Item::string(out)])
        }
        ("substring-before", 2) => {
            let (a, b) = (opt_string(next(), store)?, opt_string(next(), store)?);
            Ok(seq![Item::string(
                a.find(&b).map(|i| a[..i].to_string()).unwrap_or_default(),
            )])
        }
        ("substring-after", 2) => {
            let (a, b) = (opt_string(next(), store)?, opt_string(next(), store)?);
            Ok(seq![Item::string(
                a.find(&b)
                    .map(|i| a[i + b.len()..].to_string())
                    .unwrap_or_default(),
            )])
        }
        ("upper-case", 1) => Ok(seq![Item::string(
            opt_string(next(), store)?.to_uppercase(),
        )]),
        ("lower-case", 1) => Ok(seq![Item::string(
            opt_string(next(), store)?.to_lowercase(),
        )]),
        ("normalize-space", 0 | 1) => {
            let v = if nargs == 0 { focus_seq(env)? } else { next() };
            let s = opt_string(v, store)?;
            Ok(seq![Item::string(
                s.split_whitespace().collect::<Vec<_>>().join(" "),
            )])
        }
        ("translate", 3) => {
            let s = opt_string(next(), store)?;
            let from: Vec<char> = opt_string(next(), store)?.chars().collect();
            let to: Vec<char> = opt_string(next(), store)?.chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            Ok(seq![Item::string(out)])
        }
        // ---------- numerics / aggregates ----------
        ("sum", 1 | 2) => {
            let atoms = item::atomize(&next(), store)?;
            if atoms.is_empty() {
                return if nargs == 2 {
                    Ok(next())
                } else {
                    Ok(seq![Item::integer(0)])
                };
            }
            sum_numeric(&atoms)
        }
        ("avg", 1) => {
            let atoms = item::atomize(&next(), store)?;
            if atoms.is_empty() {
                return Ok(seq![]);
            }
            let n = atoms.len() as f64;
            let total = sum_numeric(&atoms)?[0].atomize(store)?.to_double()?;
            Ok(seq![Item::double(total / n)])
        }
        ("min" | "max", 1) => {
            let atoms = item::atomize(&next(), store)?;
            if atoms.is_empty() {
                return Ok(seq![]);
            }
            let op = if local == "max" {
                CompareOp::Gt
            } else {
                CompareOp::Lt
            };
            let mut best = coerce_comparable(atoms[0].clone())?;
            for a in &atoms[1..] {
                let a = coerce_comparable(a.clone())?;
                if value_compare(op, &a, &best)? {
                    best = a;
                }
            }
            Ok(seq![Item::Atomic(best)])
        }
        ("abs" | "round" | "floor" | "ceiling", 1) => match item::zero_or_one(next())? {
            None => Ok(seq![]),
            Some(x) => match x.atomize(store)? {
                Atomic::Integer(i) => Ok(seq![Item::integer(if local == "abs" {
                    i.abs()
                } else {
                    i
                })]),
                a => {
                    let d = a.to_double()?;
                    let r = match local {
                        "abs" => d.abs(),
                        "round" => (d + 0.5).floor(),
                        "floor" => d.floor(),
                        "ceiling" => d.ceil(),
                        _ => unreachable!(),
                    };
                    Ok(seq![Item::double(r)])
                }
            },
        },
        // ---------- nodes ----------
        ("name" | "local-name", 0 | 1) => {
            let v = if nargs == 0 { focus_seq(env)? } else { next() };
            match item::zero_or_one(v)? {
                None => Ok(seq![Item::string("")]),
                Some(Item::Node(n)) => {
                    let s = match store.name(n)? {
                        None => String::new(),
                        Some(q) if local == "local-name" => q.local,
                        Some(q) => q.to_string(),
                    };
                    Ok(seq![Item::string(s)])
                }
                Some(Item::Atomic(_)) => Err(XdmError::type_error(format!(
                    "fn:{local} expects a node argument"
                ))),
            }
        }
        ("root", 0 | 1) => {
            let v = if nargs == 0 { focus_seq(env)? } else { next() };
            match item::zero_or_one(v)? {
                None => Ok(seq![]),
                Some(Item::Node(n)) => Ok(seq![Item::Node(store.root(n)?)]),
                Some(Item::Atomic(_)) => {
                    Err(XdmError::type_error("fn:root expects a node argument"))
                }
            }
        }
        ("deep-equal", 2) => {
            let (a, b) = (next(), next());
            Ok(seq![Item::boolean(item::deep_equal(&a, &b, store)?)])
        }
        ("serialize", 1) => {
            let v = next();
            let mut out = String::new();
            for it in &v {
                match it {
                    Item::Node(n) => out.push_str(&xqdm::xml::serialize(store, *n)?),
                    Item::Atomic(a) => out.push_str(&a.string_value()),
                }
            }
            Ok(seq![Item::string(out)])
        }
        // ---------- misc ----------
        ("true", 0) => Ok(seq![Item::boolean(true)]),
        ("false", 0) => Ok(seq![Item::boolean(false)]),
        ("error", 0 | 1) => {
            let msg = if nargs == 0 {
                "fn:error called".to_string()
            } else {
                opt_string(next(), store)?
            };
            Err(XdmError::new("FOER0000", msg))
        }
        ("trace", 2) => {
            let v = next();
            let label = opt_string(next(), store)?;
            eprintln!("trace[{label}]: {} item(s)", v.len());
            Ok(v)
        }
        (other, n) => Err(wrong_arity(other, n)),
    }
}

/// Internal / constructor functions keyed on the full prefixed name.
fn dispatch_prefixed(
    name: &str,
    args: &[Sequence],
    store: &Store,
    scope: &Scope,
) -> Option<XdmResult<Sequence>> {
    if name == "xqb:panic" {
        // Failure-injection hook: panics mid-evaluation so tests can
        // exercise the engine's panic isolation (catch + store rollback).
        // Deliberately a panic, not an error — that is the point.
        panic!("xqb:panic() called");
    }
    if name == "xqb:stats" {
        // Snapshot the process-wide metrics registry as one JSON string.
        // Reads ambient mutable state, so the parallel gate rejects it
        // (is_par_opaque) even though the effect lattice rates it Pure.
        return Some(if args.is_empty() {
            Ok(seq![Item::string(
                crate::obs::global().snapshot().to_json(),
            )])
        } else {
            Err(XdmError::new(
                "XPST0017",
                format!("wrong number of arguments ({}) for xqb:stats", args.len()),
            ))
        });
    }
    if name == "xqb:reset-stats" {
        // Zero every global counter/histogram and clear the slow-query
        // ring; returns the empty sequence.
        return Some(if args.is_empty() {
            crate::obs::global().reset();
            Ok(seq![])
        } else {
            Err(XdmError::new(
                "XPST0017",
                format!(
                    "wrong number of arguments ({}) for xqb:reset-stats",
                    args.len()
                ),
            ))
        });
    }
    if name == "xqb:fingerprint" {
        // The canonical store hash (Store::fingerprint, hex-rendered):
        // recovery tests, the REPL, and differential tests compare the
        // same value. Pure over the store argument, so the parallel gate
        // does not need to reject it.
        return Some(if args.is_empty() {
            Ok(seq![Item::string(format!("{:016x}", store.fingerprint()))])
        } else {
            Err(XdmError::new(
                "XPST0017",
                format!(
                    "wrong number of arguments ({}) for xqb:fingerprint",
                    args.len()
                ),
            ))
        });
    }
    if name == "xqb:explain" {
        // EXPLAIN from inside the language: `Engine::explain` of the
        // argument query on the engine running this one. A syntax error
        // is `XPST0003`; only the parser's nesting bound is a limit trip.
        let arg = args.first().cloned().unwrap_or_default();
        return Some((|| {
            let query = item::exactly_one(arg)?.string_value(store)?;
            let text = crate::engine::explain_query(scope.env(), store, &query).map_err(|e| {
                let code = if crate::limits::is_parse_depth_trip(&e) {
                    "XQB0040"
                } else {
                    "XPST0003"
                };
                XdmError::new(code, format!("xqb:explain: cannot parse query: {e}"))
            })?;
            Ok(seq![Item::string(text)])
        })());
    }
    if matches!(name, "fs:intersect" | "fs:except") {
        // The normalization targets of `intersect` / `except`: node
        // identity semantics, document-order deduplicated result.
        let a = args.first().cloned().unwrap_or_default();
        let b = args.get(1).cloned().unwrap_or_default();
        return Some((|| {
            let left = item::all_nodes(&a)?;
            let right: std::collections::HashSet<_> = item::all_nodes(&b)?.into_iter().collect();
            let keep = name == "fs:intersect";
            let mut nodes: Vec<_> = left
                .into_iter()
                .filter(|n| right.contains(n) == keep)
                .collect();
            store.sort_and_dedup(&mut nodes)?;
            Ok(nodes.into_iter().map(Item::Node).collect())
        })());
    }
    if !matches!(
        name,
        "fs:avt" | "xs:integer" | "xs:string" | "xs:double" | "xs:boolean"
    ) {
        return None;
    }
    let v = args.first().cloned().unwrap_or_default();
    let result = match name {
        "fs:avt" => (|| {
            // Attribute-value-template rule: atomize the enclosed
            // expression's value and join with single spaces.
            let parts: Vec<String> = item::atomize(&v, store)?
                .into_iter()
                .map(|a| a.string_value())
                .collect();
            Ok(seq![Item::string(parts.join(" "))])
        })(),
        "xs:integer" => (|| match item::zero_or_one(v)? {
            None => Ok(seq![]),
            Some(x) => Ok(seq![Item::integer(x.atomize(store)?.to_integer()?)]),
        })(),
        "xs:double" => (|| match item::zero_or_one(v)? {
            None => Ok(seq![]),
            Some(x) => Ok(seq![Item::double(x.atomize(store)?.to_double()?)]),
        })(),
        "xs:string" => (|| match item::zero_or_one(v)? {
            None => Ok(seq![]),
            Some(x) => Ok(seq![Item::string(x.string_value(store)?)]),
        })(),
        "xs:boolean" => (|| match item::zero_or_one(v)? {
            None => Ok(seq![]),
            Some(x) => Ok(seq![Item::boolean(x.atomize(store)?.to_boolean()?)]),
        })(),
        _ => unreachable!(),
    };
    Some(result)
}

// ----------------------------------------------------------------------
// helpers
// ----------------------------------------------------------------------

fn focus_seq(env: &DynEnv) -> XdmResult<Sequence> {
    Ok(seq![env.focus()?.item.clone()])
}

fn opt_string(v: Sequence, store: &Store) -> XdmResult<String> {
    match item::zero_or_one(v)? {
        None => Ok(String::new()),
        Some(x) => x.string_value(store),
    }
}

fn one_atomic(v: Sequence, store: &Store) -> XdmResult<Atomic> {
    item::exactly_one(v)?.atomize(store)
}

fn one_integer(v: Sequence, store: &Store) -> XdmResult<i64> {
    one_atomic(v, store)?.to_integer()
}

fn one_double(v: Sequence, store: &Store) -> XdmResult<f64> {
    one_atomic(v, store)?.to_double()
}

/// In min/max, untyped values compare as doubles (the F&O rule).
fn coerce_comparable(a: Atomic) -> XdmResult<Atomic> {
    match a {
        Atomic::Untyped(s) => xqdm::atomic::parse_double(&s)
            .map(Atomic::Double)
            .ok_or_else(|| XdmError::value("FORG0001", format!("cannot cast \"{s}\" to double"))),
        other => Ok(other),
    }
}

/// Sum, preserving integer-ness when every operand is an integer.
fn sum_numeric(atoms: &[Atomic]) -> XdmResult<Sequence> {
    if atoms.iter().all(|a| matches!(a, Atomic::Integer(_))) {
        let mut acc: i64 = 0;
        for a in atoms {
            if let Atomic::Integer(i) = a {
                acc = acc
                    .checked_add(*i)
                    .ok_or_else(|| XdmError::value("FOAR0002", "integer overflow in sum"))?;
            }
        }
        return Ok(seq![Item::integer(acc)]);
    }
    let mut acc = 0.0;
    for a in atoms {
        acc += match a {
            Atomic::Untyped(_) => coerce_comparable(a.clone())?.to_double()?,
            other => other.to_double()?,
        };
    }
    Ok(seq![Item::double(acc)])
}
