//! The built-in function library.
//!
//! The F&O subset that the paper's queries (and any realistic XQuery
//! workload) need: sequence functions, aggregates, string functions,
//! numerics, node functions, and the `xs:` constructor casts. Arguments
//! arrive fully evaluated, left to right, per the paper's function-call
//! rule.
//!
//! Every built-in is one row of [`BUILTINS`]: a name, an arity range and
//! a [`Kind`]. Whether a call is built-in, and what it may do, is asked
//! of the row [`builtin`] finds for the call's name *and* arity — by the
//! call rule, the effect judgment, the checker and the `//` fusion alike.

use crate::env::{DynEnv, Scope};
use xqdm::atomic::{value_compare, Atomic, CompareOp};
use xqdm::item::{self, Item, Sequence};
use xqdm::seq;
use xqdm::{Store, XdmError, XdmResult};

/// What a built-in may do besides reading its arguments and the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reads the store and the focus item only.
    Read,
    /// Reads the focus position (`fn:position`, `fn:last`), so a path
    /// predicate calling it cannot be evaluated over a fused `//` walk.
    Position,
    /// Rated `Pure`, yet no rewrite may move, repeat or drop it:
    /// `fn:trace` writes to stderr, whose line order would change, and
    /// `xqb:stats` / `xqb:reset-stats` read or clear registry state.
    Opaque,
    /// Needs `&mut Store` (`fn:parse-xml` allocates the parsed document,
    /// `parse_xml`); as opaque to the purity verdict as [`Kind::Opaque`].
    MutStore,
    /// The failure-injection hook `xqb:panic`: it panics at any arity, so
    /// tests can exercise the engine's panic isolation (catch + store
    /// rollback), and is rated like an unresolved call.
    Panic,
}

/// One row of [`BUILTINS`].
#[derive(Debug)]
pub struct Builtin {
    /// An `fn:` function's local name (a call may omit the prefix), else
    /// the prefixed name.
    pub name: &'static str,
    /// The fewest arguments it takes.
    pub min: usize,
    /// The most arguments it takes; [`MANY`] for a variadic one.
    pub max: usize,
    /// What a call may do.
    pub kind: Kind,
    id: Id,
}

/// The `max` of a variadic built-in.
pub const MANY: usize = usize::MAX;

impl Builtin {
    /// Is the value always one boolean, so that a path predicate calling
    /// it is never a position test?
    pub(crate) fn boolean(&self) -> bool {
        matches!(
            self.id,
            Id::Not | Id::Exists | Id::Empty | Id::Boolean | Id::True | Id::False
        )
    }
}

/// Declares [`BUILTINS`], one row per line, with the `Id` each row's
/// body is matched on and the name `match` [`builtin`] looks rows up by.
macro_rules! builtins {
    ($($name:literal => $id:ident, $min:literal, $max:expr, $kind:ident;)*) => {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Id {
            $($id),*
        }

        /// Every built-in function, one row per name.
        pub const BUILTINS: &[Builtin] = &[$(Builtin {
            name: $name,
            min: $min,
            max: $max,
            kind: Kind::$kind,
            id: Id::$id,
        }),*];

        /// The row named `key`: one `match`, not a scan.
        fn row(key: &str) -> Option<&'static Builtin> {
            let id = match key {
                $($name => Id::$id,)*
                _ => return None,
            };
            Some(&BUILTINS[id as usize])
        }
    };
}

builtins! {
    // sequences
    "count" => Count, 1, 1, Read;
    "empty" => Empty, 1, 1, Read;
    "exists" => Exists, 1, 1, Read;
    "not" => Not, 1, 1, Read;
    "boolean" => Boolean, 1, 1, Read;
    "distinct-values" => DistinctValues, 1, 1, Read;
    "reverse" => Reverse, 1, 1, Read;
    "subsequence" => Subsequence, 2, 3, Read;
    "insert-before" => InsertBefore, 3, 3, Read;
    "remove" => Remove, 2, 2, Read;
    "index-of" => IndexOf, 2, 2, Read;
    "exactly-one" => ExactlyOne, 1, 1, Read;
    "zero-or-one" => ZeroOrOne, 1, 1, Read;
    "one-or-more" => OneOrMore, 1, 1, Read;
    "head" => Head, 1, 1, Read;
    "tail" => Tail, 1, 1, Read;
    // focus
    "position" => Position, 0, 0, Position;
    "last" => Last, 0, 0, Position;
    // strings
    "string" => String, 0, 1, Read;
    "string-length" => StringLength, 0, 1, Read;
    "data" => Data, 1, 1, Read;
    "number" => Number, 0, 1, Read;
    "concat" => Concat, 2, MANY, Read;
    "string-join" => StringJoin, 2, 2, Read;
    "contains" => Contains, 2, 2, Read;
    "starts-with" => StartsWith, 2, 2, Read;
    "ends-with" => EndsWith, 2, 2, Read;
    "substring" => Substring, 2, 3, Read;
    "substring-before" => SubstringBefore, 2, 2, Read;
    "substring-after" => SubstringAfter, 2, 2, Read;
    "upper-case" => UpperCase, 1, 1, Read;
    "lower-case" => LowerCase, 1, 1, Read;
    "normalize-space" => NormalizeSpace, 0, 1, Read;
    "translate" => Translate, 3, 3, Read;
    // numerics and aggregates
    "sum" => Sum, 1, 2, Read;
    "avg" => Avg, 1, 1, Read;
    "min" => Min, 1, 1, Read;
    "max" => Max, 1, 1, Read;
    "abs" => Abs, 1, 1, Read;
    "round" => Round, 1, 1, Read;
    "floor" => Floor, 1, 1, Read;
    "ceiling" => Ceiling, 1, 1, Read;
    // nodes
    "name" => Name, 0, 1, Read;
    "local-name" => LocalName, 0, 1, Read;
    "root" => Root, 0, 1, Read;
    "deep-equal" => DeepEqual, 2, 2, Read;
    "serialize" => Serialize, 1, 1, Read;
    "parse-xml" => ParseXml, 1, 1, MutStore;
    // misc
    "true" => True, 0, 0, Read;
    "false" => False, 0, 0, Read;
    "error" => Error, 0, 1, Read;
    "trace" => Trace, 2, 2, Opaque;
    // casts
    "xs:integer" => XsInteger, 1, 1, Read;
    "xs:string" => XsString, 1, 1, Read;
    "xs:double" => XsDouble, 1, 1, Read;
    "xs:boolean" => XsBoolean, 1, 1, Read;
    // normalization targets: attribute value templates, `intersect`, `except`
    "fs:avt" => Avt, 1, 1, Read;
    "fs:intersect" => Intersect, 2, 2, Read;
    "fs:except" => Except, 2, 2, Read;
    // engine introspection
    "xqb:explain" => Explain, 1, 1, Read;
    "xqb:fingerprint" => Fingerprint, 0, 0, Read;
    "xqb:stats" => Stats, 0, 0, Opaque;
    "xqb:reset-stats" => ResetStats, 0, 0, Opaque;
    "xqb:panic" => Panic, 0, MANY, Panic;
}

/// The built-in a call of `name` with `arity` arguments runs, if any —
/// the `fn:` prefix is optional, as in XQuery's default function
/// namespace.
///
/// The resolution order, for every consumer: a row wins at its arities,
/// as every program that runs relies on — a declared function of the same
/// name and arity is never called (the checker warns, `XQB0103`). At any
/// other arity the call goes to the declared functions like any other
/// (a declared `count#3` is called), and a call that resolves to neither
/// raises `XPST0017` (`unresolved`).
pub fn builtin(name: &str, arity: usize) -> Option<&'static Builtin> {
    row(name.strip_prefix("fn:").unwrap_or(name)).filter(|f| (f.min..=f.max).contains(&arity))
}

/// The `XPST0017` of a call that is neither a built-in nor declared at its
/// arity; "wrong number of arguments" when the name has a row.
pub(crate) fn unresolved(name: &str, arity: usize) -> XdmError {
    let message = match row(name.strip_prefix("fn:").unwrap_or(name)) {
        Some(f) if f.name.contains(':') => {
            format!("wrong number of arguments ({arity}) for {}", f.name)
        }
        Some(f) => format!("wrong number of arguments ({arity}) for fn:{}", f.name),
        None => format!("undefined function {name}#{arity}"),
    };
    XdmError::new("XPST0017", message)
}

/// `fn:parse-xml`, the [`Kind::MutStore`] row: the parsed document's nodes
/// are allocated in `store`; `max_depth` is the run's element-nesting
/// bound (`Limits::max_xml_depth`).
pub(crate) fn parse_xml(
    store: &mut Store,
    args: Vec<Sequence>,
    max_depth: usize,
) -> XdmResult<Sequence> {
    let s = opt_string(args.into_iter().next().unwrap_or_default(), store)?;
    let doc = xqdm::xml::parse_document_with_limit(store, &s, max_depth)?;
    Ok(seq![Item::Node(doc)])
}

/// Run built-in `f` with `args` — as many as its row allows — over
/// `&Store`, which every row but the [`Kind::MutStore`] one ([`parse_xml`])
/// needs at most.
pub(crate) fn call(
    f: &Builtin,
    args: Vec<Sequence>,
    store: &Store,
    scope: &Scope,
    env: &DynEnv,
) -> XdmResult<Sequence> {
    let nargs = args.len();
    let mut it = args.into_iter();
    let mut next = move || it.next().unwrap_or_default();

    match f.id {
        // ---------- sequences ----------
        Id::Count => Ok(seq![Item::integer(next().len() as i64)]),
        Id::Empty => Ok(seq![Item::boolean(next().is_empty())]),
        Id::Exists => Ok(seq![Item::boolean(!next().is_empty())]),
        Id::Not => Ok(seq![Item::boolean(!item::effective_boolean(
            &next(),
            store,
        )?)]),
        Id::Boolean => Ok(seq![Item::boolean(item::effective_boolean(
            &next(),
            store,
        )?)]),
        Id::DistinctValues => {
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
        Id::Reverse => {
            let mut v = next();
            v.reverse();
            Ok(v)
        }
        Id::Subsequence => {
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
        Id::InsertBefore => {
            let seq = next();
            let pos = one_integer(next(), store)?.max(1) as usize;
            let ins = next();
            let at = (pos - 1).min(seq.len());
            let mut out = seq.into_vec();
            out.splice(at..at, ins);
            Ok(out.into())
        }
        Id::Remove => {
            let seq = next();
            let pos = one_integer(next(), store)?;
            Ok(seq
                .into_iter()
                .enumerate()
                .filter(|(i, _)| (*i + 1) as i64 != pos)
                .map(|(_, x)| x)
                .collect())
        }
        Id::IndexOf => {
            let seq = item::atomize(&next(), store)?;
            let target = one_atomic(next(), store)?;
            Ok(seq
                .iter()
                .enumerate()
                .filter(|(_, a)| matches!(value_compare(CompareOp::Eq, a, &target), Ok(true)))
                .map(|(i, _)| Item::integer((i + 1) as i64))
                .collect())
        }
        Id::ExactlyOne => {
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
        Id::ZeroOrOne => {
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
        Id::OneOrMore => {
            let v = next();
            if v.is_empty() {
                Err(XdmError::value("FORG0004", "fn:one-or-more called with ()"))
            } else {
                Ok(v)
            }
        }
        Id::Head => Ok(next().into_iter().take(1).collect()),
        Id::Tail => Ok(next().into_iter().skip(1).collect()),
        // ---------- focus ----------
        Id::Position => Ok(seq![Item::integer(env.focus()?.position as i64)]),
        Id::Last => Ok(seq![Item::integer(env.focus()?.size as i64)]),
        // ---------- strings ----------
        Id::String => {
            let v = if nargs == 0 { focus_seq(env)? } else { next() };
            match item::zero_or_one(v)? {
                None => Ok(seq![Item::string("")]),
                Some(x) => Ok(seq![Item::string(x.string_value(store)?)]),
            }
        }
        Id::StringLength => {
            let v = if nargs == 0 { focus_seq(env)? } else { next() };
            let s = opt_string(v, store)?;
            Ok(seq![Item::integer(s.chars().count() as i64)])
        }
        Id::Data => Ok(item::atomize(&next(), store)?
            .into_iter()
            .map(Item::Atomic)
            .collect()),
        Id::Number => {
            let v = if nargs == 0 { focus_seq(env)? } else { next() };
            let d = match item::zero_or_one(v)? {
                None => f64::NAN,
                Some(x) => x.atomize(store)?.to_double().unwrap_or(f64::NAN),
            };
            Ok(seq![Item::double(d)])
        }
        Id::Concat => {
            let mut out = String::new();
            for _ in 0..nargs {
                if let Some(x) = item::zero_or_one(next())? {
                    out.push_str(&x.string_value(store)?);
                }
            }
            Ok(seq![Item::string(out)])
        }
        Id::StringJoin => {
            let seq = next();
            let sep = opt_string(next(), store)?;
            let parts: Vec<String> = seq
                .iter()
                .map(|i| i.string_value(store))
                .collect::<XdmResult<_>>()?;
            Ok(seq![Item::string(parts.join(&sep))])
        }
        Id::Contains => {
            let (a, b) = (opt_string(next(), store)?, opt_string(next(), store)?);
            Ok(seq![Item::boolean(a.contains(&b))])
        }
        Id::StartsWith => {
            let (a, b) = (opt_string(next(), store)?, opt_string(next(), store)?);
            Ok(seq![Item::boolean(a.starts_with(&b))])
        }
        Id::EndsWith => {
            let (a, b) = (opt_string(next(), store)?, opt_string(next(), store)?);
            Ok(seq![Item::boolean(a.ends_with(&b))])
        }
        Id::Substring => {
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
        Id::SubstringBefore => {
            let (a, b) = (opt_string(next(), store)?, opt_string(next(), store)?);
            Ok(seq![Item::string(
                a.find(&b).map(|i| a[..i].to_string()).unwrap_or_default(),
            )])
        }
        Id::SubstringAfter => {
            let (a, b) = (opt_string(next(), store)?, opt_string(next(), store)?);
            Ok(seq![Item::string(
                a.find(&b)
                    .map(|i| a[i + b.len()..].to_string())
                    .unwrap_or_default(),
            )])
        }
        Id::UpperCase => Ok(seq![Item::string(
            opt_string(next(), store)?.to_uppercase(),
        )]),
        Id::LowerCase => Ok(seq![Item::string(
            opt_string(next(), store)?.to_lowercase(),
        )]),
        Id::NormalizeSpace => {
            let v = if nargs == 0 { focus_seq(env)? } else { next() };
            let s = opt_string(v, store)?;
            Ok(seq![Item::string(
                s.split_whitespace().collect::<Vec<_>>().join(" "),
            )])
        }
        Id::Translate => {
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
        Id::Sum => {
            let items = next();
            if items.is_empty() {
                return if nargs == 2 {
                    Ok(next())
                } else {
                    Ok(seq![Item::integer(0)])
                };
            }
            sum_items(&items, store)
        }
        Id::Avg => {
            let items = next();
            if items.is_empty() {
                return Ok(seq![]);
            }
            let n = items.len() as f64;
            let total = sum_items(&items, store)?[0].atomize(store)?.to_double()?;
            Ok(seq![Item::double(total / n)])
        }
        Id::Min | Id::Max => {
            let atoms = item::atomize(&next(), store)?;
            if atoms.is_empty() {
                return Ok(seq![]);
            }
            let op = if f.id == Id::Max {
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
        Id::Abs | Id::Round | Id::Floor | Id::Ceiling => match item::zero_or_one(next())? {
            None => Ok(seq![]),
            Some(x) => match x.atomize(store)? {
                Atomic::Integer(i) => Ok(seq![Item::integer(if f.id == Id::Abs {
                    i.abs()
                } else {
                    i
                })]),
                a => {
                    let d = a.to_double()?;
                    let r = match f.id {
                        Id::Abs => d.abs(),
                        Id::Round => (d + 0.5).floor(),
                        Id::Floor => d.floor(),
                        _ => d.ceil(),
                    };
                    Ok(seq![Item::double(r)])
                }
            },
        },
        // ---------- nodes ----------
        Id::Name | Id::LocalName => {
            let v = if nargs == 0 { focus_seq(env)? } else { next() };
            match item::zero_or_one(v)? {
                None => Ok(seq![Item::string("")]),
                Some(Item::Node(n)) => {
                    let s = match store.name(n)? {
                        None => String::new(),
                        Some(q) if f.id == Id::LocalName => q.local,
                        Some(q) => q.to_string(),
                    };
                    Ok(seq![Item::string(s)])
                }
                Some(Item::Atomic(_)) => Err(XdmError::type_error(format!(
                    "fn:{} expects a node argument",
                    f.name
                ))),
            }
        }
        Id::Root => {
            let v = if nargs == 0 { focus_seq(env)? } else { next() };
            match item::zero_or_one(v)? {
                None => Ok(seq![]),
                Some(Item::Node(n)) => Ok(seq![Item::Node(store.root(n)?)]),
                Some(Item::Atomic(_)) => {
                    Err(XdmError::type_error("fn:root expects a node argument"))
                }
            }
        }
        Id::DeepEqual => {
            let (a, b) = (next(), next());
            Ok(seq![Item::boolean(item::deep_equal(&a, &b, store)?)])
        }
        Id::Serialize => {
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
        Id::ParseXml => unreachable!("fn:parse-xml needs &mut Store: see parse_xml"),
        // ---------- misc ----------
        Id::True => Ok(seq![Item::boolean(true)]),
        Id::False => Ok(seq![Item::boolean(false)]),
        Id::Error => {
            let msg = if nargs == 0 {
                "fn:error called".to_string()
            } else {
                opt_string(next(), store)?
            };
            Err(XdmError::new("FOER0000", msg))
        }
        Id::Trace => {
            let v = next();
            let label = opt_string(next(), store)?;
            eprintln!("trace[{label}]: {} item(s)", v.len());
            Ok(v)
        }
        // ---------- casts ----------
        Id::XsInteger => match item::zero_or_one(next())? {
            None => Ok(seq![]),
            Some(x) => Ok(seq![Item::integer(x.atomize(store)?.to_integer()?)]),
        },
        Id::XsString => match item::zero_or_one(next())? {
            None => Ok(seq![]),
            Some(x) => Ok(seq![Item::string(x.string_value(store)?)]),
        },
        Id::XsDouble => match item::zero_or_one(next())? {
            None => Ok(seq![]),
            Some(x) => Ok(seq![Item::double(x.atomize(store)?.to_double()?)]),
        },
        Id::XsBoolean => match item::zero_or_one(next())? {
            None => Ok(seq![]),
            Some(x) => Ok(seq![Item::boolean(x.atomize(store)?.to_boolean()?)]),
        },
        // ---------- normalization targets ----------
        Id::Avt => {
            // Attribute-value-template rule: atomize the enclosed
            // expression's value and join with single spaces.
            let parts: Vec<String> = item::atomize(&next(), store)?
                .into_iter()
                .map(|a| a.string_value())
                .collect();
            Ok(seq![Item::string(parts.join(" "))])
        }
        Id::Intersect | Id::Except => {
            // Node identity semantics, document-order deduplicated result.
            let (a, b) = (next(), next());
            let left = item::all_nodes(&a)?;
            let right: std::collections::HashSet<_> = item::all_nodes(&b)?.into_iter().collect();
            let keep = f.id == Id::Intersect;
            let mut nodes: Vec<_> = left
                .into_iter()
                .filter(|n| right.contains(n) == keep)
                .collect();
            store.sort_and_dedup(&mut nodes)?;
            Ok(nodes.into_iter().map(Item::Node).collect())
        }
        // ---------- engine introspection ----------
        Id::Explain => {
            // EXPLAIN from inside the language: `Engine::explain` of the
            // argument query on the engine running this one. A syntax error
            // is `XPST0003`; only the parser's nesting bound is a limit trip.
            let query = item::exactly_one(next())?.string_value(store)?;
            let text = crate::engine::explain_query(scope.env(), store, &query).map_err(|e| {
                let code = if crate::limits::is_parse_depth_trip(&e) {
                    "XQB0040"
                } else {
                    "XPST0003"
                };
                XdmError::new(code, format!("xqb:explain: cannot parse query: {e}"))
            })?;
            Ok(seq![Item::string(text)])
        }
        // The canonical store hash (`Store::fingerprint`, hex-rendered):
        // recovery tests, the REPL, and differential tests compare it.
        Id::Fingerprint => Ok(seq![Item::string(format!("{:016x}", store.fingerprint()))]),
        // The process-wide metrics registry as one JSON string.
        Id::Stats => Ok(seq![Item::string(
            crate::obs::global().snapshot().to_json(),
        )]),
        // Zero every global counter/histogram and clear the slow-query ring.
        Id::ResetStats => {
            crate::obs::global().reset();
            Ok(seq![])
        }
        // Deliberately a panic, not an error — that is the point.
        Id::Panic => panic!("xqb:panic() called"),
    }
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
        Atomic::Untyped(s) => untyped_double(&s).map(Atomic::Double),
        other => Ok(other),
    }
}

/// An untyped value cast to a double, as min, max, sum and avg take it.
fn untyped_double(s: &str) -> XdmResult<f64> {
    xqdm::atomic::parse_double(s)
        .ok_or_else(|| XdmError::value("FORG0001", format!("cannot cast \"{s}\" to double")))
}

/// Sum, preserving integer-ness when every operand is an integer. A node
/// adds as its untyped value, read borrowed where the store holds it as
/// one string and parsed in place; the additions run in item order.
fn sum_items(items: &[Item], store: &Store) -> XdmResult<Sequence> {
    if items
        .iter()
        .all(|i| matches!(i, Item::Atomic(Atomic::Integer(_))))
    {
        let mut acc: i64 = 0;
        for i in items {
            if let Item::Atomic(Atomic::Integer(n)) = i {
                acc = acc
                    .checked_add(*n)
                    .ok_or_else(|| XdmError::value("FOAR0002", "integer overflow in sum"))?;
            }
        }
        return Ok(seq![Item::integer(acc)]);
    }
    let mut acc = 0.0;
    for i in items {
        acc += match i {
            Item::Node(n) => untyped_double(&store.string_value_cow(*n)?)?,
            Item::Atomic(Atomic::Untyped(s)) => untyped_double(s)?,
            Item::Atomic(a) => a.to_double()?,
        };
    }
    Ok(seq![Item::double(acc)])
}
