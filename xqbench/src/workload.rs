//! The four workloads: their documents, their seeded request streams, and
//! the oracle that says what every read must return.
//!
//! Everything the server sees is generated here from `--seed`.

use std::collections::HashMap;
use xquery_bang::xmarkgen::{Scale, XmarkGen};
use xquery_bang::Engine;

/// XMark scale for every workload: ≈800 persons, ≈300 closed auctions,
/// ≈360 KiB of XML.
pub const XMARK_FACTOR: f64 = 0.0314;
/// Distinct person ids `point_read` and `log_commit` draw from: 64 query
/// texts, which fit the server's 256-entry shared plan cache.
pub const POOL: usize = 64;
/// The `log_commit` document. The variable must be `doc`: recovery rebinds
/// the first recovered document to `$doc`.
pub const LOG_XML: &str = "<log next=\"0\"/>";

/// §4.3's Q8 variant without its updates (the text `crates/bench` calls
/// `Q8_PURE_VARIANT`): a join of persons with closed auctions.
const Q8_PURE: &str = r#"
for $p in $auction//person
let $a :=
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return $t
return concat(string($p/name), ":", string(count($a)), ":",
              string(count($a/itemref)))"#;
const SUM_PRICES: &str = "sum($auction//closed_auction/price)";
/// Unselective on purpose: the planner's index cost gate must decline.
const COUNT_ITEMS: &str = "count($auction//item[quantity > 3])";
/// One constructed element per person: serialization dominates.
const CONSTRUCT: &str =
    "for $p in $auction//person return <item person=\"{$p/name}\">{string($p/@id)}</item>";
const JOIN_SCAN: [&str; 4] = [Q8_PURE, SUM_PRICES, COUNT_ITEMS, CONSTRUCT];

/// The §2.5 `nextid` shape: read the shared counter, bump it, return what
/// was read. Every session runs this same text, so they contend.
const INCREMENT: &str = "let $c := $bench/bench/counter return \
     (replace value of { $c/@v } with { xs:integer($c/@v) + 1 }, string($c/@v))";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointRead,
    JoinScan,
    LogCommit,
    MixedSessions,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::PointRead,
    Workload::JoinScan,
    Workload::LogCommit,
    Workload::MixedSessions,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::JoinScan => "join_scan",
            Workload::LogCommit => "log_commit",
            Workload::MixedSessions => "mixed_sessions",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client connections.
    pub fn connections(self) -> usize {
        match self {
            Workload::MixedSessions => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(4),
            _ => 1,
        }
    }

    /// Requests per latency sample. `join_scan` rotates four queries of very
    /// different cost; the median of single requests would sit on the
    /// boundary between two of the four modes and jump between them, so one
    /// sample is a whole rotation (its time ÷ 4).
    pub fn cycle(self) -> usize {
        match self {
            Workload::JoinScan => JOIN_SCAN.len(),
            _ => 1,
        }
    }

    /// Writes per write-latency sample: `mixed_sessions` alternates two
    /// kinds of write, so one sample is a pair (its time ÷ 2).
    pub fn write_cycle(self) -> usize {
        match self {
            Workload::MixedSessions => 2,
            _ => 1,
        }
    }

    /// Requests at the head of every stream that between them send each
    /// text the plan cache can hold once, so that timing starts with the
    /// cache as full as it will get however slow the server is.
    /// `mixed_sessions` has none: its texts do not fit, which is its point.
    pub fn prelude(self) -> usize {
        match self {
            Workload::PointRead | Workload::LogCommit => POOL,
            Workload::JoinScan => JOIN_SCAN.len(),
            Workload::MixedSessions => 0,
        }
    }

    /// Runs against `--store` (WAL, fsync `always`, checkpoints).
    pub fn durable(self) -> bool {
        self == Workload::LogCommit
    }

    /// `(variable, xml)` for each `--doc` the server is started with.
    pub fn documents(self, inputs: &Inputs) -> Vec<(&'static str, String)> {
        match self {
            Workload::PointRead | Workload::JoinScan => {
                vec![("auction", inputs.xmark_xml.clone())]
            }
            Workload::LogCommit => vec![("doc", LOG_XML.to_string())],
            Workload::MixedSessions => {
                let mut bench = String::from("<bench><counter v=\"0\"/>");
                for s in 0..self.connections() {
                    bench.push_str(&format!("<s{s}/>"));
                }
                bench.push_str("</bench>");
                vec![("auction", inputs.xmark_xml.clone()), ("bench", bench)]
            }
        }
    }

    /// One query per template the workload sends: the set `EXPLAIN` is run
    /// over to count interpreter fallbacks.
    pub fn shapes(self) -> Vec<String> {
        match self {
            Workload::PointRead => vec![point_read(0)],
            Workload::JoinScan => JOIN_SCAN.iter().map(|q| q.to_string()).collect(),
            Workload::LogCommit => vec![log_append(0)],
            Workload::MixedSessions => vec![
                point_read(0),
                SUM_PRICES.to_string(),
                append(0, 0),
                INCREMENT.to_string(),
            ],
        }
    }

    /// Every distinct read the workload can send.
    fn read_texts(self, inputs: &Inputs) -> Vec<String> {
        match self {
            Workload::PointRead => inputs.pool.iter().map(|&k| point_read(k)).collect(),
            Workload::JoinScan => JOIN_SCAN.iter().map(|q| q.to_string()).collect(),
            Workload::LogCommit => Vec::new(),
            Workload::MixedSessions => (0..inputs.persons)
                .map(point_read)
                .chain([SUM_PRICES.to_string()])
                .collect(),
        }
    }
}

fn point_read(person: usize) -> String {
    format!("$auction//person[@id = \"person{person}\"]/name")
}

/// The §2 logging call: take the next id, bump it, append the entry,
/// return the id.
fn log_append(person: usize) -> String {
    format!(
        "let $l := $doc/log let $n := xs:integer($l/@next) return \
         (replace value of {{ $l/@next }} with {{ $n + 1 }}, \
         insert {{ <entry id=\"{{$n}}\" user=\"person{person}\"/> }} into {{ $l }}, $n)"
    )
}

fn append(session: usize, n: u64) -> String {
    format!("insert {{ <e n=\"{n}\"/> }} into {{ $bench/bench/s{session} }}")
}

/// SplitMix64: seeded, deterministic, good enough to pick ids.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What `--seed` generates before any request is sent.
pub struct Inputs {
    pub seed: u64,
    pub xmark_xml: String,
    pub persons: usize,
    /// `POOL` distinct person indices.
    pub pool: Vec<usize>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let scale = Scale::factor(XMARK_FACTOR);
        let xmark_xml = XmarkGen::new(seed)
            .generate_xml(&scale)
            .expect("xmarkgen builds a well-formed document");
        let mut rng = Rng::new(seed ^ 0x706f_6f6c);
        let mut pool = Vec::with_capacity(POOL);
        while pool.len() < POOL {
            let k = rng.below(scale.persons);
            if !pool.contains(&k) {
                pool.push(k);
            }
        }
        Inputs {
            seed,
            xmark_xml,
            persons: scale.persons,
            pool,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A pure query; the oracle knows its body.
    Read,
    /// `log_commit`'s request; replies with the id it took.
    LogAppend,
    /// `mixed_sessions`: append `<e n=…>` to the session's own container.
    Append(u64),
    /// `mixed_sessions`: bump the shared counter; replies with the value read.
    Increment,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub text: String,
    pub kind: Kind,
}

/// One connection's endless request stream, a function of
/// `(workload, seed, session)` alone.
pub struct Stream<'a> {
    workload: Workload,
    inputs: &'a Inputs,
    session: usize,
    rng: Rng,
    sent: u64,
    reads: u64,
    writes: u64,
}

impl<'a> Stream<'a> {
    pub fn new(workload: Workload, inputs: &'a Inputs, session: usize) -> Stream<'a> {
        let salt = (workload as u64 + 1) << 32 | session as u64;
        Stream {
            workload,
            inputs,
            session,
            rng: Rng::new(inputs.seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ salt),
            sent: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// The pool in order during the prelude, then uniformly at random.
    fn pooled(&mut self, i: u64) -> usize {
        match self.inputs.pool.get(i as usize) {
            Some(&k) => k,
            None => self.inputs.pool[self.rng.below(POOL)],
        }
    }

    pub fn next_request(&mut self) -> Request {
        let i = self.sent;
        self.sent += 1;
        let read = |text: String| Request {
            text,
            kind: Kind::Read,
        };
        match self.workload {
            Workload::PointRead => {
                let k = self.pooled(i);
                read(point_read(k))
            }
            Workload::JoinScan => read(JOIN_SCAN[i as usize % JOIN_SCAN.len()].to_string()),
            Workload::LogCommit => Request {
                text: log_append(self.pooled(i)),
                kind: Kind::LogAppend,
            },
            // 7 reads : 1 write. Reads range over every person, so their
            // ≈800 texts overflow the 256-entry plan cache; every 16th read
            // is an aggregate. Writes alternate a disjoint append with an
            // increment of the counter all sessions share.
            Workload::MixedSessions if i % 8 == 7 => {
                let w = self.writes;
                self.writes += 1;
                if w.is_multiple_of(2) {
                    Request {
                        text: append(self.session, w / 2),
                        kind: Kind::Append(w / 2),
                    }
                } else {
                    Request {
                        text: INCREMENT.to_string(),
                        kind: Kind::Increment,
                    }
                }
            }
            Workload::MixedSessions => {
                let r = self.reads;
                self.reads += 1;
                if r % 16 == 15 {
                    read(SUM_PRICES.to_string())
                } else {
                    let k = self.rng.below(self.inputs.persons);
                    read(point_read(k))
                }
            }
        }
    }
}

/// FNV-1a, 64 bits.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Expected reply bodies (length and hash) for every read a workload can
/// send, computed by the interpreter — the repository's reference
/// evaluator, which shares no plan code with what the server runs.
pub struct Oracle {
    expected: HashMap<String, (usize, u64)>,
}

impl Oracle {
    pub fn build(workload: Workload, inputs: &Inputs) -> Result<Oracle, String> {
        let mut expected = HashMap::new();
        let texts = workload.read_texts(inputs);
        if !texts.is_empty() {
            let mut engine = Engine::new();
            engine.set_compile(false);
            engine
                .load_document("auction", &inputs.xmark_xml)
                .map_err(|e| format!("oracle: load document: {e}"))?;
            for text in texts {
                let value = engine
                    .run(&text)
                    .map_err(|e| format!("oracle: {text}: {e}"))?;
                let body = engine
                    .serialize(&value)
                    .map_err(|e| format!("oracle: serialize {text}: {e}"))?;
                expected.insert(text, (body.len(), fnv64(body.as_bytes())));
            }
        }
        Ok(Oracle { expected })
    }

    /// Does `body` match what the interpreter returned for `text`?
    pub fn matches(&self, text: &str, body: &[u8]) -> bool {
        self.expected
            .get(text)
            .is_some_and(|&(len, hash)| len == body.len() && hash == fnv64(body))
    }
}

/// What one session has been told so far, and the judge of every reply —
/// the same for replies that came over TCP and from an in-process session.
pub struct Ledger<'a> {
    oracle: &'a Oracle,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, verbatim.
    pub complaints: Vec<String>,
    /// `log_commit`: commits acknowledged = the id the next one must return.
    pub log_acked: u64,
    /// `mixed_sessions`: the `n` of every acknowledged append, and the
    /// counter value every acknowledged increment returned.
    pub appends_acked: Vec<u64>,
    pub increments_seen: Vec<u64>,
}

impl<'a> Ledger<'a> {
    pub fn new(oracle: &'a Oracle) -> Ledger<'a> {
        Ledger {
            oracle,
            attempted: 0,
            failed: 0,
            complaints: Vec::new(),
            log_acked: 0,
            appends_acked: Vec::new(),
            increments_seen: Vec::new(),
        }
    }

    pub fn complain(&mut self, what: String) {
        self.failed += 1;
        if self.complaints.len() < 5 {
            self.complaints.push(what);
        }
    }

    /// Judge the reply to a stream request: its body, or the error it came
    /// back as. Returns whether it passed.
    pub fn judge(&mut self, request: &Request, reply: Result<&[u8], String>) -> bool {
        self.attempted += 1;
        match reply.and_then(|body| self.check(request, body)) {
            Ok(()) => true,
            Err(why) => {
                self.complain(format!("{why} ← {}", request.text));
                false
            }
        }
    }

    fn check(&mut self, request: &Request, body: &[u8]) -> Result<(), String> {
        let text = String::from_utf8_lossy(body);
        let number = || {
            text.parse::<u64>()
                .map_err(|_| format!("not a number: {text:?}"))
        };
        match request.kind {
            Kind::Read if self.oracle.matches(&request.text, body) => Ok(()),
            Kind::Read => Err(format!(
                "body of {} bytes differs from the interpreter's",
                body.len()
            )),
            Kind::LogAppend => {
                // Acknowledged whatever it says: the commit happened.
                let expected = self.log_acked;
                self.log_acked += 1;
                match number()? {
                    id if id == expected => Ok(()),
                    id => Err(format!("took id {id}, expected {expected}")),
                }
            }
            Kind::Append(n) => {
                self.appends_acked.push(n);
                match body.is_empty() {
                    true => Ok(()),
                    false => Err(format!("append replied {text:?}")),
                }
            }
            Kind::Increment => {
                self.increments_seen.push(number()?);
                Ok(())
            }
        }
    }

    /// Judge a checking read made outside the stream.
    pub fn expect(&mut self, what: &str, reply: Result<&[u8], String>, expected: &str) {
        self.attempted += 1;
        let shown = |s: &str| s.chars().take(80).collect::<String>();
        match reply {
            Ok(body) if body == expected.as_bytes() => {}
            Ok(body) => self.complain(format!(
                "{what}: got {:?}, expected {:?}",
                shown(&String::from_utf8_lossy(body)),
                shown(expected)
            )),
            Err(e) => self.complain(format!("{what}: {e}")),
        }
    }
}

/// Did the acknowledged increments of all `ledgers` each read a different
/// counter value, `0..n` between them? Returns `n`, or what went wrong.
pub fn increments_serialized(ledgers: &[&Ledger]) -> Result<u64, String> {
    let mut seen: Vec<u64> = ledgers
        .iter()
        .flat_map(|l| l.increments_seen.iter().copied())
        .collect();
    seen.sort_unstable();
    let n = seen.len() as u64;
    match seen == (0..n).collect::<Vec<u64>>() {
        true => Ok(n),
        false => Err(format!(
            "the {n} acknowledged increments did not each read a distinct value of 0..{n}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(workload: Workload, inputs: &Inputs, session: usize, n: usize) -> Vec<Request> {
        let mut s = Stream::new(workload, inputs, session);
        (0..n).map(|_| s.next_request()).collect()
    }

    #[test]
    fn same_seed_same_requests_and_documents() {
        let a = Inputs::generate(11);
        let b = Inputs::generate(11);
        assert_eq!(a.xmark_xml, b.xmark_xml);
        assert_eq!(a.pool, b.pool);
        for w in WORKLOADS {
            assert_eq!(first(w, &a, 0, 300), first(w, &b, 0, 300), "{}", w.name());
            assert_eq!(w.documents(&a), w.documents(&b));
        }
    }

    #[test]
    fn seed_and_session_change_the_stream() {
        let a = Inputs::generate(11);
        let c = Inputs::generate(12);
        assert_ne!(a.xmark_xml, c.xmark_xml);
        assert_ne!(
            first(Workload::PointRead, &a, 0, 50),
            first(Workload::PointRead, &c, 0, 50)
        );
        assert_ne!(
            first(Workload::MixedSessions, &a, 0, 50),
            first(Workload::MixedSessions, &a, 1, 50)
        );
    }

    #[test]
    fn point_read_stays_inside_its_pool() {
        let inputs = Inputs::generate(3);
        assert_eq!(inputs.pool.len(), POOL);
        let texts: std::collections::HashSet<String> = first(Workload::PointRead, &inputs, 0, 2000)
            .into_iter()
            .map(|r| r.text)
            .collect();
        assert_eq!(texts.len(), POOL);
        let prelude: std::collections::HashSet<String> = first(
            Workload::PointRead,
            &inputs,
            0,
            Workload::PointRead.prelude(),
        )
        .into_iter()
        .map(|r| r.text)
        .collect();
        assert_eq!(prelude, texts, "the prelude sends every text once");
    }

    #[test]
    fn mixed_sessions_is_seven_reads_to_one_write() {
        let inputs = Inputs::generate(3);
        let reqs = first(Workload::MixedSessions, &inputs, 1, 1600);
        let writes: Vec<&Request> = reqs.iter().filter(|r| r.kind != Kind::Read).collect();
        assert_eq!(writes.len(), 200);
        let appends: Vec<u64> = writes
            .iter()
            .filter_map(|r| match r.kind {
                Kind::Append(n) => Some(n),
                _ => None,
            })
            .collect();
        assert_eq!(appends, (0..100).collect::<Vec<u64>>());
        assert!(writes[0].text.contains("$bench/bench/s1"));
        let aggregates = reqs.iter().filter(|r| r.text == SUM_PRICES).count();
        assert_eq!(aggregates, 1400 / 16);
        let distinct: std::collections::HashSet<&str> =
            reqs.iter().map(|r| r.text.as_str()).collect();
        assert!(distinct.len() > 256, "overflows the plan cache");
    }

    #[test]
    fn oracle_accepts_the_right_body_only() {
        let inputs = Inputs::generate(5);
        let oracle = Oracle::build(Workload::JoinScan, &inputs).unwrap();
        let mut engine = Engine::new();
        engine.load_document("auction", &inputs.xmark_xml).unwrap();
        for q in JOIN_SCAN {
            let v = engine.run(q).unwrap();
            let body = engine.serialize(&v).unwrap();
            assert!(
                oracle.matches(q, body.as_bytes()),
                "compiled ≠ interpreted: {q}"
            );
            assert!(!oracle.matches(q, &body.as_bytes()[1..]));
        }
        assert!(!oracle.matches("1 + 1", b"2"), "unknown text never matches");
    }

    #[test]
    fn ledger_judges_writes_by_what_was_acknowledged() {
        let inputs = Inputs::generate(5);
        let oracle = Oracle::build(Workload::LogCommit, &inputs).unwrap();
        let request = |kind| Request {
            text: String::new(),
            kind,
        };
        let mut ledger = Ledger::new(&oracle);
        assert!(ledger.judge(&request(Kind::LogAppend), Ok(b"0")));
        assert!(ledger.judge(&request(Kind::LogAppend), Ok(b"1")));
        assert!(
            !ledger.judge(&request(Kind::LogAppend), Ok(b"1")),
            "a repeated id"
        );
        assert_eq!(ledger.log_acked, 3, "acknowledged even when wrong");
        assert!(ledger.judge(&request(Kind::Append(4)), Ok(b"")));
        assert!(!ledger.judge(
            &request(Kind::Append(5)),
            Err("ERR XQB0052 conflict".into())
        ));
        assert_eq!(
            ledger.appends_acked,
            vec![4],
            "an error acknowledges nothing"
        );
        assert!(ledger.judge(&request(Kind::Increment), Ok(b"1")));
        assert!(ledger.judge(&request(Kind::Increment), Ok(b"0")));
        assert!(!ledger.judge(&request(Kind::Read), Ok(b"anything")));
        ledger.expect("counter", Ok(b"2"), "2");
        ledger.expect("counter", Ok(b"3"), "2");
        assert_eq!((ledger.attempted, ledger.failed), (10, 4));
        assert_eq!(increments_serialized(&[&ledger]), Ok(2));
        ledger.increments_seen.push(0);
        assert!(
            increments_serialized(&[&ledger]).is_err(),
            "0 was read twice"
        );
    }
}
