//! Resource governance: recursion-depth, fuel, deadline, and memory limits.
//!
//! PR 1 made snap application atomic, but stack overflows and runaway
//! queries bypass that frame entirely: they abort the process instead of
//! unwinding through the undo journal. This module turns every resource
//! exhaustion into an ordinary dynamic error that rolls back like any
//! other failure:
//!
//! | code      | limit                                   |
//! |-----------|-----------------------------------------|
//! | `XQB0040` | recursion / nesting depth               |
//! | `XQB0041` | evaluation-step fuel                    |
//! | `XQB0042` | wall-clock deadline                     |
//! | `XQB0043` | materialized-sequence / Δ memory budget |
//!
//! [`Limits`] is the plain config (engine builders, `XQB_*` env vars,
//! `xqbang` flags, REPL `:limits`). [`LimitGuard`] is the cheap runtime
//! check shared by every execution surface — interpreted evaluator,
//! compiled executor, and parallel workers. The guard is `Clone` and all
//! state is atomic, so one guard is shared across sibling workers: the
//! first worker to exceed a limit trips the guard and every sibling's next
//! [`LimitGuard::tick`] observes the trip and unwinds with the same error
//! class (cooperative first-exceeder cancellation).
//!
//! When no fuel/deadline/memory limit is armed, `tick()` is a single
//! branch on an inline bool — measured ≤2% on the XMark Q8 hot path
//! (`e13_limits_overhead`).

use std::sync::atomic::{AtomicI64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xqdm::error::{XdmError, XdmResult};

/// Default maximum evaluator recursion depth (user-function calls plus
/// nested plan execution). Matches the 64 MiB dedicated eval stack.
pub const DEFAULT_MAX_DEPTH: usize = 512;

/// Default maximum element nesting depth accepted by the XML parser
/// (iterative, so this bounds pathological documents, not the stack).
pub use xqdm::xml::DEFAULT_MAX_XML_DEPTH;
/// Default maximum expression nesting depth accepted by the `xqsyn`
/// recursive-descent parser.
pub use xqsyn::DEFAULT_MAX_PARSE_DEPTH;

/// How many ticks pass between deadline polls. `Instant::now()` is a
/// syscall-ish operation; polling every tick would dominate the hot path.
const DEADLINE_POLL_MASK: u64 = 0x3FF; // every 1024 ticks

/// Which limit tripped first. Stored in the shared guard so sibling
/// workers report the same class as the first exceeder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TripKind {
    /// No trip recorded.
    None = 0,
    /// Recursion / nesting depth (`XQB0040`).
    Depth = 1,
    /// Evaluation-step fuel (`XQB0041`).
    Fuel = 2,
    /// Wall-clock deadline (`XQB0042`).
    Deadline = 3,
    /// Memory budget (`XQB0043`).
    Memory = 4,
}

impl TripKind {
    fn from_u8(v: u8) -> TripKind {
        match v {
            1 => TripKind::Depth,
            2 => TripKind::Fuel,
            3 => TripKind::Deadline,
            4 => TripKind::Memory,
            _ => TripKind::None,
        }
    }

    /// The error code raised for this trip class.
    pub fn code(self) -> &'static str {
        match self {
            TripKind::None => "XQB0000",
            TripKind::Depth => "XQB0040",
            TripKind::Fuel => "XQB0041",
            TripKind::Deadline => "XQB0042",
            TripKind::Memory => "XQB0043",
        }
    }
}

/// Error constructor for a depth trip (`XQB0040`).
pub fn depth_error(limit: usize) -> XdmError {
    XdmError::new(
        "XQB0040",
        format!("recursion/nesting depth limit exceeded (max {limit})"),
    )
}

/// Did the query parser stop on its nesting bound
/// ([`Limits::max_parse_depth`])? The `XQB0040` code is embedded in the
/// message because `ParseError` carries no code field.
pub(crate) fn is_parse_depth_trip(e: &xqsyn::ParseError) -> bool {
    e.message.contains("XQB0040")
}

/// Error constructor for a fuel trip (`XQB0041`).
pub fn fuel_error(limit: u64) -> XdmError {
    XdmError::new(
        "XQB0041",
        format!("evaluation fuel exhausted (budget {limit} steps)"),
    )
}

/// Error constructor for a deadline trip (`XQB0042`).
pub fn deadline_error(ms: u64) -> XdmError {
    XdmError::new("XQB0042", format!("query deadline exceeded ({ms} ms)"))
}

/// Error constructor for a memory-budget trip (`XQB0043`).
pub fn memory_error(limit: u64) -> XdmError {
    XdmError::new(
        "XQB0043",
        format!("memory budget exceeded (limit {limit} items)"),
    )
}

/// Resource limits for one engine / one run. Plain data; the runtime
/// mechanism is [`LimitGuard`].
///
/// `None` means "unlimited" for the optional knobs. Depth limits are
/// always finite: they protect the native stack, which is itself finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum evaluator recursion depth (`XQB0040`).
    pub max_depth: usize,
    /// Maximum expression nesting depth in the query parser (`XQB0040`,
    /// surfaced as a parse error).
    pub max_parse_depth: usize,
    /// Maximum element nesting depth in parsed XML documents (`XQB0040`).
    pub max_xml_depth: usize,
    /// Evaluation-step fuel budget (`XQB0041`); every evaluator step and
    /// every compiled plan node costs one unit.
    pub fuel: Option<u64>,
    /// Materialized-item budget (`XQB0043`); charged for materialized
    /// sequence items and pending-update Δ entries.
    pub memory_items: Option<u64>,
    /// Wall-clock deadline per run, in milliseconds (`XQB0042`).
    pub deadline_ms: Option<u64>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_depth: DEFAULT_MAX_DEPTH,
            max_parse_depth: DEFAULT_MAX_PARSE_DEPTH,
            max_xml_depth: DEFAULT_MAX_XML_DEPTH,
            fuel: None,
            memory_items: None,
            deadline_ms: None,
        }
    }
}

impl Limits {
    /// Defaults overridden by `XQB_MAX_DEPTH`, `XQB_MAX_PARSE_DEPTH`,
    /// `XQB_MAX_XML_DEPTH`, `XQB_FUEL`, `XQB_MEMORY_ITEMS`, and
    /// `XQB_DEADLINE_MS`. Unset or unparseable variables keep the default.
    pub fn from_env() -> Self {
        fn get<T: std::str::FromStr>(name: &str) -> Option<T> {
            std::env::var(name).ok()?.trim().parse().ok()
        }
        let mut l = Limits::default();
        if let Some(d) = get::<usize>("XQB_MAX_DEPTH") {
            l.max_depth = d.max(1);
        }
        if let Some(d) = get::<usize>("XQB_MAX_PARSE_DEPTH") {
            l.max_parse_depth = d.max(1);
        }
        if let Some(d) = get::<usize>("XQB_MAX_XML_DEPTH") {
            l.max_xml_depth = d.max(1);
        }
        l.fuel = get::<u64>("XQB_FUEL").or(l.fuel);
        l.memory_items = get::<u64>("XQB_MEMORY_ITEMS").or(l.memory_items);
        l.deadline_ms = get::<u64>("XQB_DEADLINE_MS").or(l.deadline_ms);
        l
    }

    /// True when any of fuel, memory, or deadline is armed (the limits
    /// that require runtime ticking; depth is checked structurally).
    pub fn needs_guard(&self) -> bool {
        self.fuel.is_some() || self.memory_items.is_some() || self.deadline_ms.is_some()
    }
}

#[derive(Debug)]
struct GuardShared {
    /// Remaining fuel. `i64::MAX` when unlimited (never reaches zero in
    /// practice: ~292 years of ticks at 1 GHz).
    fuel: AtomicI64,
    fuel_budget: u64,
    /// Initial `fuel` value, so the first tick can be recognized without
    /// a separate counter (the deadline is polled deterministically on
    /// the first tick — `deadline_ms = 0` trips immediately).
    fuel_init: i64,
    /// Remaining memory budget in items; `i64::MAX` when unlimited.
    memory: AtomicI64,
    memory_budget: u64,
    /// Absolute deadline, armed when the guard is created.
    deadline: Option<Instant>,
    deadline_ms: u64,
    /// Depth limit, for reporting sibling-observed depth trips.
    depth_limit: usize,
    /// First limit class to trip; sticky until re-armed.
    tripped: AtomicU8,
}

/// Cheap cooperative limit check, shared across execution surfaces and
/// worker threads. Cloning shares the underlying state.
///
/// The hot-path cost when nothing is armed is one inline bool test —
/// `active` lives on the guard itself, not behind the `Arc`.
#[derive(Debug, Clone)]
pub struct LimitGuard {
    active: bool,
    inner: Arc<GuardShared>,
}

impl LimitGuard {
    /// Build a guard for one run of a query. The wall-clock deadline is
    /// anchored **now**, so construct the guard when the run starts.
    pub fn new(limits: &Limits) -> Self {
        let fuel_budget = limits.fuel.unwrap_or(0);
        let memory_budget = limits.memory_items.unwrap_or(0);
        let deadline_ms = limits.deadline_ms.unwrap_or(0);
        let fuel_init = match limits.fuel {
            Some(f) => i64::try_from(f).unwrap_or(i64::MAX),
            None => i64::MAX,
        };
        LimitGuard {
            active: limits.needs_guard(),
            inner: Arc::new(GuardShared {
                fuel: AtomicI64::new(fuel_init),
                fuel_budget,
                fuel_init,
                memory: AtomicI64::new(match limits.memory_items {
                    Some(m) => i64::try_from(m).unwrap_or(i64::MAX),
                    None => i64::MAX,
                }),
                memory_budget,
                deadline: limits
                    .deadline_ms
                    .map(|ms| Instant::now() + Duration::from_millis(ms)),
                deadline_ms,
                depth_limit: limits.max_depth,
                tripped: AtomicU8::new(TripKind::None as u8),
            }),
        }
    }

    /// A guard with nothing armed; `tick` is a single branch.
    pub fn unlimited() -> Self {
        LimitGuard::new(&Limits::default())
    }

    /// One evaluation step: burns a unit of fuel, periodically polls the
    /// deadline, and observes trips recorded by sibling workers.
    #[inline]
    pub fn tick(&self) -> XdmResult<()> {
        if !self.active {
            return Ok(());
        }
        self.tick_slow()
    }

    // Not `#[cold]`: when any limit is armed this *is* the per-step hot
    // path; only the disabled fast path above should be favoured.
    fn tick_slow(&self) -> XdmResult<()> {
        let g = &*self.inner;
        let t = g.tripped.load(Ordering::Relaxed);
        if t != TripKind::None as u8 {
            return Err(self.trip_error(TripKind::from_u8(t)));
        }
        // One atomic RMW per tick: the fuel counter doubles as the pace
        // for deadline polls (it decrements every tick even when fuel is
        // unlimited, starting from i64::MAX).
        let remaining = g.fuel.fetch_sub(1, Ordering::Relaxed);
        if remaining <= 0 {
            return Err(self.trip(TripKind::Fuel));
        }
        if let Some(deadline) = g.deadline {
            // Poll on the very first tick (deterministic: a 0 ms deadline
            // trips before any work) and then every 1024 fuel units.
            let poll = remaining == g.fuel_init || remaining as u64 & DEADLINE_POLL_MASK == 0;
            if poll && Instant::now() >= deadline {
                return Err(self.trip(TripKind::Deadline));
            }
        }
        Ok(())
    }

    /// Charge `n` items against the memory budget (materialized sequence
    /// items, pending-update Δ entries).
    #[inline]
    pub fn charge(&self, n: u64) -> XdmResult<()> {
        if !self.active {
            return Ok(());
        }
        self.charge_slow(n)
    }

    #[cold]
    fn charge_slow(&self, n: u64) -> XdmResult<()> {
        let g = &*self.inner;
        if g.memory_budget == 0 {
            return Ok(());
        }
        let t = g.tripped.load(Ordering::Relaxed);
        if t != TripKind::None as u8 {
            return Err(self.trip_error(TripKind::from_u8(t)));
        }
        let take = i64::try_from(n).unwrap_or(i64::MAX);
        if g.memory.fetch_sub(take, Ordering::Relaxed) - take < 0 {
            return Err(self.trip(TripKind::Memory));
        }
        Ok(())
    }

    /// Record a trip observed outside the guard (e.g. the structural
    /// depth check) so sibling workers cancel with the same class.
    pub fn note_trip(&self, kind: TripKind) {
        let _ = self.inner.tripped.compare_exchange(
            TripKind::None as u8,
            kind as u8,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Which limit class tripped, if any.
    pub fn tripped(&self) -> TripKind {
        TripKind::from_u8(self.inner.tripped.load(Ordering::Relaxed))
    }

    fn trip(&self, kind: TripKind) -> XdmError {
        self.note_trip(kind);
        // Report the winning class: a sibling may have tripped first.
        self.trip_error(self.tripped())
    }

    fn trip_error(&self, kind: TripKind) -> XdmError {
        let g = &*self.inner;
        match kind {
            TripKind::Depth => depth_error(g.depth_limit),
            TripKind::Fuel => fuel_error(g.fuel_budget),
            TripKind::Deadline => deadline_error(g.deadline_ms),
            TripKind::Memory => memory_error(g.memory_budget),
            TripKind::None => XdmError::new("XQB0000", "no limit tripped".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_limits_are_inactive() {
        let l = Limits::default();
        assert!(!l.needs_guard());
        let g = LimitGuard::new(&l);
        for _ in 0..10_000 {
            g.tick().unwrap();
        }
        g.charge(u64::MAX / 2).unwrap();
        assert_eq!(g.tripped(), TripKind::None);
    }

    #[test]
    fn fuel_trips_after_budget() {
        let g = LimitGuard::new(&Limits {
            fuel: Some(10),
            ..Limits::default()
        });
        for _ in 0..10 {
            g.tick().unwrap();
        }
        let err = g.tick().unwrap_err();
        assert_eq!(err.code, "XQB0041");
        assert_eq!(g.tripped(), TripKind::Fuel);
        // Sticky: later ticks keep failing with the same class.
        assert_eq!(g.tick().unwrap_err().code, "XQB0041");
    }

    #[test]
    fn zero_deadline_trips_on_first_poll() {
        let g = LimitGuard::new(&Limits {
            deadline_ms: Some(0),
            ..Limits::default()
        });
        // The first tick polls deterministically (remaining == fuel_init).
        let err = g.tick().unwrap_err();
        assert_eq!(err.code, "XQB0042");
    }

    #[test]
    fn memory_budget_trips() {
        let g = LimitGuard::new(&Limits {
            memory_items: Some(100),
            ..Limits::default()
        });
        g.charge(60).unwrap();
        g.charge(40).unwrap();
        let err = g.charge(1).unwrap_err();
        assert_eq!(err.code, "XQB0043");
    }

    #[test]
    fn shared_trip_is_observed_by_clones() {
        let g = LimitGuard::new(&Limits {
            fuel: Some(1),
            ..Limits::default()
        });
        let sibling = g.clone();
        g.tick().unwrap();
        assert_eq!(g.tick().unwrap_err().code, "XQB0041");
        // The sibling's next tick sees the trip without burning fuel.
        assert_eq!(sibling.tick().unwrap_err().code, "XQB0041");
    }

    #[test]
    fn note_trip_wins_for_depth() {
        let g = LimitGuard::new(&Limits {
            fuel: Some(1_000),
            ..Limits::default()
        });
        g.note_trip(TripKind::Depth);
        assert_eq!(g.tick().unwrap_err().code, "XQB0040");
    }

    #[test]
    fn env_parsing() {
        // Serialized via a unique var set; avoid cross-test env races by
        // only asserting on vars this test sets.
        std::env::set_var("XQB_FUEL", "1234");
        std::env::set_var("XQB_MAX_DEPTH", "77");
        let l = Limits::from_env();
        assert_eq!(l.fuel, Some(1234));
        assert_eq!(l.max_depth, 77);
        std::env::remove_var("XQB_FUEL");
        std::env::remove_var("XQB_MAX_DEPTH");
    }

    #[test]
    fn trip_codes() {
        assert_eq!(TripKind::Depth.code(), "XQB0040");
        assert_eq!(TripKind::Fuel.code(), "XQB0041");
        assert_eq!(TripKind::Deadline.code(), "XQB0042");
        assert_eq!(TripKind::Memory.code(), "XQB0043");
    }
}
