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
//! [`Limits`] is the plain config (`Engine::set_limits`, the binaries'
//! flags, REPL `:limits`). [`LimitGuard`] is the cheap runtime check the
//! one evaluator owns, ticked by the interpreted rules and the compiled
//! executor alike. The first limit to trip stays tripped: every later
//! [`LimitGuard::tick`] unwinds with the same error class.
//!
//! When no fuel/deadline/memory limit is armed, `tick()` is a single
//! branch on an inline bool — measured ≤2% on the XMark Q8 hot path
//! (`e13_limits_overhead`).

use std::cell::Cell;
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

/// The limit class a guard trips on; the first trip is sticky until the
/// guard is re-armed. Depth is checked where recursion happens
/// ([`depth_error`]), not by the guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripKind {
    /// Evaluation-step fuel (`XQB0041`).
    Fuel,
    /// Wall-clock deadline (`XQB0042`).
    Deadline,
    /// Memory budget (`XQB0043`).
    Memory,
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
    /// True when any of fuel, memory, or deadline is armed (the limits
    /// that require runtime ticking; depth is checked structurally).
    pub fn needs_guard(&self) -> bool {
        self.fuel.is_some() || self.memory_items.is_some() || self.deadline_ms.is_some()
    }
}

/// Cheap cooperative limit check for one run.
///
/// The hot-path cost when nothing is armed is one inline bool test.
#[derive(Debug)]
pub struct LimitGuard {
    active: bool,
    /// Remaining fuel. `i64::MAX` when unlimited (never reaches zero in
    /// practice: ~292 years of ticks at 1 GHz).
    fuel: Cell<i64>,
    fuel_budget: u64,
    /// Initial `fuel` value, so the first tick can be recognized without
    /// a separate counter (the deadline is polled deterministically on
    /// the first tick — `deadline_ms = 0` trips immediately).
    fuel_init: i64,
    /// Remaining memory budget in items; `i64::MAX` when unlimited.
    memory: Cell<i64>,
    memory_budget: u64,
    /// Absolute deadline, armed when the guard is created.
    deadline: Option<Instant>,
    deadline_ms: u64,
    /// First limit class to trip; sticky until re-armed.
    tripped: Cell<Option<TripKind>>,
}

impl LimitGuard {
    /// Build a guard for one run of a query. The wall-clock deadline is
    /// anchored **now**, so construct the guard when the run starts.
    pub fn new(limits: &Limits) -> Self {
        let fuel_init = match limits.fuel {
            Some(f) => i64::try_from(f).unwrap_or(i64::MAX),
            None => i64::MAX,
        };
        LimitGuard {
            active: limits.needs_guard(),
            fuel: Cell::new(fuel_init),
            fuel_budget: limits.fuel.unwrap_or(0),
            fuel_init,
            memory: Cell::new(match limits.memory_items {
                Some(m) => i64::try_from(m).unwrap_or(i64::MAX),
                None => i64::MAX,
            }),
            memory_budget: limits.memory_items.unwrap_or(0),
            deadline: limits
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            deadline_ms: limits.deadline_ms.unwrap_or(0),
            tripped: Cell::new(None),
        }
    }

    /// A guard with nothing armed; `tick` is a single branch.
    pub fn unlimited() -> Self {
        LimitGuard::new(&Limits::default())
    }

    /// One evaluation step: burns a unit of fuel, periodically polls the
    /// deadline, and repeats an earlier trip.
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
        if let Some(kind) = self.tripped.get() {
            return Err(self.trip_error(kind));
        }
        // The fuel counter doubles as the pace for deadline polls (it
        // decrements every tick even when fuel is unlimited, starting from
        // i64::MAX).
        let remaining = self.fuel.get();
        self.fuel.set(remaining - 1);
        if remaining <= 0 {
            return Err(self.trip(TripKind::Fuel));
        }
        if let Some(deadline) = self.deadline {
            // Poll on the very first tick (deterministic: a 0 ms deadline
            // trips before any work) and then every 1024 fuel units.
            let poll = remaining == self.fuel_init || remaining as u64 & DEADLINE_POLL_MASK == 0;
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
        if self.memory_budget == 0 {
            return Ok(());
        }
        if let Some(kind) = self.tripped.get() {
            return Err(self.trip_error(kind));
        }
        let take = i64::try_from(n).unwrap_or(i64::MAX);
        let left = self.memory.get().saturating_sub(take);
        self.memory.set(left);
        if left < 0 {
            return Err(self.trip(TripKind::Memory));
        }
        Ok(())
    }

    /// Which limit class tripped, if any.
    pub fn tripped(&self) -> Option<TripKind> {
        self.tripped.get()
    }

    fn trip(&self, kind: TripKind) -> XdmError {
        self.tripped.set(Some(kind));
        self.trip_error(kind)
    }

    fn trip_error(&self, kind: TripKind) -> XdmError {
        match kind {
            TripKind::Fuel => fuel_error(self.fuel_budget),
            TripKind::Deadline => deadline_error(self.deadline_ms),
            TripKind::Memory => memory_error(self.memory_budget),
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
        assert_eq!(g.tripped(), None);
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
        assert_eq!(g.tripped(), Some(TripKind::Fuel));
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
}
