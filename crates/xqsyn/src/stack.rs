//! One deep native stack for the recursive parts of the engine.
//!
//! The query parser recurses once per nesting level through the whole
//! precedence tower, and the evaluator once per `eval` step; both bound
//! their recursion with a depth limit (`XQB0040`) sized for
//! [`DEEP_STACK_BYTES`] of headroom, far more than the 2 MiB of a default
//! (test) thread. [`with_deep_stack`] guarantees that headroom to the
//! closure it runs:
//!
//! * on a thread started by [`spawn_deep`] — a server connection handler —
//!   that is not already inside a deep section, it runs the closure inline:
//!   the thread's own stack is deep and nearly empty, so a request parses
//!   and evaluates with no thread spawn at all;
//! * anywhere else — an ordinary thread, or a deep section nested in
//!   another (`xqb:explain` parsing from inside an evaluation) — it runs
//!   the closure at the bottom of a fresh deep-stack thread, and if the OS
//!   refuses that thread, inline on the caller's stack: the depth limits
//!   still bound the recursion, with less native headroom.
//!
//! The inline case takes a per-thread token for the duration of the call,
//! which is what sends a nested entry to a fresh thread: every depth limit
//! meets the stack it was sized for.

use std::cell::Cell;
use std::thread::{Builder, JoinHandle};

/// Stack size of a deep-stack thread. The default evaluation depth limit
/// and the parser's default nesting limit both fit with a wide margin even
/// with debug-build frame sizes; raising either far beyond its default
/// needs a correspondingly larger value here. The reservation is virtual:
/// pages commit as the recursion touches them.
pub const DEEP_STACK_BYTES: usize = 64 << 20;

thread_local! {
    /// Is this thread's own stack deep and free for a deep section? Set
    /// once by [`spawn_deep`]; taken for the duration of each inline
    /// [`with_deep_stack`] call.
    static DEEP_TOKEN: Cell<bool> = const { Cell::new(false) };
}

/// Gives the token back when the inline section ends, unwinding included.
struct ReturnToken;

impl Drop for ReturnToken {
    fn drop(&mut self) {
        DEEP_TOKEN.with(|t| t.set(true));
    }
}

fn deep_builder(name: String) -> Builder {
    Builder::new().name(name).stack_size(DEEP_STACK_BYTES)
}

/// Start a thread whose own stack is deep: [`with_deep_stack`] calls on it
/// run inline. Fails when the OS refuses the thread.
pub fn spawn_deep<F, T>(name: impl Into<String>, f: F) -> std::io::Result<JoinHandle<T>>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    deep_builder(name.into()).spawn(move || {
        DEEP_TOKEN.with(|t| t.set(true));
        f()
    })
}

/// Run `f` with [`DEEP_STACK_BYTES`] of stack below it: inline on a free
/// deep-stack thread, else on a fresh one (inline if the OS refuses it).
/// A panic in `f` propagates to the caller.
pub fn with_deep_stack<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    if DEEP_TOKEN.with(|t| t.replace(false)) {
        let _token = ReturnToken;
        return f();
    }
    // `spawn_scoped` consumes its closure even when it fails, so the
    // function and result travel through Options the worker borrows; after
    // the scope the borrows are back and we can tell what happened.
    let mut func = Some(f);
    let mut slot: Option<R> = None;
    let mut panic_payload = None;
    {
        let func_ref = &mut func;
        let slot_ref = &mut slot;
        std::thread::scope(|scope| {
            let worker = move || {
                if let Some(g) = func_ref.take() {
                    *slot_ref = Some(g());
                }
            };
            if let Ok(handle) = deep_builder("xquery-deep".into()).spawn_scoped(scope, worker) {
                if let Err(p) = handle.join() {
                    panic_payload = Some(p);
                }
            }
        });
    }
    if let Some(p) = panic_payload {
        std::panic::resume_unwind(p);
    }
    match (slot, func) {
        (Some(r), _) => r,
        (None, Some(g)) => g(),
        (None, None) => unreachable!("deep-stack worker neither returned nor panicked"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    fn run_here() -> ThreadId {
        with_deep_stack(|| thread::current().id())
    }

    #[test]
    fn a_deep_thread_runs_inline() {
        let (caller, ran) = spawn_deep("t", || (thread::current().id(), run_here()))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(caller, ran);
    }

    #[test]
    fn a_nested_entry_gets_a_fresh_thread() {
        let (caller, outer, inner, after) = spawn_deep("t", || {
            let caller = thread::current().id();
            let (outer, inner) = with_deep_stack(|| (thread::current().id(), run_here()));
            // The token is back once the outer section ends.
            (caller, outer, inner, run_here())
        })
        .unwrap()
        .join()
        .unwrap();
        assert_eq!(outer, caller);
        assert_ne!(inner, caller);
        assert_eq!(after, caller);
    }

    #[test]
    fn a_plain_thread_spawns() {
        assert_ne!(run_here(), thread::current().id());
    }

    #[test]
    fn a_panic_returns_the_token_and_propagates() {
        let (caller, after) = spawn_deep("t", || {
            let r = std::panic::catch_unwind(|| with_deep_stack(|| panic!("boom")));
            assert!(r.is_err());
            (thread::current().id(), run_here())
        })
        .unwrap()
        .join()
        .unwrap();
        assert_eq!(caller, after);
    }
}
