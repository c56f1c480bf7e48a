//! The crash battery for the durable store (docs/DURABILITY.md, "The
//! crash harness").
//!
//! The redo log is append-only and each commit reaches it as one write,
//! so whatever a crash leaves on disk is a prefix of the log a clean run
//! writes — beside a checkpoint whose install it may have interrupted —
//! and whatever a bad disk leaves is such a log with a bit flipped. So
//! the battery runs each workload to its end on a durable engine in this
//! process and builds those states from the real files: every byte cut of
//! the log, the log with one bit of each byte flipped, and the two
//! checkpoint-crossing states. Every state is recovered and judged:
//!
//! * **scripted** — one writer, deterministic: the recovered fingerprint
//!   is one an in-memory replica passed through at a commit point;
//! * **server** — three writers and a pinned reader behind the
//!   multi-session server: commit order across sessions is free, so every
//!   session's recovered writes form a gapless in-order prefix of its
//!   script;
//! * **contended** — three concurrent writers bumping one counter, one of
//!   them failing every third request after its snap closed (the orphan
//!   sweep's `Collect` rides in its logged batch): per-writer prefixes,
//!   and the counter equals the number of surviving ticks.
//!
//! A run ends by drop (a clean shutdown: final commit and seal) or by
//! `std::mem::forget` (a kill: neither). Either way its whole log must
//! recover in full with no tail dropped. The server and contended
//! workloads run three times each: a fresh run is a fresh interleaving.

use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use xquery_bang::xqdm::SyncMode;
use xquery_bang::{Engine, Error, Item, RecoveryReport, Server, ServerConfig, Store};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("xqb_crash_{}_{tag}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// How a run's process ends.
#[derive(Debug, Clone, Copy)]
enum Ending {
    /// Drop: the final commit and the seal record are written.
    Shutdown,
    /// `std::mem::forget`: no final commit, no seal.
    Kill,
}

impl Ending {
    fn of(run: usize) -> Ending {
        if run.is_multiple_of(2) {
            Ending::Shutdown
        } else {
            Ending::Kill
        }
    }

    fn end<T>(self, host: T) {
        match self {
            Ending::Shutdown => drop(host),
            Ending::Kill => std::mem::forget(host),
        }
    }
}

/// A workload's oracle over one recovered store. `whole` when the store
/// was recovered from a run's whole log, which must recover in full.
/// `Err` says what is wrong.
type Oracle<'a> = dyn Fn(Store, bool) -> Result<(), String> + 'a;

/// Make `path` hold exactly `bytes`. Overwritten in place, not opened
/// with `O_TRUNC`: on ext4 a truncate-to-zero forces the rewrite to disk
/// on close, which would cost more than the recovery being tested.
fn write_state(path: &Path, bytes: &[u8]) {
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .unwrap();
    file.write_all(bytes).unwrap();
    file.set_len(bytes.len() as u64).unwrap();
}

fn recover(dir: &Path) -> Result<(Store, RecoveryReport), String> {
    Store::open_durable(dir, SyncMode::Off).map_err(|e| format!("recovery errored: {e}"))
}

/// Judge the whole log in `dir` (no tail may drop), then recover every
/// byte cut of it and the log with bit `i % 8` of each byte `i` flipped,
/// each written as the `wal.log` of `dir` beside whatever else `dir`
/// holds. Panics on the first state `oracle` refuses; returns the number
/// of states recovered.
fn check_log(dir: &Path, what: &str, oracle: &Oracle) -> usize {
    let wal = dir.join("wal.log");
    let log = std::fs::read(&wal).unwrap();
    let whole = recover(dir).and_then(|(store, report)| match report.tail_dropped {
        0 => oracle(store, true),
        _ => Err(format!("a tail was dropped: {:?}", report.warnings)),
    });
    if let Err(e) = whole {
        panic!("{what}, whole log: {e}");
    }
    // States that recover to one store get one verdict.
    let mut judged = HashSet::new();
    let mut judge = |bytes: &[u8]| {
        write_state(&wal, bytes);
        let (store, _) = recover(dir)?;
        if judged.insert(store.fingerprint()) {
            oracle(store, false)
        } else {
            Ok(())
        }
    };
    for cut in 0..=log.len() {
        if let Err(e) = judge(&log[..cut]) {
            panic!("{what}, cut at byte {cut} of {}: {e}", log.len());
        }
    }
    let mut flipped = log.clone();
    for i in 0..log.len() {
        flipped[i] ^= 1 << (i % 8);
        if let Err(e) = judge(&flipped) {
            panic!("{what}, bit {} of byte {i} flipped: {e}", i % 8);
        }
        flipped[i] ^= 1 << (i % 8);
    }
    2 * log.len() + 2
}

// ----------------------------------------------------------------------
// Scripted: one writer, every redo-op kind
// ----------------------------------------------------------------------

/// The scripted workload: ordered snaps only, so an in-memory replica
/// lands on the same stores; nested snaps, a run that commits a snap and
/// then fails, an orphan sweep, and slot reuse after a delete. Calls
/// `after_commit` after every commit point and returns the fingerprint
/// at each one, the empty store first.
fn scripted(e: &mut Engine, mut after_commit: impl FnMut(&mut Engine, usize)) -> Vec<u64> {
    let mut prefixes = vec![e.store.fingerprint()];
    e.load_document("doc", "<site><open_auctions/></site>")
        .unwrap();
    prefixes.push(e.store.fingerprint());
    after_commit(e, 1);
    let queries = [
        "insert { <item id=\"1\"><name>alpha</name></item> } into { $doc/site }",
        "insert { <item id=\"2\"><name>beta</name><price>17</price></item> } into { $doc/site }",
        "snap { insert { <auction n=\"1\"/> } into { $doc/site/open_auctions },
                snap insert { <bid v=\"10\"/> } into { $doc/site/open_auctions/auction } }",
        "rename { ($doc/site/item)[1] } to { \"lot\" }",
        "replace { ($doc/site/item/name/text())[1] } with { \"gamma\" }",
        // The explicit snap persists, the error does not.
        "(snap insert { <kept/> } into { $doc/site }, 1 div 0)",
        // The orphan is swept at the commit point: a Collect op.
        "(element orphan { \"zzz\" }, 1 div 0)",
        // Freed slots are reused: the free list must replay exactly.
        "delete { ($doc/site/lot)[1] }",
        "insert { <item id=\"3\"><name>delta</name></item> } into { $doc/site }",
        "insert { <closed/> } into { $doc/site/open_auctions }",
    ];
    for (k, q) in queries.iter().enumerate() {
        let _ = e.run(q); // the 1-div-0 runs fail by design
        prefixes.push(e.store.fingerprint());
        after_commit(e, k + 2);
    }
    prefixes
}

/// The scripted oracle: the recovered store is one the workload passed
/// through at a commit point — the last one for a whole log.
fn committed_prefix(prefixes: &[u64]) -> impl Fn(Store, bool) -> Result<(), String> + '_ {
    move |store, whole| {
        let fingerprint = store.fingerprint();
        if whole && Some(&fingerprint) != prefixes.last() {
            Err(format!("{fingerprint:016x} is not the final state"))
        } else if !prefixes.contains(&fingerprint) {
            Err(format!("{fingerprint:016x} is not a committed prefix"))
        } else {
            Ok(())
        }
    }
}

#[test]
fn scripted_workload_recovers_every_cut_and_flip() {
    let prefixes = scripted(&mut Engine::new(), |_, _| {});
    let mut states = 0;
    for run in 0..2 {
        let ending = Ending::of(run);
        let dir = temp_dir("scripted");
        let mut e = Engine::new();
        e.open_store(&dir).unwrap();
        scripted(&mut e, |_, _| {});
        ending.end(e);
        states += check_log(
            &dir,
            &format!("scripted {ending:?}"),
            &committed_prefix(&prefixes),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("scripted: {states} states recovered");
}

/// Copy `file` of `from` into `to`, when it exists.
fn copy_file(from: &Path, to: &Path, file: &str) {
    if from.join(file).exists() {
        std::fs::copy(from.join(file), to.join(file)).unwrap();
    }
}

#[test]
fn checkpoint_crossings_recover_the_checkpointed_state() {
    let prefixes = scripted(&mut Engine::new(), |_, _| {});
    let dir = temp_dir("ckpt");
    let crossing = temp_dir("ckpt_crossing");
    let mut e = Engine::new();
    e.open_store(&dir).unwrap();
    let mut crossings = 0;
    // Frequent checkpoints: one every 3 commits. Before each, the files a
    // crash inside the install would leave are built from the real ones.
    scripted(&mut e, |e, commits| {
        if !commits.is_multiple_of(3) {
            return;
        }
        let before = temp_dir("ckpt_before");
        copy_file(&dir, &before, "wal.log");
        copy_file(&dir, &before, "checkpoint.bin");
        e.store.checkpoint().unwrap().expect("checkpoint installed");
        let expected = e.store.fingerprint();
        let snapshot = std::fs::read(dir.join("checkpoint.bin")).unwrap();

        // Installed, log not yet truncated: replay must skip every commit
        // the snapshot already holds.
        let _ = std::fs::remove_dir_all(&crossing);
        std::fs::create_dir_all(&crossing).unwrap();
        copy_file(&before, &crossing, "wal.log");
        copy_file(&dir, &crossing, "checkpoint.bin");
        let (store, report) = recover(&crossing).unwrap();
        assert!(report.from_checkpoint, "{report:?}");
        assert_eq!(report.replayed_commits, 0, "{report:?}");
        assert_eq!(store.fingerprint(), expected, "after commit {commits}");
        drop(store);

        // Torn mid-snapshot: half a checkpoint.tmp beside the previous
        // checkpoint (if any) and the whole log, which recovery replays.
        let _ = std::fs::remove_dir_all(&crossing);
        std::fs::create_dir_all(&crossing).unwrap();
        copy_file(&before, &crossing, "wal.log");
        copy_file(&before, &crossing, "checkpoint.bin");
        std::fs::write(
            crossing.join("checkpoint.tmp"),
            &snapshot[..snapshot.len() / 2],
        )
        .unwrap();
        let (store, report) = recover(&crossing).unwrap();
        assert_eq!(report.tail_dropped, 0, "{report:?}");
        assert_eq!(store.fingerprint(), expected, "after commit {commits}");
        drop(store);
        let _ = std::fs::remove_dir_all(&before);
        crossings += 2;
    });
    drop(e);
    assert!(crossings >= 6, "{crossings} crossing states");

    // The clean exit recovers from the last checkpoint and a short log;
    // every cut and flip of that log lands on a committed prefix.
    assert!(recover(&dir).unwrap().1.from_checkpoint);
    let states = check_log(&dir, "log after a checkpoint", &committed_prefix(&prefixes));
    println!("checkpoints: {crossings} crossing states, {states} states after the last");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crossing);
}

// ----------------------------------------------------------------------
// Concurrent workloads: per-session oracles
// ----------------------------------------------------------------------

const WRITERS: usize = 3;
/// Server and contended runs, each a fresh interleaving.
const SCHEDULES: usize = 3;
const SERVER_ROUNDS: usize = 8;
const CONTENDED_ROUNDS: usize = 6;

/// Three writers append sequenced `<e s n/>` elements while a reader
/// pins snapshot after snapshot.
fn server_run(server: &Server) {
    let start = Barrier::new(WRITERS + 1);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let session = server.open_session().unwrap();
            start.wait();
            while !done.load(Ordering::Relaxed) {
                session.execute("count($doc/log/e)").unwrap();
            }
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let start = &start;
                scope.spawn(move || {
                    let session = server.open_session().unwrap();
                    start.wait();
                    for n in 0..SERVER_ROUNDS {
                        session
                            .execute(&format!(
                                "insert {{ <e s=\"{w}\" n=\"{n}\"/> }} into {{ $doc/log }}"
                            ))
                            .unwrap();
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });
}

/// Three concurrent writers each commit `CONTENDED_ROUNDS` times a
/// counter bump (a value read-modify-write of the one shared counter)
/// and one `<tick s n/>`. Every third request of writer 0 also
/// constructs nodes and then fails after its snap closed: the snap
/// persists, the orphans are swept, and its logged batch carries that
/// `Collect`.
fn contended_run(server: &Server) {
    let start = Barrier::new(WRITERS);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let start = &start;
            scope.spawn(move || {
                let session = server.open_session().unwrap();
                start.wait();
                for n in 0..CONTENDED_ROUNDS {
                    let bump = "replace value of { $doc/site/c/text() } with { $doc/site/c + 1 }";
                    let tick = format!(
                        "insert {{ <tick s=\"{w}\" n=\"{n}\"/> }} into {{ $doc/site/ticks }}"
                    );
                    let fails = w == 0 && n % 3 == 2;
                    let q = if fails {
                        format!("(<junk><k/><k/></junk>, snap {{ ({bump}, {tick}) }}, fn:error())")
                    } else {
                        format!("(snap {bump}, {tick})")
                    };
                    match session.execute(&q) {
                        Ok(_) => {}
                        Err(Error::Eval(e)) if fails && e.code == "FOER0000" => {}
                        Err(e) => panic!("{q}: {e}"),
                    }
                }
            });
        }
    });
}

fn text(e: &mut Engine, q: &str) -> Result<String, String> {
    let v = e.run(q).map_err(|err| format!("{q}: {err}"))?;
    e.serialize(&v).map_err(|err| format!("{q}: {err}"))
}

/// An engine over a recovered store with its document bound to `$doc`,
/// as `Engine::open_store` binds it; `None` for a store recovered from
/// before the document load.
fn engine_over(store: Store) -> Option<Engine> {
    let root = *store.document_roots().first()?;
    let mut e = Engine::new();
    e.store = store;
    e.bind("doc", Item::Node(root).into());
    Some(e)
}

/// Check that every writer's elements at `path` (attributes `s` =
/// writer, `n` = sequence number) form a gapless in-order prefix of its
/// `rounds` writes — all of them when `whole`. Returns the engine over
/// the store and the number of elements recovered, or `None` when the
/// crash came before the document load.
fn session_prefixes(
    store: Store,
    path: &str,
    rounds: usize,
    whole: bool,
) -> Result<Option<(Engine, usize)>, String> {
    let Some(mut e) = engine_over(store) else {
        if whole {
            return Err("a whole log recovered an empty store".to_string());
        }
        return Ok(None);
    };
    let mut total = 0;
    for w in 0..WRITERS {
        let got = text(
            &mut e,
            &format!("for $x in {path}[@s=\"{w}\"] return string($x/@n)"),
        )?;
        let ns: Vec<&str> = got.split(' ').filter(|n| !n.is_empty()).collect();
        let prefix: Vec<String> = (0..ns.len()).map(|n| n.to_string()).collect();
        if ns != prefix {
            return Err(format!(
                "writer {w} recovered [{}], not a gapless prefix",
                ns.join(", ")
            ));
        }
        if whole && ns.len() != rounds {
            return Err(format!("writer {w} recovered {}/{rounds} writes", ns.len()));
        }
        total += ns.len();
    }
    Ok(Some((e, total)))
}

fn server_oracle(store: Store, whole: bool) -> Result<(), String> {
    session_prefixes(store, "$doc/log/e", SERVER_ROUNDS, whole).map(drop)
}

fn contended_oracle(store: Store, whole: bool) -> Result<(), String> {
    let Some((mut e, ticks)) =
        session_prefixes(store, "$doc/site/ticks/tick", CONTENDED_ROUNDS, whole)?
    else {
        return Ok(());
    };
    let counter = text(&mut e, "string($doc/site/c)")?;
    if counter != ticks.to_string() {
        return Err(format!(
            "counter {counter} but {ticks} ticks: a lost or doubled increment"
        ));
    }
    Ok(())
}

/// Run `workload` on `SCHEDULES` fresh durable servers, ending them in
/// turn by shutdown and by kill, and check each one's log.
fn concurrent_battery(tag: &str, doc: &str, workload: fn(&Server), oracle: &Oracle) {
    let mut states = 0;
    for run in 0..SCHEDULES {
        let ending = Ending::of(run);
        let dir = temp_dir(tag);
        let mut e = Engine::new();
        e.open_store(&dir).unwrap();
        e.load_document("doc", doc).unwrap();
        let server = e.into_server(ServerConfig::default());
        workload(&server);
        ending.end(server);
        states += check_log(&dir, &format!("{tag} run {run} ({ending:?})"), oracle);
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("{tag}: {states} states recovered over {SCHEDULES} schedules");
}

#[test]
fn server_workload_recovers_every_cut_and_flip() {
    concurrent_battery("server", "<log/>", server_run, &server_oracle);
}

#[test]
fn contended_workload_recovers_every_cut_and_flip() {
    concurrent_battery(
        "contended",
        "<site><c>0</c><ticks/></site>",
        contended_run,
        &contended_oracle,
    );
}
