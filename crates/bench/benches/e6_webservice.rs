//! E6 — §2.2/§2.3: the Web-service logging use case.
//!
//! The paper's motivating claim is qualitative — first-class updates let a
//! function both return a value and log — so the measurable question is
//! the *cost* of that expressiveness: `get_item` with logging vs the pure
//! XQuery 1.0 variant, and with the archiving variant (which closes a snap
//! per call to observe its own log).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use xmarkgen::{Scale, XmarkGen};
use xqcore::Engine;
use xqdm::Item;

const GET_ITEM_PLAIN: &str = r#"
declare function get_item($itemid, $userid) {
  let $item := $auction//item[@id = $itemid]
  return $item
};
get_item("item3", "person1")"#;

const GET_ITEM_LOGGED: &str = r#"
declare function get_item($itemid, $userid) {
  let $item := $auction//item[@id = $itemid]
  return (
    let $name := $auction//person[@id = $userid]/name return
    insert { <logentry user="{$name}" itemid="{$itemid}"/> }
    into { $log/log },
    $item
  )
};
get_item("item3", "person1")"#;

const GET_ITEM_ARCHIVING: &str = r#"
declare variable $maxlog := 10;
declare function get_item($itemid, $userid) {
  let $item := $auction//item[@id = $itemid]
  return (
    let $name := $auction//person[@id = $userid]/name return
    (snap insert { <logentry user="{$name}" itemid="{$itemid}"/> }
          into { $log/log },
     if (count($log/log/logentry) >= $maxlog)
     then snap delete $log/log/logentry
     else ()),
    $item
  )
};
get_item("item3", "person1")"#;

fn service_engine() -> Engine {
    let mut e = Engine::new();
    let scale = Scale {
        persons: 50,
        items: 40,
        closed_auctions: 20,
        open_auctions: 10,
    };
    let auction = XmarkGen::new(6)
        .generate(&mut e.store, &scale)
        .expect("xmark");
    e.bind("auction", xqdm::seq![Item::Node(auction)]);
    e.load_document("log", "<log/>").unwrap();
    e
}

fn bench_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_webservice");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    for (label, query) in [
        ("plain-xquery10", GET_ITEM_PLAIN),
        ("with-logging", GET_ITEM_LOGGED),
        ("with-archiving-snap", GET_ITEM_ARCHIVING),
    ] {
        group.bench_with_input(BenchmarkId::new(label, "call"), &query, |b, q| {
            // One engine per batch: the log grows across calls, which is
            // the realistic service profile (archiving keeps it bounded).
            b.iter_batched(
                service_engine,
                |mut e| e.run(q).expect("service call"),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
