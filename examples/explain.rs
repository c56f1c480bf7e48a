//! EXPLAIN for XQuery!: print the compiled plan (with §3 effect
//! annotations) that the engine-default pipeline would execute, for a
//! tour of representative queries — including a join inside a `snap`
//! body and a join inside a declared function.
//!
//! Output is deterministic; CI diffs it against `docs/explain.golden`
//! to catch accidental plan or printer drift.
//!
//! Run with: `cargo run --example explain`

use xquery_bang::Engine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut engine = Engine::new();

    let cases: &[(&str, &str)] = &[
        (
            "pure FLWOR (no join shape): one Iterate node",
            "for $i in 1 to 10 return $i * $i",
        ),
        (
            "equality-predicate FLWOR: hash join",
            "for $l in $left/e
             for $r in $right/e
             where $l/@k = $r/@k
             return <m l=\"{$l/@n}\" r=\"{$r/@n}\"/>",
        ),
        (
            "outer-join + group-by (XMark Q8 shape)",
            "for $p in $people/person
             let $a := for $t in $sales/sale
                       where $t/@buyer = $p/@id
                       return (insert { <hit/> } into { $log }, $t)
             return <row id=\"{$p/@id}\">{ count($a) }</row>",
        ),
        (
            "join nested inside an explicit snap body",
            "snap nondeterministic {
               for $l in $left/e
               for $r in $right/e
               where $l/@k = $r/@k
               return insert { <m/> } into { $out }
             }",
        ),
        (
            "join inside a declared function body",
            "declare function pairs($ls, $rs) {
               for $l in $ls/e
               for $r in $rs/e
               where $l/@k = $r/@k
               return $r
             };
             pairs($a, $b)",
        ),
        (
            "effectful inner side: rewrite correctly suppressed",
            "for $l in $left/e
             for $r in snap { delete { $trash/e }, $right/e }
             where $l/@k = $r/@k
             return $r",
        ),
        (
            "pure loop body: built-in calls over batched paths, one per binding",
            "for $p in $people/person
             return concat(string($p/name), \":\", count($p/watches))",
        ),
        (
            "snap inside the loop body: the Iterate is rated Effectful",
            "for $p in $people/person
             return snap insert { <seen id=\"{$p/@id}\"/> } into { $log }",
        ),
        (
            "structural mix: let / if / sequence around an inner join",
            "let $pairs := for $l in $left/e
                           for $r in $right/e
                           where $l/@k = $r/@k
                           return $r
             return if (count($pairs) > 0)
                    then ($pairs, <found/>)
                    else <none/>",
        ),
    ];

    for (title, query) in cases {
        println!("=== {title} ===");
        println!("{}\n", engine.explain(query)?);
    }

    // The same plans are reachable from inside the language.
    println!("=== xqb:explain() from inside a query ===");
    let out = engine.run(
        r#"xqb:explain("for $l in $ls/e for $r in $rs/e
                        where $l/@k = $r/@k return $r")"#,
    )?;
    println!("{}", engine.serialize(&out)?);
    Ok(())
}
