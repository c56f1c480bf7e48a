//! The XMark corpus (Schmidt et al., VLDB 2002): the query texts
//! `tests/xmark_queries.rs` runs, over a document generated at [`SCALE`].

use xquery_bang::xmarkgen::Scale;

/// The generated document's size.
pub const SCALE: Scale = Scale {
    persons: 40,
    items: 30,
    closed_auctions: 25,
    open_auctions: 15,
};

/// The generator seed the tests use.
pub const SEED: u64 = 11;

/// The query texts of `tests/xmark_queries.rs`. `$purchasers` is a
/// `<purchasers/>` document.
pub const QUERY_TEXTS: &[&str] = &[
    r#"for $b in $auction/site/people/person[@id = "person0"] return string($b/name)"#,
    "count(for $b in $auction/site/open_auctions/open_auction
           return <increase>{ string($b/bidder[1]/increase) }</increase>)",
    "count(for $i in $auction/site/closed_auctions/closed_auction
           where $i/price >= 40 return $i/price)",
    "count(for $b in $auction//site/regions return $b//item)",
    r#"for $p in $auction/site/people/person
       let $a := for $t in $auction/site/closed_auctions/closed_auction
                 where $t/buyer/@person = $p/@id
                 return $t
       return <item person="{ $p/name }">{ count($a) }</item>"#,
    r#"count(for $t in $auction//closed_auction
             for $i in $auction//item
             where $t/itemref/@item = $i/@id
             return <hit/>)"#,
    r#"for $p in $auction//person
       for $t in $auction//closed_auction
       where $t/buyer/@person = $p/@id
       return insert { <buyer person="{$t/buyer/@person}" itemid="{$t/itemref/@item}" /> }
              into { $purchasers/purchasers }"#,
    "every $p in $auction//person satisfies exists($p/@id)",
    "for $t in $auction//closed_auction order by xs:double($t/price) return string($t/price)",
    "string(($auction//person)[1]/name)",
    "count($auction//description)",
    r#"for $p in $auction/site/people/person
       let $a := for $t in $auction/site/closed_auctions/closed_auction
                 where $t/buyer/@person = $p/@id
                 return $t
       return count($a)"#,
    r#"sum(for $p in $auction/site/people/person
           return count($auction//closed_auction[buyer/@person = $p/@id]))"#,
    "count($purchasers//buyer)",
    "count(for $b in $purchasers//buyer return $auction//person[@id = $b/@person])",
    "some $t in $auction//closed_auction satisfies $t/price > 0",
    "avg($auction//closed_auction/price)",
    "min($auction//closed_auction/price)",
    "max($auction//closed_auction/price)",
];
