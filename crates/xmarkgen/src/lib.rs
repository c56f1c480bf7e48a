//! # xmarkgen — a deterministic XMark-shaped data generator
//!
//! The paper evaluates on the XMark benchmark document (\[23\] Schmidt et
//! al., VLDB 2002), generated by the original `xmlgen` tool. That tool (and
//! its Shakespeare-derived text corpus) is not available offline, so this
//! crate synthesizes documents with the same *schema shape* and the same
//! *reference structure* — which is all the paper's experiments observe:
//!
//! * `person/@id` ↔ `closed_auction/buyer/@person` references with XMark's
//!   exactly-one-buyer-per-auction join structure (so the Q8-variant join
//!   has `|matches| = |closed_auctions|`);
//! * `item/@id` ↔ `itemref/@item` references;
//! * XMark f=1 entity proportions (25 500 persons : 21 750 items : 9 750
//!   closed auctions : 12 000 open auctions), scaled down by a factor;
//! * realistic element/attribute/text mix so parser, store, and path
//!   evaluation costs are representative.
//!
//! Generation is seeded and fully deterministic: the same [`Scale`] and
//! seed produce byte-identical documents.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xqdm::{NodeId, QName, Store, XdmResult};

/// Entity counts for one generated document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of `person` elements.
    pub persons: usize,
    /// Number of `item` elements (across all regions).
    pub items: usize,
    /// Number of `closed_auction` elements.
    pub closed_auctions: usize,
    /// Number of `open_auction` elements.
    pub open_auctions: usize,
}

impl Scale {
    /// XMark's f=1 proportions scaled by `factor` (f=1 is a ~100 MB
    /// document; factor 0.01 is roughly XMark f=0.01).
    pub fn factor(factor: f64) -> Scale {
        let f = |base: f64| ((base * factor).round() as usize).max(1);
        Scale {
            persons: f(25_500.0),
            items: f(21_750.0),
            closed_auctions: f(9_750.0),
            open_auctions: f(12_000.0),
        }
    }

    /// A scale with explicit person/closed-auction counts (items and open
    /// auctions follow; used by benches sweeping the two join sides
    /// independently).
    pub fn join_sides(persons: usize, closed_auctions: usize) -> Scale {
        Scale {
            persons,
            items: (closed_auctions * 2).max(1),
            closed_auctions,
            open_auctions: 1,
        }
    }

    /// ~60 elements: smoke tests.
    pub fn tiny() -> Scale {
        Scale {
            persons: 5,
            items: 6,
            closed_auctions: 4,
            open_auctions: 3,
        }
    }

    /// f = 0.005 (~350 entities): unit-test scale.
    pub fn small() -> Scale {
        Scale::factor(0.005)
    }
}

/// The generator.
pub struct XmarkGen {
    rng: StdRng,
}

/// Word pool for names and descriptions (stands in for xmlgen's
/// Shakespeare corpus; the experiments never look at the text).
const WORDS: &[&str] = &[
    "duteous",
    "great",
    "wicked",
    "sovereign",
    "mortal",
    "golden",
    "cunning",
    "gentle",
    "hollow",
    "noble",
    "ancient",
    "brazen",
    "crimson",
    "dismal",
    "eager",
    "fickle",
    "grave",
    "hasty",
    "idle",
    "jovial",
    "keen",
    "lofty",
    "merry",
    "nimble",
];

const COUNTRIES: &[&str] = &[
    "United States",
    "Germany",
    "Italy",
    "Japan",
    "France",
    "Malaysia",
    "Peru",
];

const REGIONS: &[&str] = &[
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];

impl XmarkGen {
    /// A generator with the given seed.
    pub fn new(seed: u64) -> Self {
        XmarkGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn word(&mut self) -> &'static str {
        WORDS[self.rng.gen_range(0..WORDS.len())]
    }

    fn words(&mut self, n: usize) -> String {
        (0..n).map(|_| self.word()).collect::<Vec<_>>().join(" ")
    }

    /// Generate a `site` document into `store`; returns the document node.
    pub fn generate(&mut self, store: &mut Store, scale: &Scale) -> XdmResult<NodeId> {
        let doc = store.new_document();
        let site = elem(store, "site");
        store.append_child(doc, site)?;

        // Regions with items.
        let regions = elem(store, "regions");
        store.append_child(site, regions)?;
        let mut region_elems = Vec::new();
        for r in REGIONS {
            let e = elem(store, r);
            store.append_child(regions, e)?;
            region_elems.push(e);
        }
        for i in 0..scale.items {
            let region = region_elems[i % region_elems.len()];
            let item = self.item(store, i)?;
            store.append_child(region, item)?;
        }

        // People.
        let people = elem(store, "people");
        store.append_child(site, people)?;
        for i in 0..scale.persons {
            let p = self.person(store, i)?;
            store.append_child(people, p)?;
        }

        // Open auctions.
        let opens = elem(store, "open_auctions");
        store.append_child(site, opens)?;
        for i in 0..scale.open_auctions {
            let oa = self.open_auction(store, i, scale)?;
            store.append_child(opens, oa)?;
        }

        // Closed auctions.
        let closeds = elem(store, "closed_auctions");
        store.append_child(site, closeds)?;
        for _ in 0..scale.closed_auctions {
            let ca = self.closed_auction(store, scale)?;
            store.append_child(closeds, ca)?;
        }
        Ok(doc)
    }

    /// Generate a document as XML text (exercises the parser on realistic
    /// input; used by the parser benchmark and the examples).
    pub fn generate_xml(&mut self, scale: &Scale) -> XdmResult<String> {
        let mut store = Store::new();
        let doc = self.generate(&mut store, scale)?;
        xqdm::xml::serialize(&store, doc)
    }

    fn item(&mut self, store: &mut Store, i: usize) -> XdmResult<NodeId> {
        let item = elem(store, "item");
        attr(store, item, "id", &format!("item{i}"))?;
        let name = self.words(2);
        append_text_elem(store, item, "name", &name)?;
        let loc = COUNTRIES[self.rng.gen_range(0..COUNTRIES.len())];
        append_text_elem(store, item, "location", loc)?;
        let qty = self.rng.gen_range(1..=5).to_string();
        append_text_elem(store, item, "quantity", &qty)?;
        let desc = elem(store, "description");
        let words = self.words(6);
        append_text_elem(store, desc, "text", &words)?;
        store.append_child(item, desc)?;
        Ok(item)
    }

    fn person(&mut self, store: &mut Store, i: usize) -> XdmResult<NodeId> {
        let person = elem(store, "person");
        attr(store, person, "id", &format!("person{i}"))?;
        let name = format!("{} {}", capitalize(self.word()), capitalize(self.word()));
        append_text_elem(store, person, "name", &name)?;
        append_text_elem(
            store,
            person,
            "emailaddress",
            &format!("mailto:user{i}@example.org"),
        )?;
        // ~60% of persons have an address (XMark makes many children
        // optional; optionality matters for path selectivity).
        if self.rng.gen_bool(0.6) {
            let addr = elem(store, "address");
            let country = COUNTRIES[self.rng.gen_range(0..COUNTRIES.len())];
            append_text_elem(store, addr, "country", country)?;
            let city = capitalize(self.word());
            append_text_elem(store, addr, "city", &city)?;
            store.append_child(person, addr)?;
        }
        if self.rng.gen_bool(0.3) {
            let inc = self.rng.gen_range(20_000..100_000);
            let profile = elem(store, "profile");
            attr(store, profile, "income", &format!("{inc}"))?;
            store.append_child(person, profile)?;
        }
        Ok(person)
    }

    fn open_auction(&mut self, store: &mut Store, i: usize, scale: &Scale) -> XdmResult<NodeId> {
        let oa = elem(store, "open_auction");
        attr(store, oa, "id", &format!("open_auction{i}"))?;
        let initial = format!("{:.2}", self.rng.gen_range(1.0..100.0));
        append_text_elem(store, oa, "initial", &initial)?;
        for _ in 0..self.rng.gen_range(0..4) {
            let bidder = elem(store, "bidder");
            let inc = format!("{:.2}", self.rng.gen_range(1.0..20.0));
            append_text_elem(store, bidder, "increase", &inc)?;
            store.append_child(oa, bidder)?;
        }
        let itemref = elem(store, "itemref");
        let item = self.rng.gen_range(0..scale.items);
        attr(store, itemref, "item", &format!("item{item}"))?;
        store.append_child(oa, itemref)?;
        let seller = elem(store, "seller");
        let p = self.rng.gen_range(0..scale.persons);
        attr(store, seller, "person", &format!("person{p}"))?;
        store.append_child(oa, seller)?;
        Ok(oa)
    }

    fn closed_auction(&mut self, store: &mut Store, scale: &Scale) -> XdmResult<NodeId> {
        let ca = elem(store, "closed_auction");
        let seller = elem(store, "seller");
        let sp = self.rng.gen_range(0..scale.persons);
        attr(store, seller, "person", &format!("person{sp}"))?;
        store.append_child(ca, seller)?;
        // Exactly one buyer per closed auction, uniform over persons: the
        // Q8 join then has |matches| = |closed_auctions|.
        let buyer = elem(store, "buyer");
        let bp = self.rng.gen_range(0..scale.persons);
        attr(store, buyer, "person", &format!("person{bp}"))?;
        store.append_child(ca, buyer)?;
        let itemref = elem(store, "itemref");
        let item = self.rng.gen_range(0..scale.items);
        attr(store, itemref, "item", &format!("item{item}"))?;
        store.append_child(ca, itemref)?;
        let price = format!("{:.2}", self.rng.gen_range(1.0..500.0));
        append_text_elem(store, ca, "price", &price)?;
        let date = format!(
            "{:02}/{:02}/{}",
            self.rng.gen_range(1..=12),
            self.rng.gen_range(1..=28),
            self.rng.gen_range(1998..=2002)
        );
        append_text_elem(store, ca, "date", &date)?;
        Ok(ca)
    }
}

fn elem(store: &mut Store, name: &str) -> NodeId {
    store.new_element(QName::local(name))
}

fn attr(store: &mut Store, elem: NodeId, name: &str, value: &str) -> XdmResult<()> {
    let a = store.new_attribute(QName::local(name), value);
    store.attach_attribute(elem, a)
}

fn append_text_elem(
    store: &mut Store,
    parent: NodeId,
    name: &str,
    text: &str,
) -> XdmResult<NodeId> {
    let e = store.new_element(QName::local(name));
    let t = store.new_text(text);
    store.append_child(e, t)?;
    store.append_child(parent, e)?;
    Ok(e)
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_named(store: &Store, root: NodeId, name: &str) -> usize {
        store
            .descendants(root)
            .unwrap()
            .into_iter()
            .filter(|&n| {
                store
                    .name(n)
                    .ok()
                    .flatten()
                    .map(|q| q.local == name)
                    .unwrap_or(false)
            })
            .count()
    }

    #[test]
    fn entity_counts_match_scale() {
        let scale = Scale {
            persons: 20,
            items: 15,
            closed_auctions: 10,
            open_auctions: 5,
        };
        let mut store = Store::new();
        let doc = XmarkGen::new(1).generate(&mut store, &scale).unwrap();
        assert_eq!(count_named(&store, doc, "person"), 20);
        assert_eq!(count_named(&store, doc, "item"), 15);
        assert_eq!(count_named(&store, doc, "closed_auction"), 10);
        assert_eq!(count_named(&store, doc, "open_auction"), 5);
        // Exactly one buyer per closed auction.
        assert_eq!(count_named(&store, doc, "buyer"), 10);
    }

    #[test]
    fn generation_is_deterministic() {
        let scale = Scale::tiny();
        let a = XmarkGen::new(42).generate_xml(&scale).unwrap();
        let b = XmarkGen::new(42).generate_xml(&scale).unwrap();
        assert_eq!(a, b);
        let c = XmarkGen::new(43).generate_xml(&scale).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn buyer_references_resolve_to_persons() {
        let scale = Scale::tiny();
        let mut store = Store::new();
        let doc = XmarkGen::new(7).generate(&mut store, &scale).unwrap();
        for n in store.descendants(doc).unwrap() {
            if store
                .name(n)
                .unwrap()
                .map(|q| q.local == "buyer")
                .unwrap_or(false)
            {
                let attr = store.attribute_by_name(n, "person").unwrap().unwrap();
                let v = store.string_value(attr).unwrap();
                let idx: usize = v.strip_prefix("person").unwrap().parse().unwrap();
                assert!(idx < scale.persons);
            }
        }
    }

    #[test]
    fn generated_xml_round_trips_through_parser() {
        let xml = XmarkGen::new(3).generate_xml(&Scale::tiny()).unwrap();
        let mut store = Store::new();
        let doc = xqdm::xml::parse_document(&mut store, &xml).unwrap();
        let again = xqdm::xml::serialize(&store, doc).unwrap();
        assert_eq!(xml, again);
    }

    #[test]
    fn factor_preserves_xmark_ratios() {
        let s = Scale::factor(0.01);
        assert_eq!(s.persons, 255);
        assert_eq!(s.items, 218);
        assert_eq!(s.closed_auctions, 98);
        assert_eq!(s.open_auctions, 120);
    }

    #[test]
    fn queryable_through_the_engine() {
        let mut store = Store::new();
        let scale = Scale::tiny();
        let doc = XmarkGen::new(5).generate(&mut store, &scale).unwrap();
        let mut engine = xqcore::Engine::new();
        engine.store = store;
        engine.bind("auction", xqdm::seq![xqdm::Item::Node(doc)]);
        let r = engine.run("count($auction//person)").unwrap();
        assert_eq!(engine.serialize(&r).unwrap(), "5");
        let r = engine
            .run("count($auction//closed_auction[buyer/@person = \"person0\"])")
            .unwrap();
        // Deterministic for this seed; just check it parses to a number.
        assert!(!r.is_empty());
    }
}
