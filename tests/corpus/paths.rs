//! The path battery's generator: random trees under `<r>`, a few random
//! updates to apply first, and a random 1–3-step path run from one origin
//! or from many. Generation draws from the vendored proptest RNG keyed on
//! [`SEED`], so every run replays the same [`CASES`] cases.

use proptest::test_runner::TestRng;

/// The pinned generator key: changing it changes every case.
pub const SEED: &str = "path_battery/v1";
/// Generated (tree, path) cases per run.
pub const CASES: u32 = 160;
/// Element names: small, so name buckets collide across subtrees.
const NAMES: [&str; 4] = ["a", "b", "c", "x"];
/// Distinct `@a` values: enough that a value bucket is usually small.
const VALUES: usize = 6;
/// Most elements one tree may hold.
const MAX_ELEMENTS: usize = 400;

/// Append a random element subtree at `depth` to `xml`.
fn gen_element(rng: &mut TestRng, depth: usize, budget: &mut usize, xml: &mut String) {
    *budget = budget.saturating_sub(1);
    let name = NAMES[rng.below(NAMES.len())];
    xml.push('<');
    xml.push_str(name);
    if rng.below(2) == 0 {
        xml.push_str(&format!(" a=\"v{}\"", rng.below(VALUES)));
    }
    xml.push('>');
    // Fanout shrinks with depth; a few wide nodes near the root give the
    // child-axis gate a parent worth scanning around.
    let max_fanout = match depth {
        0 => 24,
        1 => 12,
        2 | 3 => 5,
        _ => 0,
    };
    let fanout = rng.below(max_fanout + 1);
    for _ in 0..fanout {
        if *budget == 0 {
            break;
        }
        gen_element(rng, depth + 1, budget, xml);
    }
    xml.push_str("</");
    xml.push_str(name);
    xml.push('>');
}

/// A random document under a fixed `<r>` root.
fn gen_tree(rng: &mut TestRng) -> String {
    let mut xml = String::from("<r>");
    let mut budget = MAX_ELEMENTS;
    let roots = 1 + rng.below(3);
    for _ in 0..roots {
        gen_element(rng, 0, &mut budget, &mut xml);
    }
    xml.push_str("</r>");
    xml
}

/// A random 1–3-step relative path: child, descendant or
/// descendant-or-self, by name or `*`, with an optional `[@a = "v"]`.
fn gen_path(rng: &mut TestRng) -> String {
    let mut path = String::new();
    for _ in 0..1 + rng.below(3) {
        path.push_str(["/", "//", "/descendant-or-self::"][rng.below(3)]);
        if rng.below(5) == 0 {
            path.push('*');
        } else {
            path.push_str(NAMES[rng.below(NAMES.len())]);
        }
        if rng.below(2) == 0 {
            path.push_str(&format!("[@a = \"v{}\"]", rng.below(VALUES)));
        }
    }
    path
}

/// 1–3 random updates, applied in one snap before the query: inserted
/// and renamed elements take ids out of document order (index buckets
/// iterate by id, so a scan's output must really be sorted), and every
/// update moves index entries the rebuild check then audits.
fn gen_updates(rng: &mut TestRng) -> String {
    let mut updates = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let name = NAMES[rng.below(NAMES.len())];
        let other = NAMES[rng.below(NAMES.len())];
        let nth = 1 + rng.below(3);
        let value = rng.below(VALUES);
        updates.push(match rng.below(5) {
            0 | 1 => format!(
                "for $t in ($doc//{name})[{nth}] return insert {{ <{other} a=\"v{value}\"><{name}/></{other}> }} as first into {{ $t }}"
            ),
            2 => format!("for $t in ($doc//{name})[{nth}] return rename {{ $t }} to {{ \"{other}\" }}"),
            3 => format!(
                "for $t in ($doc//{name}[@a])[{nth}] return replace value of {{ $t/@a }} with {{ \"v{value}\" }}"
            ),
            _ => format!("for $t in ($doc//{name})[{nth}] return delete {{ $t }}"),
        });
    }
    format!("snap {{ {} }}", updates.join(", "))
}

/// A query running the path from one origin (`$doc/r`) or from every
/// `x` element (`for $o in $doc//x return $o…`).
fn gen_query(rng: &mut TestRng) -> String {
    let path = gen_path(rng);
    match rng.below(2) {
        0 => format!("$doc/r{path}"),
        _ => format!("for $o in $doc//x return $o{path}"),
    }
}

/// Case `n`: a document, the updates run on it first, and the query.
pub fn case(n: u32) -> (String, String, String) {
    let mut rng = TestRng::for_case(SEED, n);
    let doc = gen_tree(&mut rng);
    let updates = gen_updates(&mut rng);
    let query = gen_query(&mut rng);
    (doc, updates, query)
}
