//! Everything the program is fed: query texts, INSERT bodies and the
//! advisor's captured statements, all derived from `--seed`.
//!
//! A seed changes the data, every literal and the op order, but not the
//! shape of the work: query literals are placed by rank in the
//! generated data's own value distribution, so a text selects the same
//! number of rows whatever the seed drew.

use crate::rng::Rng;
use xia::prelude::*;

pub const COLLECTION: &str = "auctions";
/// Distinct INSERT bodies generated per run; ops draw among them.
pub const BODIES: usize = 256;

/// A query template: the text around one numeric literal, and the
/// values that literal is compared with.
struct Template {
    render: fn(&str) -> String,
    /// A query selecting the compared values.
    values: &'static str,
    /// `>` and `>=` select the top of the distribution, `<` the bottom.
    selects_top: bool,
}

/// How many of the compared values a pool text selects.
#[derive(Clone, Copy)]
enum Selects {
    /// Between this many and this many of them.
    Count(usize, usize),
    /// Between these shares of them.
    Share(f64, f64),
}

/// Selective templates across the three surface languages: with the
/// advisor's indexes in place each is an index plan returning few rows.
const POINT_TEMPLATES: [Template; 8] = [
    Template {
        render: |x| format!("/site/regions/europe/item[price > {x}]/name"),
        values: "/site/regions/europe/item/price",
        selects_top: true,
    },
    Template {
        render: |x| format!("/site/regions/namerica/item[price > {x}]/quantity"),
        values: "/site/regions/namerica/item/price",
        selects_top: true,
    },
    Template {
        render: |x| format!("//person[profile/income < {x}]/name"),
        values: "//person/profile/income",
        selects_top: false,
    },
    Template {
        render: |x| format!("//closed_auction[price >= {x}]/date"),
        values: "//closed_auction/price",
        selects_top: true,
    },
    Template {
        render: |x| format!("//open_auction[initial >= {x}]/current"),
        values: "//open_auction/initial",
        selects_top: true,
    },
    Template {
        render: |x| {
            format!(
                "for $a in collection(\"{COLLECTION}\")//open_auction \
                 where $a/current > {x} return $a/itemref"
            )
        },
        values: "//open_auction/current",
        selects_top: true,
    },
    Template {
        render: |x| {
            format!(
                "SELECT XMLQUERY('$d//person/emailaddress') FROM {COLLECTION} \
                 WHERE XMLEXISTS('$d//person[profile/income > {x}]')"
            )
        },
        values: "//person/profile/income",
        selects_top: true,
    },
    Template {
        render: |x| format!("/site/regions/asia/item[price > {x}]/location"),
        values: "/site/regions/asia/item/price",
        selects_top: true,
    },
];
const POINT_SELECTS: Selects = Selects::Count(2, 2);

/// Scan shapes: descendant, wildcard and predicate scans with large
/// results. No index is created for this workload, so every one of
/// them is an `XSCAN` over the whole collection. Nine of them, costs
/// graded with three close together in the middle: the median op is
/// then one of those three, not a point in the gap between a cheap and
/// a dear shape where a percent more of either would move it far.
const SCAN_TEMPLATES: [Template; 9] = [
    Template {
        render: |x| format!("//closed_auction[price < {x}]/itemref"),
        values: "//closed_auction/price",
        selects_top: false,
    },
    Template {
        render: |x| format!("//open_auction[current > {x}]/bidder/increase"),
        values: "//open_auction/current",
        selects_top: true,
    },
    Template {
        render: |x| format!("//person[profile/age > {x}]/emailaddress"),
        values: "//person/profile/age",
        selects_top: true,
    },
    Template {
        render: |x| format!("/site/*/person[profile/income > {x}]/name"),
        values: "//person/profile/income",
        selects_top: true,
    },
    Template {
        render: |x| format!("//item[price > {x}]/name"),
        values: "//item/price",
        selects_top: true,
    },
    Template {
        render: |x| format!("//regions//item[price > {x}]/category"),
        values: "//item/price",
        selects_top: true,
    },
    Template {
        render: |x| format!("//item[payment = \"Cash\"][price > {x}]/name"),
        values: "//item/price",
        selects_top: true,
    },
    Template {
        render: |x| format!("/site/regions/*/item[price < {x}]/location"),
        values: "//item/price",
        selects_top: false,
    },
    Template {
        render: |x| format!("//item[quantity > 2][price > {x}]/description/text"),
        values: "//item/price",
        selects_top: true,
    },
];
const SCAN_SELECTS: Selects = Selects::Share(0.75, 0.85);

/// The numeric values `text` selects on `coll`, ascending.
fn values_of(coll: &Collection, text: &str) -> Vec<f64> {
    let q = compile(text, COLLECTION).expect("value query compiles");
    let plan = explain(coll, &CostModel::default(), &q).plan;
    let (rows, _) = execute(coll, &q, &plan).expect("value query runs");
    let mut values: Vec<f64> = rows
        .iter()
        .map(|(doc, node)| {
            let d = coll.get(*doc).expect("result doc exists");
            d.string_value(*node).parse().expect("numeric value")
        })
        .collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    values
}

/// `per_template` distinct texts from each template, template-major
/// interleaved (text `i` comes from template `i % templates`), so any
/// prefix of the pool — and any Zipf head — spans all templates. Each
/// literal falls strictly between two neighbouring data values, so the
/// text selects exactly the drawn number of them.
fn pool(
    templates: &[Template],
    selects: Selects,
    coll: &Collection,
    per_template: usize,
    rng: &mut Rng,
) -> Vec<String> {
    let mut by_template: Vec<Vec<String>> = Vec::new();
    for t in templates {
        let values = values_of(coll, t.values);
        let n = values.len();
        let (lo, hi) = match selects {
            Selects::Count(lo, hi) => (lo, hi),
            Selects::Share(lo, hi) => ((lo * n as f64) as usize, (hi * n as f64) as usize),
        };
        assert!(
            lo >= 1 && hi < n,
            "{}: {n} values cannot select {lo}..={hi}",
            t.values
        );
        // The gap a literal goes in: above it lie the top k values, or
        // below it the bottom k.
        let gap = |k: usize| {
            if t.selects_top {
                (values[n - k - 1], values[n - k])
            } else {
                (values[k - 1], values[k])
            }
        };
        let mut texts: Vec<String> = Vec::with_capacity(per_template);
        while texts.len() < per_template {
            // Data values repeat now and then, and a literal needs a gap
            // wider than its own precision: step to the nearest rank
            // that has one.
            let drawn = lo + rng.below(hi - lo + 1);
            let k = (0..n)
                .flat_map(|d| [drawn + d, drawn.saturating_sub(d)])
                .find(|&k| k >= 1 && k < n && gap(k).1 - gap(k).0 > 1e-3)
                .unwrap_or_else(|| panic!("{}: no two distinct values", t.values));
            let (below, above) = gap(k);
            let x = below + rng.range(0.1, 0.9) * (above - below);
            let text = (t.render)(&format!("{x:.8}"));
            if !texts.contains(&text) {
                texts.push(text);
            }
        }
        by_template.push(texts);
    }
    (0..per_template)
        .flat_map(|i| by_template.iter().map(move |texts| texts[i].clone()))
        .collect()
}

/// `serve_point` draws 256 texts (8 templates × 32 literals): fits the
/// monitor's 1024 entries. `serve_mixed` draws 4096 (× 512): exceeds it.
pub fn point_pool(coll: &Collection, seed: u64, per_template: usize) -> Vec<String> {
    let rng = &mut Rng::fork(seed, "point-pool");
    pool(&POINT_TEMPLATES, POINT_SELECTS, coll, per_template, rng)
}

pub fn scan_pool(coll: &Collection, seed: u64, per_template: usize) -> Vec<String> {
    let rng = &mut Rng::fork(seed, "scan-pool");
    pool(&SCAN_TEMPLATES, SCAN_SELECTS, coll, per_template, rng)
}

/// The XMark-like collection a workload runs on.
pub fn collection(config: XMarkConfig) -> Collection {
    let mut c = Collection::new(COLLECTION);
    XMarkGen::new(config).populate(&mut c);
    c
}

/// `n` INSERT bodies of 1–2 KB: small auction documents of the schema
/// the created indexes cover, so every insert maintains them. Their
/// values lie in the middle of each distribution, away from the tails
/// [`POINT_TEMPLATES`] select, so no pool query ever selects an
/// inserted node: the read side
/// of `serve_mixed` costs the same at the end of a window as at its
/// start, and its row counts stay checkable exactly, however many
/// inserts the window fits.
pub fn insert_bodies(seed: u64, n: usize) -> Vec<String> {
    const WORDS: [&str; 8] = [
        "vintage", "rare", "handmade", "signed", "antique", "boxed", "limited", "restored",
    ];
    let mut rng = Rng::fork(seed, "insert-bodies");
    (0..n)
        .map(|i| {
            let mut b = DocumentBuilder::new();
            b.open("site").open("regions");
            for region in ["europe", "namerica"] {
                b.open(region);
                for j in 0..2 {
                    b.open("item").attr("id", &format!("new{i}_{region}_{j}"));
                    b.attr("featured", "no");
                    b.leaf("location", "Berlin");
                    b.leaf("name", &format!("{} lot", WORDS[rng.below(WORDS.len())]));
                    let words: Vec<&str> = (0..6).map(|_| WORDS[rng.below(WORDS.len())]).collect();
                    b.open("description").leaf("text", &words.join(" ")).close();
                    b.leaf("price", &format!("{:.2}", rng.range(1.0, 400.0)));
                    b.leaf("quantity", &format!("{}", 1 + rng.below(9)));
                    b.leaf("payment", "Cash").leaf("category", "books").close();
                }
                b.close();
            }
            b.close();
            b.open("people")
                .open("person")
                .attr("id", &format!("newperson{i}"));
            b.leaf("name", "Ann Smith");
            b.leaf("emailaddress", &format!("newperson{i}@example.org"));
            b.open("profile")
                .leaf("age", &format!("{}", 18 + rng.below(60)));
            b.leaf("income", &format!("{:.2}", rng.range(30_000.0, 150_000.0)));
            b.close().close().close();
            let initial = rng.range(1.0, 90.0);
            b.open("open_auctions").open("open_auction");
            b.leaf("initial", &format!("{initial:.2}"));
            b.leaf("current", &format!("{:.2}", initial + rng.range(0.0, 30.0)));
            b.leaf("itemref", &format!("new{i}_europe_0"))
                .close()
                .close();
            b.open("closed_auctions").open("closed_auction");
            b.leaf("price", &format!("{:.2}", rng.range(5.0, 700.0)));
            b.leaf("date", "2007-06-15")
                .leaf("itemref", &format!("new{i}_namerica_0"));
            b.close().close().close();
            xia::xml::serialize(&b.finish().expect("balanced document"))
        })
        .collect()
}

/// A captured literal: three times in ten the template's usual value,
/// otherwise drawn from `lo..lo + span`. Compression keeps a template's
/// most frequent variant as its representative, so with a usual value
/// every seed searches the same candidates and recommends the same
/// indexes, while the statements it is priced on still differ.
fn literal(rng: &mut Rng, usual: usize, lo: usize, span: usize) -> usize {
    if rng.unit() < 0.3 {
        usual
    } else {
        lo + rng.below(span)
    }
}

/// What a monitor really captures: `n` raw statements cycling six
/// templates with varying literals (the `exp_advise_scale` shape).
/// Compression collapses them to six clusters, so the DAG is tiny and
/// the cycle is dominated by `compress`.
pub fn dup_statements(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::fork(seed, "advise-dup");
    (0..n)
        .map(|i| match i % 6 {
            0 => format!(
                "/site/regions/africa/item[price > {}]/name",
                literal(&mut rng, 300, 100, 400)
            ),
            1 => format!(
                "/site/regions/namerica/item[quantity = {}]/price",
                literal(&mut rng, 5, 1, 9)
            ),
            2 => format!(
                "//person[profile/age > {}]/name",
                literal(&mut rng, 45, 18, 60)
            ),
            3 => format!(
                "//closed_auction[price >= {}]/date",
                literal(&mut rng, 500, 200, 600)
            ),
            4 => "/site/regions/europe/item/quantity".to_string(),
            _ => format!(
                "//item[@featured = \"{}\"]/name",
                ["no", "yes"][literal(&mut rng, 0, 0, 2)]
            ),
        })
        .collect()
}

/// A template-rich capture: the standard XMark queries, their synthetic
/// variations, and 36 path/predicate variants over the schema, cycled
/// in a fixed order — more than forty templates, each seen dozens of
/// times. Compression leaves dozens of clusters, so candidates,
/// generalization, what-if and search dominate the cycle. The seed
/// draws the literals, never the templates, and draws them from a
/// narrow band around the usual value: every seed advises on the same
/// shapes at about the same selectivities, so `improvement_pct` stays
/// within a fraction of a percent across seeds.
pub fn template_statements(seed: u64, n: usize) -> Vec<String> {
    const REGIONS: [&str; 3] = ["africa", "europe", "namerica"];
    const FIELDS: [&str; 3] = ["price", "name", "quantity"];
    const PERSON: [&str; 3] = ["name", "emailaddress", "phone"];
    const OPEN: [&str; 3] = ["current", "itemref", "seller"];
    const CLOSED: [&str; 3] = ["date", "buyer", "itemref"];
    let mut rng = Rng::fork(seed, "advise-templates");
    let base = xmark_queries();
    let mut texts = base.clone();
    texts.extend(synthetic_variations(&base, &SynthConfig::default()));
    for i in 0.. {
        if texts.len() >= n {
            break;
        }
        let (region, field) = (REGIONS[i / 3 % 3], FIELDS[i % 3]);
        texts.push(match i / 9 % 4 {
            0 => format!("/site/regions/{region}/item/{field}"),
            1 => format!(
                "/site/regions/{region}/item[price > {}]/{field}",
                literal(&mut rng, 400, 380, 40)
            ),
            2 => format!(
                "/site/regions/{region}/item[quantity = {}]/{field}",
                literal(&mut rng, 5, 1, 9)
            ),
            _ => match i / 3 % 3 {
                0 => format!(
                    "//person[profile/age > {}]/{}",
                    literal(&mut rng, 64, 60, 8),
                    PERSON[i % 3]
                ),
                1 => format!(
                    "//open_auction[initial >= {}]/{}",
                    literal(&mut rng, 80, 75, 10),
                    OPEN[i % 3]
                ),
                _ => format!(
                    "//closed_auction[price >= {}]/{}",
                    literal(&mut rng, 640, 620, 40),
                    CLOSED[i % 3]
                ),
            },
        });
    }
    texts.truncate(n);
    texts
}

/// Compile captured statements into an advisor workload.
pub fn workload(texts: &[String]) -> Workload {
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    Workload::from_queries(&refs, COLLECTION).expect("generated statements compile")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn small() -> Collection {
        collection(XMarkConfig {
            docs: 20,
            ..Default::default()
        })
    }

    fn rows(coll: &Collection, text: &str) -> usize {
        let q = compile(text, COLLECTION).expect(text);
        coll.documents()
            .map(|(_, d)| q.run_on_document(d).len())
            .sum()
    }

    #[test]
    fn pools_are_distinct_deterministic_and_seed_dependent() {
        let coll = small();
        let a = point_pool(&coll, 42, 32);
        assert_eq!(a.len(), 256);
        assert_eq!(a.iter().collect::<BTreeSet<_>>().len(), 256);
        assert_eq!(a, point_pool(&coll, 42, 32));
        assert_ne!(a, point_pool(&coll, 7, 32));
        assert_eq!(scan_pool(&coll, 42, 8).len(), 72);
    }

    #[test]
    fn pool_texts_select_the_rows_they_were_placed_for() {
        let coll = small();
        let pool = point_pool(&coll, 42, 4);
        let langs: BTreeSet<String> = pool[..8]
            .iter()
            .map(|t| compile(t, COLLECTION).expect(t).language.to_string())
            .collect();
        assert_eq!(langs.len(), 3, "{langs:?}");
        let Selects::Count(lo, hi) = POINT_SELECTS else {
            panic!("point texts select by count")
        };
        for (i, text) in pool.iter().enumerate() {
            // The SQL/XML template returns every person of a matching
            // document (four each); the others one row per match.
            let per_match = if i % 8 == 6 { 4 } else { 1 };
            let n = rows(&coll, text);
            assert!(
                (lo * per_match..=hi * per_match).contains(&n),
                "{n} rows: {text}"
            );
        }
        let items = rows(&coll, "//item/price") as f64;
        let n = rows(&coll, &scan_pool(&coll, 42, 1)[4]) as f64;
        assert!((0.74..=0.86).contains(&(n / items)), "{n} of {items}");
    }

    #[test]
    fn insert_bodies_are_one_to_two_kib_and_match_no_pool_query() {
        let mut coll = Collection::new(COLLECTION);
        for body in insert_bodies(42, 8) {
            assert!((1024..=2048).contains(&body.len()), "{} bytes", body.len());
            coll.insert(Document::parse(&body).expect("well-formed"));
        }
        for text in point_pool(&small(), 42, 4) {
            assert_eq!(rows(&coll, &text), 0, "{text}");
        }
    }

    #[test]
    fn advise_captures_have_the_template_counts_they_claim() {
        let templates = |texts: &[String]| {
            workload(texts)
                .queries()
                .map(|(q, _)| xia::advisor::template_key(q))
                .collect::<BTreeSet<_>>()
                .len()
        };
        assert_eq!(templates(&dup_statements(42, 600)), 6);
        assert!(templates(&template_statements(42, 600)) >= 40);
        assert_eq!(dup_statements(42, 60), dup_statements(42, 60));
        assert_ne!(template_statements(42, 60), template_statements(7, 60));
    }
}
