//! Seeded differential: the path-id dictionary against label paths.
//!
//! Statistics resolve each node to a [`PathId`] by one transition from
//! its parent's path, and a physical index maintains itself from the set
//! of dictionary paths its pattern matches. Both replace a per-node walk
//! to the root and a label-path match. This test keeps that walk as the
//! reference and checks, over generated and XMark documents on two
//! seeds, with inserts, deletes and re-inserts:
//!
//! (a) the statistics digest equals one rendered from a map keyed by
//!     label strings;
//! (b) for every node and every pattern, membership of the node's path
//!     in the pattern's path set equals `matches_label_path` on the
//!     node's labels;
//! (c) postings maintained by insert, postings built by `create_index`
//!     and postings from the reference walk are equal, including for an
//!     index created before any document reaches its path.

use std::collections::{BTreeMap, HashMap};
use xia_index::{DataType, IndexDefinition, IndexId, IndexKey, PhysicalIndex};
use xia_storage::{derived_fingerprint, Collection, Database, DocId, PathId};
use xia_workload::{XMarkConfig, XMarkGen};
use xia_xml::{Document, DocumentBuilder, NodeId, NodeKind};
use xia_xpath::LinearPath;

const SEEDS: [u64; 2] = [42, 7];

/// Patterns with child steps, `//`, `*`, `@attr` and `@*`, over both the
/// generated labels and the XMark ones. Some reach no path until late
/// documents (`/r/z/*`) or never.
const PATTERNS: [&str; 22] = [
    "/r",
    "/r/a",
    "/r/a/b",
    "//b",
    "//a//c",
    "/r/*/c",
    "//*",
    "//c/@id",
    "//@k",
    "//*/@*",
    "/r/*/@*",
    "/r/z/*",
    "//z//@id",
    "/nothing/here",
    "//item/price",
    "/site/regions/*/item/@id",
    "//item/@*",
    "//person//income",
    "/site/*/person/name",
    "//open_auction//date",
    "//description/text",
    "/site",
];

/// xorshift64*: a small deterministic stream per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random document under `<r>`: labels from a small alphabet at every
/// depth (so `//` patterns match at several), attributes, mixed content
/// (several text nodes in one element), numbers and strings. From
/// document 6 on, a `z` subtree brings new paths.
fn generated(rng: &mut Rng, i: usize) -> Document {
    fn subtree(b: &mut DocumentBuilder, rng: &mut Rng, depth: usize, late: bool) {
        const LABELS: [&str; 4] = ["a", "b", "c", "d"];
        for _ in 0..1 + rng.below(3) {
            let label = if late && depth == 1 && rng.below(3) == 0 {
                "z"
            } else {
                LABELS[rng.below(LABELS.len())]
            };
            b.open(label);
            if rng.below(3) == 0 {
                b.attr("id", &format!("i{}", rng.below(5)));
            }
            if rng.below(4) == 0 {
                b.attr("k", &format!("{}", rng.below(100)));
            }
            match rng.below(4) {
                0 => {
                    b.text(&format!("{}", rng.below(50)));
                }
                1 => {
                    b.text("x");
                    if depth < 4 {
                        subtree(b, rng, depth + 1, late);
                    }
                    b.text("y");
                }
                _ if depth < 4 => subtree(b, rng, depth + 1, late),
                _ => {
                    b.text(&format!("v{}", rng.below(7)));
                }
            }
            b.close();
        }
    }
    let mut b = DocumentBuilder::new();
    b.open("r");
    if rng.below(2) == 0 {
        b.attr("k", "root");
    }
    subtree(&mut b, rng, 1, i >= 6);
    b.close();
    b.finish().expect("balanced document")
}

/// Twelve generated documents, then six light XMark documents.
fn documents(seed: u64) -> Vec<Document> {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut docs: Vec<Document> = (0..12).map(|i| generated(&mut rng, i)).collect();
    docs.extend(
        XMarkGen::new(XMarkConfig {
            docs: 6,
            seed,
            ..Default::default()
        })
        .generate(),
    );
    docs
}

/// The operations every collection replays: insert each document; after
/// every fifth, delete the one inserted two steps earlier; at the end,
/// re-insert every deleted document.
enum Op {
    Insert(usize),
    Delete(DocId),
}

fn ops(docs: usize) -> Vec<Op> {
    let mut out = Vec::new();
    let mut deleted = Vec::new();
    for i in 0..docs {
        out.push(Op::Insert(i));
        if i % 5 == 4 {
            // Document `i - 2` was the `i - 2`th insert, so its id is that
            // plus the re-inserts so far (none until the end).
            out.push(Op::Delete(DocId(i as u32 - 2)));
            deleted.push(i - 2);
        }
    }
    out.extend(deleted.into_iter().map(Op::Insert));
    out
}

fn index_def(i: usize) -> IndexDefinition {
    let ty = if i % 4 == 1 {
        DataType::Double
    } else {
        DataType::Varchar
    };
    IndexDefinition::new(
        IndexId(i as u32),
        LinearPath::parse(PATTERNS[i]).expect("valid pattern"),
        ty,
    )
}

/// Replay `ops` on a fresh collection; with `indexes_first`, every
/// pattern's index exists before the first document, otherwise each is
/// built by `create_index` at the end. `stats_only` builds none.
fn replay(docs: &[Document], ops: &[Op], indexes_first: bool, stats_only: bool) -> Collection {
    let mut c = Collection::new("c");
    let defs = (0..PATTERNS.len()).map(index_def);
    if indexes_first && !stats_only {
        for d in defs.clone() {
            c.create_index(d);
        }
    }
    for op in ops {
        match op {
            Op::Insert(i) => drop(c.insert(docs[*i].clone())),
            Op::Delete(id) => assert!(c.delete(*id).is_some(), "{id:?} is live"),
        }
    }
    if !indexes_first && !stats_only {
        for d in defs {
            c.create_index(d);
        }
    }
    c
}

/// The reference walk: a node's labels from the root down.
fn labels(doc: &Document, node: NodeId) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = Some(node);
    while let Some(n) = cur {
        out.push(doc.name(n).to_string());
        cur = doc.parent(n);
    }
    out.reverse();
    out
}

/// Element and attribute nodes under the root, in document order.
fn labelled_nodes(doc: &Document) -> impl Iterator<Item = NodeId> + '_ {
    let root = doc.root_element().expect("a root element");
    std::iter::once(root)
        .chain(doc.descendants(root))
        .filter(move |&n| doc.kind(n) != NodeKind::Text)
}

/// XPath string value by recursion over children.
fn string_value(doc: &Document, node: NodeId) -> String {
    match doc.kind(node) {
        NodeKind::Element => doc
            .children(node)
            .map(|c| string_value(doc, c))
            .collect::<String>(),
        _ => doc.value(node).unwrap_or("").to_string(),
    }
}

#[derive(Default)]
struct RefPath {
    labels: Vec<String>,
    is_attribute: bool,
    count: u64,
    bytes: u64,
    strings: BTreeMap<String, u32>,
    /// Keyed by the value's bits, ordered by the value at render time.
    numbers: HashMap<u64, u32>,
}

/// Statistics kept the old way: a dictionary keyed by label strings,
/// entries in first-seen order, exact value maps (these tests never
/// reach the collapse cap).
#[derive(Default)]
struct RefStats {
    paths: Vec<RefPath>,
    by_labels: HashMap<(Vec<String>, bool), usize>,
    nodes: u64,
    bytes: u64,
    docs: u64,
}

impl RefStats {
    fn apply(&mut self, doc: &Document, add: bool) {
        for node in labelled_nodes(doc) {
            let key = (labels(doc, node), doc.kind(node) == NodeKind::Attribute);
            let next = self.paths.len();
            let i = *self.by_labels.entry(key.clone()).or_insert(next);
            if i == next {
                self.paths.push(RefPath {
                    labels: key.0,
                    is_attribute: key.1,
                    ..RefPath::default()
                });
            }
            let p = &mut self.paths[i];
            let value = string_value(doc, node);
            let num = value.trim().parse::<f64>().ok().filter(|n| !n.is_nan());
            let step = |m: &mut u32| {
                if add {
                    *m += 1
                } else {
                    *m -= 1
                }
            };
            step(p.strings.entry(value.clone()).or_default());
            p.strings.retain(|_, c| *c > 0);
            if let Some(n) = num {
                step(p.numbers.entry(n.to_bits()).or_default());
                p.numbers.retain(|_, c| *c > 0);
            }
            if add {
                p.count += 1;
                p.bytes += value.len() as u64;
                self.nodes += 1;
            } else {
                p.count -= 1;
                p.bytes -= value.len() as u64;
                self.nodes -= 1;
            }
        }
        if add {
            self.bytes += doc.byte_size() as u64;
            self.docs += 1;
        } else {
            self.bytes -= doc.byte_size() as u64;
            self.docs -= 1;
        }
    }

    /// The rendering `derived_fingerprint` gives a collection `c`
    /// without indexes.
    fn digest(&self) -> String {
        let mut out = format!(
            "collection c\nstats nodes {} bytes {} docs {} paths {}\n",
            self.nodes,
            self.bytes,
            self.docs,
            self.paths.len()
        );
        for p in &self.paths {
            out += &format!(
                "path {:?} attr {} count {} bytes {}\n",
                p.labels, p.is_attribute, p.count, p.bytes
            );
            for (k, c) in &p.strings {
                out += &format!("  s {k:?} {c}\n");
            }
            let mut numbers: Vec<(f64, u32)> = p
                .numbers
                .iter()
                .map(|(&bits, &c)| (f64::from_bits(bits), c))
                .collect();
            numbers.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (n, c) in numbers {
                out += &format!("  n {n:?} {c}\n");
            }
        }
        out
    }
}

/// The live documents of `c`, replayed the same way by the reference.
fn reference_stats(docs: &[Document], ops: &[Op]) -> RefStats {
    let mut r = RefStats::default();
    let mut by_id = Vec::new();
    for op in ops {
        match op {
            Op::Insert(i) => {
                r.apply(&docs[*i], true);
                by_id.push(*i);
            }
            Op::Delete(id) => r.apply(&docs[by_id[id.0 as usize]], false),
        }
    }
    r
}

fn digest(c: &Collection) -> String {
    let mut db = Database::new();
    db.add_collection(c.clone());
    derived_fingerprint(&db)
}

#[test]
fn statistics_equal_a_label_keyed_reference_through_inserts_and_deletes() {
    for seed in SEEDS {
        let docs = documents(seed);
        let ops = ops(docs.len());
        // After every prefix of the operations, not just at the end.
        for upto in [3, 9, ops.len() / 2, ops.len()] {
            let c = replay(&docs, &ops[..upto], false, true);
            assert_eq!(
                digest(&c),
                reference_stats(&docs, &ops[..upto]).digest(),
                "seed {seed}, first {upto} operations"
            );
        }
    }
}

#[test]
fn path_set_membership_equals_label_path_matching_on_every_node() {
    for seed in SEEDS {
        let docs = documents(seed);
        let ops = ops(docs.len());
        let c = replay(&docs, &ops, true, false);
        let stats = c.stats();
        let all: Vec<_> = stats
            .entries()
            .iter()
            .map(|e| (e.labels.as_slice(), e.is_attribute))
            .collect();
        for (i, pattern) in PATTERNS.iter().enumerate() {
            let maintained = c.index(IndexId(i as u32)).expect("created");
            assert_eq!(maintained.paths_seen(), stats.path_count(), "{pattern}");
            // The same set resolved in one go.
            let mut fresh = PhysicalIndex::build(index_def(i));
            fresh.extend_paths(all.iter().copied());
            let path = LinearPath::parse(pattern).unwrap();
            for (_, doc) in c.documents() {
                let column = stats.path_column(doc);
                assert_eq!(column.len(), doc.node_count());
                for node in doc.all_nodes() {
                    let id = column[node.as_u32() as usize];
                    if doc.kind(node) == NodeKind::Text {
                        assert_eq!(id, PathId::NONE);
                        continue;
                    }
                    let labels = labels(doc, node);
                    let is_attr = doc.kind(node) == NodeKind::Attribute;
                    // The node's path is the dictionary entry of its labels.
                    let entry = &stats.entries()[id.0 as usize];
                    assert_eq!(entry.is_attribute, is_attr);
                    assert!(entry.labels.iter().map(|l| &**l).eq(&labels));
                    let expect = path.matches_label_path(&labels, is_attr);
                    assert_eq!(
                        maintained.covers(id.0),
                        expect,
                        "seed {seed} {pattern} {labels:?}"
                    );
                    assert_eq!(
                        fresh.covers(id.0),
                        expect,
                        "seed {seed} {pattern} {labels:?}"
                    );
                }
            }
        }
    }
}

/// Postings from the reference walk: every live document's nodes whose
/// labels match, keyed by their string value.
fn reference_postings(c: &Collection, def: &IndexDefinition) -> Vec<(IndexKey, Vec<(u32, u32)>)> {
    let mut map: BTreeMap<IndexKey, Vec<(u32, u32)>> = BTreeMap::new();
    for (id, doc) in c.documents() {
        for node in labelled_nodes(doc) {
            let is_attr = doc.kind(node) == NodeKind::Attribute;
            if !def.pattern.matches_label_path(&labels(doc, node), is_attr) {
                continue;
            }
            let value = string_value(doc, node);
            let key = match def.data_type {
                DataType::Varchar => IndexKey::Str(value.as_str().into()),
                DataType::Double => match value.trim().parse::<f64>() {
                    Ok(n) if !n.is_nan() => IndexKey::Num(n),
                    _ => continue,
                },
            };
            map.entry(key).or_default().push((id.0, node.as_u32()));
        }
    }
    map.into_iter().collect()
}

fn postings(ix: &PhysicalIndex) -> Vec<(IndexKey, Vec<(u32, u32)>)> {
    ix.postings()
        .map(|(k, ps)| (k.clone(), ps.iter().map(|p| (p.doc, p.node)).collect()))
        .collect()
}

#[test]
fn maintained_built_and_reference_postings_agree() {
    for seed in SEEDS {
        let docs = documents(seed);
        let ops = ops(docs.len());
        let maintained = replay(&docs, &ops, true, false);
        let built = replay(&docs, &ops, false, false);
        let mut reached = 0;
        for (i, pattern) in PATTERNS.iter().enumerate() {
            let id = IndexId(i as u32);
            let (m, b) = (maintained.index(id).unwrap(), built.index(id).unwrap());
            let expect = reference_postings(&maintained, m.definition());
            reached += usize::from(!expect.is_empty());
            assert_eq!(postings(m), expect, "seed {seed}: maintained {pattern}");
            assert_eq!(postings(b), expect, "seed {seed}: built {pattern}");
            assert_eq!((m.len(), m.byte_size()), (b.len(), b.byte_size()));
        }
        // Only `/nothing/here` and the DOUBLE index on `/site` (whose
        // value is a whole document's text) may come out empty; the rest,
        // `/r/z/*` included, index something.
        assert!(
            reached >= PATTERNS.len() - 2,
            "seed {seed}: {reached} reached"
        );
        assert_eq!(digest(&maintained), digest(&built), "seed {seed}");
    }
}
