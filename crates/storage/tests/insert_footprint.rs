//! What one INSERT allocates, pinned with exact counts rather than
//! timings.
//!
//! A counting global allocator counts the heap allocations (`alloc` and
//! `realloc` calls) that statistics and index maintenance make for one
//! document added to a warm collection: every path and name of the
//! document is already in the dictionary, as for nearly every INSERT of
//! a running workload. Statistics resolve each node to its path by one
//! dictionary probe from its parent's path, so what they allocate is a
//! per-document column, a name remap, concatenated interior values and
//! new distinct values, not a label stack per node. Index maintenance
//! adds what the keys and postings themselves need.
//!
//! The documents are the benchmark's 104-node INSERT body, the 75-node
//! body `tests/commit_sharing.rs` commits, and one XMark document.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xia_index::{DataType, IndexDefinition, IndexId};
use xia_storage::{Collection, CollectionStats};
use xia_workload::{XMarkConfig, XMarkGen};
use xia_xml::{Document, DocumentBuilder};
use xia_xpath::LinearPath;

/// Counts allocations per thread, so tests running in parallel do not
/// see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with` so an allocation during thread teardown is not counted
    // rather than a panic.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The benchmark's INSERT body (`benchmark/src/pools.rs`): two regions
/// of two items each, a person with a profile, an open and a closed
/// auction. 104 nodes. Values vary with `i`.
fn bench_body(i: usize) -> Document {
    const WORDS: [&str; 4] = ["vintage", "rare", "signed", "boxed"];
    let mut b = DocumentBuilder::new();
    b.open("site").open("regions");
    for region in ["europe", "namerica"] {
        b.open(region);
        for j in 0..2 {
            let k = i * 4 + j;
            b.open("item").attr("id", &format!("new{i}_{region}_{j}"));
            b.attr("featured", "no");
            b.leaf("location", "Berlin");
            b.leaf("name", &format!("{} lot", WORDS[k % 4]));
            let words: Vec<&str> = (0..6).map(|w| WORDS[(k + w) % 4]).collect();
            b.open("description").leaf("text", &words.join(" ")).close();
            b.leaf("price", &format!("{}.{:02}", 1 + k * 37 % 400, k % 100));
            b.leaf("quantity", &format!("{}", 1 + k % 9));
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
    b.open("profile").leaf("age", &format!("{}", 18 + i % 60));
    b.leaf("income", &format!("{}.49", 30_000 + i * 977 % 120_000));
    b.close().close().close();
    b.open("open_auctions").open("open_auction");
    b.leaf("initial", &format!("{}.19", 1 + i * 7 % 90));
    b.leaf("current", &format!("{}.95", 10 + i * 7 % 90));
    b.leaf("itemref", &format!("new{i}_europe_0"));
    b.close().close();
    b.open("closed_auctions").open("closed_auction");
    b.leaf("price", &format!("{}.50", 5 + i * 11 % 700));
    b.leaf("date", "2007-06-15");
    b.leaf("itemref", &format!("new{i}_namerica_0"));
    b.close().close().close();
    b.finish().expect("balanced document")
}

/// The body `tests/commit_sharing.rs` commits: 75 nodes.
fn sharing_body(i: usize) -> Document {
    let mut b = DocumentBuilder::new();
    b.open("site").open("regions");
    for region in ["europe", "namerica"] {
        b.open(region);
        for j in 0..2 {
            let k = i * 4 + j;
            b.open("item").attr("id", &format!("new{i}_{region}_{j}"));
            b.leaf("location", "Berlin");
            b.leaf("name", &format!("lot {}", k % 13));
            b.open("description")
                .leaf("text", &format!("rare signed lot {k}"))
                .close();
            b.leaf("price", &format!("{}.{:02}", 1 + k * 37 % 400, k % 100));
            b.leaf("quantity", &format!("{}", 1 + k % 9));
            b.close();
        }
        b.close();
    }
    b.close();
    b.open("people")
        .open("person")
        .attr("id", &format!("newperson{i}"));
    b.leaf("name", "Ann Smith");
    b.leaf("emailaddress", &format!("newperson{i}@example.org"));
    b.close().close();
    b.open("open_auctions").open("open_auction");
    b.leaf("initial", &format!("{}.50", 1 + i * 7 % 90));
    b.leaf("itemref", &format!("new{i}_europe_0"));
    b.close().close();
    b.open("closed_auctions").open("closed_auction");
    b.leaf("price", &format!("{}.25", 5 + i * 11 % 700));
    b.leaf("date", "2007-06-15");
    b.close().close().close();
    b.finish().expect("balanced document")
}

/// Light XMark documents, seed 42: the first `n` of them.
fn xmark(n: usize) -> Vec<Document> {
    XMarkGen::new(XMarkConfig {
        docs: n,
        ..Default::default()
    })
    .generate()
}

/// 24 index patterns over the auction paths, the size of the
/// configuration the advisor recommends for the `advise_templates`
/// workload: child chains, `//`, `*` and attributes, both key types.
const INDEXES: [(&str, DataType); 24] = [
    ("/site/regions/europe/item/price", DataType::Double),
    ("/site/regions/namerica/item/price", DataType::Double),
    ("//item/price", DataType::Double),
    ("//item/quantity", DataType::Double),
    ("//item/name", DataType::Varchar),
    ("//item/location", DataType::Varchar),
    ("//item/payment", DataType::Varchar),
    ("//item/category", DataType::Varchar),
    ("//item/@id", DataType::Varchar),
    ("//item/@featured", DataType::Varchar),
    ("/site/regions/*/item/description/text", DataType::Varchar),
    ("//person/name", DataType::Varchar),
    ("//person/emailaddress", DataType::Varchar),
    ("//person/@id", DataType::Varchar),
    ("//profile/age", DataType::Double),
    ("//profile/income", DataType::Double),
    ("//open_auction/initial", DataType::Double),
    ("//open_auction/current", DataType::Double),
    ("//open_auction/itemref", DataType::Varchar),
    ("//closed_auction/price", DataType::Double),
    ("//closed_auction/date", DataType::Varchar),
    ("//closed_auction/itemref", DataType::Varchar),
    ("//*/@*", DataType::Varchar),
    ("/site/*/*/*/price", DataType::Double),
];

/// A collection of 20 XMark documents and one warm-up document of the
/// measured shape, with the first `indexes` of [`INDEXES`].
fn warm_collection(warm_up: Document, indexes: usize) -> Collection {
    let mut c = Collection::new("auctions");
    for d in xmark(20) {
        c.insert(d);
    }
    c.insert(warm_up);
    for (i, &(pattern, ty)) in INDEXES.iter().take(indexes).enumerate() {
        let pattern = LinearPath::parse(pattern).expect("valid pattern");
        c.create_index(IndexDefinition::new(IndexId(i as u32), pattern, ty));
    }
    c
}

/// Allocations of `add_document` and of `Collection::insert` with 0, 2
/// and 24 indexes, for a document made by `make(1)` after a warm-up
/// document `make(0)`.
fn footprint(make: impl Fn(usize) -> Document) -> [usize; 4] {
    let mut stats = CollectionStats::new();
    for d in xmark(20) {
        stats.add_document(&d);
    }
    stats.add_document(&make(0));
    let paths = stats.path_count();
    let doc = make(1);
    let (add, _) = allocations(|| stats.add_document(&doc));
    assert_eq!(
        stats.path_count(),
        paths,
        "the measured document adds no path"
    );

    let mut out = [add, 0, 0, 0];
    for (slot, indexes) in [0, 2, 24].into_iter().enumerate() {
        let mut c = warm_collection(make(0), indexes);
        let doc = make(1);
        let (n, _) = allocations(|| c.insert(doc));
        out[slot + 1] = n;
    }
    out
}

#[test]
fn statistics_allocate_less_than_one_block_per_node() {
    let body = bench_body(1);
    assert_eq!(body.node_count(), 104);
    let [add, ..] = footprint(bench_body);
    println!("104-node body: add_document {add} allocations");
    assert!(add < body.node_count(), "{add} allocations for 104 nodes");
}

#[test]
fn an_insert_allocates_exactly_the_pinned_counts() {
    let xmark_doc = |i: usize| xmark(22).swap_remove(20 + i);
    let got = [
        (
            "104-node body",
            bench_body(1).node_count(),
            footprint(bench_body),
        ),
        (
            "75-node body",
            sharing_body(1).node_count(),
            footprint(sharing_body),
        ),
        (
            "XMark document",
            xmark_doc(1).node_count(),
            footprint(xmark_doc),
        ),
    ];
    for (name, nodes, [add, i0, i2, i24]) in &got {
        println!(
            "{name} ({nodes} nodes): add_document {add}, insert with 0/2/24 indexes {i0}/{i2}/{i24}"
        );
    }
    let counts: Vec<[usize; 4]> = got.iter().map(|g| g.2).collect();
    assert_eq!(
        counts,
        [[49, 50, 54, 111], [55, 56, 60, 105], [215, 216, 220, 452]]
    );
}
