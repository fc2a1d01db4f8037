//! What a parsed document holds on the heap, and the size the cost
//! model prices it at.
//!
//! A counting global allocator measures the blocks and bytes a
//! [`Document`] keeps alive after `Document::parse` returns. The
//! document is an insert-body-shaped auction (1 628 bytes of text,
//! 104 nodes, 29 distinct names, 47 values), the size of what every
//! INSERT of the `serve_mixed` workload keeps for the rest of a run.
//!
//! `byte_size()` is not a memory measurement: it is the modelled size
//! that feeds `CollectionStats::total_bytes` and every page estimate, so
//! it is pinned to exact values here, whatever the arena layout is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xia_workload::{XMarkConfig, XMarkGen};
use xia_xml::{serialize, Document};

/// Counts live blocks and bytes per thread, so tests running in
/// parallel do not see each other's allocations.
struct Counting;

thread_local! {
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn account(blocks: isize, bytes: isize) {
    // `try_with` so an allocation during thread teardown is not counted
    // rather than a panic.
    let _ = LIVE.try_with(|live| {
        let (n, b) = live.get();
        live.set((n + blocks, b + bytes));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            account(1, layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        account(-1, -(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            account(0, new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Live `(blocks, bytes)` on this thread.
fn live() -> (isize, isize) {
    LIVE.with(Cell::get)
}

/// One generated INSERT body: two regions of two items each, a person,
/// an open and a closed auction.
const INSERT_BODY: &str = concat!(
    r#"<site><regions><europe><item id="new0_europe_0" featured="no"><location>Berlin</location>"#,
    r#"<name>antique lot</name><description><text>signed vintage restored handmade handmade rare</text>"#,
    r#"</description><price>21.57</price><quantity>3</quantity><payment>Cash</payment>"#,
    r#"<category>books</category></item><item id="new0_europe_1" featured="no"><location>Berlin</location>"#,
    r#"<name>limited lot</name><description><text>signed vintage limited antique restored vintage</text>"#,
    r#"</description><price>247.01</price><quantity>2</quantity><payment>Cash</payment>"#,
    r#"<category>books</category></item></europe><namerica><item id="new0_namerica_0" featured="no">"#,
    r#"<location>Berlin</location><name>rare lot</name><description><text>signed boxed signed antique "#,
    r#"rare vintage</text></description><price>214.89</price><quantity>7</quantity><payment>Cash</payment>"#,
    r#"<category>books</category></item><item id="new0_namerica_1" featured="no"><location>Berlin</location>"#,
    r#"<name>boxed lot</name><description><text>limited antique restored limited vintage rare</text>"#,
    r#"</description><price>94.38</price><quantity>1</quantity><payment>Cash</payment>"#,
    r#"<category>books</category></item></namerica></regions><people><person id="newperson0">"#,
    r#"<name>Ann Smith</name><emailaddress>newperson0@example.org</emailaddress><profile><age>70</age>"#,
    r#"<income>146587.49</income></profile></person></people><open_auctions><open_auction>"#,
    r#"<initial>81.19</initial><current>93.95</current><itemref>new0_europe_0</itemref></open_auction>"#,
    r#"</open_auctions><closed_auctions><closed_auction><price>410.50</price><date>2007-06-15</date>"#,
    r#"<itemref>new0_namerica_0</itemref></closed_auction></closed_auctions></site>"#,
);

#[test]
fn an_insert_body_parses_into_a_few_compact_blocks() {
    assert_eq!(INSERT_BODY.len(), 1628);
    let before = live();
    let doc = Document::parse(INSERT_BODY).expect("body parses");
    let after = live();
    let (blocks, bytes) = (after.0 - before.0, after.1 - before.1);
    assert_eq!(doc.node_count(), 104);
    assert_eq!(doc.names().len(), 29);
    let values = doc.all_nodes().filter(|&n| doc.value(n).is_some()).count();
    assert_eq!(values, 47);
    println!("insert body: {bytes} B in {blocks} blocks");
    assert!(bytes <= 4608, "{bytes} B held by one parsed body");
    assert!(blocks <= 8, "{blocks} blocks held by one parsed body");
    drop(doc);
}

#[test]
fn byte_size_is_the_modelled_size_whatever_the_layout() {
    // The values the 48-byte-node arena computed for these documents.
    let doc = Document::parse(INSERT_BODY).unwrap();
    assert_eq!(doc.byte_size(), 6142);
    let docs = XMarkGen::new(XMarkConfig {
        docs: 4,
        ..Default::default()
    })
    .generate();
    let sizes: Vec<usize> = docs.iter().map(Document::byte_size).collect();
    assert_eq!(sizes, [20814, 21730, 20196, 20731]);
    for d in &docs {
        // The builder and the parser seal the same arena.
        let reparsed = Document::parse(&serialize(d)).unwrap();
        assert_eq!(reparsed.byte_size(), d.byte_size());
    }
}
