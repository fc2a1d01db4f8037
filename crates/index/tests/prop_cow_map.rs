//! Property test: `CowMap` behaves exactly like `BTreeMap` under random
//! upserts, decrements, removals, range and prefix scans and `retain`,
//! across leaf splits and emptied leaves — and a clone taken at any
//! point is unchanged by every later mutation of the original.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;
use xia_index::CowMap;

/// Zero-padded, so key order is numeric order and a prefix scan selects
/// a numeric range.
fn key(k: u16) -> Box<str> {
    format!("{k:04}").into()
}

#[derive(Debug, Clone)]
enum Op {
    Upsert(u16, u32),
    Decrement(u16),
    Remove(u16),
    Range(u16, u16, u8),
    Prefix(u16),
    /// Drop keys in `[lo, lo + width)`, bump every other value.
    Retain(u16, u16),
    Snapshot,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..600, 1u32..4).prop_map(|(k, d)| Op::Upsert(k, d)),
        (0u16..600, 1u32..4).prop_map(|(k, d)| Op::Upsert(k, d)),
        (0u16..600).prop_map(Op::Decrement),
        (0u16..600).prop_map(Op::Remove),
        (0u16..650, 0u16..650, 0u8..9).prop_map(|(a, b, kinds)| Op::Range(a, b, kinds)),
        (0u16..70).prop_map(Op::Prefix),
        (0u16..600, 0u16..120).prop_map(|(lo, w)| Op::Retain(lo, w)),
        Just(Op::Snapshot),
    ]
}

fn bound(k: &str, kind: u8) -> Bound<&str> {
    match kind {
        0 => Bound::Included(k),
        1 => Bound::Excluded(k),
        _ => Bound::Unbounded,
    }
}

fn contents(m: &CowMap<Box<str>, u32>) -> Vec<(Box<str>, u32)> {
    m.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

fn reference(r: &BTreeMap<Box<str>, u32>) -> Vec<(Box<str>, u32)> {
    r.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cow_map_matches_btreemap(
        fill in 40u16..400,
        ops in prop::collection::vec(op(), 1..500),
    ) {
        let mut m: CowMap<Box<str>, u32> = CowMap::new();
        let mut r: BTreeMap<Box<str>, u32> = BTreeMap::new();
        // Start past several leaf splits.
        for k in 0..fill {
            *m.upsert(&key(k * 3 % 600), || key(k * 3 % 600)) += 1;
            *r.entry(key(k * 3 % 600)).or_default() += 1;
        }
        let mut snapshots = Vec::new();
        for op in ops {
            match op {
                Op::Upsert(k, d) => {
                    *m.upsert(&*key(k), || key(k)) += d;
                    *r.entry(key(k)).or_default() += d;
                }
                Op::Decrement(k) => {
                    let k = key(k);
                    m.update_or_remove(&*k, |c| {
                        *c -= 1;
                        *c > 0
                    });
                    if let Some(c) = r.get_mut(&k) {
                        *c -= 1;
                        if *c == 0 {
                            r.remove(&k);
                        }
                    }
                }
                Op::Remove(k) => {
                    let k = key(k);
                    m.update_or_remove(&*k, |_| false);
                    r.remove(&k);
                }
                Op::Range(a, b, kinds) => {
                    let (a, b) = (key(a), key(b));
                    let (lo, hi) = (bound(&a, kinds % 3), bound(&b, kinds / 3));
                    let got: Vec<_> = m.range(lo, hi).map(|(k, v)| (k.clone(), *v)).collect();
                    // BTreeMap::range panics on an inverted or empty
                    // excluded range; such a range selects nothing.
                    let empty = match (lo, hi) {
                        (Bound::Included(x), Bound::Included(y)) => x > y,
                        (Bound::Unbounded, _) | (_, Bound::Unbounded) => false,
                        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => x >= y,
                    };
                    let want: Vec<_> = if empty {
                        Vec::new()
                    } else {
                        r.range::<str, _>((lo, hi)).map(|(k, v)| (k.clone(), *v)).collect()
                    };
                    prop_assert_eq!(got, want, "range {:?}..{:?}", lo, hi);
                }
                Op::Prefix(p) => {
                    let p = format!("{p:02}");
                    let got: Vec<_> = m
                        .range(Bound::Included(p.as_str()), Bound::Unbounded)
                        .take_while(|(k, _)| k.starts_with(&p))
                        .map(|(k, v)| (k.clone(), *v))
                        .collect();
                    let want: Vec<_> = r
                        .iter()
                        .filter(|(k, _)| k.starts_with(&p))
                        .map(|(k, v)| (k.clone(), *v))
                        .collect();
                    prop_assert_eq!(got, want, "prefix {}", p);
                }
                Op::Retain(lo, w) => {
                    let (lo, hi) = (key(lo), key(lo + w));
                    let keep = |k: &str, v: &mut u32| {
                        *v += 1;
                        !(&*lo <= k && k < &*hi)
                    };
                    m.retain(|k, v| keep(k, v));
                    r.retain(|k, v| keep(k, v));
                }
                Op::Snapshot => snapshots.push((m.clone(), reference(&r))),
            }
            prop_assert_eq!(m.len(), r.len());
            prop_assert_eq!(m.last_key(), r.keys().next_back());
            prop_assert_eq!(contents(&m), reference(&r));
        }
        for k in r.keys() {
            prop_assert_eq!(m.get(&**k), r.get(k));
        }
        prop_assert_eq!(m.get("9999"), None);
        // Every clone still reads as it did when it was taken.
        for (snap, want) in &snapshots {
            prop_assert_eq!(&contents(snap), want);
        }
        // Empty every leaf, one removal at a time.
        for k in r.keys() {
            m.update_or_remove(&**k, |_| false);
        }
        prop_assert!(m.is_empty());
        prop_assert_eq!(m.leaf_count(), 0);
        for (snap, want) in &snapshots {
            prop_assert_eq!(&contents(snap), want);
        }
    }
}
