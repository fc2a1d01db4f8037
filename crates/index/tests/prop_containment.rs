//! Property tests for pattern containment: soundness against the concrete
//! label-path matcher, partial-order laws, and physical index consistency
//! with the navigational evaluator.

use proptest::prelude::*;
use xia_index::{contains, equivalent, strictly_contains};
use xia_xpath::{LinearPath, LinearStep, PathAxis, PathTest};

/// Random linear pattern over a 3-letter alphabet (plus wildcards) so
/// collisions between generated patterns and label paths are frequent.
fn pattern() -> impl Strategy<Value = LinearPath> {
    prop::collection::vec(
        (
            prop_oneof![Just(PathAxis::Child), Just(PathAxis::Descendant)],
            prop_oneof![
                Just(PathTest::label("a")),
                Just(PathTest::label("b")),
                Just(PathTest::label("c")),
                Just(PathTest::Wildcard),
            ],
        ),
        1..5,
    )
    .prop_map(|steps| {
        LinearPath::new(
            steps
                .into_iter()
                .map(|(axis, test)| LinearStep {
                    axis,
                    test,
                    is_attribute: false,
                })
                .collect(),
        )
    })
}

fn label_path() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(
        prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")],
        1..7,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Soundness: if contains(P, Q) then every concrete path Q matches,
    /// P matches too.
    #[test]
    fn containment_sound_on_samples(p in pattern(), q in pattern(), w in label_path()) {
        if contains(&p, &q) && q.matches_label_path(&w, false) {
            prop_assert!(
                p.matches_label_path(&w, false),
                "{p} claimed ⊇ {q}, but {q} matches {w:?} and {p} does not"
            );
        }
    }

    /// Completeness spot-check via small-world exhaustion: if P matches
    /// every word (over a 3-letter + fresh-letter alphabet, lengths ≤ 6)
    /// that Q matches, then contains(P, Q) should hold. The word set is a
    /// complete test set for patterns of ≤ 4 steps over this alphabet.
    #[test]
    fn containment_complete_on_small_world(p in pattern(), q in pattern()) {
        if !contains(&p, &q) {
            // Find a witness word: matched by Q, not by P.
            let alphabet = ["a", "b", "c", "z"]; // "z" plays the fresh symbol
            let mut found = false;
            let mut stack: Vec<Vec<&str>> = vec![vec![]];
            'outer: while let Some(w) = stack.pop() {
                if !w.is_empty()
                    && q.matches_label_path(&w, false)
                    && !p.matches_label_path(&w, false)
                {
                    found = true;
                    break 'outer;
                }
                if w.len() < 6 {
                    for s in alphabet {
                        let mut next = w.clone();
                        next.push(s);
                        stack.push(next);
                    }
                }
            }
            prop_assert!(
                found,
                "contains({p}, {q}) = false but no witness word exists up to length 6"
            );
        }
    }

    /// Containment is a partial order: reflexive and transitive.
    #[test]
    fn containment_reflexive(p in pattern()) {
        prop_assert!(contains(&p, &p));
    }

    #[test]
    fn containment_transitive(a in pattern(), b in pattern(), c in pattern()) {
        if contains(&a, &b) && contains(&b, &c) {
            prop_assert!(contains(&a, &c), "transitivity failed: {a} ⊇ {b} ⊇ {c}");
        }
    }

    /// strictly_contains is irreflexive and asymmetric; equivalent is symmetric.
    #[test]
    fn strictness_laws(a in pattern(), b in pattern()) {
        prop_assert!(!strictly_contains(&a, &a));
        if strictly_contains(&a, &b) {
            prop_assert!(!strictly_contains(&b, &a));
            prop_assert!(!equivalent(&a, &b));
        }
        prop_assert_eq!(equivalent(&a, &b), equivalent(&b, &a));
    }

    /// `//*` is the top element.
    #[test]
    fn any_is_top(p in pattern()) {
        prop_assert!(contains(&LinearPath::any(), &p));
    }
}

// ---------------------------------------------------------------------------
// Physical index vs navigational evaluation.
// ---------------------------------------------------------------------------

use xia_index::{DataType, IndexDefinition, IndexId};
use xia_storage::Collection;
use xia_xml::DocumentBuilder;

fn tree_doc() -> impl Strategy<Value = xia_xml::Document> {
    #[derive(Debug, Clone)]
    struct T(&'static str, Option<u32>, Vec<T>);
    let label = prop_oneof![Just("a"), Just("b"), Just("c")];
    let leaf = (label.clone(), prop::option::of(0u32..50)).prop_map(|(l, v)| T(l, v, vec![]));
    let tree = leaf.prop_recursive(3, 24, 3, move |inner| {
        (
            prop_oneof![Just("a"), Just("b"), Just("c")],
            prop::collection::vec(inner, 0..3),
        )
            .prop_map(|(l, kids)| T(l, None, kids))
    });
    tree.prop_map(|t| {
        fn rec(b: &mut DocumentBuilder, t: &T) {
            b.open(t.0);
            if let Some(v) = t.1 {
                b.text(&v.to_string());
            }
            for k in &t.2 {
                rec(b, k);
            }
            b.close();
        }
        let mut b = DocumentBuilder::new();
        rec(&mut b, &t);
        b.finish().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A VARCHAR physical index on pattern P contains exactly the element
    /// nodes the evaluator selects for P.
    #[test]
    fn physical_index_agrees_with_evaluator(doc in tree_doc(), p in pattern()) {
        let def = IndexDefinition::new(IndexId(0), p.clone(), DataType::Varchar);
        let mut coll = Collection::new("t");
        coll.insert(doc.clone());
        coll.create_index(def);
        let ix = coll.index(IndexId(0)).unwrap();
        let mut indexed: Vec<u32> = ix.scan().map(|po| po.node).collect();
        indexed.sort_unstable();

        let ast = xia_xpath::parse(&p.to_string()).unwrap();
        let mut selected: Vec<u32> = xia_xpath::evaluate(&doc, &ast)
            .into_iter()
            .map(|n| n.as_u32())
            .collect();
        selected.sort_unstable();
        prop_assert_eq!(indexed, selected, "pattern {}", p);
    }
}
