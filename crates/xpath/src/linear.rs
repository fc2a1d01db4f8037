//! Linear path normal form.
//!
//! A *linear path* is a predicate-free path over `{/, //, *}` with an
//! optional attribute tail — exactly the language of DB2 XMLPATTERN
//! index patterns and of the advisor's generalization DAG. Index
//! matching, containment and statistics lookup all operate on this form.

use crate::ast::{Axis, LocationPath, NameTest};
use std::fmt;

/// Separator axis of a linear step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathAxis {
    /// `/step`
    Child,
    /// `//step`
    Descendant,
}

/// Node test of a linear step.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathTest {
    /// A concrete label.
    Label(Box<str>),
    /// `*` — any label.
    Wildcard,
}

impl PathTest {
    pub fn label(s: &str) -> PathTest {
        PathTest::Label(s.into())
    }

    /// True if this test accepts `label`.
    #[inline]
    pub fn accepts(&self, label: &str) -> bool {
        match self {
            PathTest::Label(l) => &**l == label,
            PathTest::Wildcard => true,
        }
    }

    /// True if this test accepts every label `other` accepts.
    pub fn subsumes(&self, other: &PathTest) -> bool {
        match (self, other) {
            (PathTest::Wildcard, _) => true,
            (PathTest::Label(a), PathTest::Label(b)) => a == b,
            (PathTest::Label(_), PathTest::Wildcard) => false,
        }
    }
}

/// One step of a linear path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinearStep {
    pub axis: PathAxis,
    pub test: PathTest,
    /// True only for a final attribute step (`/@id`).
    pub is_attribute: bool,
}

impl LinearStep {
    pub fn child(label: &str) -> LinearStep {
        LinearStep {
            axis: PathAxis::Child,
            test: PathTest::label(label),
            is_attribute: false,
        }
    }

    pub fn descendant(label: &str) -> LinearStep {
        LinearStep {
            axis: PathAxis::Descendant,
            test: PathTest::label(label),
            is_attribute: false,
        }
    }

    pub fn child_wild() -> LinearStep {
        LinearStep {
            axis: PathAxis::Child,
            test: PathTest::Wildcard,
            is_attribute: false,
        }
    }

    pub fn descendant_wild() -> LinearStep {
        LinearStep {
            axis: PathAxis::Descendant,
            test: PathTest::Wildcard,
            is_attribute: false,
        }
    }

    pub fn attribute(label: &str) -> LinearStep {
        LinearStep {
            axis: PathAxis::Child,
            test: PathTest::label(label),
            is_attribute: true,
        }
    }
}

/// A rooted, predicate-free path over `{/, //, *}`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinearPath {
    pub steps: Vec<LinearStep>,
}

impl LinearPath {
    pub fn new(steps: Vec<LinearStep>) -> LinearPath {
        LinearPath { steps }
    }

    /// Parse a linear path from text (e.g. an index pattern `/a//b/*`).
    /// Fails if the expression contains predicates or `text()`.
    pub fn parse(input: &str) -> Result<LinearPath, crate::XPathError> {
        let path = crate::parse(input)?;
        LinearPath::from_location_path(&path).ok_or(crate::XPathError {
            message: "not a linear path (predicates/text() not allowed)".into(),
            offset: 0,
        })
    }

    /// Extract the linear trunk of a location path, dropping nothing:
    /// returns `None` if any step has predicates or is a `text()` test
    /// (callers that want the trunk of a predicated path use
    /// [`LinearPath::trunk_of`]).
    pub fn from_location_path(path: &LocationPath) -> Option<LinearPath> {
        if path.steps.iter().any(|s| !s.predicates.is_empty()) {
            return None;
        }
        LinearPath::trunk_of(path)
    }

    /// The linear trunk of a location path, ignoring predicates. A trailing
    /// `text()` step is dropped (the value lives on the element). Returns
    /// `None` if a non-final step is `text()`.
    pub fn trunk_of(path: &LocationPath) -> Option<LinearPath> {
        let mut steps: Vec<LinearStep> = Vec::with_capacity(path.steps.len());
        for (i, s) in path.steps.iter().enumerate() {
            if s.axis == Axis::Parent {
                // `..` undoes the previous step when it was an anchored
                // child element hop; otherwise the trunk cannot be
                // expressed as a linear path.
                match steps.pop() {
                    Some(prev) if prev.axis == PathAxis::Child && !prev.is_attribute => continue,
                    _ => return None,
                }
            }
            let test = match &s.test {
                NameTest::Name(n) => PathTest::label(n),
                NameTest::Wildcard => PathTest::Wildcard,
                NameTest::Text => {
                    return (i + 1 == path.steps.len()).then_some(LinearPath { steps });
                }
            };
            steps.push(LinearStep {
                axis: match s.axis {
                    Axis::Descendant => PathAxis::Descendant,
                    Axis::Child | Axis::Attribute | Axis::Parent => PathAxis::Child,
                },
                test,
                is_attribute: s.axis == Axis::Attribute,
            });
        }
        Some(LinearPath { steps })
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// True if the final step targets an attribute.
    pub fn targets_attribute(&self) -> bool {
        self.steps.last().is_some_and(|s| s.is_attribute)
    }

    /// True if any step uses the descendant axis.
    pub fn has_descendant(&self) -> bool {
        self.steps.iter().any(|s| s.axis == PathAxis::Descendant)
    }

    /// True if any step is a wildcard.
    pub fn has_wildcard(&self) -> bool {
        self.steps.iter().any(|s| s.test == PathTest::Wildcard)
    }

    /// Number of concrete (non-wildcard) labels — a specificity measure
    /// used to order DAG nodes.
    pub fn concrete_steps(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.test, PathTest::Label(_)))
            .count()
    }

    /// The most general pattern `//*`, which matches every node.
    /// This is the virtual index pattern the Enumerate Indexes mode plants.
    pub fn any() -> LinearPath {
        LinearPath {
            steps: vec![LinearStep::descendant_wild()],
        }
    }

    /// True iff this is `//*` (or `//*` with attribute tail semantics).
    pub fn is_any(&self) -> bool {
        self.steps.len() == 1
            && self.steps[0].axis == PathAxis::Descendant
            && self.steps[0].test == PathTest::Wildcard
            && !self.steps[0].is_attribute
    }

    /// Does this (pattern) path match the concrete root-to-node label path
    /// `labels`? `labels` has one label per element hop; `is_attr_leaf`
    /// says whether the final label names an attribute.
    ///
    /// Matching is standard path-regex matching with `//` ≡ `Σ*` and
    /// `*` ≡ any single label, implemented with the classic two-pointer
    /// backtracking that is linear in practice.
    pub fn matches_label_path<S: AsRef<str>>(&self, labels: &[S], is_attr_leaf: bool) -> bool {
        if self.targets_attribute() != is_attr_leaf {
            return false;
        }
        // Fast path: child-only patterns match positionally — no
        // backtracking, no memo allocation. This is the hot case for
        // index re-checks against wildcarded (but anchored) patterns.
        if self.steps.iter().all(|s| s.axis == PathAxis::Child) {
            return self.steps.len() == labels.len()
                && self
                    .steps
                    .iter()
                    .zip(labels)
                    .all(|(s, l)| s.test.accepts(l.as_ref()));
        }
        matches_at(&self.steps, labels)
    }
}

/// Memo cells kept on the stack; larger step × label grids allocate.
const STACK_MEMO: usize = 64;

/// Greedy wildcard matching: steps vs concrete labels.
fn matches_at<S: AsRef<str>>(steps: &[LinearStep], labels: &[S]) -> bool {
    // dp[i][j] = steps[i..] matches labels[j..] as an anchored suffix match.
    // Memoized recursion over small paths; typical grids fit on the stack.
    let n = steps.len();
    let m = labels.len();
    let cells = (n + 1) * (m + 1);
    let mut stack = [u8::MAX; STACK_MEMO];
    let mut heap = Vec::new();
    let memo: &mut [u8] = if cells <= STACK_MEMO {
        &mut stack[..cells]
    } else {
        heap.resize(cells, u8::MAX);
        &mut heap
    };
    fn rec<S: AsRef<str>>(
        steps: &[LinearStep],
        labels: &[S],
        i: usize,
        j: usize,
        memo: &mut [u8],
        m: usize,
    ) -> bool {
        let key = i * (m + 1) + j;
        if memo[key] != u8::MAX {
            return memo[key] == 1;
        }
        let res = if i == steps.len() {
            j == labels.len()
        } else {
            let step = &steps[i];
            match step.axis {
                PathAxis::Child => {
                    j < labels.len()
                        && step.test.accepts(labels[j].as_ref())
                        && rec(steps, labels, i + 1, j + 1, memo, m)
                }
                PathAxis::Descendant => {
                    // `//t` consumes >= 0 intermediate labels then one
                    // label accepted by `t`.
                    (j..labels.len()).any(|k| {
                        step.test.accepts(labels[k].as_ref())
                            && rec(steps, labels, i + 1, k + 1, memo, m)
                    })
                }
            }
        };
        memo[key] = res as u8;
        res
    }
    rec(steps, labels, 0, 0, memo, m)
}

impl fmt::Display for LinearPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            f.write_str(match step.axis {
                PathAxis::Child => "/",
                PathAxis::Descendant => "//",
            })?;
            if step.is_attribute {
                f.write_str("@")?;
            }
            match &step.test {
                PathTest::Label(l) => f.write_str(l)?,
                PathTest::Wildcard => f.write_str("*")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(s: &str) -> LinearPath {
        LinearPath::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in [
            "/a/b/c",
            "//item/price",
            "/regions/*/item/*",
            "//*",
            "/order/@id",
            "//a//b",
        ] {
            assert_eq!(lp(s).to_string(), s);
        }
    }

    #[test]
    fn rejects_predicated_paths() {
        assert!(LinearPath::parse("/a/b[c = 1]").is_err());
    }

    #[test]
    fn trunk_ignores_predicates() {
        let ast = crate::parse("/site/item[price > 3]/name").unwrap();
        let trunk = LinearPath::trunk_of(&ast).unwrap();
        assert_eq!(trunk.to_string(), "/site/item/name");
    }

    #[test]
    fn trunk_folds_parent_steps() {
        let t = |q: &str| LinearPath::trunk_of(&crate::parse(q).unwrap()).map(|p| p.to_string());
        assert_eq!(t("/a/b/../c"), Some("/a/c".into()));
        assert_eq!(t("/a/*/.."), Some("/a".into()));
        // Parent of a descendant step has no linear form.
        assert_eq!(t("/a//b/../c"), None);
        // Parent past the root has no linear form either.
        assert_eq!(t("/a/../.."), None);
    }

    #[test]
    fn trunk_drops_trailing_text() {
        let ast = crate::parse("/a/b/text()").unwrap();
        let trunk = LinearPath::trunk_of(&ast).unwrap();
        assert_eq!(trunk.to_string(), "/a/b");
    }

    #[test]
    fn concrete_label_matching_child_only() {
        let p = lp("/site/item/price");
        assert!(p.matches_label_path(&["site", "item", "price"], false));
        assert!(!p.matches_label_path(&["site", "item"], false));
        assert!(!p.matches_label_path(&["site", "item", "price", "x"], false));
        assert!(!p.matches_label_path(&["site", "item", "name"], false));
    }

    #[test]
    fn wildcard_matches_any_single_label() {
        let p = lp("/regions/*/item");
        assert!(p.matches_label_path(&["regions", "africa", "item"], false));
        assert!(p.matches_label_path(&["regions", "europe", "item"], false));
        assert!(!p.matches_label_path(&["regions", "item"], false));
        assert!(!p.matches_label_path(&["regions", "a", "b", "item"], false));
    }

    #[test]
    fn descendant_skips_arbitrary_prefix() {
        let p = lp("//item/price");
        assert!(p.matches_label_path(&["site", "regions", "africa", "item", "price"], false));
        assert!(p.matches_label_path(&["item", "price"], false));
        assert!(!p.matches_label_path(&["site", "price"], false));
    }

    #[test]
    fn double_descendant_backtracks() {
        let p = lp("//a//a/b");
        assert!(p.matches_label_path(&["a", "x", "a", "b"], false));
        assert!(p.matches_label_path(&["a", "a", "b"], false));
        assert!(!p.matches_label_path(&["a", "b"], false));
    }

    #[test]
    fn any_pattern_matches_everything_elementish() {
        let p = LinearPath::any();
        assert!(p.is_any());
        assert!(p.matches_label_path(&["x"], false));
        assert!(p.matches_label_path(&["a", "b", "c"], false));
        assert!(!p.matches_label_path::<&str>(&[], false));
        assert!(!p.matches_label_path(&["a", "id"], true)); // attribute leaf
    }

    #[test]
    fn attribute_targeting_must_agree() {
        let p = lp("/order/@id");
        assert!(p.targets_attribute());
        assert!(p.matches_label_path(&["order", "id"], true));
        assert!(!p.matches_label_path(&["order", "id"], false));
    }

    #[test]
    fn subsumption_of_tests() {
        assert!(PathTest::Wildcard.subsumes(&PathTest::label("a")));
        assert!(PathTest::Wildcard.subsumes(&PathTest::Wildcard));
        assert!(PathTest::label("a").subsumes(&PathTest::label("a")));
        assert!(!PathTest::label("a").subsumes(&PathTest::label("b")));
        assert!(!PathTest::label("a").subsumes(&PathTest::Wildcard));
    }

    #[test]
    fn specificity_counts() {
        assert_eq!(lp("/a/*/c").concrete_steps(), 2);
        assert_eq!(LinearPath::any().concrete_steps(), 0);
        assert!(lp("//a").has_descendant());
        assert!(!lp("/a").has_descendant());
        assert!(lp("/a/*").has_wildcard());
    }
}
