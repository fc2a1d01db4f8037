//! Linear-XPath containment — the core of index matching.
//!
//! An index on pattern `P` can answer a query path `Q` iff every node `Q`
//! can ever select is indexed, i.e. `L(Q) ⊆ L(P)` where paths denote word
//! languages over the (unbounded) label alphabet with `*` ≡ any label and
//! `//t` ≡ `Σ* t`.
//!
//! Step-mapping ("homomorphism") checks are sound but *incomplete* on this
//! fragment — e.g. `/*//c` contains `//a/c` (both are words of length ≥ 2
//! ending in `c` with an `a` before the `c` for the right side), yet no
//! monotone step mapping exists. We therefore decide containment exactly,
//! by symbolic subset construction over Brzozowski derivatives of `P`:
//!
//! * a *state set* is the set of positions `P` could be at (each with an
//!   optional pending `Σ*`), represented as a bitmask;
//! * consuming a symbol takes the union of per-state derivatives;
//! * because the alphabet is unbounded, a wildcard step of `Q` is hardest
//!   to contain on a **fresh** symbol (one matching only `*` in `P`), and
//!   derivative sets are monotone in how many tests the symbol matches,
//!   so the fresh symbol is the only case that must be checked;
//! * a descendant step of `Q` prepends `fresh^k` for every `k ≥ 0`; the
//!   state-set chain under repeated fresh derivatives is eventually
//!   periodic, so we check every set in the chain until it repeats.
//!
//! The result is exact containment on linear `{/, //, *, @}` paths (the
//! property suite cross-validates it against exhaustive small-world word
//! enumeration).

use std::collections::HashMap;
use xia_xpath::{LinearPath, LinearStep, PathAxis, PathTest};

/// Maximum `general` length supported by the bitmask state encoding.
pub const MAX_STEPS: usize = 63;

/// True iff `general` contains `specific`: every node selected by
/// `specific` (on any document) is selected by `general`.
///
/// Only `general` is bounded: the u128 state set encodes positions of
/// `general` (two bits per position, plus the accepting position), so a
/// `general` longer than [`MAX_STEPS`] cannot be decided and gets the
/// sound conservative answer `false` — an index on such a pattern is
/// simply never matched. `specific` drives the recursion and may be
/// arbitrarily long (deep query paths arrive over the wire), so it is
/// decided exactly at any length.
pub fn contains(general: &LinearPath, specific: &LinearPath) -> bool {
    // Attribute targeting must agree: an element index never covers
    // attribute nodes and vice versa.
    if general.targets_attribute() != specific.targets_attribute() {
        return false;
    }
    if general.len() > MAX_STEPS {
        return false;
    }
    // A label test of `general` can only accept a label `specific`
    // spells out: `specific` has a word made of its own labels plus
    // fresh symbols (wildcards fresh, descendant gaps empty), and a
    // label missing from it rejects that word. Most candidate × query
    // pairs fail here, before the memo table is built.
    let spelled = |l: &str| {
        specific
            .steps
            .iter()
            .any(|s| matches!(&s.test, PathTest::Label(m) if &**m == l))
    };
    if general
        .steps
        .iter()
        .any(|s| matches!(&s.test, PathTest::Label(l) if !spelled(l)))
    {
        return false;
    }
    let mut ck = Checker {
        p: &general.steps,
        memo: HashMap::new(),
    };
    // Flag bit = pending Σ*; initial state: before P[0], no pending Σ*.
    let init = ck.state_bit(0, false);
    ck.contained(&specific.steps, 0, init)
}

struct Checker<'a> {
    p: &'a [LinearStep],
    memo: HashMap<(usize, u128), bool>,
}

/// The symbol classes that matter: a concrete label, or a fresh symbol
/// distinct from every label in `P` (exists because the alphabet is
/// unbounded).
#[derive(Clone, Copy)]
enum Sym<'s> {
    Label(&'s str),
    Fresh,
}

impl<'a> Checker<'a> {
    /// Bit index for P-position `j` with pending-Σ* flag `f`.
    fn state_bit(&self, j: usize, f: bool) -> u128 {
        1u128 << (j * 2 + usize::from(f))
    }

    /// Does the state set accept the empty word?
    fn accepts_empty(&self, s: u128) -> bool {
        let m = self.p.len();
        // Position m (pattern exhausted) accepts ε, with or without a
        // pending Σ* (Σ* ⊇ ε).
        s & (self.state_bit(m, false) | self.state_bit(m, true)) != 0
    }

    fn test_accepts(test: &PathTest, sym: Sym<'_>) -> bool {
        match (test, sym) {
            (PathTest::Wildcard, _) => true,
            (PathTest::Label(l), Sym::Label(a)) => &**l == a,
            (PathTest::Label(_), Sym::Fresh) => false,
        }
    }

    /// Derivative of a single state w.r.t. one symbol.
    fn derive_state(&self, j: usize, f: bool, sym: Sym<'_>) -> u128 {
        let mut out = 0u128;
        if f {
            // Σ* absorbs the symbol and remains pending.
            out |= self.state_bit(j, true);
        }
        if j == self.p.len() {
            return out; // ε has no further derivative
        }
        let step = &self.p[j];
        match step.axis {
            PathAxis::Child => {
                if Self::test_accepts(&step.test, sym) {
                    out |= self.state_bit(j + 1, false);
                }
            }
            PathAxis::Descendant => {
                // Σ* t: the Σ* absorbs the symbol...
                out |= self.state_bit(j, false);
                // ...or the symbol is the `t` occurrence.
                if Self::test_accepts(&step.test, sym) {
                    out |= self.state_bit(j + 1, false);
                }
            }
        }
        out
    }

    /// Derivative of a state set w.r.t. one symbol.
    fn derive(&self, s: u128, sym: Sym<'_>) -> u128 {
        let mut out = 0u128;
        let mut bits = s;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            out |= self.derive_state(bit / 2, bit % 2 == 1, sym);
        }
        out
    }

    /// Is `L(Q[i..]) ⊆ ∪ M(state)` for the given state set?
    fn contained(&mut self, q: &[LinearStep], i: usize, s: u128) -> bool {
        if let Some(&hit) = self.memo.get(&(i, s)) {
            return hit;
        }
        // Recursion strictly advances `i`, so there are no cycles to break.
        let res = self.contained_inner(q, i, s);
        self.memo.insert((i, s), res);
        res
    }

    fn contained_inner(&mut self, q: &[LinearStep], i: usize, s: u128) -> bool {
        if i == q.len() {
            return self.accepts_empty(s);
        }
        if s == 0 {
            return false; // Q still generates words; P accepts nothing.
        }
        let step = q[i].clone();
        let consume = |ck: &Checker<'_>, set: u128| -> u128 {
            match &step.test {
                // Fresh symbol is the binding case for Q's wildcard: any
                // concrete symbol only enlarges the derivative set, and
                // containment is monotone in the target set.
                PathTest::Wildcard => ck.derive(set, Sym::Fresh),
                PathTest::Label(l) => ck.derive(set, Sym::Label(l)),
            }
        };
        match step.axis {
            PathAxis::Child => {
                let next = consume(self, s);
                self.contained(q, i + 1, next)
            }
            PathAxis::Descendant => {
                // Q generates fresh^k · t · rest for every k ≥ 0. Walk the
                // fresh-derivative chain until it cycles, checking each.
                let mut seen: Vec<u128> = Vec::new();
                let mut cur = s;
                loop {
                    let after = consume(self, cur);
                    if !self.contained(q, i + 1, after) {
                        return false;
                    }
                    cur = self.derive(cur, Sym::Fresh);
                    if seen.contains(&cur) {
                        return true;
                    }
                    seen.push(cur);
                }
            }
        }
    }
}

/// True iff the two paths select exactly the same nodes on every document.
pub fn equivalent(a: &LinearPath, b: &LinearPath) -> bool {
    contains(a, b) && contains(b, a)
}

/// True iff `general` contains `specific` but not vice versa — the index
/// holds a strict superset, so index results need a structural re-check.
pub fn strictly_contains(general: &LinearPath, specific: &LinearPath) -> bool {
    contains(general, specific) && !contains(specific, general)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_xpath::LinearPath;

    fn lp(s: &str) -> LinearPath {
        LinearPath::parse(s).unwrap()
    }

    fn c(p: &str, q: &str) -> bool {
        contains(&lp(p), &lp(q))
    }

    #[test]
    fn reflexive() {
        for s in [
            "/a/b/c",
            "//item/price",
            "/regions/*/item",
            "//*",
            "/a//b//c",
        ] {
            assert!(c(s, s), "{s} must contain itself");
        }
    }

    #[test]
    fn any_contains_everything() {
        for s in ["/a", "/a/b/c", "//x//y", "/regions/*/item/*"] {
            assert!(c("//*", s));
            assert!(!c(s, "//*"), "{s} must not contain //*");
        }
    }

    #[test]
    fn wildcard_generalization() {
        assert!(c(
            "/regions/*/item/quantity",
            "/regions/namerica/item/quantity"
        ));
        assert!(c(
            "/regions/*/item/quantity",
            "/regions/africa/item/quantity"
        ));
        assert!(c("/regions/*/item/*", "/regions/*/item/quantity"));
        assert!(c("/regions/*/item/*", "/regions/samerica/item/price"));
        assert!(!c(
            "/regions/namerica/item/quantity",
            "/regions/*/item/quantity"
        ));
    }

    #[test]
    fn descendant_generalization() {
        assert!(c("//item/price", "/site/regions/africa/item/price"));
        assert!(c("//price", "//item/price"));
        assert!(!c("//item/price", "//price"));
        assert!(c("//item//price", "//item/price"));
        assert!(!c("//item/price", "//item//price"));
    }

    #[test]
    fn child_cannot_absorb_descendant() {
        assert!(!c("/a/b", "/a//b"));
        assert!(c("/a//b", "/a/b"));
        assert!(!c("/*/*", "/a//b"));
    }

    #[test]
    fn beyond_homomorphism_cases() {
        // The case step-mapping misses: any word matching //a/c has length
        // ≥ 2 and ends in c, hence matches /*//c.
        assert!(c("/*//c", "//a/c"));
        assert!(!c("//a/c", "/*//c"));
        // Same shape, deeper.
        assert!(c("/*//c", "//a/b/c"));
        assert!(c("/*/*//c", "//a/b/c"));
        assert!(!c("/*/*/*//c", "//a/b/c"));
        // Two anchored wildcards absorb the shortest expansion.
        assert!(c("/*//*", "//a//b"));
    }

    #[test]
    fn length_constraints() {
        assert!(!c("/a/b", "/a"));
        assert!(!c("/a", "/a/b"));
        assert!(!c("/*", "/a/b"));
    }

    #[test]
    fn anchoring_matters() {
        assert!(!c("/a/b", "//b"));
        assert!(c("//b", "/a/b"));
        assert!(c("//a/b", "/a/b"));
        assert!(c("//a/b", "/x/a/b"));
        assert!(!c("//a/b", "/a/x/b"));
    }

    #[test]
    fn interleaved_descendants() {
        assert!(c("//a//b", "/a/x/y/b"));
        assert!(c("//a//b", "//a/b"));
        assert!(c("//a//b", "/x/a//y/b"));
        assert!(!c("//a/b", "//a//b"));
    }

    #[test]
    fn attribute_tail_must_agree() {
        assert!(c("//item/@id", "/site/item/@id"));
        assert!(!c("//item/@id", "/site/item/id"));
        assert!(!c("//item/id", "/site/item/@id"));
        assert!(c("//@id", "/site/item/@id"));
        assert!(c("//*/@*", "//item/@id"));
    }

    #[test]
    fn equivalence_detects_forms() {
        assert!(equivalent(&lp("/a/b"), &lp("/a/b")));
        assert!(!equivalent(&lp("//a/b"), &lp("/a/b")));
        assert!(!equivalent(&lp("//a//b"), &lp("//a/*//b")));
        assert!(contains(&lp("//a//b"), &lp("//a//*//b")));
        // //a//* and //a/*//* and beyond: same language? //a//* = a then ≥1
        // more symbols... anchored at any depth. //a/*//* requires ≥2 after a.
        assert!(contains(&lp("//a//*"), &lp("//a/*//*")));
        assert!(!contains(&lp("//a/*//*"), &lp("//a//*")));
    }

    #[test]
    fn strict_containment() {
        assert!(strictly_contains(&lp("//*"), &lp("/a/b")));
        assert!(strictly_contains(&lp("/a/*"), &lp("/a/b")));
        assert!(!strictly_contains(&lp("/a/b"), &lp("/a/b")));
        assert!(!strictly_contains(&lp("/a/b"), &lp("/a/c")));
    }

    #[test]
    fn wildcard_vs_descendant_interaction() {
        assert!(c("/a/*/c", "/a/b/c"));
        assert!(!c("/a/*/c", "/a//c"));
        assert!(c("/a//c", "/a/*/c"));
        assert!(c("//*/c", "/a/b/c"));
        assert!(!c("//*/c", "/c"));
        assert!(c("//c", "/c"));
    }

    /// A deep child-axis path of `n` labelled steps.
    fn deep(n: usize) -> LinearPath {
        let mut s = String::new();
        for _ in 0..n {
            s.push_str("/a");
        }
        lp(&s)
    }

    #[test]
    fn over_long_specific_is_decided_exactly() {
        // Q far beyond 63 steps: the encoding only bounds P, so these are
        // exact answers, not conservative ones.
        for n in [64, 65, 100, 200] {
            assert!(contains(&lp("//*"), &deep(n)), "//* ⊇ /a^{n}");
            assert!(contains(&lp("//a"), &deep(n)));
            assert!(!contains(&lp("/a/a"), &deep(n)), "length mismatch");
            assert!(!contains(&lp("//b"), &deep(n)));
        }
        // Deep pattern with a distinguishing tail.
        let mut t = String::new();
        for _ in 0..70 {
            t.push_str("/a");
        }
        t.push_str("/b");
        assert!(contains(&lp("//b"), &lp(&t)));
        assert!(!contains(&lp("//c"), &lp(&t)));
    }

    #[test]
    fn over_long_general_is_conservatively_false() {
        // P beyond 63 steps cannot be encoded; the sound answer for an
        // index-matching oracle is "does not contain" (index unused).
        assert!(!contains(&deep(64), &deep(64)));
        assert!(!contains(&deep(100), &deep(100)));
        assert!(!contains(&deep(64), &lp("/a")));
        // The boundary itself still works both ways.
        assert!(contains(&deep(63), &deep(63)));
        assert!(!equivalent(&deep(64), &deep(64)));
        assert!(!strictly_contains(&deep(64), &lp("/a")));
    }

    #[test]
    fn containment_agrees_with_semantics_on_samples() {
        let pats = [
            "//*", "//a", "//b", "/a", "/a/b", "/a/*", "//a/b", "//a//b", "/a//b", "/*/b",
            "/a/*/c", "//a/*/c", "/a/b/c", "//b/c", "//*/c", "/*//c",
        ];
        let samples: Vec<Vec<&str>> = vec![
            vec!["a"],
            vec!["b"],
            vec!["c"],
            vec!["a", "b"],
            vec!["a", "c"],
            vec!["b", "c"],
            vec!["a", "a"],
            vec!["a", "b", "c"],
            vec!["a", "x", "c"],
            vec!["a", "b", "b"],
            vec!["x", "a", "b"],
            vec!["a", "x", "y", "b"],
            vec!["a", "b", "c", "c"],
        ];
        for p in &pats {
            for q in &pats {
                if c(p, q) {
                    let pp = lp(p);
                    let qq = lp(q);
                    for s in &samples {
                        if qq.matches_label_path(s, false) {
                            assert!(
                                pp.matches_label_path(s, false),
                                "claimed {p} ⊇ {q} but {q} matches {s:?} and {p} does not"
                            );
                        }
                    }
                }
            }
        }
    }
}
