//! Workload compression: thousands of captured queries → a handful of
//! weighted template representatives (CoPhy-style, arXiv 1104.3214).
//!
//! The monitor already dedups *exact* normalized forms; under real
//! traffic the surviving entries still number in the hundreds because
//! literals vary (`//item[price > 3]` vs `//item[price > 4]`). Those
//! variants are the same query to the advisor: candidate patterns come
//! from atom *paths* and literal *types*, never literal values, and the
//! cost model prices predicates by path statistics alone. Compression
//! therefore clusters queries by **template** — collection + per-atom
//! (path, comparison operator, literal type, flags) — and keeps one
//! representative per cluster carrying the cluster's total weight.
//!
//! ## Error bound
//!
//! For any index configuration `X`, the optimizer always considers the
//! full document scan, so every query's optimized cost lies in
//! `[0, scan_cost]` where `scan_cost = pages·page_io + nodes·cpu_node`
//! is value-independent and identical for all queries on a collection.
//! Replacing a variant of weight `w` by its representative perturbs the
//! workload cost by at most `w · scan_cost`, hence for every `X`:
//!
//! ```text
//! |cost_full(X) − cost_compressed(X)| ≤ residual_weight · scan_cost = B
//! ```
//!
//! where `residual_weight` is the total weight of non-representative
//! variants (exact duplicates merge with zero residual — weight scaling
//! is exact). `B` is exposed as [`CompressedWorkload::error_bound`]; it
//! is `0` for duplicate-only workloads, which is the lossless property
//! pinned by `tests/prop_compress.rs`. Because same-template variants
//! generate identical candidate patterns, the generalization DAG built
//! from the compressed workload equals the DAG built from the full one —
//! the bound transfers directly to configuration search: searching the
//! compressed workload and evaluating the result on the full workload
//! costs at most `2·B` more than the full-workload optimum (the oracle's
//! `advise-quality` invariant).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use xia_optimizer::CostModel;
use xia_storage::Collection;
use xia_xpath::Literal;
use xia_xquery::NormalizedQuery;

use crate::whatif::NodeHasher;
use crate::workload::{Statement, StatementKind, Workload};

/// Template key of a normalized query: everything the candidate
/// generator and cost model can observe, with literal *values* erased
/// (literal *types* kept — they decide a candidate's `DataType`).
pub fn template_key(q: &NormalizedQuery) -> String {
    atom_key(q, false)
}

/// Exact-form key: the template plus literal values.
pub fn exact_key(q: &NormalizedQuery) -> String {
    atom_key(q, true)
}

/// The collection, then every atom field, each literal as its value
/// (`values`) or its type.
fn atom_key(q: &NormalizedQuery, values: bool) -> String {
    use std::fmt::Write;
    let mut key = q.collection.clone();
    for a in &q.atoms {
        let _ = write!(key, "\u{1}{}", a.path);
        if let Some((op, lit)) = &a.value {
            let _ = write!(key, "\u{2}{op}\u{2}");
            match (lit, values) {
                (lit, true) => write!(key, "{lit}"),
                (Literal::Str(_), false) => write!(key, "str"),
                (Literal::Num(_), false) => write!(key, "num"),
            }
            .expect("writing to a String");
        }
        let _ = write!(
            key,
            "\u{2}{}{}{}",
            a.required as u8, a.is_extraction as u8, a.exact as u8
        );
        if let Some((g, n)) = a.or_group {
            let _ = write!(key, "\u{2}or{g}.{n}");
        }
    }
    key
}

/// A query borrowed as a hash key over the same fields as
/// [`exact_key`] (`VALUES`) or [`template_key`], without formatting
/// either: numeric literals compare by bit pattern, string literals by
/// content.
#[derive(Clone, Copy)]
struct QueryForm<'q, const VALUES: bool>(&'q NormalizedQuery);

impl<const VALUES: bool> QueryForm<'_, VALUES> {
    /// Every atom field, the literal reduced to its type unless `VALUES`.
    fn atoms(&self) -> impl Iterator<Item = impl Hash + Eq + '_> + '_ {
        self.0.atoms.iter().map(|a| {
            let value = a.value.as_ref().map(|(op, lit)| {
                // `Ok` for a string, `Err` for a number: the literal's
                // type is kept even when its value is erased.
                let lit = match lit {
                    Literal::Str(s) => Ok(VALUES.then_some(s.as_str())),
                    Literal::Num(n) => Err(VALUES.then_some(n.to_bits())),
                };
                (*op, lit)
            });
            (
                &a.path,
                value,
                a.required,
                a.is_extraction,
                a.exact,
                a.or_group,
            )
        })
    }
}

impl<const VALUES: bool> PartialEq for QueryForm<'_, VALUES> {
    fn eq(&self, other: &Self) -> bool {
        self.0.collection == other.0.collection && self.atoms().eq(other.atoms())
    }
}

impl<const VALUES: bool> Eq for QueryForm<'_, VALUES> {}

impl<const VALUES: bool> Hash for QueryForm<'_, VALUES> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.collection.hash(state);
        state.write_usize(self.0.atoms.len());
        for atom in self.atoms() {
            atom.hash(state);
        }
    }
}

type FormMap<'q, const VALUES: bool> =
    HashMap<QueryForm<'q, VALUES>, usize, BuildHasherDefault<NodeHasher>>;

/// One cluster of same-template queries.
#[derive(Debug, Clone)]
pub struct TemplateCluster {
    /// The shared [`template_key`].
    pub template: String,
    /// Total frequency mass of the cluster (all variants).
    pub weight: f64,
    /// Number of distinct normalized forms merged into this cluster.
    pub variants: usize,
    /// Weight carried by non-representative variants — this cluster's
    /// contribution to the error bound.
    pub residual_weight: f64,
    /// Text of the representative (highest-weight) variant.
    pub representative: String,
}

/// A workload compressed to one weighted representative per template.
#[derive(Debug, Clone)]
pub struct CompressedWorkload {
    workload: Workload,
    pub clusters: Vec<TemplateCluster>,
    /// Query statements in the input workload (before any merging).
    pub raw_queries: usize,
    /// Distinct normalized forms after exact dedup (≥ `templates()`).
    pub distinct_queries: usize,
    /// Total query frequency mass (preserved exactly by compression).
    pub total_weight: f64,
    /// Σ per-cluster residual weight.
    pub residual_weight: f64,
}

impl CompressedWorkload {
    /// The compressed workload: one weighted statement per cluster (in
    /// first-occurrence order) plus all updates passed through.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    pub fn templates(&self) -> usize {
        self.clusters.len()
    }

    /// Upper bound on `|cost_full(X) − cost_compressed(X)|` for every
    /// configuration `X`, given the collection's scan cost (see
    /// [`scan_cost_upper_bound`]). Exactly `0.0` when the workload only
    /// contained exact duplicates.
    pub fn error_bound(&self, scan_cost: f64) -> f64 {
        self.residual_weight * scan_cost
    }

    pub fn summary(&self) -> String {
        format!(
            "{} raw -> {} distinct -> {} templates (residual weight {:.3})",
            self.raw_queries,
            self.distinct_queries,
            self.templates(),
            self.residual_weight
        )
    }
}

/// The value-independent full-scan cost of a collection — the width of
/// the interval every optimized query cost falls into, and therefore
/// the per-unit-weight term of the compression error bound.
pub fn scan_cost_upper_bound(collection: &Collection, model: &CostModel) -> f64 {
    let stats = collection.stats();
    stats.data_pages() as f64 * model.page_io + stats.total_nodes as f64 * model.cpu_node
}

/// Compress a workload: exact dedup first (lossless — weights add),
/// then template clustering (bounded error — see module docs). Updates
/// pass through untouched; their maintenance cost is exact either way.
pub fn compress(workload: &Workload) -> CompressedWorkload {
    // Pass 1: merge exact duplicates, keeping first-occurrence order.
    // Variants borrow their query; only representatives are cloned.
    struct Variant<'w> {
        query: &'w NormalizedQuery,
        weight: f64,
    }
    let mut variants: Vec<Variant> = Vec::new();
    let mut by_exact = FormMap::<true>::default();
    let mut raw_queries = 0usize;
    let mut updates: Vec<Statement> = Vec::new();
    for stmt in &workload.statements {
        match &stmt.kind {
            StatementKind::Query(q) => {
                raw_queries += 1;
                match by_exact.entry(QueryForm(q)) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        variants[*e.get()].weight += stmt.frequency;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(variants.len());
                        variants.push(Variant {
                            query: q,
                            weight: stmt.frequency,
                        });
                    }
                }
            }
            StatementKind::Insert { .. } | StatementKind::Delete { .. } => {
                updates.push(stmt.clone());
            }
        }
    }

    // Pass 2: cluster distinct variants by template, again in
    // first-occurrence order.
    struct Building {
        rep: usize, // index into `variants`
        weight: f64,
        count: usize,
    }
    let mut clusters: Vec<Building> = Vec::new();
    let mut by_template = FormMap::<false>::default();
    for (i, v) in variants.iter().enumerate() {
        if let Some(&ci) = by_template.get(&QueryForm(v.query)) {
            let c = &mut clusters[ci];
            c.weight += v.weight;
            c.count += 1;
            // Representative = highest-weight variant; first
            // occurrence wins ties, so the choice is deterministic.
            if v.weight > variants[c.rep].weight {
                c.rep = i;
            }
        } else {
            by_template.insert(QueryForm(v.query), clusters.len());
            clusters.push(Building {
                rep: i,
                weight: v.weight,
                count: 1,
            });
        }
    }

    let mut compressed = Workload::new();
    let mut out = Vec::with_capacity(clusters.len());
    let mut residual_total = 0.0;
    let mut total_weight = 0.0;
    for c in &clusters {
        let rep = &variants[c.rep];
        let residual = c.weight - rep.weight;
        residual_total += residual;
        total_weight += c.weight;
        compressed.add_compiled(rep.query.clone(), c.weight);
        out.push(TemplateCluster {
            template: template_key(rep.query),
            weight: c.weight,
            variants: c.count,
            residual_weight: residual,
            representative: rep.query.text.clone(),
        });
    }
    compressed.statements.extend(updates);

    CompressedWorkload {
        workload: compressed,
        clusters: out,
        raw_queries,
        distinct_queries: variants.len(),
        total_weight,
        residual_weight: residual_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(texts: &[(&str, f64)]) -> Workload {
        let mut w = Workload::new();
        for (t, f) in texts {
            w.add_query(t, "c", *f).unwrap();
        }
        w
    }

    #[test]
    fn exact_duplicates_merge_with_zero_residual() {
        let w = workload(&[
            ("//item[price = 3]/name", 1.0),
            ("//item[price = 3]/name", 1.0),
            ("//person/age", 2.0),
            ("//item[price = 3]/name", 1.0),
        ]);
        let cw = compress(&w);
        assert_eq!(cw.raw_queries, 4);
        assert_eq!(cw.distinct_queries, 2);
        assert_eq!(cw.templates(), 2);
        assert_eq!(cw.residual_weight, 0.0);
        assert_eq!(cw.error_bound(1e9), 0.0);
        let freqs: Vec<f64> = cw.workload().queries().map(|(_, f)| f).collect();
        assert_eq!(freqs, vec![3.0, 2.0]);
        assert_eq!(cw.total_weight, 5.0);
    }

    #[test]
    fn queries_that_differ_only_in_atom_flags_are_not_duplicates() {
        // The trailing `text()` makes the extraction atom inexact (no
        // index-only plan), so the two are priced differently and are
        // neither duplicates nor one template.
        let w = workload(&[
            ("/site/regions/europe/item/name/text()", 1.0),
            ("/site/regions/europe/item/name", 5.0),
        ]);
        let (inexact, exact) = {
            let mut qs = w.queries().map(|(q, _)| q);
            (qs.next().unwrap(), qs.next().unwrap())
        };
        assert_eq!(inexact.atoms.len(), exact.atoms.len());
        assert_ne!(exact_key(inexact), exact_key(exact));
        let cw = compress(&w);
        assert_eq!(cw.distinct_queries, 2);
        assert_eq!(cw.templates(), 2);
        assert_eq!(cw.residual_weight, 0.0);
        let reps: Vec<(&str, f64)> = cw
            .workload()
            .queries()
            .map(|(q, f)| (q.text.as_str(), f))
            .collect();
        assert_eq!(
            reps,
            [
                ("/site/regions/europe/item/name/text()", 1.0),
                ("/site/regions/europe/item/name", 5.0)
            ]
        );
        for c in &cw.clusters {
            assert_eq!(c.template, template_key(&compile_one(&c.representative)));
        }
    }

    fn compile_one(text: &str) -> NormalizedQuery {
        workload(&[(text, 1.0)]).queries().next().unwrap().0.clone()
    }

    #[test]
    fn literal_variants_cluster_by_template() {
        let w = workload(&[
            ("//item[price > 3]/name", 1.0),
            ("//item[price > 4]/name", 5.0),
            ("//item[price > 5]/name", 2.0),
        ]);
        let cw = compress(&w);
        assert_eq!(cw.distinct_queries, 3);
        assert_eq!(cw.templates(), 1);
        let c = &cw.clusters[0];
        // Representative is the heaviest variant; residual is the rest.
        assert_eq!(c.representative, "//item[price > 4]/name");
        assert_eq!(c.weight, 8.0);
        assert_eq!(c.residual_weight, 3.0);
        assert_eq!(cw.error_bound(10.0), 30.0);
        let (q, f) = cw.workload().queries().next().unwrap();
        assert_eq!(q.text, "//item[price > 4]/name");
        assert_eq!(f, 8.0);
    }

    #[test]
    fn literal_type_splits_templates() {
        // A numeric and a string literal on the same path need different
        // index data types, so they must not merge.
        let w = workload(&[("//item[a = 3]", 1.0), ("//item[a = \"x\"]", 1.0)]);
        let cw = compress(&w);
        assert_eq!(cw.templates(), 2);
    }

    #[test]
    fn operator_splits_templates() {
        let w = workload(&[("//item[a = 3]", 1.0), ("//item[a > 3]", 1.0)]);
        let cw = compress(&w);
        assert_eq!(cw.templates(), 2);
    }

    #[test]
    fn updates_pass_through() {
        let mut w = workload(&[("//item/name", 1.0)]);
        let doc = xia_xml::Document::parse("<a><item><name>x</name></item></a>").unwrap();
        w.add_insert(doc, 3.0);
        let cw = compress(&w);
        assert_eq!(cw.workload().updates().count(), 1);
        assert_eq!(cw.workload().statements.len(), 2);
    }

    #[test]
    fn scan_cost_matches_cost_model_terms() {
        let mut coll = Collection::new("c");
        for i in 0..50 {
            let xml = format!("<a><item><price>{i}</price></item></a>");
            coll.insert(xia_xml::Document::parse(&xml).unwrap());
        }
        let model = CostModel::default();
        let scan = scan_cost_upper_bound(&coll, &model);
        let stats = coll.stats();
        let expect =
            stats.data_pages() as f64 * model.page_io + stats.total_nodes as f64 * model.cpu_node;
        assert_eq!(scan, expect);
        assert!(scan > 0.0);
    }
}
