//! Cross-tenant budget allocation: one shared page budget, many
//! isolated tenants, each bringing a *frontier* of incremental index
//! steps from its own anytime search
//! ([`crate::anytime::FrontierPoint`]).
//!
//! The mechanism is CoPhy's (Dash et al., PVLDB 2011) observation that
//! index selection across competing workloads collapses into a single
//! marginal-benefit-per-page greedy. Each tenant's greedy search
//! already emits its acceptances in order, with each step's benefit
//! conditional on every earlier step. That prefix property is the
//! contract here: the allocator may *stop early* in a tenant's
//! frontier but never skip an entry, because a later entry's benefit
//! number assumes the earlier indexes exist.
//!
//! Allocation runs in two phases:
//!
//! 1. **Floors** — every tenant is first granted items out of its
//!    reserved `floor_pages` (in input order), so a tenant with a
//!    guaranteed minimum cannot be starved by a neighbor with a
//!    steeper frontier.
//! 2. **Global greedy** — remaining budget is spent one frontier item
//!    at a time on the best benefit-per-page across all tenant
//!    cursors, honoring per-tenant ceilings. A tenant whose next item
//!    does not fit (budget or ceiling) drops out — the prefix
//!    property forbids skipping ahead.
//!
//! Ties break deterministically: `total_cmp` on the ratio, then
//! tenant name, then item index — the same discipline the optimizer
//! uses so allocation is reproducible across runs and platforms.

use crate::anytime::FrontierPoint;
use crate::generalize::Dag;
use xia_index::{IndexDefinition, IndexId};

/// Pages are the allocator's currency (DB2-flavored 4 KiB).
pub const PAGE_BYTES: u64 = 4096;

/// Bytes → pages, rounding up; anything non-zero costs at least one.
pub fn pages_for(bytes: u64) -> u64 {
    if bytes == 0 {
        1
    } else {
        bytes.div_ceil(PAGE_BYTES)
    }
}

/// One incremental step of a tenant's frontier: the indexes one greedy
/// acceptance would create, what it is estimated to save, and what it
/// costs in pages. `benefit` is conditional on all earlier items of
/// the same frontier having been taken.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierItem {
    /// Collection the step's indexes belong to.
    pub collection: String,
    /// Ready-to-apply index DDL for the step (one entry per index; a
    /// plain greedy add has one, an OR-group add several).
    pub ddl: Vec<String>,
    /// Estimated workload-cost reduction of taking this step.
    pub benefit: f64,
    /// Page cost of the step's indexes.
    pub pages: u64,
}

impl FrontierItem {
    /// Benefit per page, the greedy's ranking key. Zero-page items are
    /// clamped to one page by construction (`pages_for`), so this is
    /// always finite.
    pub fn ratio(&self) -> f64 {
        self.benefit / self.pages.max(1) as f64
    }
}

/// Translate a greedy run's accepted steps into allocator currency:
/// DDL (reproducible on any daemon), marginal benefit, index size in
/// pages. `dag` is the DAG the run searched.
pub fn frontier_items(collection: &str, dag: &Dag, points: &[FrontierPoint]) -> Vec<FrontierItem> {
    points
        .iter()
        .map(|p| FrontierItem {
            collection: collection.to_string(),
            ddl: p
                .nodes
                .iter()
                .map(|&i| {
                    let c = &dag.nodes[i].candidate;
                    IndexDefinition::new(IndexId(0), c.pattern.clone(), c.data_type).ddl(collection)
                })
                .collect(),
            benefit: p.marginal,
            pages: pages_for(p.size_bytes),
        })
        .collect()
}

/// A tenant's merged frontier plus its budget-shaping knobs.
#[derive(Debug, Clone)]
pub struct TenantFrontier {
    pub tenant: String,
    /// Steps in greedy acceptance order (prefix property holds).
    pub items: Vec<FrontierItem>,
    /// Pages reserved for this tenant before global competition.
    pub floor_pages: u64,
    /// Hard cap on pages this tenant may be granted in total.
    pub ceiling_pages: Option<u64>,
    /// Certified workload-compression error bound carried from the
    /// tenant's advisor cycle (benefit numbers are accurate to within
    /// this bound; see `xia_advisor::compress`).
    pub error_bound: f64,
}

/// What one tenant was granted.
#[derive(Debug, Clone)]
pub struct TenantAllocation {
    pub tenant: String,
    /// Granted frontier prefix, in order.
    pub chosen: Vec<FrontierItem>,
    pub pages: u64,
    pub benefit: f64,
    /// Certified error bound carried from the frontier.
    pub error_bound: f64,
    /// The tenant still had frontier items left but its next item did
    /// not fit (shared budget exhausted or ceiling reached).
    pub starved: bool,
}

/// Result of spending a shared page budget across tenant frontiers.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Per-tenant grants, in input frontier order.
    pub per_tenant: Vec<TenantAllocation>,
    /// The shared budget that was offered.
    pub total_pages: u64,
    /// Pages actually granted (≤ `total_pages`).
    pub spent_pages: u64,
    /// Sum of granted benefits.
    pub total_benefit: f64,
}

impl Allocation {
    pub fn tenant(&self, name: &str) -> Option<&TenantAllocation> {
        self.per_tenant.iter().find(|t| t.tenant == name)
    }
}

/// Merge per-collection frontiers (each in its own greedy order) into
/// one tenant-level order: a k-way merge that repeatedly takes the
/// head with the best benefit-per-page. Within-collection order is
/// preserved, so the merged list keeps the prefix property per
/// collection; across collections the searches were independent, so
/// any interleaving is sound and this one is greedy-consistent.
pub fn merge_frontiers(per_collection: Vec<Vec<FrontierItem>>) -> Vec<FrontierItem> {
    let mut cursors: Vec<(usize, Vec<FrontierItem>)> = per_collection
        .into_iter()
        .filter(|v| !v.is_empty())
        .map(|v| (0usize, v))
        .collect();
    // Deterministic scan order regardless of caller's map iteration.
    cursors.sort_by(|a, b| a.1[0].collection.cmp(&b.1[0].collection));
    let total: usize = cursors.iter().map(|(_, v)| v.len()).sum();
    let mut merged = Vec::with_capacity(total);
    while merged.len() < total {
        let mut best: Option<usize> = None;
        for (ci, (pos, items)) in cursors.iter().enumerate() {
            if *pos >= items.len() {
                continue;
            }
            let head = items[*pos].ratio();
            let better = match best {
                None => true,
                Some(bi) => {
                    let (bpos, bitems) = &cursors[bi];
                    head.total_cmp(&bitems[*bpos].ratio()) == std::cmp::Ordering::Greater
                }
            };
            if better {
                best = Some(ci);
            }
        }
        let ci = best.expect("cursor with remaining items");
        let (pos, items) = &mut cursors[ci];
        merged.push(items[*pos].clone());
        *pos += 1;
    }
    merged
}

/// Spend `total_pages` across tenant frontiers: floors first, then a
/// global marginal-benefit-per-page greedy. See the module docs for
/// the phase semantics and tie-break discipline.
pub fn allocate(frontiers: &[TenantFrontier], total_pages: u64) -> Allocation {
    struct Cursor<'a> {
        f: &'a TenantFrontier,
        next: usize,
        pages: u64,
        benefit: f64,
    }
    impl Cursor<'_> {
        fn head(&self) -> Option<&FrontierItem> {
            self.f.items.get(self.next)
        }
        fn fits(&self, item: &FrontierItem, remaining: u64) -> bool {
            item.pages <= remaining
                && self
                    .f
                    .ceiling_pages
                    .is_none_or(|c| self.pages + item.pages <= c)
        }
    }

    let mut cursors: Vec<Cursor> = frontiers
        .iter()
        .map(|f| Cursor {
            f,
            next: 0,
            pages: 0,
            benefit: 0.0,
        })
        .collect();
    let mut remaining = total_pages;

    // Phase 1: floors. Each tenant consumes its reserved minimum in
    // its own greedy order; the reservation still comes out of the
    // shared budget, so input order matters only when the offered
    // budget cannot even cover the floors.
    for cur in cursors.iter_mut() {
        while let Some(item) = cur.head() {
            if cur.pages + item.pages > cur.f.floor_pages || !cur.fits(item, remaining) {
                break;
            }
            let (pages, benefit) = (item.pages, item.benefit);
            cur.pages += pages;
            cur.benefit += benefit;
            remaining -= pages;
            cur.next += 1;
        }
    }

    // Phase 2: global greedy over the remaining budget.
    loop {
        let mut best: Option<usize> = None;
        for (ti, cur) in cursors.iter().enumerate() {
            let Some(item) = cur.head() else { continue };
            if !cur.fits(item, remaining) {
                continue;
            }
            let ratio = item.ratio();
            let better = match best {
                None => true,
                Some(bi) => {
                    let b = &cursors[bi];
                    let bratio = b.head().unwrap().ratio();
                    match ratio.total_cmp(&bratio) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Less => false,
                        std::cmp::Ordering::Equal => cur.f.tenant < b.f.tenant,
                    }
                }
            };
            if better {
                best = Some(ti);
            }
        }
        let Some(ti) = best else { break };
        let cur = &mut cursors[ti];
        let item = cur.head().unwrap();
        let (pages, benefit) = (item.pages, item.benefit);
        cur.pages += pages;
        cur.benefit += benefit;
        remaining -= pages;
        cur.next += 1;
    }

    let per_tenant: Vec<TenantAllocation> = cursors
        .iter()
        .map(|cur| TenantAllocation {
            tenant: cur.f.tenant.clone(),
            chosen: cur.f.items[..cur.next].to_vec(),
            pages: cur.pages,
            benefit: cur.benefit,
            error_bound: cur.f.error_bound,
            starved: cur.next < cur.f.items.len(),
        })
        .collect();
    let spent: u64 = per_tenant.iter().map(|t| t.pages).sum();
    let benefit: f64 = per_tenant.iter().map(|t| t.benefit).sum();
    Allocation {
        per_tenant,
        total_pages,
        spent_pages: spent,
        total_benefit: benefit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(coll: &str, ddl: &str, benefit: f64, pages: u64) -> FrontierItem {
        FrontierItem {
            collection: coll.to_string(),
            ddl: vec![ddl.to_string()],
            benefit,
            pages,
        }
    }

    fn tenant(name: &str, items: Vec<FrontierItem>) -> TenantFrontier {
        TenantFrontier {
            tenant: name.to_string(),
            items,
            floor_pages: 0,
            ceiling_pages: None,
            error_bound: 0.0,
        }
    }

    #[test]
    fn greedy_prefers_best_ratio_across_tenants() {
        // a's first item: 100/10 = 10/page; b's: 90/5 = 18/page.
        let fs = vec![
            tenant(
                "a",
                vec![item("c", "ia1", 100.0, 10), item("c", "ia2", 10.0, 10)],
            ),
            tenant(
                "b",
                vec![item("c", "ib1", 90.0, 5), item("c", "ib2", 40.0, 5)],
            ),
        ];
        let alloc = allocate(&fs, 20);
        // b1 (18/pg), a1 (10/pg), b2 (8/pg) fill 20 pages exactly; a2
        // (1/pg) does not fit.
        assert_eq!(alloc.spent_pages, 20);
        assert_eq!(alloc.tenant("a").unwrap().chosen.len(), 1);
        assert_eq!(alloc.tenant("b").unwrap().chosen.len(), 2);
        assert!(alloc.tenant("a").unwrap().starved);
        assert!((alloc.total_benefit - 230.0).abs() < 1e-9);
    }

    #[test]
    fn prefix_property_never_skips() {
        // a's second item is tiny and lucrative, but its first item
        // doesn't fit — the allocator must NOT jump to the second.
        let fs = vec![
            tenant(
                "a",
                vec![item("c", "big", 50.0, 100), item("c", "small", 500.0, 1)],
            ),
            tenant("b", vec![item("c", "ok", 10.0, 5)]),
        ];
        let alloc = allocate(&fs, 10);
        assert_eq!(alloc.tenant("a").unwrap().chosen.len(), 0);
        assert!(alloc.tenant("a").unwrap().starved);
        assert_eq!(alloc.tenant("b").unwrap().chosen.len(), 1);
    }

    #[test]
    fn floors_protect_weak_tenants() {
        // b's frontier is strictly worse per page, but its floor
        // guarantees it the first 10 pages of budget.
        let mut weak = tenant("b", vec![item("c", "w1", 1.0, 10)]);
        weak.floor_pages = 10;
        let fs = vec![
            tenant(
                "a",
                vec![item("c", "s1", 100.0, 10), item("c", "s2", 100.0, 10)],
            ),
            weak,
        ];
        let alloc = allocate(&fs, 20);
        assert_eq!(alloc.tenant("b").unwrap().pages, 10);
        assert_eq!(alloc.tenant("a").unwrap().pages, 10);
        assert_eq!(alloc.spent_pages, 20);
    }

    #[test]
    fn ceilings_cap_strong_tenants() {
        let mut strong = tenant(
            "a",
            vec![item("c", "s1", 100.0, 10), item("c", "s2", 100.0, 10)],
        );
        strong.ceiling_pages = Some(10);
        let fs = vec![strong, tenant("b", vec![item("c", "w1", 1.0, 10)])];
        let alloc = allocate(&fs, 40);
        assert_eq!(alloc.tenant("a").unwrap().pages, 10);
        assert!(alloc.tenant("a").unwrap().starved);
        assert_eq!(alloc.tenant("b").unwrap().pages, 10);
    }

    #[test]
    fn equal_ratio_breaks_on_tenant_name() {
        let fs = vec![
            tenant("zeta", vec![item("c", "z", 10.0, 10)]),
            tenant("alpha", vec![item("c", "a", 10.0, 10)]),
        ];
        let alloc = allocate(&fs, 10);
        assert_eq!(alloc.tenant("alpha").unwrap().chosen.len(), 1);
        assert_eq!(alloc.tenant("zeta").unwrap().chosen.len(), 0);
    }

    #[test]
    fn budget_is_never_exceeded() {
        let fs: Vec<TenantFrontier> = (0..8)
            .map(|t| {
                tenant(
                    &format!("t{t}"),
                    (0..6)
                        .map(|i| item("c", &format!("i{t}.{i}"), (t * 7 + i * 3) as f64, 3 + i))
                        .collect(),
                )
            })
            .collect();
        for budget in [0u64, 1, 7, 23, 50, 1000] {
            let alloc = allocate(&fs, budget);
            assert!(alloc.spent_pages <= budget, "overspent at {budget}");
            let recomputed: u64 = alloc.per_tenant.iter().map(|t| t.pages).sum();
            assert_eq!(recomputed, alloc.spent_pages);
        }
    }

    #[test]
    fn merge_orders_by_head_ratio_and_preserves_within_collection_order() {
        let a = vec![item("a", "a1", 90.0, 10), item("a", "a2", 80.0, 10)];
        let b = vec![item("b", "b1", 100.0, 10), item("b", "b2", 1.0, 10)];
        let merged = merge_frontiers(vec![a, b]);
        let order: Vec<&str> = merged.iter().map(|i| i.ddl[0].as_str()).collect();
        assert_eq!(order, vec!["b1", "a1", "a2", "b2"]);
    }

    #[test]
    fn pages_round_up_and_floor_at_one() {
        assert_eq!(pages_for(0), 1);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_BYTES), 1);
        assert_eq!(pages_for(PAGE_BYTES + 1), 2);
    }
}
