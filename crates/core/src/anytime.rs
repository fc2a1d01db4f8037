//! The paper's greedy configuration search, as an interruptible,
//! resumable driver, plus optional exhaustive refinement on small DAGs.
//!
//! This is the only implementation of the greedy search (§2.3): add by
//! marginal, interaction-aware benefit per byte behind the workload
//! coverage bitmap, add a whole OR group when single adds stall, evict
//! indexes whose removal costs nothing, drop indexes no plan uses.
//! [`crate::search`] runs it to completion for
//! `SearchStrategy::GreedyHeuristic` and `GreedyAblated`; the daemon's
//! ADVISE cycle, which cannot afford that under heavy traffic, runs it
//! in slices: the driver checks a wall-clock / evaluation budget
//! between what-if evaluations and can stop at any point, returning the
//! best configuration found so far together with convergence telemetry.
//!
//! The frontier is plain data ([`AnytimeState`]): callers may stop a
//! search and [`anytime_step`] it again later — each slice resumes
//! where the previous one stopped, and a run chopped into arbitrarily
//! small slices converges to the same configuration as an
//! uninterrupted run (pinned by the tests below). A slice always makes
//! progress: the budget is only consulted after the slice's first
//! evaluation.
//!
//! On DAGs of at most [`AnytimeOptions::refine_max_nodes`] nodes, a
//! final refinement phase enumerates *all* budget-feasible subsets
//! (what-if memoization makes the 2^n sweep cheap) and keeps the
//! cheapest — this makes the anytime result provably optimal on small
//! instances, which is what the oracle's `advise-quality` invariant
//! leans on.

use std::time::{Duration, Instant};

use crate::generalize::Dag;
use crate::search::{outcome, GreedyKnobs, SearchOutcome};
use crate::whatif::{normalize, EngineConfig, WhatIfEngine};
use crate::workload::Workload;
use xia_optimizer::CostModel;
use xia_storage::Collection;

/// Stop conditions for one search slice. `None` fields are unbounded.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnytimeBudget {
    /// Wall-clock limit for the slice.
    pub wall: Option<Duration>,
    /// Maximum what-if evaluations for the slice.
    pub max_evals: Option<u64>,
}

impl AnytimeBudget {
    pub fn unbounded() -> AnytimeBudget {
        AnytimeBudget::default()
    }

    pub fn wall_millis(ms: u64) -> AnytimeBudget {
        AnytimeBudget {
            wall: Some(Duration::from_millis(ms)),
            max_evals: None,
        }
    }

    pub fn evals(n: u64) -> AnytimeBudget {
        AnytimeBudget {
            wall: None,
            max_evals: Some(n),
        }
    }
}

/// Options for an anytime search.
#[derive(Debug, Clone, Default)]
pub struct AnytimeOptions {
    /// Per-slice stop condition.
    pub budget: AnytimeBudget,
    /// Run exhaustive subset refinement when the DAG has at most this
    /// many nodes. `0` disables refinement, so a completed search is
    /// exactly `SearchStrategy::GreedyHeuristic` (the daemon relies on
    /// this so online ADVISE matches offline RECOMMEND).
    pub refine_max_nodes: usize,
    /// Start from this configuration (DAG node indices) instead of the
    /// empty one. Over-budget warm starts are trimmed largest-first.
    pub warm_start: Vec<usize>,
}

/// One point on the best-so-far cost curve.
#[derive(Debug, Clone, Copy)]
pub struct ConvergencePoint {
    /// Cumulative what-if evaluations when this cost was reached.
    pub evals: u64,
    /// Cumulative search wall time (seconds across all slices).
    pub wall_secs: f64,
    pub cost: f64,
}

/// One greedy acceptance, in order: the node(s) added, the marginal
/// workload-cost benefit the add was credited with, and the bytes it
/// costs. Because the greedy is submodular-style, the sequence is a
/// *frontier*: each entry's benefit is conditional on every earlier
/// entry, so consumers (the cross-tenant allocator in
/// [`crate::tenancy`]) must take prefixes, never skip entries.
/// Warm-start nodes are carried over wholesale and do not appear here.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// DAG node indices added by this step (one for a plain greedy
    /// add, several for an OR-group add).
    pub nodes: Vec<usize>,
    /// Workload-cost reduction credited to this step.
    pub marginal: f64,
    /// Estimated index size of this step's additions.
    pub size_bytes: u64,
}

/// Telemetry accumulated across all slices of a search.
#[derive(Debug, Clone, Default)]
pub struct AnytimeTelemetry {
    /// Configuration changes applied (greedy adds, evictions, refine
    /// improvements).
    pub iterations: u64,
    /// What-if evaluations driven by the search.
    pub evals: u64,
    /// Best-so-far workload cost after each improvement.
    pub curve: Vec<ConvergencePoint>,
    /// The last slice stopped on budget before the search completed.
    pub exhausted: bool,
    /// Exhaustive refinement ran to completion.
    pub refined: bool,
    /// Slices executed so far.
    pub resumes: u64,
    /// Warm-start nodes accepted after trimming.
    pub warm_start: usize,
    /// Greedy acceptance sequence (marginal benefit per add, in
    /// order). Prefix-consistent: see [`FrontierPoint`].
    pub frontier: Vec<FrontierPoint>,
}

#[derive(Debug, Clone, PartialEq)]
enum Phase {
    Init,
    /// Greedy add loop; the candidate scan of one add step is itself
    /// resumable.
    Greedy,
    Evict,
    DropUnused,
    Refine,
    Done,
}

/// The resumable frontier of an anytime search. Plain data — the
/// what-if engine is rebuilt per slice (its caches warm up again, but
/// decisions depend only on this state, so chopped and uninterrupted
/// runs converge identically).
#[derive(Debug, Clone)]
pub struct AnytimeState {
    phase: Phase,
    chosen: Vec<usize>,
    covered: u128,
    // Greedy add-step scan frontier.
    scan: Option<GreedyScan>,
    // Eviction pass frontier.
    evict_current: Option<f64>,
    evict_pos: usize,
    // Refinement frontier.
    refine_next: u64,
    best: Vec<usize>,
    best_cost: Option<f64>,
    best_size: u64,
    trace: Vec<String>,
    wall_secs: f64,
    telemetry: AnytimeTelemetry,
}

#[derive(Debug, Clone)]
struct GreedyScan {
    next: usize,
    current: f64,
    used: u64,
    best: Option<(usize, f64, f64)>, // (node, marginal, ratio)
}

impl Default for AnytimeState {
    fn default() -> Self {
        AnytimeState::new()
    }
}

impl AnytimeState {
    pub fn new() -> AnytimeState {
        AnytimeState {
            phase: Phase::Init,
            chosen: Vec::new(),
            covered: 0,
            scan: None,
            evict_current: None,
            evict_pos: 0,
            refine_next: 0,
            best: Vec::new(),
            best_cost: None,
            best_size: 0,
            trace: Vec::new(),
            wall_secs: 0.0,
            telemetry: AnytimeTelemetry::default(),
        }
    }

    /// The search has run to completion; further slices are no-ops.
    pub fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    pub fn telemetry(&self) -> &AnytimeTelemetry {
        &self.telemetry
    }

    /// Best configuration found so far (normalized node indices).
    fn best_so_far(&self) -> Vec<usize> {
        if self.best_cost.is_some() {
            self.best.clone()
        } else {
            normalize(&self.chosen)
        }
    }
}

/// Result of one slice: the best-so-far packaged as a [`SearchOutcome`]
/// plus cumulative telemetry. `outcome.stats` covers the last slice
/// only (each slice rebuilds the engine).
#[derive(Debug, Clone)]
pub struct AnytimeOutcome {
    pub outcome: SearchOutcome,
    pub telemetry: AnytimeTelemetry,
}

/// Run a fresh anytime search for one slice (a single call with an
/// unbounded budget runs to completion).
pub fn anytime_search(
    collection: &Collection,
    model: &CostModel,
    workload: &Workload,
    dag: &Dag,
    budget_bytes: u64,
    opts: &AnytimeOptions,
) -> AnytimeOutcome {
    let mut state = AnytimeState::new();
    anytime_step(
        &mut state,
        collection,
        model,
        workload,
        dag,
        budget_bytes,
        opts,
    )
}

/// Run (or resume) one slice of an anytime search. The slice stops
/// when `opts.budget` is exhausted or the search completes; consult
/// [`AnytimeState::done`] to tell which.
#[allow(clippy::too_many_arguments)]
pub fn anytime_step(
    state: &mut AnytimeState,
    collection: &Collection,
    model: &CostModel,
    workload: &Workload,
    dag: &Dag,
    budget_bytes: u64,
    opts: &AnytimeOptions,
) -> AnytimeOutcome {
    let start = Instant::now();
    let mut ev =
        WhatIfEngine::from_workload(collection, model, workload, dag, EngineConfig::default());
    drive(
        state,
        &mut ev,
        GreedyKnobs::default(),
        budget_bytes,
        opts,
        start,
    )
}

/// The greedy search itself: one slice over a caller-built engine, with
/// the heuristics selected by `knobs`. `start` is when the slice began
/// (engine construction counts against the wall budget).
pub(crate) fn drive(
    state: &mut AnytimeState,
    ev: &mut WhatIfEngine<'_>,
    knobs: GreedyKnobs,
    budget_bytes: u64,
    opts: &AnytimeOptions,
    start: Instant,
) -> AnytimeOutcome {
    state.telemetry.resumes += 1;
    let mut slice_evals: u64 = 0;
    let n = ev.dag.nodes.len();

    // One driver evaluation, counted against slice and lifetime budgets.
    macro_rules! eval {
        ($cfg:expr) => {{
            slice_evals += 1;
            state.telemetry.evals += 1;
            ev.cost($cfg)
        }};
    }
    // Budget check between evaluations. A slice always performs at
    // least one evaluation so chopped runs make progress.
    macro_rules! over {
        () => {
            slice_evals > 0
                && (opts.budget.wall.is_some_and(|w| start.elapsed() >= w)
                    || opts.budget.max_evals.is_some_and(|m| slice_evals >= m))
        };
    }
    macro_rules! point {
        ($cost:expr) => {
            state.telemetry.curve.push(ConvergencePoint {
                evals: state.telemetry.evals,
                wall_secs: state.wall_secs + start.elapsed().as_secs_f64(),
                cost: $cost,
            })
        };
    }

    let mut suspended = false;
    'drive: loop {
        match state.phase {
            Phase::Init => {
                let base = eval!(&[]);
                state
                    .trace
                    .push(format!("greedy: no-index workload cost {base:.1}"));
                // Warm start: previous cycle's configuration, trimmed
                // largest-first until it fits the disk budget.
                let mut warm: Vec<usize> = normalize(
                    &opts
                        .warm_start
                        .iter()
                        .copied()
                        .filter(|&i| i < n)
                        .collect::<Vec<_>>(),
                );
                while !warm.is_empty() && ev.size(&warm) > budget_bytes {
                    let drop_pos = (0..warm.len())
                        .max_by_key(|&p| (ev.dag.nodes[warm[p]].candidate.size_bytes, p))
                        .unwrap();
                    warm.remove(drop_pos);
                }
                if !warm.is_empty() {
                    let cost = eval!(&warm);
                    state.trace.push(format!(
                        "warm start: {} indexes carried over, cost {cost:.1}",
                        warm.len()
                    ));
                    point!(cost);
                } else {
                    point!(base);
                }
                state.telemetry.warm_start = warm.len();
                for &i in &warm {
                    state.covered |= ev.coverage[i];
                }
                state.chosen = warm;
                state.phase = Phase::Greedy;
            }
            Phase::Greedy => {
                // Start a fresh add step unless one is suspended mid-scan.
                if state.scan.is_none() {
                    if over!() {
                        suspended = true;
                        break 'drive;
                    }
                    let used = ev.size(&state.chosen);
                    let current = eval!(&state.chosen);
                    state.scan = Some(GreedyScan {
                        next: 0,
                        current,
                        used,
                        best: None,
                    });
                }
                let mut scan = state.scan.take().unwrap();
                while scan.next < n {
                    let i = scan.next;
                    // Coverage bitmap heuristic: skip indexes that would not
                    // give any so-far-uncovered workload pattern an index.
                    if state.chosen.contains(&i)
                        || scan.used + ev.dag.nodes[i].candidate.size_bytes > budget_bytes
                        || (knobs.coverage_bitmap && ev.coverage[i] & !state.covered == 0)
                    {
                        scan.next += 1;
                        continue;
                    }
                    if over!() {
                        state.scan = Some(scan);
                        suspended = true;
                        break 'drive;
                    }
                    let mut with = state.chosen.clone();
                    with.push(i);
                    let marginal = scan.current - eval!(&with);
                    scan.next += 1;
                    if marginal <= 0.0 {
                        continue;
                    }
                    let ratio = marginal / ev.dag.nodes[i].candidate.size_bytes.max(1) as f64;
                    if scan.best.is_none_or(|(_, _, r)| ratio > r) {
                        scan.best = Some((i, marginal, ratio));
                    }
                }
                match scan.best {
                    Some((i, marginal, ratio)) => {
                        state.covered |= ev.coverage[i];
                        state.trace.push(format!(
                            "add {} (marginal benefit {marginal:.1}, ratio {ratio:.6})",
                            ev.dag.nodes[i].candidate.pattern
                        ));
                        state.chosen.push(i);
                        state.telemetry.iterations += 1;
                        state.telemetry.frontier.push(FrontierPoint {
                            nodes: vec![i],
                            marginal,
                            size_bytes: ev.dag.nodes[i].candidate.size_bytes,
                        });
                        point!(scan.current - marginal);
                    }
                    None => {
                        // Single additions have stalled. Disjunctive
                        // predicates only pay off when every branch of an
                        // OR group is covered at once (index interaction
                        // the one-at-a-time scan cannot see), so try
                        // adding one whole group as a unit.
                        slice_evals += 1;
                        state.telemetry.evals += 1;
                        if let Some(added) =
                            try_or_group_add(ev, &state.chosen, state.covered, budget_bytes, knobs)
                        {
                            for &i in &added {
                                state.covered |= ev.coverage[i];
                                state.trace.push(format!(
                                    "add {} (OR-group member)",
                                    ev.dag.nodes[i].candidate.pattern
                                ));
                            }
                            let group_bytes: u64 = added
                                .iter()
                                .map(|&i| ev.dag.nodes[i].candidate.size_bytes)
                                .sum();
                            state.chosen.extend(added.clone());
                            // Uncounted cache-warm re-evaluation: the
                            // group's config was just costed inside
                            // `try_or_group_add`, so this read does not
                            // perturb the eval budget (keeping chopped
                            // and uninterrupted runs bit-identical).
                            let after = ev.cost(&state.chosen);
                            state.telemetry.frontier.push(FrontierPoint {
                                nodes: added,
                                marginal: (scan.current - after).max(0.0),
                                size_bytes: group_bytes,
                            });
                            state.telemetry.iterations += 1;
                        } else {
                            state.phase = Phase::Evict;
                        }
                    }
                }
            }
            // Eviction pass: reclaim space held by indexes whose removal
            // does not hurt (their patterns are covered by other chosen
            // indexes).
            Phase::Evict => {
                if !knobs.eviction {
                    state.phase = Phase::DropUnused;
                    continue;
                }
                if state.evict_current.is_none() {
                    if over!() {
                        suspended = true;
                        break 'drive;
                    }
                    state.evict_current = Some(eval!(&state.chosen));
                    state.evict_pos = 0;
                }
                let current = state.evict_current.unwrap();
                let mut evicted = false;
                while state.evict_pos < state.chosen.len() {
                    if over!() {
                        suspended = true;
                        break 'drive;
                    }
                    let mut without = state.chosen.clone();
                    let node = without.remove(state.evict_pos);
                    if eval!(&without) <= current + 1e-9 {
                        state.trace.push(format!(
                            "evict redundant {} (no benefit loss, reclaim {} KiB)",
                            ev.dag.nodes[node].candidate.pattern,
                            ev.dag.nodes[node].candidate.size_bytes / 1024
                        ));
                        state.chosen = without;
                        state.evict_current = None;
                        state.telemetry.iterations += 1;
                        evicted = true;
                        break;
                    }
                    state.evict_pos += 1;
                }
                if !evicted && state.evict_current.is_some() {
                    state.phase = Phase::DropUnused;
                }
            }
            Phase::DropUnused => {
                if over!() {
                    suspended = true;
                    break 'drive;
                }
                // Guarantee: every recommended index is used by some
                // query's best plan.
                if knobs.drop_unused {
                    slice_evals += 1;
                    state.telemetry.evals += 1;
                    let (_, used_per_query) = ev.detail(&state.chosen);
                    let used_set: std::collections::HashSet<usize> =
                        used_per_query.iter().flatten().copied().collect();
                    let trace = &mut state.trace;
                    state.chosen.retain(|i| {
                        let keep = used_set.contains(i);
                        if !keep {
                            trace.push(format!(
                                "drop unused {} (not used by any plan)",
                                ev.dag.nodes[*i].candidate.pattern
                            ));
                        }
                        keep
                    });
                }
                let refine = opts.refine_max_nodes > 0 && n <= opts.refine_max_nodes && n < 26;
                state.phase = if refine { Phase::Refine } else { Phase::Done };
            }
            Phase::Refine => {
                if state.best_cost.is_none() {
                    if over!() {
                        suspended = true;
                        break 'drive;
                    }
                    state.best = normalize(&state.chosen);
                    state.best_cost = Some(eval!(&state.best));
                    state.best_size = ev.size(&state.best);
                    state.refine_next = 0;
                    state.trace.push(format!(
                        "refine: exhaustive sweep over {} subsets",
                        1u64 << n
                    ));
                }
                while state.refine_next < (1u64 << n) {
                    if over!() {
                        suspended = true;
                        break 'drive;
                    }
                    let mask = state.refine_next;
                    state.refine_next += 1;
                    let cfg: Vec<usize> = (0..n).filter(|&b| mask >> b & 1 == 1).collect();
                    let size = ev.size(&cfg);
                    if size > budget_bytes {
                        continue;
                    }
                    let cost = eval!(&cfg);
                    let best_cost = state.best_cost.unwrap();
                    let better = match cost.total_cmp(&best_cost) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => size < state.best_size,
                        std::cmp::Ordering::Greater => false,
                    };
                    if better {
                        if cost < best_cost {
                            point!(cost);
                            state.telemetry.iterations += 1;
                        }
                        state.best = cfg;
                        state.best_cost = Some(cost);
                        state.best_size = size;
                    }
                }
                if state.refine_next >= (1u64 << n) {
                    state.chosen = state.best.clone();
                    state.telemetry.refined = true;
                    state.phase = Phase::Done;
                }
            }
            Phase::Done => break 'drive,
        }
    }

    state.telemetry.exhausted = suspended;
    state.wall_secs += start.elapsed().as_secs_f64();
    let best = state.best_so_far();
    let mut trace = state.trace.clone();
    if suspended {
        trace.push(format!(
            "budget exhausted in {:?} phase after {} evals — returning best-so-far",
            state.phase, state.telemetry.evals
        ));
    }
    AnytimeOutcome {
        outcome: outcome(ev, best, trace),
        telemetry: state.telemetry.clone(),
    }
}

/// Find one OR group whose branches can all be covered by adding new
/// candidates within budget with positive combined marginal benefit.
/// Returns the candidate set to add, or `None`.
fn try_or_group_add(
    ev: &mut WhatIfEngine<'_>,
    chosen: &[usize],
    covered: u128,
    budget: u64,
    knobs: GreedyKnobs,
) -> Option<Vec<usize>> {
    let groups = ev.or_groups();
    let used: u64 = ev.size(chosen);
    let current = ev.cost(chosen);
    for branches in groups {
        // Nothing to do if the group is already fully covered.
        if knobs.coverage_bitmap && branches.iter().all(|b| b & covered != 0) {
            continue;
        }
        // Per branch, the cheapest candidate covering any of its atoms.
        let mut add: Vec<usize> = Vec::new();
        let mut ok = true;
        for branch_mask in &branches {
            if branch_mask & covered != 0 {
                continue; // branch already covered by a chosen index
            }
            let best = (0..ev.dag.nodes.len())
                .filter(|i| !chosen.contains(i) && !add.contains(i))
                .filter(|&i| ev.coverage[i] & branch_mask != 0)
                .min_by_key(|&i| ev.dag.nodes[i].candidate.size_bytes);
            match best {
                Some(i) => add.push(i),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok || add.is_empty() {
            continue;
        }
        let add_size: u64 = add
            .iter()
            .map(|&i| ev.dag.nodes[i].candidate.size_bytes)
            .sum();
        if used + add_size > budget {
            continue;
        }
        let mut with = chosen.to_vec();
        with.extend(&add);
        if current - ev.cost(&with) > 0.0 {
            return Some(add);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::generate_basic_candidates;
    use crate::generalize::{generalize, GeneralizationConfig};
    use crate::search::{search, SearchStrategy};
    use xia_xml::DocumentBuilder;

    fn collection(n: usize) -> Collection {
        let regions = ["africa", "asia", "europe", "namerica"];
        let mut c = Collection::new("shop");
        for i in 0..n {
            let mut b = DocumentBuilder::new();
            b.open("site");
            b.open(regions[i % regions.len()]);
            b.open("item");
            b.leaf("price", &format!("{}", i % 40));
            b.leaf("quantity", &format!("{}", i % 7));
            b.close();
            b.close();
            b.close();
            c.insert(b.finish().unwrap());
        }
        c
    }

    fn setup(n: usize, queries: &[&str]) -> (Collection, Workload, Dag) {
        let c = collection(n);
        let w = Workload::from_queries(queries, "shop").unwrap();
        let basics = generate_basic_candidates(&c, &w);
        let dag = generalize(&c, &basics, &GeneralizationConfig::default());
        (c, w, dag)
    }

    const QUERIES: &[&str] = &[
        "/site/africa/item[price = 3]/quantity",
        "/site/asia/item[price = 17]/quantity",
        "/site/europe/item[quantity = 2]/price",
    ];

    #[test]
    fn chopped_resume_converges_to_uninterrupted_result() {
        let (c, w, dag) = setup(300, QUERIES);
        let model = CostModel::default();
        let budget = 1 << 20;
        let full = anytime_search(&c, &model, &w, &dag, budget, &AnytimeOptions::default());

        let opts = AnytimeOptions {
            budget: AnytimeBudget::evals(3),
            ..Default::default()
        };
        let mut state = AnytimeState::new();
        let mut last = None;
        for _ in 0..10_000 {
            let out = anytime_step(&mut state, &c, &model, &w, &dag, budget, &opts);
            let done = state.done();
            last = Some(out);
            if done {
                break;
            }
        }
        let last = last.unwrap();
        assert!(state.done(), "chopped run did not finish");
        assert!(last.telemetry.resumes > 1);
        assert_eq!(last.outcome.chosen, full.outcome.chosen);
        assert_eq!(last.outcome.workload_cost, full.outcome.workload_cost);
    }

    #[test]
    fn exhausted_slice_returns_valid_best_so_far() {
        let (c, w, dag) = setup(300, QUERIES);
        let model = CostModel::default();
        let budget = 1 << 20;
        let opts = AnytimeOptions {
            budget: AnytimeBudget::evals(1),
            ..Default::default()
        };
        let out = anytime_search(&c, &model, &w, &dag, budget, &opts);
        assert!(out.telemetry.exhausted);
        assert!(out.outcome.size_bytes <= budget);
        assert!(out.outcome.workload_cost <= out.outcome.base_cost + 1e-9);
    }

    #[test]
    fn refinement_is_exhaustively_optimal_on_small_dags() {
        let (c, w, dag) = setup(200, &["/site/africa/item[price = 3]/quantity"]);
        let n = dag.nodes.len();
        assert!(n <= 12, "fixture DAG unexpectedly large: {n}");
        let model = CostModel::default();
        let budget = 1 << 20;
        let opts = AnytimeOptions {
            refine_max_nodes: 12,
            ..Default::default()
        };
        let any = anytime_search(&c, &model, &w, &dag, budget, &opts);
        assert!(any.telemetry.refined);

        // Exhaustive reference over every budget-feasible subset.
        let mut ev = WhatIfEngine::from_workload(&c, &model, &w, &dag, EngineConfig::default());
        let mut best = f64::INFINITY;
        for mask in 0u64..(1 << n) {
            let cfg: Vec<usize> = (0..n).filter(|&b| mask >> b & 1 == 1).collect();
            if ev.size(&cfg) > budget {
                continue;
            }
            best = best.min(ev.cost(&cfg));
        }
        assert_eq!(any.outcome.workload_cost, best);
    }

    #[test]
    fn warm_start_is_trimmed_to_budget_and_preserved() {
        let (c, w, dag) = setup(300, QUERIES);
        let model = CostModel::default();
        let greedy = search(
            &c,
            &model,
            &w,
            &dag,
            1 << 20,
            SearchStrategy::GreedyHeuristic,
        );
        assert!(!greedy.chosen.is_empty());
        // Warm-start the full previous result under a tiny budget: it
        // must be trimmed, and the outcome must still fit.
        let opts = AnytimeOptions {
            warm_start: greedy.chosen.clone(),
            ..Default::default()
        };
        let tiny = anytime_search(&c, &model, &w, &dag, 64, &opts);
        assert!(tiny.outcome.size_bytes <= 64);
        // And under the real budget the warm-started search matches the
        // from-scratch result on an unchanged workload.
        let warm = anytime_search(&c, &model, &w, &dag, 1 << 20, &opts);
        assert_eq!(warm.outcome.chosen, greedy.chosen);
        assert_eq!(warm.telemetry.warm_start, greedy.chosen.len());
    }
}
