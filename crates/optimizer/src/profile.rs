//! PROFILE: execute a plan and annotate each operator with its actual
//! behaviour.
//!
//! EXPLAIN shows the optimizer's *estimates*; PROFILE runs the plan and
//! shows, per operator, estimated vs. actual cardinality and the wall
//! time spent in that operator — the standard way to spot a cost-model
//! mis-estimate (an operator whose `est` and `act` diverge) without
//! leaving the console. Results are identical to [`crate::execute`];
//! only the bookkeeping differs.
//!
//! The run is [`crate::executor`]'s one plan walk with a trace sink
//! attached, in the mode `choose_mode` picks — PROFILE profiles the path
//! QUERY takes; this module only hangs the trace on the operator tree
//! and renders it. When verification runs through the batched engine
//! the profile attributes rows and wall time to every batch operator
//! (seed, structural joins, predicate filters, materialize) summed
//! across the evaluated documents — the [`Profile::operators`]
//! breakdown, rendered as `BATCH` children of the root operator and
//! surfaced over the wire by the PROFILE command. A navigational walk
//! has no operators to attribute to: the root names the walker and the
//! breakdown is empty.

use crate::executor::{choose_mode, walk, ExecError, ExecMode, ExecStats, WalkTrace};
use crate::plan::{AccessPath, IndexLeg, Plan};
use std::time::{Duration, Instant};
use xia_storage::{Collection, DocId};
use xia_xml::NodeId;
use xia_xquery::NormalizedQuery;

/// One operator of a profiled plan.
#[derive(Debug, Clone)]
pub struct ProfileNode {
    /// Operator name plus detail (index id, pattern, match flags).
    pub label: String,
    /// The optimizer's cardinality estimate for this operator's output.
    /// `NaN` for batch operators, which carry no per-operator estimate
    /// (rendered as `est -`).
    pub est_rows: f64,
    /// Rows the operator actually produced.
    pub actual_rows: usize,
    /// Wall time spent inside the operator (children excluded).
    pub wall: Duration,
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn leaf(label: String, est_rows: f64, actual_rows: usize, wall: Duration) -> ProfileNode {
        ProfileNode {
            label,
            est_rows,
            actual_rows,
            wall,
            children: Vec::new(),
        }
    }
}

/// Rows and wall time one batch operator accounted for, summed over all
/// documents the execution evaluated.
#[derive(Debug, Clone)]
pub struct OperatorStat {
    /// Operator kind from the batch catalog (`seed`, `sjoin-desc`,
    /// `sjoin-child`, `attr-step`, `parent-step`, `filter`, `docfilter`,
    /// `materialize`).
    pub kind: &'static str,
    /// Full label including the step/predicate detail.
    pub op: String,
    pub rows: u64,
    pub wall: Duration,
}

/// A profiled execution: the operator tree plus the usual results and
/// work counters.
#[derive(Debug, Clone)]
pub struct Profile {
    pub root: ProfileNode,
    pub results: Vec<(DocId, NodeId)>,
    pub stats: ExecStats,
    /// Per-batch-operator breakdown of the verification stage. Empty for
    /// index-only plans (they answer from postings) and navigational
    /// walks — neither runs the batch pipeline.
    pub operators: Vec<OperatorStat>,
    /// End-to-end wall time (equals the root's subtree time).
    pub total: Duration,
}

impl Profile {
    /// Render the operator tree, one operator per line:
    ///
    /// ```text
    /// FETCH + verify (est 12.0, act 9, 0.41 ms)
    ///   IXAND (est 20.0, act 15, 0.02 ms)
    ///     XISCAN idx1 pattern='//item/price' [sargable] (est 40.0, act 38, 0.11 ms)
    ///   BATCH seed //item (est -, act 38, 0.01 ms)
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, 0, &mut out);
        out.push_str(&format!(
            "total: {:.2} ms | {} docs evaluated, {} index probes, {} entries scanned, {} pages read\n",
            self.total.as_secs_f64() * 1e3,
            self.stats.docs_evaluated,
            self.stats.index_probes,
            self.stats.entries_scanned,
            self.stats.pages_read,
        ));
        out
    }
}

fn render_node(n: &ProfileNode, depth: usize, out: &mut String) {
    let est = if n.est_rows.is_nan() {
        "-".to_string()
    } else {
        format!("{:.1}", n.est_rows)
    };
    out.push_str(&format!(
        "{:indent$}{} (est {est}, act {}, {:.2} ms)\n",
        "",
        n.label,
        n.actual_rows,
        n.wall.as_secs_f64() * 1e3,
        indent = depth * 2
    ));
    for c in &n.children {
        render_node(c, depth + 1, out);
    }
}

fn leg_label(leg: &IndexLeg) -> String {
    format!(
        "XISCAN {} pattern='{}'{}{}",
        leg.index,
        leg.pattern,
        if leg.matched.structural_only {
            " [structural]"
        } else {
            " [sargable]"
        },
        if leg.matched.needs_path_recheck {
            " [recheck]"
        } else {
            ""
        },
    )
}

/// Execute `plan` for `query` over `collection` the way [`execute`]
/// does — same walk, same [`choose_mode`] pick — recording per-operator
/// estimated vs. actual cardinalities and wall time.
///
/// [`execute`]: crate::execute
pub fn profile_execute(
    collection: &Collection,
    query: &NormalizedQuery,
    plan: &Plan,
) -> Result<Profile, ExecError> {
    let overall = Instant::now();
    let mode = choose_mode(collection, query, plan);
    let mut trace = WalkTrace::default();
    let (results, stats) = walk(collection, query, plan, mode, Some(&mut trace))?;
    let total = overall.elapsed();

    let leg_nodes = |legs: &[IndexLeg]| -> Vec<ProfileNode> {
        legs.iter()
            .zip(&trace.legs)
            .map(|(leg, &(docs, wall))| {
                ProfileNode::leaf(leg_label(leg), leg.est_results, docs, wall)
            })
            .collect()
    };
    // An AND/OR node's own time is the access stage minus its legs.
    let combine = |label: &str, legs: Vec<ProfileNode>| ProfileNode {
        label: label.into(),
        est_rows: plan.est_docs_fetched,
        actual_rows: trace.candidates,
        wall: trace
            .access_wall
            .saturating_sub(legs.iter().map(|l| l.wall).sum()),
        children: legs,
    };
    let mut children: Vec<ProfileNode> = match &plan.access {
        // Answered straight from the postings: a single operator.
        AccessPath::IndexOnly { leg } => {
            let root = ProfileNode::leaf(
                format!("XISCAN-ONLY {} pattern='{}'", leg.index, leg.pattern),
                plan.est_results,
                results.len(),
                trace.access_wall,
            );
            return Ok(Profile {
                root,
                results,
                stats,
                operators: Vec::new(),
                total,
            });
        }
        AccessPath::DocScan => vec![ProfileNode::leaf(
            "XSCAN (full collection scan)".into(),
            collection.len() as f64,
            trace.candidates,
            trace.access_wall,
        )],
        AccessPath::IndexOr { legs } => {
            let legs = leg_nodes(legs);
            vec![combine("IXOR (index ORing)", legs)]
        }
        AccessPath::IndexAccess { legs } if legs.len() > 1 => {
            let legs = leg_nodes(legs);
            vec![combine("IXAND (index ANDing)", legs)]
        }
        AccessPath::IndexAccess { legs } => leg_nodes(legs),
    };

    // Per-batch-operator attribution; a navigational walk has none.
    let operators: Vec<OperatorStat> = match &trace.batch {
        None => Vec::new(),
        Some((batch, counters)) => batch
            .ops
            .iter()
            .zip(&counters.ops)
            .map(|(op, s)| OperatorStat {
                kind: op.kind,
                op: op.label(),
                rows: s.rows,
                wall: s.wall,
            })
            .collect(),
    };
    children.extend(
        operators.iter().map(|o| {
            ProfileNode::leaf(format!("BATCH {}", o.op), f64::NAN, o.rows as usize, o.wall)
        }),
    );

    let scan = matches!(plan.access, AccessPath::DocScan);
    let label = match (scan, mode) {
        (true, ExecMode::Batched) => "BATCH-EVAL (batched evaluation)",
        (true, ExecMode::Navigational) => "NAV-EVAL (navigational walk)",
        (false, ExecMode::Batched) => "FETCH + verify (residual predicates)",
        (false, ExecMode::Navigational) => {
            "FETCH + verify (residual predicates, navigational walk)"
        }
    };
    let root = ProfileNode {
        label: label.into(),
        est_rows: plan.est_results,
        actual_rows: results.len(),
        wall: trace.verify_wall,
        children,
    };
    Ok(Profile {
        root,
        results,
        stats,
        operators,
        total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, explain, CostModel};
    use xia_index::{DataType, IndexDefinition, IndexId};
    use xia_xml::DocumentBuilder;
    use xia_xpath::LinearPath;
    use xia_xquery::compile;

    fn collection(n: usize) -> Collection {
        let mut c = Collection::new("shop");
        for i in 0..n {
            let mut b = DocumentBuilder::new();
            b.open("shop");
            b.open("item");
            b.leaf("price", &format!("{}", i % 20));
            b.leaf("name", &format!("n{}", i % 4));
            b.close();
            b.close();
            c.insert(b.finish().unwrap());
        }
        c
    }

    #[test]
    fn profile_matches_execute_on_docscan() {
        let c = collection(80);
        let q = compile("//item[price > 15]/name", "shop").unwrap();
        let ex = explain(&c, &CostModel::default(), &q);
        let (rows, stats) = execute(&c, &q, &ex.plan).unwrap();
        let p = profile_execute(&c, &q, &ex.plan).unwrap();
        assert_eq!(p.results, rows, "profiled results identical");
        assert_eq!(p.stats, stats, "profiled counters identical");
        assert_eq!(p.root.actual_rows, rows.len());
        let text = p.render();
        assert!(text.contains("XSCAN"), "{text}");
        assert!(text.contains("est"), "{text}");
    }

    #[test]
    fn profile_matches_execute_with_indexes() {
        let mut c = collection(120);
        c.create_index(IndexDefinition::new(
            IndexId(1),
            LinearPath::parse("//item/price").unwrap(),
            DataType::Double,
        ));
        let q = compile("//item[price = 3]/name", "shop").unwrap();
        let ex = explain(&c, &CostModel::default(), &q);
        assert!(ex.plan.uses_indexes(), "{}", ex.text);
        let (rows, stats) = execute(&c, &q, &ex.plan).unwrap();
        let p = profile_execute(&c, &q, &ex.plan).unwrap();
        assert_eq!(p.results, rows);
        assert_eq!(p.stats, stats);
        let text = p.render();
        assert!(text.contains("XISCAN"), "{text}");
        assert!(text.contains("FETCH"), "{text}");
        // Actual cardinalities are threaded through each operator.
        assert_eq!(p.root.actual_rows, rows.len());
        assert!(!p.root.children.is_empty());
    }

    #[test]
    fn profile_attributes_rows_to_batch_operators() {
        let c = collection(60);
        let q = compile("//item[price > 9]/name", "shop").unwrap();
        let ex = explain(&c, &CostModel::default(), &q);
        let p = profile_execute(&c, &q, &ex.plan).unwrap();
        let kinds: Vec<&str> = p.operators.iter().map(|o| o.kind).collect();
        assert_eq!(kinds, ["seed", "filter", "sjoin-child", "materialize"]);
        // Every doc has one item; seed sees them all.
        let seed = &p.operators[0];
        assert_eq!(seed.rows, 60);
        // The filter keeps price in 10..=19 — half of them.
        assert_eq!(p.operators[1].rows, 30);
        // Materialized rows equal the result count.
        assert_eq!(p.operators.last().unwrap().rows as usize, p.results.len());
        // And the render shows the batch pipeline.
        let text = p.render();
        assert!(text.contains("BATCH seed"), "{text}");
        assert!(text.contains("est -"), "{text}");
    }

    /// PROFILE follows `choose_mode`: on the shape QUERY hands to the
    /// navigational walker the profile runs the walker too.
    #[test]
    fn profile_follows_choose_mode_to_the_walker() {
        let c = crate::executor::tests::homonym_heavy_collection(8, 100);
        let q = compile("/site/item/price", "auctions").unwrap();
        let ex = explain(&c, &CostModel::default(), &q);
        assert_eq!(choose_mode(&c, &q, &ex.plan), ExecMode::Navigational);
        let (rows, stats) = execute(&c, &q, &ex.plan).unwrap();
        let p = profile_execute(&c, &q, &ex.plan).unwrap();
        assert_eq!(p.results, rows);
        assert_eq!(p.stats, stats);
        assert!(p.operators.is_empty(), "{:?}", p.operators);
        let text = p.render();
        assert!(text.starts_with("NAV-EVAL (navigational walk)"), "{text}");
        assert!(!text.contains("BATCH"), "{text}");
    }

    #[test]
    fn profile_missing_index_is_an_error() {
        let mut c = collection(120);
        c.create_index(IndexDefinition::new(
            IndexId(1),
            LinearPath::parse("//item/price").unwrap(),
            DataType::Double,
        ));
        let q = compile("//item[price = 3]/name", "shop").unwrap();
        let ex = explain(&c, &CostModel::default(), &q);
        assert!(ex.plan.uses_indexes(), "{}", ex.text);
        c.drop_index(IndexId(1));
        assert!(profile_execute(&c, &q, &ex.plan).is_err());
    }
}
