//! The advisor console's command engine.
//!
//! The paper demonstrates its system through a visual client that drives
//! the two EXPLAIN modes, shows the candidate DAG and search traversal,
//! analyzes recommendations, and creates the chosen indexes. [`Session`]
//! is that client as a text console: every command returns its output as
//! a `String`, which makes the whole surface unit-testable and pipeable.

use std::fmt::Write as _;
use xia::advisor::analysis::measure_execution;
use xia::advisor::{generalize, generate_basic_candidates, GeneralizationConfig};
use xia::prelude::*;

/// One interactive advisor session.
pub struct Session {
    db: Database,
    current: Option<String>,
    workload: Workload,
    advisor: Advisor,
    last_rec: Option<Recommendation>,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    pub fn new() -> Session {
        Session {
            db: Database::new(),
            current: None,
            workload: Workload::new(),
            advisor: Advisor::default(),
            last_rec: None,
        }
    }

    /// Execute one command line; returns its output or an error message.
    pub fn exec(&mut self, line: &str) -> Result<String, String> {
        let (cmd, rest) = split_word(line);
        match cmd {
            "help" => Ok(HELP.to_string()),
            "demo" => self.demo(),
            "load" => self.load(rest),
            "use" => self.use_collection(rest),
            "stats" => self.stats(),
            "workload" => self.workload_cmd(rest),
            "enumerate" => self.enumerate(rest),
            "dag" => self.dag(),
            "recommend" => self.recommend(rest),
            "analyze" => self.analyze(),
            "create" => self.create(),
            "indexes" => self.indexes(),
            "review" => self.review(),
            "drop" => self.drop(rest),
            "explain" => self.explain_cmd(rest),
            "run" => self.run(rest),
            "save" => self.save(rest),
            "open" => self.open(rest),
            other => Err(format!("unknown command '{other}' (try 'help')")),
        }
    }

    fn collection(&self) -> Result<&Collection, String> {
        let name = self
            .current
            .as_ref()
            .ok_or("no collection loaded (try 'load xmark 100')")?;
        self.db
            .collection(name)
            .ok_or_else(|| format!("collection '{name}' missing"))
    }

    fn collection_mut(&mut self) -> Result<&mut Collection, String> {
        let name = self
            .current
            .clone()
            .ok_or("no collection loaded (try 'load xmark 100')")?;
        self.db
            .collection_mut(&name)
            .ok_or_else(|| format!("collection '{name}' missing"))
    }

    fn load(&mut self, rest: &str) -> Result<String, String> {
        let (what, arg) = split_word(rest);
        match what {
            "xmark" => {
                let docs: usize = arg.trim().parse().unwrap_or(100);
                self.db.create_collection("auctions");
                let coll = self.db.collection_mut("auctions").expect("just created");
                let n = XMarkGen::new(XMarkConfig {
                    docs,
                    ..Default::default()
                })
                .populate(coll);
                self.current = Some("auctions".into());
                Ok(format!(
                    "loaded {n} XMark-like documents into 'auctions' ({} nodes, {} paths)",
                    coll.stats().total_nodes,
                    coll.stats().path_count()
                ))
            }
            "tpox" => {
                TpoxGen::new(TpoxConfig::default()).populate_all(&mut self.db);
                self.current = Some("order".into());
                Ok(
                    "loaded TPoX-like collections: order, custacc, security (current: order)"
                        .to_string(),
                )
            }
            other => Err(format!("unknown dataset '{other}' (xmark <docs> | tpox)")),
        }
    }

    fn use_collection(&mut self, rest: &str) -> Result<String, String> {
        let name = rest.trim();
        if self.db.collection(name).is_none() {
            return Err(format!("no collection '{name}'"));
        }
        self.current = Some(name.to_string());
        self.workload = Workload::new();
        self.last_rec = None;
        Ok(format!("using collection '{name}' (workload cleared)"))
    }

    fn stats(&self) -> Result<String, String> {
        let coll = self.collection()?;
        let s = coll.stats();
        let mut out = format!(
            "collection '{}': {} documents, {} nodes, {} data pages, {} distinct paths\n",
            coll.name(),
            s.doc_count,
            s.total_nodes,
            s.data_pages(),
            s.path_count()
        );
        out.push_str("top paths by node count:\n");
        let mut entries: Vec<_> = s.entries().iter().collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.stats.count));
        for e in entries.iter().take(10) {
            let path: String = e
                .labels
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    let at = if e.is_attribute && i + 1 == e.labels.len() {
                        "@"
                    } else {
                        ""
                    };
                    format!("/{at}{l}")
                })
                .collect();
            let _ = writeln!(out, "  {:>8}  {}", e.stats.count, path);
        }
        Ok(out)
    }

    fn workload_cmd(&mut self, rest: &str) -> Result<String, String> {
        let (sub, arg) = split_word(rest);
        let coll_name = self.current.clone().unwrap_or_else(|| "auctions".into());
        match sub {
            "add" => {
                self.workload
                    .add_query(arg.trim(), &coll_name, 1.0)
                    .map_err(|e| e.to_string())?;
                Ok(format!("added query #{} (freq 1)", self.workload.query_count()))
            }
            "addf" => {
                let (freq, q) = split_word(arg);
                let freq: f64 = freq.parse().map_err(|_| "usage: workload addf <freq> <query>")?;
                self.workload
                    .add_query(q.trim(), &coll_name, freq)
                    .map_err(|e| e.to_string())?;
                Ok(format!("added query #{} (freq {freq})", self.workload.query_count()))
            }
            "insert" => {
                let freq: f64 = arg.trim().parse().map_err(|_| "usage: workload insert <freq>")?;
                let sample = {
                    let coll = self.collection()?;
                    coll.documents()
                        .next()
                        .map(|(_, d)| d.clone())
                        .ok_or("collection is empty")?
                };
                self.workload.add_insert(sample, freq);
                Ok(format!("added insert statement (freq {freq})"))
            }
            "list" => {
                let mut out = String::new();
                for (i, stmt) in self.workload.statements.iter().enumerate() {
                    use xia::advisor::StatementKind::*;
                    let desc = match &stmt.kind {
                        Query(q) => format!("[{}] {}", q.language, q.text),
                        Insert { .. } => "INSERT <sample document>".to_string(),
                        Delete { .. } => "DELETE <sample document>".to_string(),
                    };
                    let _ = writeln!(out, "{i:>3}. (freq {:>8}) {desc}", stmt.frequency);
                }
                if out.is_empty() {
                    out = "workload is empty".to_string();
                }
                Ok(out)
            }
            "clear" => {
                self.workload = Workload::new();
                self.last_rec = None;
                Ok("workload cleared".to_string())
            }
            "load" => {
                let path = arg.trim();
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let sample = self
                    .collection()
                    .ok()
                    .and_then(|c| c.documents().next().map(|(_, d)| d.clone()));
                let w = Workload::parse(&text, &coll_name, sample.as_ref())
                    .map_err(|e| e.to_string())?;
                let n = w.statements.len();
                self.workload = w;
                self.last_rec = None;
                Ok(format!("loaded {n} statements from {path}"))
            }
            "save" => {
                let path = arg.trim();
                std::fs::write(path, self.workload.to_file_format())
                    .map_err(|e| format!("{path}: {e}"))?;
                Ok(format!("saved {} statements to {path}", self.workload.statements.len()))
            }
            _ => Err("usage: workload add <query> | addf <freq> <query> | insert <freq> | list | clear | load <file> | save <file>".into()),
        }
    }

    fn enumerate(&self, rest: &str) -> Result<String, String> {
        let mut out = String::new();
        if rest.trim().is_empty() {
            for (q, _) in self.workload.queries() {
                let _ = writeln!(out, "query: {}", q.text);
                for cand in enumerate_indexes(q) {
                    let _ = writeln!(out, "  -> {cand}");
                }
            }
            if out.is_empty() {
                return Err("workload is empty; 'enumerate <query>' works too".into());
            }
        } else {
            let coll_name = self.current.clone().unwrap_or_else(|| "auctions".into());
            let q = compile(rest.trim(), &coll_name).map_err(|e| e.to_string())?;
            for cand in enumerate_indexes(&q) {
                let _ = writeln!(out, "-> {cand}");
            }
            if out.is_empty() {
                out = "no indexable patterns in this query".into();
            }
        }
        Ok(out)
    }

    fn dag(&self) -> Result<String, String> {
        let coll = self.collection()?;
        let basics = generate_basic_candidates(coll, &self.workload);
        if basics.is_empty() {
            return Err("no candidates (is the workload empty?)".into());
        }
        let dag = generalize(coll, &basics, &GeneralizationConfig::default());
        Ok(format!(
            "{} basic candidates, {} DAG nodes, {} roots\n{}",
            basics.len(),
            dag.nodes.len(),
            dag.roots().len(),
            dag.render_text()
        ))
    }

    fn recommend(&mut self, rest: &str) -> Result<String, String> {
        let (budget_s, strat_s) = split_word(rest);
        let budget_kib: u64 = budget_s
            .parse()
            .map_err(|_| "usage: recommend <budget-KiB> [greedy|topdown|baseline]")?;
        let strategy: SearchStrategy = strat_s.trim().parse()?;
        if self.workload.query_count() == 0 {
            return Err("workload is empty".into());
        }
        let rec = {
            let coll = self.collection()?;
            self.advisor
                .recommend(coll, &self.workload, budget_kib << 10, strategy)
        };
        let mut out = rec.render();
        out.push_str("\nsearch trace:\n");
        for line in &rec.outcome.trace {
            let _ = writeln!(out, "  {line}");
        }
        let _ = writeln!(out, "\nwhat-if engine: {}", rec.outcome.stats.render());
        out.push_str("\nDDL ('create' builds these):\n");
        for ddl in rec.ddl(self.current.as_deref().unwrap_or("collection")) {
            let _ = writeln!(out, "  {ddl};");
        }
        self.last_rec = Some(rec);
        Ok(out)
    }

    fn analyze(&self) -> Result<String, String> {
        let rec = self.last_rec.as_ref().ok_or("run 'recommend' first")?;
        let coll = self.collection()?;
        let report = analyze(&self.advisor, coll, &self.workload, rec, &[]);
        Ok(report.render())
    }

    fn create(&mut self) -> Result<String, String> {
        let rec = self.last_rec.clone().ok_or("run 'recommend' first")?;
        let before = {
            let coll = self.collection()?;
            measure_execution(coll, &self.workload)
        };
        let workload = self.workload.clone();
        let coll = self.collection_mut()?;
        let entries = Advisor::create_indexes(&rec, coll);
        let after = measure_execution(coll, &workload);
        Ok(format!(
            "created {} indexes ({entries} entries)\nworkload execution: {:.2} ms ({} docs) -> {:.2} ms ({} docs)",
            rec.indexes.len(),
            before.seconds * 1e3,
            before.docs_evaluated,
            after.seconds * 1e3,
            after.docs_evaluated
        ))
    }

    fn indexes(&self) -> Result<String, String> {
        let coll = self.collection()?;
        if coll.indexes().is_empty() {
            return Ok("no physical indexes".to_string());
        }
        let mut out = String::new();
        for ix in coll.indexes() {
            let _ = writeln!(
                out,
                "{}  entries {:>8}  pages {:>6}  {}",
                ix.definition(),
                ix.len(),
                ix.page_count(),
                ix.definition().ddl(coll.name())
            );
        }
        Ok(out)
    }

    fn review(&self) -> Result<String, String> {
        let coll = self.collection()?;
        if coll.indexes().is_empty() {
            return Ok("no physical indexes to review".into());
        }
        if self.workload.query_count() == 0 {
            return Err("workload is empty; review needs queries to measure against".into());
        }
        let reviews =
            review_existing_indexes(coll, &self.advisor.config.cost_model, &self.workload);
        Ok(render_reviews(&reviews))
    }

    fn drop(&mut self, rest: &str) -> Result<String, String> {
        let id: u32 = rest
            .trim()
            .trim_start_matches("idx")
            .parse()
            .map_err(|_| "usage: drop <index-id>")?;
        let coll = self.collection_mut()?;
        if coll.drop_index(IndexId(id)) {
            Ok(format!("dropped idx{id}"))
        } else {
            Err(format!("no index idx{id}"))
        }
    }

    fn save(&self, rest: &str) -> Result<String, String> {
        let dir = rest.trim();
        if dir.is_empty() {
            return Err("usage: save <directory>".into());
        }
        save_database(&self.db, std::path::Path::new(dir)).map_err(|e| e.to_string())?;
        Ok(format!(
            "saved {} collection(s) to {dir}",
            self.db.collections().count()
        ))
    }

    fn open(&mut self, rest: &str) -> Result<String, String> {
        let dir = rest.trim();
        if dir.is_empty() {
            return Err("usage: open <directory>".into());
        }
        let db = load_database(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
        let names: Vec<String> = db.collections().map(|c| c.name().to_string()).collect();
        self.db = db;
        self.current = names.first().cloned();
        self.workload = Workload::new();
        self.last_rec = None;
        Ok(format!(
            "opened {dir}: collections {names:?} (current: {:?})",
            self.current
        ))
    }

    fn explain_cmd(&self, rest: &str) -> Result<String, String> {
        let coll = self.collection()?;
        let q = compile(rest.trim(), coll.name()).map_err(|e| e.to_string())?;
        let ex = explain(coll, &CostModel::default(), &q);
        Ok(ex.text)
    }

    fn run(&self, rest: &str) -> Result<String, String> {
        // `run profile <query>` executes with per-operator instrumentation.
        let (first, tail) = split_word(rest);
        if first == "profile" {
            return self.run_profiled(tail);
        }
        let coll = self.collection()?;
        let q = compile(rest.trim(), coll.name()).map_err(|e| e.to_string())?;
        let ex = explain(coll, &CostModel::default(), &q);
        let start = std::time::Instant::now();
        let (rows, stats) = execute(coll, &q, &ex.plan).map_err(|e| e.to_string())?;
        let elapsed = start.elapsed().as_secs_f64();
        let mut out = format!(
            "{} results in {:.2} ms ({} docs evaluated, {} index entries scanned)\n",
            rows.len(),
            elapsed * 1e3,
            stats.docs_evaluated,
            stats.entries_scanned
        );
        for (doc, node) in rows.iter().take(5) {
            let d = coll.get(*doc).expect("result doc exists");
            let _ = writeln!(
                out,
                "  doc {:>4} {}: {}",
                doc.0,
                d.name(*node),
                truncate(&d.string_value(*node), 60)
            );
        }
        if rows.len() > 5 {
            let _ = writeln!(out, "  … {} more", rows.len() - 5);
        }
        Ok(out)
    }

    /// `run profile <query>`: execute and print the plan operator tree
    /// with estimated vs actual cardinalities and per-operator wall time.
    fn run_profiled(&self, rest: &str) -> Result<String, String> {
        if rest.trim().is_empty() {
            return Err("usage: run profile <query>".into());
        }
        let coll = self.collection()?;
        let q = compile(rest.trim(), coll.name()).map_err(|e| e.to_string())?;
        let ex = explain(coll, &CostModel::default(), &q);
        let profile = profile_execute(coll, &q, &ex.plan).map_err(|e| e.to_string())?;
        Ok(profile.render())
    }

    /// Scripted end-to-end walkthrough (the demo's storyline in one shot).
    fn demo(&mut self) -> Result<String, String> {
        let mut out = String::new();
        for cmd in [
            "load xmark 150",
            "workload add /site/regions/africa/item/quantity",
            "workload add /site/regions/namerica/item/quantity",
            "workload add /site/regions/samerica/item/price",
            "workload add //person[profile/age > 70]/name",
            "workload add //closed_auction[price >= 700]/date",
            "enumerate",
            "dag",
            "recommend 256 greedy",
            "analyze",
            "create",
        ] {
            let _ = writeln!(out, "\nxia> {cmd}");
            match self.exec(cmd) {
                Ok(o) => out.push_str(&o),
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                }
            }
        }
        Ok(out)
    }
}

fn split_word(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim_start()),
        None => (s, ""),
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        let cut = s.char_indices().take_while(|(i, _)| *i < n).count();
        format!(
            "{}…",
            &s[..s.char_indices().nth(cut).map_or(s.len(), |(i, _)| i)]
        )
    }
}

const HELP: &str = "\
commands:
  demo                          scripted end-to-end walkthrough
  load xmark <docs> | tpox      generate and load benchmark data
  use <collection>              switch collection (clears workload)
  stats                         collection statistics / path dictionary
  workload add <query>          add a query (XPath, XQuery or SQL/XML)
  workload addf <freq> <query>  add a query with a frequency
  workload insert <freq>        add an insert statement (maintenance cost)
  workload list | clear         inspect / reset the workload
  workload load|save <file>     read/write a workload file ([freq;]query per line)
  enumerate [<query>]           Enumerate Indexes mode (basic candidates)
  dag                           generalization DAG for the workload
  recommend <KiB> [greedy|topdown|baseline]
  analyze                       no-index / recommended / overtrained costs
  create                        build the recommended indexes, time before/after
  indexes                       list physical indexes
  review                        keep/DROP verdict for each existing index
  drop <id>                     drop a physical index
  explain <query>               optimizer plan under current indexes
  run <query>                   execute a query, show results and counters
  run profile <query>           execute with per-operator est/actual rows + timings
  save <dir> | open <dir>       snapshot / restore the whole database
  quit";

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(s: &mut Session, cmd: &str) -> String {
        s.exec(cmd)
            .unwrap_or_else(|e| panic!("'{cmd}' failed: {e}"))
    }

    #[test]
    fn full_session_walkthrough() {
        let mut s = Session::new();
        let out = ok(&mut s, "load xmark 60");
        assert!(out.contains("60 XMark-like documents"));

        ok(&mut s, "workload add /site/regions/africa/item/quantity");
        ok(&mut s, "workload add //closed_auction[price >= 700]/date");
        let out = ok(&mut s, "workload list");
        assert!(out.contains("closed_auction"));

        let out = ok(&mut s, "enumerate");
        assert!(out.contains("XMLPATTERN"));

        let out = ok(&mut s, "dag");
        assert!(out.contains("DAG nodes"));

        let out = ok(&mut s, "recommend 512 greedy");
        assert!(out.contains("Recommendation"));
        assert!(out.contains("CREATE INDEX"));

        let out = ok(&mut s, "analyze");
        assert!(out.contains("no-index"));

        let out = ok(&mut s, "create");
        assert!(out.contains("created"));

        let out = ok(&mut s, "indexes");
        assert!(out.contains("entries"));

        let out = ok(&mut s, "explain //closed_auction[price >= 700]/date");
        assert!(out.contains("XISCAN"), "expected an index plan: {out}");

        let out = ok(&mut s, "run //closed_auction[price >= 700]/date");
        assert!(out.contains("results"));

        let out = ok(&mut s, "run profile //closed_auction[price >= 700]/date");
        assert!(out.contains("XISCAN"), "profiled index plan: {out}");
        assert!(out.contains("est "), "estimated rows shown: {out}");
        assert!(out.contains("act "), "actual rows shown: {out}");
        assert!(out.contains("total:"), "totals line shown: {out}");
    }

    #[test]
    fn run_profile_matches_plain_run_counts() {
        let mut s = Session::new();
        ok(&mut s, "load xmark 40");
        let plain = ok(&mut s, "run /site/regions/africa/item/quantity");
        let profiled = ok(&mut s, "run profile /site/regions/africa/item/quantity");
        // Same result cardinality through both paths.
        let n = plain.split(" results").next().unwrap().trim().to_string();
        assert!(
            profiled.contains(&format!("act {n},")),
            "root actual rows must equal plain run's result count ({n}): {profiled}"
        );
        assert!(s.exec("run profile").is_err(), "query required");
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut s = Session::new();
        assert!(s.exec("stats").is_err());
        assert!(s.exec("nonsense").is_err());
        assert!(s.exec("recommend notanumber").is_err());
        s.exec("load xmark 5").unwrap();
        assert!(s.exec("workload add ///bad").is_err());
        assert!(s.exec("recommend 100").is_err(), "empty workload");
        assert!(s.exec("drop idx99").is_err());
        assert!(s.exec("use nowhere").is_err());
    }

    #[test]
    fn tpox_loading_and_switching() {
        let mut s = Session::new();
        ok(&mut s, "load tpox");
        let out = ok(&mut s, "stats");
        assert!(out.contains("'order'"));
        ok(&mut s, "use custacc");
        let out = ok(&mut s, "stats");
        assert!(out.contains("'custacc'"));
        ok(&mut s, "workload add //Account[Balance > 900000]/@id");
        let out = ok(&mut s, "recommend 512 topdown");
        assert!(out.contains("Recommendation"));
    }

    #[test]
    fn insert_statements_affect_recommendation() {
        let mut s = Session::new();
        ok(&mut s, "load xmark 60");
        ok(&mut s, "workload add /site/regions/africa/item/quantity");
        let with_reads = ok(&mut s, "recommend 512");
        assert!(with_reads.contains("idx"));
        ok(&mut s, "workload insert 1000000");
        let with_updates = ok(&mut s, "recommend 512");
        assert!(
            !with_updates.contains("CREATE INDEX") || with_updates.contains("0.0% improvement"),
            "extreme update rate should suppress indexes: {with_updates}"
        );
    }

    #[test]
    fn review_flags_unused_indexes() {
        let mut s = Session::new();
        ok(&mut s, "load xmark 40");
        ok(&mut s, "workload add //closed_auction[price >= 700]/date");
        ok(&mut s, "recommend 512");
        ok(&mut s, "create");
        // Add an index nothing uses.
        {
            let coll = s.collection_mut().unwrap();
            coll.create_index(IndexDefinition::new(
                IndexId(77),
                LinearPath::parse("//person/phone").unwrap(),
                DataType::Varchar,
            ));
        }
        let out = ok(&mut s, "review");
        assert!(out.contains("DROP"), "{out}");
        assert!(out.contains("keep"), "{out}");
    }

    #[test]
    fn workload_file_round_trip() {
        let path = std::env::temp_dir().join(format!("xia_wl_{}.txt", std::process::id()));
        let mut s = Session::new();
        ok(&mut s, "load xmark 5");
        ok(&mut s, "workload add //item/price");
        ok(&mut s, "workload addf 9 //person/name");
        let out = ok(&mut s, &format!("workload save {}", path.display()));
        assert!(out.contains("saved 2"));
        ok(&mut s, "workload clear");
        let out = ok(&mut s, &format!("workload load {}", path.display()));
        assert!(out.contains("loaded 2"));
        let out = ok(&mut s, "workload list");
        assert!(out.contains("//person/name"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_and_open_round_trip() {
        let dir = std::env::temp_dir().join(format!("xia_cli_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = Session::new();
        ok(&mut s, "load xmark 10");
        ok(&mut s, "workload add /site/regions/africa/item/quantity");
        ok(&mut s, "recommend 512");
        ok(&mut s, "create");
        let out = ok(&mut s, &format!("save {}", dir.display()));
        assert!(out.contains("saved"));

        let mut s2 = Session::new();
        let out = ok(&mut s2, &format!("open {}", dir.display()));
        assert!(out.contains("auctions"));
        let out = ok(&mut s2, "indexes");
        assert!(out.contains("entries"), "indexes restored: {out}");
        let out = ok(&mut s2, "run /site/regions/africa/item/quantity");
        assert!(out.contains("results"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn demo_command_runs_end_to_end() {
        let mut s = Session::new();
        let out = ok(&mut s, "demo");
        assert!(out.contains("recommend 256 greedy"));
        assert!(out.contains("Recommendation"));
        assert!(out.contains("created"));
    }
}
