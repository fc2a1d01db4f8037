#!/usr/bin/env bash
# Tier-1 verification: everything that must stay green on every commit.
#
#   scripts/check.sh
#
# Build and tests are hard requirements. fmt/clippy are hard
# requirements too whenever the toolchain has them installed; only a
# slim toolchain that lacks the component skips them (reported).
set -uo pipefail
cd "$(dirname "$0")/.."

failures=0

run_hard() {
  echo "==> $*"
  if ! "$@"; then
    echo "FAILED: $*" >&2
    failures=$((failures + 1))
  fi
}

# Hard when the component is installed; skipped (with a note) only on
# toolchains that genuinely lack it.
run_if_installed() {
  local probe=$1
  shift
  if ! cargo "$probe" --version >/dev/null 2>&1; then
    echo "==> skipping cargo $probe (component not installed)"
    return
  fi
  run_hard "$@"
}

run_hard cargo build --release --offline
# The daemon crate by name, so a tier-1 run can't miss it even if the
# workspace member list regresses.
run_hard cargo build --release --offline -p xia-server
run_hard cargo test -q --offline
# The search golden by name: every strategy's exact outcome (chosen set,
# costs, per-query costs, used indexes) on the pinned workloads, as it
# was when the offline greedy was still a second implementation.
run_hard cargo test -q --offline -p xia --test strategy_snapshot
# The reproduction golden by name: every demo figure and experiment
# table (F2–F5, T1–T8) line for line, wall-clock cells masked, as the
# twelve per-figure binaries printed them before they became `repro`.
run_hard cargo test -q --offline -p xia-bench --test repro_snapshot
# The crash matrix by name: the durability invariant (recovery after any
# injected fault yields old or new state, never corruption) must never
# silently drop out of the suite.
run_hard cargo test -q --offline -p xia-storage --test crash_matrix
# The monitor differential by name: eviction from stored keys must match
# the recompile-everything reference bit for bit (snapshot entries,
# counters, change stamps) over seeded observe/decay/restore sequences.
run_hard cargo test -q --offline -p xia-workload --lib stored_key_eviction_matches_the_recompiling_reference
# The what-if differential by name: every configuration a greedy walk
# costs (plus tied candidates, random subsets and the whole DAG, on two
# seeds) prices bit for bit as the straight-line optimizer reference,
# with AND, OR and index-only plans all exercised.
run_hard cargo test -q --offline -p xia-advisor --test whatif_differential
# The wide-workload coverage regression by name: a candidate serving only
# atoms past the 128th must still be seen by the greedy step.
run_hard cargo test -q --offline -p xia-advisor --lib greedy_sees_atoms_past_the_128th
# The document footprint by name: a parsed INSERT body holds a few
# compact blocks, and `byte_size()` (the cost model's page input) keeps
# its exact values.
run_hard cargo test -q --offline -p xia-xml --test doc_footprint
# The path-id differential by name: statistics resolved through the
# transitions dictionary equal a label-string-keyed reference, path-set
# membership equals label-path matching on every node, and postings
# maintained by insert equal those built by create_index and by the
# reference walk, over generated and XMark documents on two seeds.
run_hard cargo test -q --offline -p xia-storage --test path_id_differential
# The INSERT footprint by name: exact allocation counts of statistics
# and of index maintenance with 0, 2 and 24 indexes for one document
# added to a warm collection; statistics stay below one per node.
run_hard cargo test -q --offline -p xia-storage --test insert_footprint
# The differential oracle: a pinned-seed sweep over the invariants
# (plan equivalence, containment, parity, durability, estimate sanity,
# exec-parity between the batched and navigational executors, sampled
# recommend-determinism and advise-quality), plus replay of every
# regression case the oracle ever found. The budget is sized to keep
# the whole sweep well under half a minute in release.
run_hard ./target/release/xia-cli fuzz --seed 42 --budget 500
run_hard cargo test -q --offline -p xia-oracle --test corpus_replay
# The interleaved-writes oracle: seeded concurrent writers through the
# server's committer, checked for linearizability (commit-order replay),
# prefix-consistent snapshots, and durability parity.
run_hard ./target/release/xia-cli fuzz --interleaved --seed 42 --budget 20
# The network-chaos oracle: a pinned-seed sweep driving a real daemon
# through fault-injecting transports (garbage bytes, slowloris,
# mid-frame disconnects, tiny chunks) under squeezed admission limits.
# Invariant: every connection ends in a well-formed response, a clean
# BUSY, or a closed socket — never a wedged worker or a crossed
# stream — and accepted == rejected + served + faulted reconciles.
run_hard ./target/release/xia-cli fuzz --net-chaos --seed 42 --budget 300
# The contention smoke test by name: readers must stay prefix-consistent
# while a writer streams group commits (the snapshot-isolation contract).
run_hard cargo test -q --offline -p xia-server --test snapshot_isolation
# The overload-protection contracts by name: admission BUSY + close on
# over-limit connections, tiered brownout shedding, the frame-size cap
# (unbounded read_line regression), garbage-frame robustness, and the
# surfaced worker-spawn failure.
run_hard cargo test -q --offline -p xia-server --test overload
# The scalable-advisor contracts by name: compression is lossless on
# duplicate workloads (property test), and ADVISE under a live
# insert/query storm honors its wall budget without stalling the
# committer. The fuzz sweep above also samples the advise-quality
# invariant (compressed+anytime within the certified bound of the
# exhaustive optimum).
run_hard cargo test -q --offline -p xia-advisor --test prop_compress
run_hard cargo test -q --offline -p xia-server --test advise_under_load
# The executor-parity property test by name: the batched engine must
# match navigational evaluation node-for-node (rows and ExecStats) over
# random documents, queries, and index configurations.
run_hard cargo test -q --offline -p xia-optimizer --test prop_exec_batch
# The tenant-isolation suite by name: cross-tenant QUERY/INSERT/ADVISE
# scoping, independent per-tenant restart fingerprints, the FaultVfs
# crash matrix over one tenant's subdirectory, per-tenant shed hints
# with exact accounting partition, and snapshot-cache aging.
run_hard cargo test -q --offline -p xia-server --test tenants
# The multi-tenant oracle: seeded clients race tenant-scoped writes and
# foreign-marker probes against a live daemon under a squeezed
# per-tenant in-flight cap, then reconcile per-tenant counts exactly —
# live and again after restart from each tenant's durable directory.
run_hard ./target/release/xia-cli fuzz --tenants --seed 42 --budget 4
# Copy-on-write sharing by name: an old snapshot held across 100
# commits and index DDL keeps its exact statistics and postings, the
# live state equals a from-scratch rebuild, and a one-document commit
# copies a bounded number of parts at 200 and at 3200 documents.
run_hard cargo test -q --offline -p xia --test commit_sharing
# One mutation path by name: every write command, refused and no-op ones
# included, leaves the published state equal to recovery from its WAL
# directory, and a panic mid-batch rebuilds the staged state through
# the WAL applier to the state the same batch reaches without it.
run_hard cargo test -q --offline -p xia-server --test one_mutation_path
# The wire golden by name: every command's response bytes (timings
# masked, STATS as its key set) as the single-file daemon produced them.
run_hard cargo test -q --offline -p xia-server --test wire_snapshot
# The benchmark package's own tests. `benchmark/` is frozen between
# benchmark PRs and imports the daemon and the executor by path
# (`xia::server::server::handle_line`, `xia::optimizer::choose_mode`, ...),
# so this is also the proof it still compiles against moved code.
run_hard cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Persistence code must do ALL file I/O through the injectable Vfs —
# a direct std::fs call is a fault-injection blind spot the crash
# matrix can't reach.
check_vfs_only() {
  echo "==> grep: persist paths use Vfs only"
  local bad=0 f
  for f in crates/storage/src/persist.rs \
           crates/storage/src/durable.rs \
           crates/workload/src/persist.rs; do
    if grep -nE 'std::fs::|fs::write|fs::read|File::create|File::open' "$f"; then
      echo "FAILED: $f bypasses the Vfs layer (see matches above)" >&2
      bad=1
    fi
  done
  if [ "$bad" -ne 0 ]; then
    failures=$((failures + 1))
  fi
}
check_vfs_only

# The read path is lock-free by construction: reads run against an
# immutable Arc<Snapshot> and writes go through the committer. A
# RwLock<Database> reappearing in the server would silently reintroduce
# reader/writer blocking (and poisoning) that the snapshot design removed.
check_lock_free_reads() {
  echo "==> grep: no RwLock<Database> in crates/server/src"
  if grep -rnE 'RwLock<\s*Database\s*>' crates/server/src; then
    echo "FAILED: crates/server/src reintroduces RwLock<Database> (see matches above)" >&2
    failures=$((failures + 1))
  fi
}
check_lock_free_reads

# Server-side socket I/O must go through the injectable Transport —
# a raw BufReader/read_line/try_clone on the daemon side is a blind
# spot the net-chaos oracle can't fault-inject. The client keeps its
# plain sockets (it is the remote end under test), and transport.rs is
# where the raw calls are supposed to live.
check_transport_only() {
  echo "==> grep: server socket I/O goes through Transport only"
  if grep -rnE 'BufReader|BufWriter|read_line|try_clone' crates/server/src \
      | grep -vE '^crates/server/src/(client|transport)\.rs'; then
    echo "FAILED: crates/server/src bypasses the Transport layer (see matches above)" >&2
    failures=$((failures + 1))
  fi
}
check_transport_only

# Tenant isolation is structural: every durable root is owned by a
# TenantState, and tenant.rs is the only place the server may build a
# DurableStore. A stray construction elsewhere could silently share a
# disk directory between namespaces.
check_tenant_owned_stores() {
  echo "==> grep: DurableStore constructed only in tenant.rs"
  if grep -rnE 'DurableStore::(create|open)' crates/server/src \
      | grep -v '^crates/server/src/tenant\.rs'; then
    echo "FAILED: crates/server/src builds a DurableStore outside tenant.rs (see matches above)" >&2
    failures=$((failures + 1))
  fi
}
check_tenant_owned_stores

# The paper's greedy search exists once: its add step (marginal benefit
# per byte) lives in anytime.rs and ranking across collections or
# tenants in tenancy.rs. A second copy in search.rs or multi.rs would
# have to be kept bitwise-equal by hand again.
check_one_greedy() {
  echo "==> grep: one greedy loop (anytime.rs), one allocator (tenancy.rs)"
  local bad=0
  if grep -rnE 'fn greedy_heuristic\(' crates/core/src; then
    echo "FAILED: greedy_heuristic is back (see matches above)" >&2
    bad=1
  fi
  if grep -nE 'marginal[a-z_]* */|ratio *> *r\b' \
      crates/core/src/multi.rs crates/core/src/search.rs; then
    echo "FAILED: multi.rs/search.rs rank by marginal benefit per size again (see matches above)" >&2
    bad=1
  fi
  if [ "$bad" -ne 0 ]; then
    failures=$((failures + 1))
  fi
}
check_one_greedy

# The plan walk exists once: candidates are gathered and documents
# verified by `executor.rs::walk`, which QUERY and PROFILE both run (a
# second copy in profile.rs once drifted into profiling a mode QUERY
# did not execute). The batch engine's own module and unit-test modules
# may call the per-document entry points directly.
check_one_plan_walk() {
  echo "==> grep: one plan walk (optimizer/src/executor.rs)"
  local bad=0 f
  for f in $(find crates/optimizer/src -name '*.rs' \
               -not -path 'crates/optimizer/src/exec/*' \
               -not -name executor.rs); do
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f" \
        | grep -E 'run_batch\(|run_on_document\(|leg_candidate_docs\('; then
      bad=1
    fi
  done
  if [ "$bad" -ne 0 ]; then
    echo "FAILED: a second plan walk outside executor.rs (see matches above)" >&2
    failures=$((failures + 1))
  fi
}
check_one_plan_walk

# The read handlers share nothing mutable: QUERY/EXPLAIN/PROFILE run on
# an immutable snapshot and may not acquire a lock. The one allowance is
# QUERY feeding the per-tenant monitor, `lock_monitor().observe(`;
# ROADMAP 5(a) (per-worker observation buffers) deletes it, and this
# allow-list line with it.
check_read_path_locks() {
  echo "==> grep: no lock acquisition in the read handlers"
  if grep -nE 'lock_[a-z_]*\(|\.lock\(' crates/server/src/server/read.rs \
      | grep -vE '^[0-9]+:\s*//' \
      | grep -vF 'tenant.lock_monitor().observe(&p.query);'; then
    echo "FAILED: crates/server/src/server/read.rs takes a lock (see matches above)" >&2
    failures=$((failures + 1))
  fi
}
check_read_path_locks

# The commit path has one ordered map: statistics value maps and index
# postings are `CowMap`s, whose clone shares every leaf. A `BTreeMap`
# there would make each group commit deep-copy it again (ROADMAP 9).
# Unit-test modules may use one as a reference.
check_cow_commit_path() {
  echo "==> grep: no BTreeMap on the commit path (stats.rs, physical.rs)"
  local bad=0 f
  for f in crates/storage/src/stats.rs crates/index/src/physical.rs; do
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f" \
        | grep -E 'BTreeMap'; then
      bad=1
    fi
  done
  if [ "$bad" -ne 0 ]; then
    echo "FAILED: a BTreeMap is back on the commit path (see matches above)" >&2
    failures=$((failures + 1))
  fi
}
check_cow_commit_path

# A monitor eviction runs under the tenant's monitor mutex on the QUERY
# path, so it works from the keys stored when each entry was inserted and
# never recompiles a stored text (the recompiling reference is test-only).
check_eviction_no_compile() {
  echo "==> grep: no compile( inside fn evict_coldest (workload/src/monitor.rs)"
  local body
  body=$(awk '/fn evict_coldest\(/{inside=1} inside{print FILENAME":"FNR": "$0} inside && /^    }$/{exit}' \
    crates/workload/src/monitor.rs)
  if [ -z "$body" ]; then
    echo "FAILED: fn evict_coldest not found in crates/workload/src/monitor.rs" >&2
    failures=$((failures + 1))
  elif grep -E 'compile\(' <<<"$body"; then
    echo "FAILED: evict_coldest recompiles stored texts (see matches above)" >&2
    failures=$((failures + 1))
  fi
}
check_eviction_no_compile

# A what-if miss is arithmetic over legs cached per engine: whatif.rs
# reaches the optimizer's planning entry points only from the
# straight-line reference (`reference_*`, `straight_line_cost`) and its
# unit tests, never from the cached path the search runs.
check_whatif_no_optimizer() {
  echo "==> grep: no optimizer run on the what-if cached path (core/src/whatif.rs)"
  local hits
  hits=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    match($0, /fn [A-Za-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    /^[[:space:]]*\/\// { next }
    /(optimize|evaluate_query|evaluate_indexes)\(/ && fn !~ /^(reference_|straight_line_cost$)/ {
      print FILENAME":"FNR": "$0
    }
  ' crates/core/src/whatif.rs)
  if [ -n "$hits" ]; then
    echo "$hits"
    echo "FAILED: crates/core/src/whatif.rs runs the optimizer outside the reference (see matches above)" >&2
    failures=$((failures + 1))
  fi
}
check_whatif_no_optimizer

# An INSERT resolves each node to its PathId once, in one dictionary
# walk; statistics and every index work from that column. The walk to
# the root per node per index (`collect_labels`) and the label-stack
# clone per node (`to_vec()` in stats.rs) may not come back outside
# unit-test modules, where the old walk survives as a reference.
check_insert_no_label_walk() {
  echo "==> grep: no per-node label walk on the insert path (index/src, stats.rs)"
  local bad=0 f
  for f in $(find crates/index/src -name '*.rs'); do
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f" \
        | grep -E 'collect_labels'; then
      bad=1
    fi
  done
  if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' \
      crates/storage/src/stats.rs | grep -E 'to_vec\(\)'; then
    bad=1
  fi
  if [ "$bad" -ne 0 ]; then
    echo "FAILED: a per-node label walk is back on the insert path (see matches above)" >&2
    failures=$((failures + 1))
  fi
}
check_insert_no_label_walk

# A write has one applier: the committer validates each command into
# the WalOp it logs and applies it with `WalOp::apply_parsed`, which
# recovery replays the WAL with. A direct mutation or parse in the
# committer would be a second applier that replay could diverge from.
# Comment lines and the unit-test module are skipped.
check_one_mutation_path() {
  echo "==> grep: the committer mutates only through the WAL applier (server/src/committer.rs)"
  if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' \
      crates/server/src/committer.rs \
      | grep -vE '^[^:]+:[0-9]+: *//' \
      | grep -E 'insert_arc\(|create_index\(|drop_index\(|create_collection\(|Document::parse\('; then
    echo "FAILED: crates/server/src/committer.rs applies a write outside WalOp::apply_parsed (see matches above)" >&2
    failures=$((failures + 1))
  fi
}
check_one_mutation_path

run_if_installed fmt cargo fmt --check
run_if_installed clippy cargo clippy --offline --all-targets -- -D warnings

if [ "$failures" -ne 0 ]; then
  echo "check.sh: $failures check(s) failed" >&2
  exit 1
fi
echo "check.sh: all checks passed"
