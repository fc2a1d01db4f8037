//! Golden pin of the paper reproduction: every `repro` entry (F2–F5,
//! T1–T8) must render `tests/golden/repro.txt` line for line, with only
//! wall-clock cells masked — every candidate, cost, chosen index,
//! optimizer-call and cache-hit count, page and KiB figure is checked.
//!
//! The golden is the concatenated output of the twelve `fig*`/`exp_*`
//! binaries these entries replaced, run at the commit before the fold,
//! under the mask below. One test per entry, so the test threads bound
//! the run by the slowest entry rather than the sum. A change that
//! means to alter an entry's output edits the golden in the same commit;
//! a mismatch writes what the entry now renders next to the test's
//! target directory and names the path.

use xia_bench::repro::{entry, ENTRIES};

const GOLDEN: &str = include_str!("golden/repro.txt");

/// Each entry's share of the golden, in `ENTRIES` order.
const GOLDEN_LINES: [(&str, usize); 12] = [
    ("F2", 45),
    ("F3", 18),
    ("F4", 149),
    ("F5", 44),
    ("T1", 12),
    ("T2", 8),
    ("T3", 8),
    ("T4", 10),
    ("T5", 33),
    ("T6", 17),
    ("T7", 11),
    ("T8", 28),
];

/// Column headers whose cells are wall time.
const TIME_COLUMNS: [&str; 2] = ["advisor time", "time ms"];

/// Mask what differs between hosts, builds and thread counts. Under a
/// `TIME_COLUMNS` header, until the table's blank line, the header's
/// character span becomes `#`s in every row; anywhere, `<n> threads`
/// and `<n>s eval` (the what-if engine's summary) become `# threads`
/// and `#s eval`.
fn mask(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut column: Option<(usize, usize)> = None;
    for line in text.lines() {
        if line.is_empty() {
            column = None;
        }
        let header = TIME_COLUMNS.iter().find_map(|h| {
            let at = line.find(h)?;
            let start = line[..at].chars().count();
            Some((start, start + h.chars().count()))
        });
        let line: String = match (header, column) {
            (Some(span), _) => {
                column = Some(span);
                line.to_string()
            }
            (None, Some((start, end))) if !line.starts_with('-') => line
                .chars()
                .enumerate()
                .map(|(i, c)| if (start..end).contains(&i) { '#' } else { c })
                .collect(),
            _ => line.to_string(),
        };
        out.push_str(&mask_numbers(&line));
        out.push('\n');
    }
    out
}

/// Replace `<number><suffix>` with `#<suffix>` for the what-if
/// engine's thread count and evaluation time.
fn mask_numbers(s: &str) -> String {
    const SUFFIXES: [&str; 2] = [" threads", "s eval"];
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < bytes.len() {
        let starts_number = bytes[i].is_ascii_digit()
            && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'.'));
        if starts_number {
            let mut j = i;
            while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'.') {
                j += 1;
            }
            if SUFFIXES.iter().any(|suffix| s[j..].starts_with(suffix)) {
                out.push('#');
            } else {
                out.push_str(&s[i..j]);
            }
            i = j;
        } else {
            let ch = s[i..].chars().next().expect("in bounds");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out
}

/// The golden lines of entry `id`.
fn golden_of(id: &str) -> Vec<&'static str> {
    let start: usize = GOLDEN_LINES
        .iter()
        .take_while(|(e, _)| *e != id)
        .map(|(_, n)| n)
        .sum();
    let (_, len) = GOLDEN_LINES.iter().find(|(e, _)| *e == id).expect("pinned");
    GOLDEN.lines().skip(start).take(*len).collect()
}

fn check(id: &str) {
    let actual = mask(&entry(id).expect("entry exists").render());
    let golden = golden_of(id);
    let got: Vec<&str> = actual.lines().collect();
    if got != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("repro_{id}.actual.txt"));
        std::fs::write(&path, &actual).expect("write actual output");
        for (n, (got, want)) in got.iter().zip(&golden).enumerate() {
            assert_eq!(
                got,
                want,
                "{id} line {} differs; full output in {}",
                n + 1,
                path.display()
            );
        }
        panic!(
            "{id} renders {} lines, golden {}; full output in {}",
            got.len(),
            golden.len(),
            path.display()
        );
    }
}

#[test]
fn golden_is_tiled_by_the_entries_in_order() {
    let ids: Vec<&str> = ENTRIES.iter().map(|e| e.0).collect();
    let pinned: Vec<&str> = GOLDEN_LINES.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, pinned);
    let total: usize = GOLDEN_LINES.iter().map(|(_, n)| n).sum();
    assert_eq!(GOLDEN.lines().count(), total);
    assert!(GOLDEN.ends_with('\n'));
}

macro_rules! pin {
    ($($name:ident => $id:literal,)*) => {
        $(
            #[test]
            fn $name() {
                check($id);
            }
        )*
    };
}

pin! {
    f2_enumerate => "F2",
    f3_evaluate => "F3",
    f4_search => "F4",
    f5_analysis => "F5",
    t1_budget_sweep => "T1",
    t2_search_compare => "T2",
    t3_generalization => "T3",
    t4_updates => "T4",
    t5_size_accuracy => "T5",
    t6_scalability => "T6",
    t7_ablation => "T7",
    t8_cost_validation => "T8",
}
