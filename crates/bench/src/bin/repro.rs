//! The paper reproduction: print the demo figures (F2–F5) and the
//! experiment tables (T1–T8) named on the command line, or all twelve.
//!
//! ```text
//! cargo run -p xia-bench --release --bin repro [F2 … T8]
//! ```

use xia_bench::repro::{entry, Entry, ENTRIES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Vec<&Entry> = if args.is_empty() {
        ENTRIES.iter().collect()
    } else {
        args.iter()
            .map(|id| {
                entry(id).unwrap_or_else(|| {
                    let ids: Vec<&str> = ENTRIES.iter().map(|e| e.0).collect();
                    eprintln!("repro: no entry {id:?}; entries are {}", ids.join(" "));
                    std::process::exit(2)
                })
            })
            .collect()
    };
    for e in chosen {
        print!("{}", e.render());
    }
}
