//! Arbitrary text must never panic the results readers: [`Json::parse`],
//! [`validate_results`] and [`diff_results_with`] (the extraction behind
//! `bench-diff`) either accept a document or return an error. Inputs are
//! token soup: results documents (or nothing) edited by random insertions of
//! JSON punctuation, results-schema keys, extreme numbers, escapes and
//! multibyte characters, and by random character deletions.

use proptest::prelude::*;
use rn_bench::{diff_results_with, validate_results, DiffOptions, Json};

/// A minimal schema-valid document with one cell.
const ONE_CELL: &str = r#"{"schema":"rn-bench-results/v1","id":"unit","master_seed":1,"trials_per_cell":2,"cells":[{"topology":"grid(4x4)","protocol":"bgi","model":"nocd","faults":"none","n":16,"diameter":6,"trials":2,"completed":2,"rounds":{"mean":7.5,"min":1,"max":9,"stddev":0.5,"p50":7,"p95":9,"p99":9},"deliveries":{"mean":1,"min":1,"max":1,"stddev":0},"collisions":{"mean":1,"min":1,"max":1,"stddev":0},"transmissions":{"mean":1,"min":1,"max":1,"stddev":0}}]}"#;

/// A schema-valid document whose values sit at the edges: escapes, a lone
/// surrogate, multibyte labels, an overflowing float and integer extremes.
const EDGE_CELLS: &str = r#"{"schema":"rn-bench-results/v1","id":"é\ud800🦀","master_seed":18446744073709551615,"cells":[{"topology":"grid(4x4)","protocol":"b\"g\\i\n","model":"日本","faults":"drop(0.5)","n":0,"diameter":1e3,"trials":0,"completed":0,"elapsed_ms":1,"rounds":{"mean":1e999,"min":-0,"max":-1e999,"stddev":1e308,"p50":0.1,"p95":-2.5e-3,"p99":5e-324}},{"topology":"grid(4x4)","protocol":"bgi","model":"nocd","n":1,"diameter":1,"trials":1,"completed":1,"rounds":{"mean":0,"min":0,"max":0}}]}"#;

/// The insertion vocabulary: results-schema keys (quoted), JSON punctuation
/// and literals, numbers at the edges of `u64` and `f64`, multibyte
/// characters, and escapes (a lone surrogate and malformed ones included).
fn vocabulary() -> Vec<String> {
    let keys = "schema rn-bench-results/v1 id master_seed trials_per_cell cells topology protocol \
                model faults n diameter trials completed elapsed_ms rounds deliveries collisions \
                transmissions trial_elapsed_ms mean min max stddev p50 p95 p99 jam(2,0.5) none";
    let mut words: Vec<String> = keys.split(' ').map(|k| format!("\"{k}\"")).collect();
    let plain = "{|}|[|]|,|:|\"| |\n|true|false|null|0|1|-1|-0|1.0|2.5e-3|1E+2|1e999|-1e999|1e-400\
                 |18446744073709551615|18446744073709551616|-18446744073709551616\
                 |99999999999999999999999999|0.|-|e|+|é|日本|🦀|😀|\u{202e}|\u{1}";
    let escapes = r#"\|\ud800|\udfff|\u0041|\u00|\u+041|\x|\/|\"|\\|\b\f\n\r\t"#;
    words.extend(plain.split('|').chain(escapes.split('|')).map(String::from));
    words
}

/// Strategy: a results document (or nothing) edited by up to eight random
/// insertions of vocabulary words and deletions of characters.
fn arb_results_soup() -> impl Strategy<Value = String> {
    let words = vocabulary();
    let edits = proptest::collection::vec((0u8..3, 0..words.len(), 0usize..4096), 0..8);
    (0usize..4, edits).prop_map(move |(base, edits)| {
        let smoke = include_str!("../../../benchmarks/baseline_smoke.json");
        let mut s = ["", ONE_CELL, EDGE_CELLS, smoke][base].to_string();
        for (op, word, at) in edits {
            let chars = s.chars().count();
            let pos = s.char_indices().nth(at % (chars + 1)).map_or(s.len(), |(i, _)| i);
            if op == 0 && pos < s.len() {
                s.remove(pos);
            } else {
                s.insert_str(pos, &words[word]);
            }
        }
        s
    })
}

#[test]
fn the_unedited_documents_are_schema_valid() {
    for doc in [ONE_CELL, EDGE_CELLS] {
        let v = Json::parse(doc).expect("parses");
        validate_results(&v).expect("validates");
        diff_results_with(&v, &v, DiffOptions::default()).expect("diffs against itself");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn arbitrary_text_never_panics_the_results_readers(s in arb_results_soup()) {
        if let Ok(doc) = Json::parse(&s) {
            let _ = validate_results(&doc);
            if let Ok(report) = diff_results_with(&doc, &doc, DiffOptions::default()) {
                prop_assert!(!report.has_regressions(), "{:?} regresses against itself", s);
            }
            // Rendering is a fixpoint after one parse. Value equality is
            // the wrong property: `1.0` re-parses as an integer and `1e999`
            // as `null`.
            let rendered = doc.render();
            match Json::parse(&rendered) {
                Ok(back) => prop_assert_eq!(back.render(), rendered, "{:?}", s),
                Err(e) => prop_assert!(false, "{:?} renders as {:?}, which fails: {}", s, rendered, e),
            }
        }
    }
}
