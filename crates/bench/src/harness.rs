use std::fmt::Write as _;

/// A simple markdown table builder for experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Appends a footnote line printed under the table.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as github-flavored markdown.
    pub fn to_markdown(&self) -> String {
        // Column widths count characters, not bytes: formatter padding
        // (`{:>w$}`) is character-based, so byte lengths would misalign any
        // column containing multi-byte UTF-8 (σ, ≈, … in stats output).
        let chars = |s: &String| s.chars().count();
        let mut out = String::new();
        let _ = writeln!(out, "\n### {}\n", self.title);
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows.iter().map(|r| chars(&r[i])).chain([chars(h)]).max().unwrap_or(3)
            })
            .collect();
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                let _ = write!(line, " {c:>w$} |");
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r));
        }
        for n in &self.notes {
            let _ = writeln!(out, "\n> {n}");
        }
        out
    }

    /// Prints the markdown rendering to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
    }
}

/// Runs `trials` seeded executions of `f` on at most `threads` threads (one
/// logical trial per seed `0..trials`), preserving seed order in the
/// output. A budget of 0 counts as 1.
///
/// The result vector is split into disjoint per-thread chunks up front, so
/// every worker writes straight into its own shard — the hot trial loop
/// takes no lock and shares no cache line (no mutex, no atomics). Chunks are
/// contiguous, so output order is seed order by construction, and the
/// output is the same for any budget.
pub(crate) fn parallel_trials<T: Send>(
    trials: u64,
    threads: usize,
    f: impl Fn(u64) -> T + Sync,
) -> Vec<T> {
    let threads = threads.max(1);
    let trials_usize = usize::try_from(trials).expect("trial count fits in memory");
    let mut results: Vec<Option<T>> = (0..trials).map(|_| None).collect();
    let chunk_len = trials_usize.div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for (chunk_idx, shard) in results.chunks_mut(chunk_len).enumerate() {
            let f = &f;
            scope.spawn(move || {
                let base = (chunk_idx * chunk_len) as u64;
                for (offset, slot) in shard.iter_mut().enumerate() {
                    *slot = Some(f(base + offset as u64));
                }
            });
        }
    });
    results.into_iter().map(|r| r.expect("all trials filled")).collect()
}

/// Mean of an f64 slice (0 for empty).
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(&["1".into(), "2".into()]);
        t.note("a note");
        let md = t.to_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("| a |"));
        assert!(md.contains("> a note"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn multibyte_cells_align_by_character_count() {
        // Regression: widths were computed from byte lengths, so "σ≈3.5"
        // (5 chars, 9 bytes) forced 4 extra pad spaces into every other row
        // of its column.
        let mut t = Table::new("stats", &["name", "value"]);
        t.row(&["sigma".into(), "σ≈3.5".into()]);
        t.row(&["plain".into(), "12345".into()]);
        let md = t.to_markdown();
        let rows: Vec<&str> =
            md.lines().filter(|l| l.contains("sigma") || l.contains("plain")).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].chars().count(),
            rows[1].chars().count(),
            "rows align by display width:\n{md}"
        );
        assert!(rows[0].contains("| σ≈3.5 |"), "no spurious padding: {md}");
    }

    #[test]
    fn multibyte_headers_align_by_character_count() {
        // The percentile columns put multi-byte glyphs in *headers* too
        // (e.g. "p95 ≈" / "σ rounds"): header widths must also count
        // characters, or every data row in those columns inherits the
        // byte-length excess as spurious padding.
        let mut t = Table::new("tails", &["rounds σ", "p95 ≈", "plain"]);
        t.row(&["1.5".into(), "950.0".into(), "12345".into()]);
        t.row(&["12.25".into(), "7.0".into(), "9".into()]);
        let md = t.to_markdown();
        let table_lines: Vec<&str> = md.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(table_lines.len(), 4, "header + separator + two rows:\n{md}");
        let width = table_lines[0].chars().count();
        for line in &table_lines {
            assert_eq!(line.chars().count(), width, "lines align by display width:\n{md}");
        }
        // The widest cell ("12345") sets the plain column; the σ header
        // (8 chars, 9 bytes) sets its own column at 8, not 9.
        assert!(table_lines[0].contains("| rounds σ |"), "no spurious header padding: {md}");
        assert!(table_lines[2].contains("|      1.5 |"), "data pads to 8 chars under σ: {md}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn parallel_trials_preserves_seed_order() {
        let out = parallel_trials(64, 4, |seed| seed * 2);
        assert_eq!(out, (0..64).map(|s| s * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_trials_handles_uneven_and_tiny_counts() {
        for trials in [0u64, 1, 2, 13, 17, 31] {
            for threads in [0, 1, 3, 16] {
                let out = parallel_trials(trials, threads, |seed| seed + 100);
                let want: Vec<u64> = (0..trials).map(|s| s + 100).collect();
                assert_eq!(out, want, "trials={trials} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_trials_runs_on_at_most_its_thread_budget() {
        for budget in [1, 2, 3, 5] {
            let out = parallel_trials(40, budget, |seed| (seed, std::thread::current().id()));
            let seeds: Vec<u64> = out.iter().map(|&(seed, _)| seed).collect();
            assert_eq!(seeds, (0..40).collect::<Vec<_>>(), "budget {budget}: seed order kept");
            let mut threads = Vec::new();
            for &(_, id) in &out {
                if !threads.contains(&id) {
                    threads.push(id);
                }
            }
            if budget == 1 {
                assert_eq!(threads.len(), 1, "a budget of 1 runs every trial on one thread");
            }
            assert!(threads.len() <= budget, "budget {budget} ran on {} threads", threads.len());
        }
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
