//! Campaign result sinks: where finished cells go as the executor completes
//! them.
//!
//! The executor hands a [`CampaignSink`] one [`CellResult`] at a time, in
//! deterministic plan order (a small reorder buffer inside the executor
//! absorbs out-of-order completion). Two implementations cover the two
//! consumption modes:
//!
//! * [`MemorySink`] collects everything into a [`CampaignResult`] — the
//!   classic in-memory path behind [`crate::Campaign::run`];
//! * [`JsonStreamSink`] writes the versioned results document
//!   incrementally to any [`io::Write`], keeping memory proportional to the
//!   cells in flight rather than the whole sweep. It is the one writer of
//!   the document: [`CampaignResult::to_json`] renders through it, so the
//!   streamed and in-memory documents are the same bytes for the same
//!   campaign and master seed.

use crate::campaign::{CampaignResult, CellResult, RESULTS_SCHEMA};
use crate::json::Json;
use std::io;

/// Identifying header of one campaign run, handed to
/// [`CampaignSink::begin`] before any cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunHeader {
    /// Campaign identifier.
    pub id: String,
    /// The master seed the run derives everything from.
    pub master_seed: u64,
    /// Trials per cell.
    pub trials_per_cell: u64,
}

/// A consumer of campaign results, fed in deterministic plan order.
///
/// The executor calls `begin` once, then `cell` once per planned cell (in
/// plan order), then `finish` once. Sinks must be `Send` — the executor
/// invokes `cell` from whichever worker thread completes a cell's final
/// trial (under a lock, so calls never overlap).
///
/// # Errors
///
/// All methods return [`io::Result`]; the executor aborts emission on the
/// first error and surfaces it from [`crate::executor::execute_with`].
pub trait CampaignSink: Send {
    /// Called once before any cell, with the run's identifying header.
    fn begin(&mut self, header: &RunHeader) -> io::Result<()>;

    /// Called once per finished cell, in plan order.
    fn cell(&mut self, cell: &CellResult) -> io::Result<()>;

    /// Called once after the last cell.
    fn finish(&mut self) -> io::Result<()>;
}

/// Collects every cell in memory and assembles a [`CampaignResult`].
#[derive(Debug, Default)]
pub struct MemorySink {
    header: Option<RunHeader>,
    cells: Vec<CellResult>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// The assembled result.
    ///
    /// # Panics
    ///
    /// Panics if the sink was never fed (no `begin` call).
    pub fn into_result(self) -> CampaignResult {
        let header = self.header.expect("MemorySink::into_result before any begin() call");
        CampaignResult {
            id: header.id,
            master_seed: header.master_seed,
            trials_per_cell: header.trials_per_cell,
            cells: self.cells,
        }
    }
}

impl CampaignSink for MemorySink {
    fn begin(&mut self, header: &RunHeader) -> io::Result<()> {
        self.header = Some(header.clone());
        Ok(())
    }

    fn cell(&mut self, cell: &CellResult) -> io::Result<()> {
        self.cells.push(cell.clone());
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Streams the `rn-bench-results/v1` document to a writer, one cell at a
/// time: header and opening `"cells":[` on `begin`, one rendered cell per
/// `cell` call, closing `]}` on `finish`. [`CampaignResult::to_json`]
/// renders through it.
#[derive(Debug)]
pub struct JsonStreamSink<W: io::Write + Send> {
    w: W,
    cells_written: usize,
}

impl<W: io::Write + Send> JsonStreamSink<W> {
    /// Wraps `w`; nothing is written until the executor calls `begin`.
    pub fn new(w: W) -> JsonStreamSink<W> {
        JsonStreamSink { w, cells_written: 0 }
    }

    /// Number of cells written so far.
    pub fn cells_written(&self) -> usize {
        self.cells_written
    }

    /// Flushes and returns the writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush error.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

impl<W: io::Write + Send> CampaignSink for JsonStreamSink<W> {
    fn begin(&mut self, header: &RunHeader) -> io::Result<()> {
        write!(
            self.w,
            "{{\"schema\":{},\"id\":{},\"master_seed\":{},\"trials_per_cell\":{},\"cells\":[",
            Json::Str(RESULTS_SCHEMA.into()).render(),
            Json::Str(header.id.clone()).render(),
            header.master_seed,
            header.trials_per_cell,
        )
    }

    fn cell(&mut self, cell: &CellResult) -> io::Result<()> {
        if self.cells_written > 0 {
            self.w.write_all(b",")?;
        }
        self.cells_written += 1;
        self.w.write_all(cell.to_json().render().as_bytes())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.w.write_all(b"]}")?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, TrialPlan};
    use crate::executor::{self, ExecOptions};
    use crate::registry::ProtocolSpec;
    use rn_graph::TopologySpec;
    use rn_sim::CollisionModel;

    fn tiny() -> Campaign {
        Campaign {
            id: "sink-unit".into(),
            topologies: vec![TopologySpec::Path(12), TopologySpec::Star(7)],
            protocols: vec![ProtocolSpec::parse("bgi"), ProtocolSpec::parse("decay(2)")],
            models: vec![CollisionModel::NoCollisionDetection],
            faults: Campaign::no_faults(),
            plan: TrialPlan::new(3),
        }
    }

    #[test]
    fn streamed_bytes_equal_the_in_memory_document() {
        let campaign = tiny();
        let expected = campaign.run(77).to_json();
        let mut sink = JsonStreamSink::new(Vec::new());
        executor::execute_with(&campaign, 77, 4, &mut sink, ExecOptions::default())
            .expect("streamed run");
        assert_eq!(sink.cells_written(), 4);
        let streamed = String::from_utf8(sink.into_inner().expect("flush")).expect("utf8");
        assert_eq!(streamed, expected, "streaming sink must be byte-identical to to_json()");
    }

    #[test]
    fn stream_sink_handles_the_empty_campaign() {
        let mut campaign = tiny();
        campaign.topologies.clear();
        let mut sink = JsonStreamSink::new(Vec::new());
        executor::execute_with(&campaign, 1, 2, &mut sink, ExecOptions::default())
            .expect("empty run");
        let streamed = String::from_utf8(sink.into_inner().expect("flush")).expect("utf8");
        assert_eq!(streamed, campaign.run(1).to_json());
        assert!(streamed.ends_with("\"cells\":[]}"), "{streamed}");
    }

    #[test]
    fn write_errors_surface_from_execute() {
        /// A writer that fails after a fixed byte budget.
        struct Failing(usize);
        impl io::Write for Failing {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 < buf.len() {
                    return Err(io::Error::other("disk full (synthetic)"));
                }
                self.0 -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let campaign = tiny();
        let mut sink = JsonStreamSink::new(Failing(120));
        let err = executor::execute_with(&campaign, 77, 2, &mut sink, ExecOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
    }
}
