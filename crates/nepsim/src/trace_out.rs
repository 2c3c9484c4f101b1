//! Trace emission in the NePSim format (paper Figs. 3 and 4).

use loc::{AnalyzerBank, Annotations, BankResults, Trace, TraceRecord};

use crate::config::TraceConfig;

/// Collects trace events during simulation: buffered into a [`Trace`]
/// by default, or streamed record by record into an attached
/// [`AnalyzerBank`], in which case the buffer stays empty.
#[derive(Debug)]
pub(crate) struct TraceCollector {
    config: TraceConfig,
    trace: Trace,
    /// Boxed: the collector lives inside `Simulator`, and an inline
    /// `Stream` (about 250 B) spread the simulator's hot fields enough
    /// to slow its event loop by about 5 % on a 2-vCPU Xeon, buffered
    /// runs included.
    stream: Option<Box<Stream>>,
}

/// An attached bank and one reusable record per event name, so a
/// streamed record costs no allocation: each emission overwrites its
/// record's annotations and pushes it.
#[derive(Debug)]
struct Stream {
    bank: AnalyzerBank,
    forward: TraceRecord,
    fifo: TraceRecord,
    /// `mN_pipeline`, indexed by ME.
    pipeline: Vec<TraceRecord>,
}

impl TraceCollector {
    pub(crate) fn new(config: TraceConfig) -> Self {
        TraceCollector {
            config,
            trace: Trace::new(),
            stream: None,
        }
    }

    /// Streams every later record into `bank` instead of the buffer.
    pub(crate) fn attach(&mut self, bank: AnalyzerBank, mes: usize) {
        let record = |event: String| TraceRecord::new(event, Annotations::default());
        self.stream = Some(Box::new(Stream {
            bank,
            forward: record("forward".into()),
            fifo: record("fifo".into()),
            pipeline: (0..mes).map(|m| record(format!("m{m}_pipeline"))).collect(),
        }));
    }

    /// Finishes the attached bank and leaves an empty one in its place;
    /// empty results when none is attached.
    pub(crate) fn take_analysis(&mut self) -> BankResults {
        self.stream
            .as_mut()
            .map_or_else(AnalyzerBank::new, |s| std::mem::take(&mut s.bank))
            .finish()
    }

    /// Emits a `forward` event (an IP packet was forwarded). Always on.
    pub(crate) fn forward(&mut self, annots: Annotations) {
        match &mut self.stream {
            Some(s) => push(&mut s.bank, &mut s.forward, annots),
            None => self.trace.push(TraceRecord::new("forward", annots)),
        }
    }

    /// Emits a `fifo` event (a packet entered the processing queue).
    pub(crate) fn fifo(&mut self, annots: Annotations) {
        if !self.config.emit_fifo {
            return;
        }
        match &mut self.stream {
            Some(s) => push(&mut s.bank, &mut s.fifo, annots),
            None => self.trace.push(TraceRecord::new("fifo", annots)),
        }
    }

    /// Emits an `mN_pipeline` event (an execution bundle entered ME `n`'s
    /// pipeline).
    pub(crate) fn pipeline(&mut self, me: usize, annots: Annotations) {
        if !self.config.emit_pipeline {
            return;
        }
        match &mut self.stream {
            Some(s) => push(&mut s.bank, &mut s.pipeline[me], annots),
            None => self
                .trace
                .push(TraceRecord::new(format!("m{me}_pipeline"), annots)),
        }
    }

    pub(crate) fn into_trace(self) -> Trace {
        self.trace
    }

    pub(crate) fn trace(&self) -> &Trace {
        &self.trace
    }
}

/// Feeds `record`, carrying `annots`, to every tool of `bank`.
fn push(bank: &mut AnalyzerBank, record: &mut TraceRecord, annots: Annotations) {
    record.annots = annots;
    bank.push(record);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_always_emitted() {
        let mut c = TraceCollector::new(TraceConfig::default());
        c.forward(Annotations::default());
        assert_eq!(c.trace().count_of("forward"), 1);
    }

    #[test]
    fn optional_events_respect_config() {
        let mut quiet = TraceCollector::new(TraceConfig {
            emit_fifo: false,
            emit_pipeline: false,
        });
        quiet.fifo(Annotations::default());
        quiet.pipeline(2, Annotations::default());
        assert_eq!(quiet.trace().len(), 0);

        let mut loud = TraceCollector::new(TraceConfig {
            emit_fifo: true,
            emit_pipeline: true,
        });
        loud.fifo(Annotations::default());
        loud.pipeline(2, Annotations::default());
        assert_eq!(loud.trace().count_of("fifo"), 1);
        assert_eq!(loud.trace().count_of("m2_pipeline"), 1);
    }

    #[test]
    fn into_trace_hands_over_records() {
        let mut c = TraceCollector::new(TraceConfig::default());
        c.forward(Annotations::default());
        let t = c.into_trace();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn an_attached_bank_sees_every_record_and_nothing_is_buffered() {
        let mut bank = AnalyzerBank::new();
        let fifo = bank
            .add_checker(&loc::parse("cycle(fifo[i]) >= 0").unwrap())
            .unwrap();
        let pipe = bank
            .add_checker(&loc::parse("cycle(m2_pipeline[i]) >= 0").unwrap())
            .unwrap();
        let fwd = bank
            .add_checker(&loc::parse("cycle(forward[i]) < 2").unwrap())
            .unwrap();
        let mut c = TraceCollector::new(TraceConfig {
            emit_fifo: true,
            emit_pipeline: true,
        });
        c.attach(bank, 4);
        for cycle in 0..3 {
            let annots = Annotations {
                cycle,
                ..Annotations::default()
            };
            c.fifo(annots.clone());
            c.pipeline(2, annots.clone());
            c.forward(annots);
        }
        assert!(c.trace().is_empty());

        let results = c.take_analysis();
        assert_eq!(results.check_reports[fifo].instances, 3);
        assert_eq!(results.check_reports[pipe].instances, 3);
        assert_eq!(results.check_reports[fwd].violation_count, 1);
        // The bank is spent: later records go nowhere.
        assert!(c.take_analysis().check_reports.is_empty());
    }
}
