//! Engine profiling: where the experiment sweep spends its time.
//!
//! [`EngineProfile`] records, per run, whether the result came from the
//! disk cache or a fresh simulation and how long it took; per `prewarm`
//! fan-out, how well the worker pool was utilized. The `all_figures`
//! driver prints [`EngineProfile::summary`] at the end of a sweep and can
//! dump [`EngineProfile::to_json`] via `GRAPHPIM_PROFILE_JSON`.
//!
//! Wall times are measured around the experiment engine, not inside the
//! simulator, so profiling never touches simulated timing.

use graphpim_sim::telemetry::CounterRegistry;
use std::fmt::Write as _;

/// Where a run's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSource {
    /// Freshly simulated in this process, kernel executed live.
    Simulated,
    /// Loaded from the persistent disk cache.
    DiskHit,
    /// Timing-simulated in this process from a stored instruction trace
    /// (no kernel execution).
    Replayed,
}

impl RunSource {
    fn label(self) -> &'static str {
        match self {
            RunSource::Simulated => "simulated",
            RunSource::DiskHit => "disk-hit",
            RunSource::Replayed => "replayed",
        }
    }
}

/// One resolved run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The run's `RunKey::file_stem()`.
    pub key: String,
    /// Wall seconds spent resolving it (simulation or cache load).
    pub seconds: f64,
    /// Where the result came from.
    pub source: RunSource,
    /// The request-correlated trace ID active when the run resolved
    /// (the serving thread's `trace` context field), if any.
    pub trace: Option<String>,
}

/// One `prewarm` fan-out.
#[derive(Debug, Clone)]
pub struct PrewarmRecord {
    /// Distinct keys dispatched.
    pub keys: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall seconds of the fan-out.
    pub wall_seconds: f64,
    /// Seconds spent running jobs (cache lookups, trace loads, runs),
    /// summed across workers. A worker waiting for a load to land is
    /// idle, not busy.
    pub busy_seconds: f64,
}

impl PrewarmRecord {
    /// Worker-pool utilization in `[0, 1]`: busy time over the pool's
    /// wall-time capacity.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall_seconds * self.threads as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy_seconds / capacity).min(1.0)
        }
    }
}

/// Accumulated engine profile of one [`Experiments`](super::Experiments)
/// context.
#[derive(Debug, Clone, Default)]
pub struct EngineProfile {
    runs: Vec<RunRecord>,
    disk_hits: usize,
    disk_misses: usize,
    disk_stale: usize,
    prewarms: Vec<PrewarmRecord>,
    trace: TraceStoreCounts,
}

/// Capture/replay counters of the trace-store subsystem, as accumulated
/// by one experiment context. Exported to telemetry under the
/// `tracestore.*` namespace ([`EngineProfile::tracestore_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceStoreCounts {
    /// Functional kernel executions performed to capture a trace.
    pub captures: usize,
    /// Wall seconds spent in those captures.
    pub capture_seconds: f64,
    /// Wall seconds spent loading stored traces into their resident
    /// replay form: one pass that reads, checksums and copies each
    /// entry's op words.
    pub decode_seconds: f64,
    /// Heap bytes of the traces resident in replay form, loaded or
    /// captured
    /// ([`DecodedTrace::resident_bytes`](graphpim_sim::trace::codec::DecodedTrace::resident_bytes)).
    pub decoded_bytes: usize,
    /// Trace-store lookups satisfied from disk.
    pub disk_hits: usize,
    /// Trace-store lookups with no entry.
    pub disk_misses: usize,
    /// Entries rejected by codec validation (and removed).
    pub corrupt: usize,
    /// Runs resolved by replaying a captured trace.
    pub replays: usize,
    /// Replays that failed mid-stream and fell back to a live run.
    pub replay_fallbacks: usize,
    /// Runs whose attached JSONL trace export failed to write.
    pub export_failures: usize,
}

impl EngineProfile {
    /// Records one resolved run, stamping it with the calling thread's
    /// `trace` context field (set by the serve worker for the job being
    /// resolved) so a slow run is attributable to the exact request
    /// that caused it.
    pub fn record_run(&mut self, key: String, seconds: f64, source: RunSource) {
        self.runs.push(RunRecord {
            key,
            seconds,
            source,
            trace: crate::obs::context_value("trace"),
        });
    }

    /// Counts a disk-cache hit.
    pub fn note_disk_hit(&mut self) {
        self.disk_hits += 1;
    }

    /// Counts a disk-cache miss (entry never existed).
    pub fn note_disk_miss(&mut self) {
        self.disk_misses += 1;
    }

    /// Counts a stale disk entry (existed, but invalidated by a config,
    /// environment, or schema change).
    pub fn note_disk_stale(&mut self) {
        self.disk_stale += 1;
    }

    /// Records one `prewarm` fan-out.
    pub fn record_prewarm(&mut self, record: PrewarmRecord) {
        self.prewarms.push(record);
    }

    /// Counts one trace capture (a functional kernel execution).
    pub fn note_trace_capture(&mut self, seconds: f64) {
        self.trace.captures += 1;
        self.trace.capture_seconds += seconds;
    }

    /// Counts one stored trace loaded into its resident replay form.
    pub fn note_trace_decode(&mut self, seconds: f64, resident_bytes: usize) {
        self.trace.decode_seconds += seconds;
        self.note_trace_resident(resident_bytes);
    }

    /// Counts the heap bytes of a trace held in replay form.
    pub fn note_trace_resident(&mut self, resident_bytes: usize) {
        self.trace.decoded_bytes += resident_bytes;
    }

    /// Counts a trace-store disk hit.
    pub fn note_trace_disk_hit(&mut self) {
        self.trace.disk_hits += 1;
    }

    /// Counts a trace-store disk miss.
    pub fn note_trace_disk_miss(&mut self) {
        self.trace.disk_misses += 1;
    }

    /// Counts a corrupt trace-store entry (rejected and removed).
    pub fn note_trace_corrupt(&mut self) {
        self.trace.corrupt += 1;
    }

    /// Counts one run resolved by replay.
    pub fn note_replay(&mut self) {
        self.trace.replays += 1;
    }

    /// Counts a replay that failed and fell back to a live run.
    pub fn note_replay_fallback(&mut self) {
        self.trace.replay_fallbacks += 1;
    }

    /// Counts a run whose JSONL trace export failed to write.
    pub fn note_trace_export_failure(&mut self) {
        self.trace.export_failures += 1;
    }

    /// The accumulated trace-store counters.
    pub fn trace_store(&self) -> TraceStoreCounts {
        self.trace
    }

    /// The trace-store counters as a telemetry registry under the
    /// `tracestore.*` namespace.
    pub fn tracestore_counters(&self) -> CounterRegistry {
        let mut reg = CounterRegistry::default();
        let t = &self.trace;
        reg.record("tracestore.captures", t.captures as f64);
        reg.record("tracestore.capture_seconds", t.capture_seconds);
        reg.record("tracestore.decode_seconds", t.decode_seconds);
        reg.record("tracestore.decoded_bytes", t.decoded_bytes as f64);
        reg.record("tracestore.disk_hits", t.disk_hits as f64);
        reg.record("tracestore.disk_misses", t.disk_misses as f64);
        reg.record("tracestore.corrupt", t.corrupt as f64);
        reg.record("tracestore.replays", t.replays as f64);
        reg.record("tracestore.replay_fallbacks", t.replay_fallbacks as f64);
        reg.record("tracestore.export_failures", t.export_failures as f64);
        reg
    }

    /// All run records, in resolution order.
    pub fn runs(&self) -> &[RunRecord] {
        &self.runs
    }

    /// All prewarm records.
    pub fn prewarms(&self) -> &[PrewarmRecord] {
        &self.prewarms
    }

    /// `(hits, misses, stale)` disk-cache lookup counts.
    pub fn disk_counts(&self) -> (usize, usize, usize) {
        (self.disk_hits, self.disk_misses, self.disk_stale)
    }

    /// Stale disk-cache lookups.
    pub fn disk_stale(&self) -> usize {
        self.disk_stale
    }

    /// Total wall seconds spent actually simulating (live and replayed
    /// timing runs; disk hits excluded).
    pub fn simulated_seconds(&self) -> f64 {
        self.runs
            .iter()
            .filter(|r| r.source != RunSource::DiskHit)
            .map(|r| r.seconds)
            .sum()
    }

    /// The slowest run, if any.
    pub fn slowest(&self) -> Option<&RunRecord> {
        self.runs
            .iter()
            .max_by(|a, b| a.seconds.total_cmp(&b.seconds))
    }

    /// Multi-line human-readable summary (each line prefixed
    /// `[profile]`), ending with a newline.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let simulated = self
            .runs
            .iter()
            .filter(|r| r.source != RunSource::DiskHit)
            .count();
        let _ = writeln!(
            s,
            "[profile] runs: {} ({} simulated in {:.2}s, {} disk hits)",
            self.runs.len(),
            simulated,
            self.simulated_seconds(),
            self.runs.len() - simulated,
        );
        let _ = writeln!(
            s,
            "[profile] disk cache: {} hits, {} misses, {} stale",
            self.disk_hits, self.disk_misses, self.disk_stale
        );
        if self.trace != TraceStoreCounts::default() {
            let t = &self.trace;
            let _ = writeln!(
                s,
                "[profile] trace store: {} captures ({:.2}s), {} disk hits, \
                 {} misses, {} corrupt; {} replays, {} fallbacks",
                t.captures,
                t.capture_seconds,
                t.disk_hits,
                t.disk_misses,
                t.corrupt,
                t.replays,
                t.replay_fallbacks
            );
        }
        if self.trace.export_failures > 0 {
            let _ = writeln!(
                s,
                "[profile] WARNING: {} JSONL trace exports failed to write \
                 (traces on disk are incomplete)",
                self.trace.export_failures
            );
        }
        if let Some(slowest) = self.slowest() {
            let _ = writeln!(
                s,
                "[profile] slowest run: {} ({:.2}s, {})",
                slowest.key,
                slowest.seconds,
                slowest.source.label()
            );
        }
        for (i, p) in self.prewarms.iter().enumerate() {
            let _ = writeln!(
                s,
                "[profile] prewarm #{}: {} keys on {} threads, {:.2}s wall, \
                 {:.0}% pool utilization",
                i + 1,
                p.keys,
                p.threads,
                p.wall_seconds,
                100.0 * p.utilization()
            );
        }
        s
    }

    /// The full profile as a JSON document (hand-rolled; the vendored
    /// serde is a no-op stand-in).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"key\": \"{}\", \"seconds\": {:?}, \"source\": \"{}\"",
                r.key,
                r.seconds,
                r.source.label()
            );
            if let Some(trace) = &r.trace {
                let _ = write!(s, ", \"trace\": \"{trace}\"");
            }
            s.push('}');
            s.push_str(if i + 1 < self.runs.len() { ",\n" } else { "\n" });
        }
        let _ = writeln!(
            s,
            "  ],\n  \"disk\": {{\"hits\": {}, \"misses\": {}, \"stale\": {}}},",
            self.disk_hits, self.disk_misses, self.disk_stale
        );
        let t = &self.trace;
        let _ = writeln!(
            s,
            "  \"tracestore\": {{\"captures\": {}, \"capture_seconds\": {:?}, \
             \"decode_seconds\": {:?}, \"decoded_bytes\": {}, \
             \"disk_hits\": {}, \"disk_misses\": {}, \"corrupt\": {}, \
             \"replays\": {}, \"replay_fallbacks\": {}, \"export_failures\": {}}},",
            t.captures,
            t.capture_seconds,
            t.decode_seconds,
            t.decoded_bytes,
            t.disk_hits,
            t.disk_misses,
            t.corrupt,
            t.replays,
            t.replay_fallbacks,
            t.export_failures
        );
        s.push_str("  \"prewarm\": [\n");
        for (i, p) in self.prewarms.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"keys\": {}, \"threads\": {}, \"wall_seconds\": {:?}, \
                 \"busy_seconds\": {:?}, \"utilization\": {:?}}}",
                p.keys,
                p.threads,
                p.wall_seconds,
                p.busy_seconds,
                p.utilization()
            );
            s.push_str(if i + 1 < self.prewarms.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_summary() {
        let mut p = EngineProfile::default();
        p.note_disk_miss();
        p.record_run("dc-baseline".into(), 1.5, RunSource::Simulated);
        p.note_disk_hit();
        p.record_run("dc-graphpim".into(), 0.01, RunSource::DiskHit);
        p.note_disk_stale();
        p.record_run("bfs-baseline".into(), 0.5, RunSource::Simulated);
        p.record_prewarm(PrewarmRecord {
            keys: 3,
            threads: 2,
            wall_seconds: 1.25,
            busy_seconds: 2.0,
        });
        assert_eq!(p.disk_counts(), (1, 1, 1));
        assert_eq!(p.runs().len(), 3);
        assert!((p.simulated_seconds() - 2.0).abs() < 1e-12);
        assert_eq!(p.slowest().unwrap().key, "dc-baseline");
        let util = p.prewarms()[0].utilization();
        assert!((util - 0.8).abs() < 1e-12);
        let summary = p.summary();
        assert!(summary.contains("2 simulated"));
        assert!(summary.contains("1 hits, 1 misses, 1 stale"));
        assert!(summary.contains("slowest run: dc-baseline"));
        assert!(summary.contains("80% pool utilization"));
    }

    #[test]
    fn utilization_bounds() {
        let p = PrewarmRecord {
            keys: 1,
            threads: 4,
            wall_seconds: 0.0,
            busy_seconds: 1.0,
        };
        assert_eq!(p.utilization(), 0.0);
        let q = PrewarmRecord {
            keys: 1,
            threads: 1,
            wall_seconds: 1.0,
            busy_seconds: 5.0,
        };
        assert_eq!(q.utilization(), 1.0);
    }

    #[test]
    fn busy_time_excludes_waiting_for_a_load() {
        use std::time::{Duration, Instant};
        // Two workers, one load and one run that needs it: the second
        // worker has nothing to do until the load lands. Busy time is the
        // two jobs' own durations; counting the wait would add the load's
        // duration again.
        let spent = std::sync::Mutex::new(Vec::new());
        let job = |ms: &u64| {
            let start = Instant::now();
            std::thread::sleep(Duration::from_millis(*ms));
            spent
                .lock()
                .unwrap()
                .push((start, start.elapsed().as_secs_f64()));
        };
        let wall = Instant::now();
        let busy = super::super::jobs::execute(
            2,
            &[300u64],
            &[(Some(0), 20u64)],
            |ms| {
                job(ms);
                1
            },
            job,
        );
        let record = PrewarmRecord {
            keys: 1,
            threads: 2,
            wall_seconds: wall.elapsed().as_secs_f64(),
            busy_seconds: busy,
        };
        let spent = spent.into_inner().unwrap();
        let (load, run) = (spent[0], spent[1]);
        assert!(
            run.0 >= load.0 + Duration::from_secs_f64(load.1),
            "run waited for its load"
        );
        assert!(
            (record.busy_seconds - (load.1 + run.1)).abs() < 0.05,
            "busy {} s, jobs {} s + {} s",
            record.busy_seconds,
            load.1,
            run.1
        );
        assert!(record.utilization() < 0.75, "{record:?}");
    }

    #[test]
    fn json_dump_is_parseable() {
        let mut p = EngineProfile::default();
        p.record_run("dc-k1".into(), 0.25, RunSource::Simulated);
        p.record_prewarm(PrewarmRecord {
            keys: 1,
            threads: 1,
            wall_seconds: 0.25,
            busy_seconds: 0.25,
        });
        let doc = crate::experiments::cache::json::parse(&p.to_json()).expect("valid JSON");
        let top = doc.as_object().unwrap();
        let runs = top.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 1);
        let run = runs[0].as_object().unwrap();
        assert_eq!(run.get("key").unwrap().as_str(), Some("dc-k1"));
        assert_eq!(run.get("seconds").unwrap().as_f64(), Some(0.25));
        let disk = top.get("disk").unwrap().as_object().unwrap();
        assert_eq!(disk.get("hits").unwrap().as_u64(), Some(0));
        let prewarm = top.get("prewarm").unwrap().as_array().unwrap();
        assert_eq!(
            prewarm[0]
                .as_object()
                .unwrap()
                .get("threads")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn trace_store_counters_flow_to_summary_and_telemetry() {
        let mut p = EngineProfile::default();
        p.note_trace_disk_miss();
        p.note_trace_capture(0.5);
        p.note_replay();
        p.record_run("bfs-k1".into(), 0.1, RunSource::Replayed);
        p.note_trace_decode(0.25, 4096);
        p.note_trace_disk_hit();
        p.note_trace_decode(0.5, 8192);
        p.note_replay();
        p.record_run("bfs-k1-pim".into(), 0.1, RunSource::Replayed);
        p.note_trace_export_failure();
        let t = p.trace_store();
        assert_eq!(t.captures, 1);
        assert_eq!(t.disk_hits, 1);
        assert_eq!(t.disk_misses, 1);
        assert_eq!(t.replays, 2);
        assert_eq!(t.export_failures, 1);
        assert_eq!(t.decode_seconds, 0.75);
        assert_eq!(t.decoded_bytes, 12288);
        // Replayed runs count as simulated time.
        assert!((p.simulated_seconds() - 0.2).abs() < 1e-12);
        let summary = p.summary();
        assert!(summary.contains("trace store: 1 captures"));
        assert!(summary.contains("2 replays"));
        assert!(summary.contains("WARNING: 1 JSONL trace exports failed"));
        let reg = p.tracestore_counters();
        assert_eq!(reg.get("tracestore.captures"), Some(1.0));
        assert_eq!(reg.get("tracestore.replays"), Some(2.0));
        assert_eq!(reg.get("tracestore.export_failures"), Some(1.0));
        assert_eq!(reg.get("tracestore.decode_seconds"), Some(0.75));
        assert_eq!(reg.get("tracestore.decoded_bytes"), Some(12288.0));
        // The JSON dump stays parseable with the new section.
        let doc = crate::experiments::cache::json::parse(&p.to_json()).expect("valid JSON");
        let ts = doc
            .as_object()
            .unwrap()
            .get("tracestore")
            .unwrap()
            .as_object()
            .unwrap();
        assert_eq!(ts.get("replays").unwrap().as_u64(), Some(2));
        assert_eq!(ts.get("decoded_bytes").unwrap().as_u64(), Some(12288));
    }

    #[test]
    fn empty_profile_json_is_parseable() {
        let p = EngineProfile::default();
        assert!(crate::experiments::cache::json::parse(&p.to_json()).is_some());
        assert!(p.slowest().is_none());
        assert_eq!(p.simulated_seconds(), 0.0);
    }
}
