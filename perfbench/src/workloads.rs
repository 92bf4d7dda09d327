//! The four workloads: set-up, timed passes with output checks, and the
//! traced run.
//!
//! Every workload calls only public entry points of `evoflow-core`. A
//! timed pass covers exactly the call(s) a client would wait on; the
//! checks that follow it (replays, digests, comparisons) run outside the
//! timed window.

use crate::inputs;
use crate::stats::{median, quantile};
use crate::trace::Trace;
use evoflow_core::{
    plan_service, replay_fleet_ledger_bytes, run_campaign_fleet, run_campaign_fleet_federated,
    run_campaign_fleet_federated_recorded, run_campaign_fleet_federated_until,
    run_campaign_fleet_recorded, run_campaign_profiled, run_service_observed, CampaignConfig,
    CampaignEvent, CampaignLedger, CampaignReport, FederatedConfig, FederatedReport, FleetConfig,
    FleetLedger, FleetReport, KnowledgeSink, LedgerEncoding, LedgerObserver, MaterialsSpace, Phase,
    PhaseProfiler, ServiceConfig,
};
use std::time::Instant;

/// What one run measured: operation accounting, metrics, and notes.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count `n` operations, all failed unless `ok`.
    pub fn tally(&mut self, n: usize, ok: bool) {
        self.attempted += n as u64;
        if !ok {
            self.failed += n as u64;
        }
    }
}

/// One workload: its timed passes and its traced run over the inputs its
/// set-up built.
pub trait Workload {
    /// Timed passes for `seconds`, with their checks and metrics.
    fn measure(&self, seconds: f64, out: &mut Outcome);
    /// The untraced wall time of one pass (median of three).
    fn untraced_pass_s(&self) -> f64;
    /// The traced run: (checks passed, traced pass seconds).
    fn traced(&self, t: &mut Trace) -> (bool, f64);
}

/// Set up `workload` from `seed`, reporting `setup_s` (and, for
/// `audit_replay`, the recording rate) into `out`.
pub fn set_up_workload(workload: &str, seed: u64, out: &mut Outcome) -> Box<dyn Workload> {
    match workload {
        "discovery" | "service_flood" => Box::new(ServiceWorkload::set_up(workload, seed, out)),
        "federated_outage" => Box::new(FederatedWorkload::set_up(seed, out)),
        _ => Box::new(AuditWorkload::set_up(seed, out)),
    }
}

/// Repeat `build` at least `min_reps` times and for at least `min_secs`,
/// keeping the last input and reporting the median repetition time.
/// Every repetition must produce the same input as the one before.
fn set_up<T>(
    out: &mut Outcome,
    min_reps: usize,
    min_secs: f64,
    mut build: impl FnMut() -> T,
    same: impl Fn(&T, &T) -> bool,
) -> T {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut kept: Option<T> = None;
    while times.len() < min_reps || (started.elapsed().as_secs_f64() < min_secs && times.len() < 41)
    {
        let t0 = Instant::now();
        let next = build();
        times.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = &kept {
            out.tally(1, same(prev, &next));
        }
        kept = Some(next);
    }
    out.metric("setup_s", median(&times), "s");
    kept.expect("at least one set-up repetition")
}

/// Run timed passes until `seconds` have gone by: at least 3, so a median
/// exists, and at most 400, so a run always ends.
fn passes(seconds: f64, mut pass: impl FnMut()) {
    let started = Instant::now();
    let mut n = 0;
    while n < 3 || (n < 400 && started.elapsed().as_secs_f64() < seconds) {
        pass();
        n += 1;
    }
}

/// FNV-1a digest of a value's JSON form.
fn digest<T: serde::Serialize>(value: &T) -> u64 {
    inputs::fnv1a(&serde_json::to_vec(value).unwrap_or_default())
}

// ---------------------------------------------------------------------------
// Service workloads: discovery and service_flood
// ---------------------------------------------------------------------------

/// The live observer: stamps each campaign's `CampaignFinished` relative
/// to session start, and the first and last deliveries.
struct ResultClock {
    start: Instant,
    finished: Vec<f64>,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl ResultClock {
    fn new(start: Instant) -> Self {
        ResultClock {
            start,
            finished: Vec::new(),
            first: None,
            last: None,
        }
    }

    fn delivery(&mut self, events: &[CampaignEvent]) {
        let now = Instant::now();
        self.first.get_or_insert(now);
        self.last = Some(now);
        let at = now.duration_since(self.start).as_secs_f64();
        for e in events {
            if matches!(e, CampaignEvent::CampaignFinished { .. }) {
                self.finished.push(at);
            }
        }
    }
}

impl LedgerObserver for ResultClock {
    fn on_event(&mut self, event: &CampaignEvent) {
        self.delivery(std::slice::from_ref(event));
    }

    fn on_batch(&mut self, events: &[CampaignEvent]) {
        self.delivery(events);
    }
}

pub struct ServiceWorkload {
    space: MaterialsSpace,
    cfg: ServiceConfig,
}

struct ServicePass {
    secs: f64,
    experiments: u64,
    latencies: Vec<f64>,
    /// Two replays of the persisted bytes per pass.
    replay_secs: [f64; 2],
    events: usize,
    bytes: usize,
    digest: u64,
    ok: bool,
}

impl ServiceWorkload {
    fn set_up(workload: &str, seed: u64, out: &mut Outcome) -> Self {
        let build = || ServiceWorkload {
            space: inputs::space(workload, seed),
            cfg: match workload {
                "discovery" => inputs::discovery(seed),
                _ => inputs::service_flood(seed),
            },
        };
        let same = |a: &ServiceWorkload, b: &ServiceWorkload| {
            a.cfg == b.cfg && digest(&a.space) == digest(&b.space)
        };
        set_up(out, 9, 0.3, build, same)
    }

    /// One pass: session plus persisting the ledger, then the checks.
    fn pass(&self, reference: Option<u64>) -> ServicePass {
        let t0 = Instant::now();
        let mut clock = ResultClock::new(t0);
        let session = run_service_observed(&self.space, &self.cfg, &mut [&mut clock]).map(
            |(report, ledger)| {
                let bytes = ledger.to_bytes(LedgerEncoding::Binary);
                (report, ledger, bytes)
            },
        );
        let secs = t0.elapsed().as_secs_f64();
        let Ok((report, ledger, bytes)) = session else {
            eprintln!("service session refused its config");
            return ServicePass {
                secs,
                experiments: 0,
                latencies: clock.finished,
                replay_secs: [0.0; 2],
                events: 0,
                bytes: 0,
                digest: 0,
                ok: false,
            };
        };
        let events = ledger.total_events();
        drop(ledger);
        let mut replay_secs = [0.0; 2];
        let mut replays_ok = true;
        for secs in &mut replay_secs {
            let r0 = Instant::now();
            let replayed = replay_fleet_ledger_bytes(&bytes);
            *secs = r0.elapsed().as_secs_f64();
            replays_ok &= replayed.as_ref() == Ok(&report.fleet);
        }
        let digest = digest(&report);
        let ok = replays_ok
            && clock.finished.len() == report.fleet.reports.len()
            && reference.is_none_or(|d| d == digest);
        ServicePass {
            secs,
            experiments: report.fleet.total_experiments,
            latencies: clock.finished,
            replay_secs,
            events,
            bytes: bytes.len(),
            digest,
            ok,
        }
    }
}

impl Workload for ServiceWorkload {
    fn measure(&self, seconds: f64, out: &mut Outcome) {
        let first = self.pass(None);
        let reference = first.digest;
        let mut all = vec![first];
        passes(seconds, || all.push(self.pass(Some(reference))));
        // The first pass warms the allocator and caches; it only sets the
        // reference digest.
        let timed = &all[1..];
        for p in &all {
            out.tally(self.cfg.submissions.len(), p.ok);
        }
        let col = |f: &dyn Fn(&ServicePass) -> f64| timed.iter().map(f).collect::<Vec<_>>();
        out.metric(
            "experiments_per_s",
            median(&col(&|p| p.experiments as f64 / p.secs)),
            "1/s",
        );
        out.metric(
            "result_p50_s",
            median(&col(&|p| quantile(&p.latencies, 0.5))),
            "s",
        );
        out.metric(
            "result_p99_s",
            median(&col(&|p| quantile(&p.latencies, 0.99))),
            "s",
        );
        let replay_rates: Vec<f64> = timed
            .iter()
            .flat_map(|p| p.replay_secs.map(|s| p.events as f64 / s))
            .collect();
        out.metric("replay_events_per_s", median(&replay_rates), "1/s");
        let last = &all[all.len() - 1];
        out.metric(
            "wire_bytes_per_event",
            last.bytes as f64 / last.events.max(1) as f64,
            "B",
        );
        out.note(format!(
            "passes {} (+1 warm-up)  pass_s median {:.4}  result samples {} per pass  events {}  bytes {}  report digest {:016x}",
            timed.len(),
            median(&col(&|p| p.secs)),
            last.latencies.len(),
            last.events,
            last.bytes,
            reference
        ));
    }

    fn untraced_pass_s(&self) -> f64 {
        median(&(0..3).map(|_| self.pass(None).secs).collect::<Vec<_>>())
    }

    fn traced(&self, t: &mut Trace) -> (bool, f64) {
        let (plan, _) = t.time("service.plan", 0, None, || plan_service(&self.cfg));
        let Ok(plan) = plan else {
            return (false, 0.0);
        };
        let start = Instant::now();
        let mut clock = ResultClock::new(start);
        let session = run_service_observed(&self.space, &self.cfg, &mut [&mut clock]);
        let end = Instant::now();
        let span = t.push("service.session", 0, None, t.offset(start), t.offset(end));
        let first = clock.first.unwrap_or(end);
        let last = clock.last.unwrap_or(end);
        t.push(
            "fleet.execute",
            0,
            Some(span),
            t.offset(start),
            t.offset(first),
        );
        t.push(
            "service.stream",
            0,
            Some(span),
            t.offset(first),
            t.offset(last),
        );
        t.push(
            "service.assemble",
            0,
            Some(span),
            t.offset(last),
            t.offset(end),
        );
        let Ok((report, ledger)) = session else {
            return (false, 0.0);
        };
        let (bytes, enc) = t.time("ledger.encode", 0, None, || {
            ledger.to_bytes(LedgerEncoding::Binary)
        });
        let traced_pass = t.spans[span].secs() + t.spans[enc].secs();
        let mut ok = read_back(t, &bytes, &ledger, &report.fleet);

        t.add("service.admitted", plan.admitted.len() as f64);
        t.add("service.rejected", plan.rejected.len() as f64);
        t.add("service.rounds", plan.rounds as f64);
        t.add("service.p99_wait_rounds", report.p99_wait_rounds as f64);
        t.add("fleet.tasks", plan.dispatch_order.len() as f64);

        // The admitted configs, rebuilt from the plan and run serially
        // under the profiler, must reproduce the session's reports.
        for (i, a) in plan.admitted.iter().enumerate() {
            let mut c = self.cfg.submissions[a.submission_index].campaign.clone();
            c.seed = a.seed;
            let (r, l) = campaign_span(t, &self.space, &c, i, true);
            ok &= r == report.fleet.reports[i] && l.as_ref() == Some(&ledger.campaigns[i]);
        }
        ok &= ingest_knowledge(t, &ledger, &report.fleet);
        parallel_efficiency(t, self.cfg.effective_threads());
        (ok, traced_pass)
    }
}

/// Decode and replay persisted fleet-ledger bytes under spans, checking
/// both against the live ledger and report, and record the wire counts.
fn read_back(t: &mut Trace, bytes: &[u8], ledger: &FleetLedger, fleet: &FleetReport) -> bool {
    let (decoded, _) = t.time("ledger.decode", 0, None, || FleetLedger::from_bytes(bytes));
    let (replayed, _) = t.time("ledger.replay", 0, None, || {
        replay_fleet_ledger_bytes(bytes)
    });
    wire_counts(t, ledger, bytes.len());
    decoded.as_ref() == Ok(ledger) && replayed.as_ref() == Ok(fleet)
}

fn wire_counts(t: &mut Trace, ledger: &FleetLedger, bytes: usize) {
    let mut buf = Vec::new();
    let (mut segments, mut hits, mut misses) = (0u64, 0u64, 0u64);
    for c in &ledger.campaigns {
        let s = c.encode_binary_into(&mut buf);
        segments += s.segments;
        hits += s.intern_hits;
        misses += s.intern_misses;
    }
    t.add("ledger.events", ledger.total_events() as f64);
    t.add("ledger.bytes", bytes as f64);
    t.add("ledger.segments", segments as f64);
    t.add(
        "ledger.intern_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}

/// One `campaign.run` span under the profiler, with the profiler's
/// phases as children. `record` mirrors whether the workload's own pass
/// records a ledger (its emit path then does the same work).
fn campaign_span(
    t: &mut Trace,
    space: &MaterialsSpace,
    cfg: &CampaignConfig,
    id: usize,
    record: bool,
) -> (CampaignReport, Option<CampaignLedger>) {
    let mut prof = PhaseProfiler::enabled();
    let mut ledger = CampaignLedger::new();
    let (report, span) = t.time("campaign.run", id, None, || {
        if record {
            run_campaign_profiled(space, cfg, &mut [&mut ledger], &mut prof)
        } else {
            run_campaign_profiled(space, cfg, &mut [], &mut prof)
        }
    });
    let b = prof.breakdown();
    let nanos = |p: Phase| {
        b.phases
            .iter()
            .find(|s| s.phase == p.name())
            .map_or(0, |s| s.nanos)
    };
    // Anchor and model are parts of propose, read on their own; they are
    // not added again.
    t.push_nanos("planner.propose", span, nanos(Phase::Propose));
    t.push_nanos("planner.observe", span, nanos(Phase::Observe));
    t.push_nanos("campaign.emit", span, nanos(Phase::Emit));
    t.push_nanos("domain.measure", span, nanos(Phase::Execute));
    t.add("planner.model_s", nanos(Phase::ProposeModel) as f64 / 1e9);
    t.add("planner.anchor_s", nanos(Phase::ProposeAnchor) as f64 / 1e9);
    t.add("planner.proposals", b.count_of(Phase::Propose) as f64);
    t.add("planner.scored", b.count_of(Phase::ProposeScore) as f64);
    t.add("planner.rejected", report.rejected_proposals as f64);
    t.add("campaign.events", b.events_emitted as f64);
    (report, record.then_some(ledger))
}

/// Time `KnowledgeSink` ingestion of every knowledge-recording campaign's
/// events, checking the rebuilt counts against the campaign reports.
fn ingest_knowledge(t: &mut Trace, ledger: &FleetLedger, fleet: &FleetReport) -> bool {
    let mut ok = true;
    for (i, (l, r)) in ledger.campaigns.iter().zip(&fleet.reports).enumerate() {
        let records = matches!(
            l.events.first(),
            Some(CampaignEvent::CampaignStarted {
                records_knowledge: true,
                ..
            })
        );
        if !records {
            continue;
        }
        let mut sink = KnowledgeSink::new();
        t.time("knowledge.ingest", i, None, || sink.on_batch(&l.events));
        t.add("knowledge.nodes", sink.node_count() as f64);
        t.add("knowledge.activities", sink.activity_count() as f64);
        ok &= sink.node_count() == r.kg_nodes && sink.activity_count() == r.prov_activities;
    }
    ok
}

// ---------------------------------------------------------------------------
// federated_outage
// ---------------------------------------------------------------------------

pub struct FederatedWorkload {
    space: MaterialsSpace,
    cfg: FederatedConfig,
}

/// Every campaign placed exactly once.
fn placed_once(cfg: &FederatedConfig, report: &FederatedReport) -> bool {
    let n = cfg.fleet.campaigns.len();
    let mut seen = vec![false; n];
    report.placements.len() == n
        && report
            .placements
            .iter()
            .all(|p| p.campaign < n && !std::mem::replace(&mut seen[p.campaign], true))
}

impl FederatedWorkload {
    fn set_up(seed: u64, out: &mut Outcome) -> Self {
        let build = || FederatedWorkload {
            space: inputs::space("federated_outage", seed),
            cfg: inputs::federated_outage(seed),
        };
        let same = |a: &FederatedWorkload, b: &FederatedWorkload| {
            a.cfg == b.cfg && digest(&a.space) == digest(&b.space)
        };
        set_up(out, 9, 0.3, build, same)
    }

    fn pass(&self) -> (f64, Option<FederatedReport>) {
        let t0 = Instant::now();
        let report = run_campaign_fleet_federated(&self.space, &self.cfg);
        (t0.elapsed().as_secs_f64(), report.ok())
    }
}

impl Workload for FederatedWorkload {
    fn measure(&self, seconds: f64, out: &mut Outcome) {
        let n = self.cfg.fleet.campaigns.len();
        let (_, reference) = self.pass();
        let Some(live) = reference.filter(|r| placed_once(&self.cfg, r)) else {
            out.tally(n, false);
            return;
        };
        out.tally(n, true);
        // The same federation with recording on must report identically;
        // each pass then also replays its persisted ledger, outside the
        // pass's timed window.
        let (bytes, events) = match run_campaign_fleet_federated_recorded(&self.space, &self.cfg) {
            Ok((report, ledger)) if report == live => (
                ledger.to_bytes(LedgerEncoding::Binary),
                ledger.total_events(),
            ),
            _ => (Vec::new(), 0),
        };
        out.tally(n, events > 0);
        let mut secs = Vec::new();
        let mut rates = Vec::new();
        passes(seconds, || {
            let (s, report) = self.pass();
            out.tally(n, report.as_ref() == Some(&live));
            secs.push(s);
            let t0 = Instant::now();
            let replayed = replay_fleet_ledger_bytes(&bytes);
            rates.push(events as f64 / t0.elapsed().as_secs_f64());
            out.tally(n, replayed.as_ref() == Ok(&live.fleet));
        });
        let experiments = live.fleet.total_experiments;
        let pass_s = median(&secs);
        out.metric("experiments_per_s", experiments as f64 / pass_s, "1/s");
        // The call returns every campaign's result at once: each result
        // arrives when the pass ends.
        out.metric("result_p50_s", pass_s, "s");
        out.metric("result_p99_s", pass_s, "s");
        out.metric("replay_events_per_s", median(&rates), "1/s");
        out.metric(
            "wire_bytes_per_event",
            bytes.len() as f64 / events.max(1) as f64,
            "B",
        );
        out.note(format!(
            "passes {} (+1 warm-up)  pass_s median {pass_s:.4}  experiments {experiments}  outage {:?}  rerouted {}  ledger events {events}  report digest {:016x}",
            secs.len(),
            self.cfg.outage(),
            live.placements.iter().filter(|p| p.rerouted).count(),
            digest(&live)
        ));
    }

    fn untraced_pass_s(&self) -> f64 {
        median(&(0..3).map(|_| self.pass().0).collect::<Vec<_>>())
    }

    fn traced(&self, t: &mut Trace) -> (bool, f64) {
        let (report, run) = t.time("federated.run", 0, None, || {
            run_campaign_fleet_federated(&self.space, &self.cfg)
        });
        let traced_pass = t.spans[run].secs();
        let Ok(report) = report else {
            return (false, traced_pass);
        };
        let mut ok = placed_once(&self.cfg, &report);
        // Placement alone: the federated call with zero campaigns run.
        let (placed, _) = t.time("federated.place", 0, None, || {
            run_campaign_fleet_federated_until(&self.space, &self.cfg, 0)
        });
        ok &= placed.is_ok();
        // The fleet alone, as the federated call runs it after placement.
        let (fleet, execute) = t.time("fleet.execute", 0, None, || {
            run_campaign_fleet(&self.space, &self.cfg.fleet)
        });
        ok &= fleet == report.fleet;
        t.add("federated.fleet_s", t.spans[execute].secs());
        t.add("fleet.tasks", self.cfg.fleet.campaigns.len() as f64);
        t.add("federated.placements", report.placements.len() as f64);
        t.add(
            "federated.rerouted",
            report.placements.iter().filter(|p| p.rerouted).count() as f64,
        );
        t.add("federated.transfers", report.transfers as f64);

        for (i, c) in self.cfg.fleet.sharded_campaigns().iter().enumerate() {
            let (r, _) = campaign_span(t, &self.space, c, i, false);
            ok &= r == report.fleet.reports[i];
        }
        parallel_efficiency(t, self.cfg.fleet.effective_threads());

        // The once-per-run ledger audit.
        let (recorded, _) = t.time("federated.recorded", 0, None, || {
            run_campaign_fleet_federated_recorded(&self.space, &self.cfg)
        });
        match recorded {
            Ok((rec, ledger)) if rec == report => {
                let (bytes, _) = t.time("ledger.encode", 0, None, || {
                    ledger.to_bytes(LedgerEncoding::Binary)
                });
                ok &= read_back(t, &bytes, &ledger, &report.fleet);
            }
            _ => ok = false,
        }
        (ok, traced_pass)
    }
}

// ---------------------------------------------------------------------------
// audit_replay
// ---------------------------------------------------------------------------

pub struct AuditWorkload {
    report: FleetReport,
    archive: Vec<u8>,
    events: usize,
}

impl AuditWorkload {
    /// Record the archive on one thread and encode it to EVWL.
    fn record(space: &MaterialsSpace, cfg: &FleetConfig) -> Self {
        let (report, ledger) = run_campaign_fleet_recorded(space, cfg);
        AuditWorkload {
            events: ledger.total_events(),
            archive: ledger.to_bytes(LedgerEncoding::Binary),
            report,
        }
    }

    fn set_up(seed: u64, out: &mut Outcome) -> Self {
        let mut record_secs = Vec::new();
        let mut experiments = 0;
        let build = || {
            let space = inputs::space("audit_replay", seed);
            let cfg = inputs::audit_archive(seed);
            let t0 = Instant::now();
            let w = Self::record(&space, &cfg);
            record_secs.push(t0.elapsed().as_secs_f64());
            experiments = w.report.total_experiments;
            w
        };
        let same = |a: &AuditWorkload, b: &AuditWorkload| a.archive == b.archive;
        let w = set_up(out, 4, 0.0, build, same);
        // Set-up records the archive: the write path's throughput on one
        // thread (recording and encoding included).
        out.metric(
            "experiments_per_s",
            experiments as f64 / median(&record_secs),
            "1/s",
        );
        w
    }

    fn pass(&self) -> (f64, Result<FleetReport, evoflow_core::ReplayError>) {
        let t0 = Instant::now();
        let replayed = replay_fleet_ledger_bytes(&self.archive);
        (t0.elapsed().as_secs_f64(), replayed)
    }

    /// Campaigns whose replayed report differs from the recorded one.
    fn mismatches(&self, replayed: &Result<FleetReport, evoflow_core::ReplayError>) -> usize {
        match replayed {
            Ok(r) if r == &self.report => 0,
            Ok(r) if r.reports.len() == self.report.reports.len() => r
                .reports
                .iter()
                .zip(&self.report.reports)
                .filter(|(a, b)| a != b)
                .count()
                .max(1),
            _ => self.report.reports.len(),
        }
    }
}

impl Workload for AuditWorkload {
    fn measure(&self, seconds: f64, out: &mut Outcome) {
        let n = self.report.reports.len();
        let mut round_trip_ok = true;
        let mut checked = |s: f64, replayed, out: &mut Outcome| {
            let bad = self.mismatches(&replayed);
            let round_trip = FleetLedger::from_bytes(&self.archive)
                .map(|l| l.to_bytes(LedgerEncoding::Binary) == self.archive)
                .unwrap_or(false);
            round_trip_ok &= round_trip;
            out.attempted += n as u64;
            out.failed += if round_trip { bad as u64 } else { n as u64 };
            s
        };
        // The first pass warms the allocator and caches; it is not timed.
        let (s, replayed) = self.pass();
        checked(s, replayed, out);
        let mut secs = Vec::new();
        passes(seconds, || {
            let (s, replayed) = self.pass();
            secs.push(checked(s, replayed, out));
        });
        let pass_s = median(&secs);
        out.metric("result_p50_s", pass_s, "s");
        out.metric("result_p99_s", pass_s, "s");
        out.metric("replay_events_per_s", self.events as f64 / pass_s, "1/s");
        out.metric(
            "wire_bytes_per_event",
            self.archive.len() as f64 / self.events.max(1) as f64,
            "B",
        );
        out.note(format!(
            "passes {} (+1 warm-up)  pass_s median {pass_s:.4}  campaigns {n}  experiments {}  events {}  bytes {}  round-trip {}  report digest {:016x}",
            secs.len(),
            self.report.total_experiments,
            self.events,
            self.archive.len(),
            if round_trip_ok { "identical" } else { "DIFFERS" },
            digest(&self.report)
        ));
    }

    fn untraced_pass_s(&self) -> f64 {
        median(&(0..3).map(|_| self.pass().0).collect::<Vec<_>>())
    }

    fn traced(&self, t: &mut Trace) -> (bool, f64) {
        let (replayed, replay) = t.time("ledger.replay", 0, None, || {
            replay_fleet_ledger_bytes(&self.archive)
        });
        let traced_pass = t.spans[replay].secs();
        let (decoded, _) = t.time("ledger.decode", 0, None, || {
            FleetLedger::from_bytes(&self.archive)
        });
        let Ok(ledger) = decoded else {
            return (false, traced_pass);
        };
        let (bytes, _) = t.time("ledger.encode", 0, None, || {
            ledger.to_bytes(LedgerEncoding::Binary)
        });
        let mut ok = self.mismatches(&replayed) == 0 && bytes == self.archive;
        wire_counts(t, &ledger, self.archive.len());
        ok &= ingest_knowledge(t, &ledger, &self.report);
        (ok, traced_pass)
    }
}

/// Serial campaign time ÷ (threads × fleet execute time), once the
/// traced run holds both.
fn parallel_efficiency(t: &mut Trace, threads: usize) {
    let execute = t.total("fleet.execute");
    if execute > 0.0 {
        let efficiency = t.total("campaign.run") / (threads as f64 * execute);
        t.add("fleet.parallel_efficiency", efficiency);
    }
}

#[cfg(test)]
mod tests {
    //! Each workload's checks on a second seed, over a cut-down input so
    //! the tests run in a debug build.
    use super::*;

    #[test]
    fn discovery_checks_pass_on_a_second_seed() {
        let mut cfg = inputs::discovery(2);
        cfg.submissions.truncate(8);
        let w = ServiceWorkload {
            space: inputs::space("discovery", 2),
            cfg,
        };
        let first = w.pass(None);
        assert!(first.ok);
        assert_eq!(first.latencies.len(), 8);
        assert!(w.pass(Some(first.digest)).ok);
        assert!(w.traced(&mut Trace::new()).0);
    }

    #[test]
    fn service_flood_checks_pass_on_a_second_seed() {
        let mut cfg = inputs::service_flood(2);
        cfg.submissions.truncate(2_000);
        let w = ServiceWorkload {
            space: inputs::space("service_flood", 2),
            cfg,
        };
        let first = w.pass(None);
        assert!(first.ok);
        let mut t = Trace::new();
        assert!(w.traced(&mut t).0);
        assert!(
            t.counter("service.rejected") > 0.0,
            "quotas refuse some of the flood"
        );
    }

    #[test]
    fn federated_outage_checks_pass_on_a_second_seed() {
        let mut cfg = inputs::federated_outage(2);
        cfg.fleet.campaigns.truncate(300);
        let w = FederatedWorkload {
            space: inputs::space("federated_outage", 2),
            cfg,
        };
        let (_, report) = w.pass();
        let report = report.expect("the federation places every campaign");
        assert!(placed_once(&w.cfg, &report));
        assert!(w.traced(&mut Trace::new()).0);
    }

    #[test]
    fn audit_replay_checks_pass_on_a_second_seed() {
        let mut cfg = inputs::audit_archive(2);
        cfg.campaigns.truncate(16);
        let w = AuditWorkload::record(&inputs::space("audit_replay", 2), &cfg);
        let (_, replayed) = w.pass();
        assert_eq!(w.mismatches(&replayed), 0);
        let mut t = Trace::new();
        assert!(w.traced(&mut t).0);
        assert!(
            t.counter("knowledge.nodes") > 0.0,
            "every eighth campaign records knowledge"
        );
    }

    #[test]
    fn a_tampered_archive_counts_as_failed() {
        let mut cfg = inputs::audit_archive(3);
        cfg.campaigns.truncate(4);
        let mut w = AuditWorkload::record(&inputs::space("audit_replay", 3), &cfg);
        let last = w.archive.len() - 1;
        w.archive[last] ^= 0xff;
        let (_, replayed) = w.pass();
        assert_eq!(w.mismatches(&replayed), 4);
        assert!(!w.traced(&mut Trace::new()).0);
    }
}
