//! Contract tests for the multi-tenant streaming server
//! (`streamgrid-serve`): admission control, weighted-fair QoS,
//! backpressure, shedding/degradation, and the bit-identity anchor.
//!
//! The anchor pin: a single admitted tenant's `StreamReport` —
//! per-frame `FrameReport`s, solve count, bucketing — equals running
//! the same source through `Session::stream` directly, bit for bit.
//! Everything the server adds (queues, WFQ, admission) is scheduling;
//! results never change.

use std::time::{Duration, Instant};

use streamgrid_core::apps::AppDomain;
use streamgrid_core::framework::{ExecMode, ExecuteOptions, StreamGrid};
use streamgrid_core::source::{ReplaySource, SizeBucketing, StreamOptions, SyntheticSource};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_serve::{AdmissionError, QosClass, ServerConfig, StreamServer, TenantSpec};

fn csdt4() -> StreamGridConfig {
    StreamGridConfig::cs_dt(SplitConfig::linear(4, 2))
}

/// A spec on the classification pipeline under the shared test config.
fn cls_spec(name: &str) -> TenantSpec {
    TenantSpec::new(name, AppDomain::Classification.spec(), csdt4())
}

/// Execution options that force the cycle-accurate oracle — per-frame
/// wall times long enough that queues genuinely back up on any host.
fn slow_exec() -> ExecuteOptions {
    ExecuteOptions::for_spec(&AppDomain::Classification.spec())
        .with_exec_mode(ExecMode::CycleAccurate)
}

/// The anchor: one admitted tenant == `Session::stream`, bit for bit —
/// same frames, same per-frame reports, same solve count, same
/// bucketing — across a size-varied replay under quantized buckets.
#[test]
fn single_tenant_is_bit_identical_to_session_stream() {
    let sizes: Vec<u64> = (0..10).map(|i| 1200 + 130 * i).collect();
    let bucketing = SizeBucketing::Quantize(400);

    let mut server = StreamServer::new(ServerConfig::default().with_workers(2));
    server
        .submit(
            cls_spec("solo").with_bucketing(bucketing),
            ReplaySource::new(&sizes),
        )
        .unwrap();
    let report = server.run();

    let mut session = StreamGrid::new(csdt4()).session(AppDomain::Classification.spec());
    let direct = session
        .stream(
            ReplaySource::new(&sizes),
            &StreamOptions::bucketed(bucketing),
        )
        .unwrap();

    assert_eq!(report.tenants.len(), 1);
    assert_eq!(
        report.tenants[0].stream, direct,
        "the serving layer must never change results"
    );
    assert_eq!(report.solver_invocations, direct.solver_invocations);
    assert!(report.all_clean());
    // The SLO side has one executed sample per frame.
    assert_eq!(report.tenants[0].latency.frames, direct.frame_count());
    assert_eq!(report.class(QosClass::Standard).tenants, 1);
}

/// Each solve is charged to the tenant whose compile paid it, and the
/// server's count is the sum of its tenants': the first tenant at a
/// size pays, a later tenant at the same size hits the shared cache.
#[test]
fn each_tenant_reports_the_solves_its_compiles_paid() {
    let mut server = StreamServer::new(ServerConfig::default().with_workers(1));
    for (name, elements) in [("a", 1200), ("b", 1200), ("c", 2400)] {
        server
            .submit(cls_spec(name), SyntheticSource::new(elements, 3))
            .unwrap();
    }
    let report = server.run();

    let solves: Vec<u64> = report
        .tenants
        .iter()
        .map(|t| t.stream.solver_invocations)
        .collect();
    assert_eq!(solves, [1, 0, 1]);
    assert_eq!(report.solver_invocations, 2);
    assert!(report.all_clean());
}

/// Admission control rejects at capacity with the typed error carrying
/// the exact shortfall, and enforces the tenant cap.
#[test]
fn admission_rejects_at_capacity_with_typed_errors() {
    // 10-token pool: a 6-frame tenant fits, the next 6-frame one does
    // not (6 > 4 available).
    let mut server = StreamServer::new(ServerConfig::default().with_workers(1).with_capacity(10));
    server
        .submit(cls_spec("first"), SyntheticSource::new(1200, 6))
        .expect("6 of 10 tokens fit");
    assert_eq!(server.available_tokens(), 4);
    match server.submit(cls_spec("second"), SyntheticSource::new(1200, 6)) {
        Err(AdmissionError::Saturated {
            projected,
            available,
            capacity,
        }) => assert_eq!((projected, available, capacity), (6, 4, 10)),
        other => panic!("expected Saturated, got {other:?}"),
    }
    // A hint-less source is charged the default projection instead.
    struct Opaque(u64);
    impl streamgrid_core::source::FrameSource for Opaque {
        fn next_frame(&mut self) -> Option<streamgrid_core::source::Frame> {
            if self.0 == 0 {
                return None;
            }
            self.0 -= 1;
            Some(streamgrid_core::source::Frame::synthetic(self.0, 1200))
        }
    }
    match server.submit(cls_spec("opaque"), Opaque(1)) {
        Err(AdmissionError::Saturated { projected, .. }) => {
            assert_eq!(
                projected,
                ServerConfig::default().default_projection,
                "an unsized source is charged the default projection"
            );
        }
        other => panic!("expected Saturated for the unsized source, got {other:?}"),
    }
    // But a max_frames bound caps the charge and fits.
    server
        .submit(cls_spec("bounded").with_max_frames(2), Opaque(4))
        .expect("max_frames caps the projection to 2 of 4 free tokens");

    // The tenant cap is its own typed rejection.
    let mut capped = StreamServer::new(ServerConfig::default().with_max_tenants(1));
    capped
        .submit(cls_spec("only"), SyntheticSource::new(1200, 1))
        .unwrap();
    match capped.submit(cls_spec("extra"), SyntheticSource::new(1200, 1)) {
        Err(AdmissionError::TenantLimit { max_tenants }) => assert_eq!(max_tenants, 1),
        other => panic!("expected TenantLimit, got {other:?}"),
    }
    let report = capped.run();
    assert_eq!((report.admitted, report.rejected), (1, 1));
}

/// `submit_queued` waitlists what `submit` would reject, and the
/// scheduler admits FIFO as finishing tenants release tokens — every
/// waitlisted tenant eventually runs to completion.
#[test]
fn waitlisted_tenants_are_admitted_fifo_as_tokens_free() {
    // 4-token pool, 3-token tenants: one runs at a time, four total.
    let mut server = StreamServer::new(ServerConfig::default().with_workers(1).with_capacity(4));
    for i in 0..4 {
        server
            .submit_queued(cls_spec(&format!("t{i}")), SyntheticSource::new(1200, 3))
            .expect("fits the total capacity, so it may wait");
    }
    // A tenant that could never fit is rejected, not deadlocked.
    match server.submit_queued(cls_spec("whale"), SyntheticSource::new(1200, 9)) {
        Err(AdmissionError::Saturated { capacity, .. }) => assert_eq!(capacity, 4),
        other => panic!("expected Saturated for an impossible tenant, got {other:?}"),
    }
    let report = server.run();
    assert_eq!(report.admitted, 4);
    assert_eq!(report.rejected, 1);
    assert_eq!(
        report.queued_admissions, 3,
        "the first tenant fit immediately; the other three waited"
    );
    assert_eq!(report.frame_count(), 12);
    assert!(report.all_clean());
}

/// Backpressure never deadlocks: tiny queues, every class saturated,
/// multiple tenants per class, and waitlisted tenants that only a
/// finishing tenant's released tokens can admit — at queue depths 1, 2
/// and 3 (watermark 0, every pop wakes, the first pop that skips its
/// wake) with 1 to 3 workers. Each run happens on its own thread and
/// must report inside a generous wall budget relative to the same work
/// done directly, so a lost wakeup fails the test instead of hanging
/// it.
#[test]
fn saturated_classes_with_tiny_queues_never_deadlock() {
    let frames = 5u64;
    // The same total work, serverless, as the budget baseline.
    let t0 = Instant::now();
    let mut session = StreamGrid::new(csdt4()).session(AppDomain::Classification.spec());
    session
        .stream(
            SyntheticSource::new(1200, frames),
            &StreamOptions::default(),
        )
        .unwrap();
    let one_direct = t0.elapsed();

    let classes = [
        QosClass::Interactive,
        QosClass::Standard,
        QosClass::Background,
    ];
    // Nine tenants fill the ledger; three more wait until finishing
    // tenants release their tokens.
    let (admitted, waitlisted) = (9, 3);
    let tenants = admitted + waitlisted;
    let budget = one_direct * tenants as u32 * 25 + Duration::from_secs(5);
    for depth in 1..=3 {
        for workers in 1..=3 {
            let mut server = StreamServer::new(
                ServerConfig::default()
                    .with_workers(workers)
                    .with_queue_depth(depth)
                    .with_capacity(admitted as u64 * frames),
            );
            for i in 0..tenants {
                let spec = cls_spec(&format!("t{i}")).with_qos(classes[i % 3]);
                let source = SyntheticSource::new(1200, frames);
                if i < admitted {
                    server.submit(spec, source).unwrap();
                } else {
                    server.submit_queued(spec, source).unwrap();
                }
            }
            let (tx, rx) = std::sync::mpsc::channel();
            // The receiver is gone only once the test failed on its
            // timeout, so a send error needs no handling.
            let runner = std::thread::spawn(move || {
                let _ = tx.send(server.run());
            });
            let report = rx.recv_timeout(budget).unwrap_or_else(|err| {
                panic!(
                    "{tenants} tenants on depth-{depth} queues with {workers} workers gave no \
                     report within {budget:?} (one direct stream: {one_direct:?}; {err}) — a \
                     lost wakeup, a deadlock, or scheduler or condvar thrash"
                )
            });
            runner.join().expect("the server thread sent its report");

            let at = format!("depth {depth}, {workers} workers");
            assert_eq!(report.frame_count(), tenants as u64 * frames, "{at}");
            assert_eq!(report.queued_admissions, waitlisted as u64, "{at}");
            assert!(report.all_clean(), "{at}");
            // No shed deadline or degraded bucketing is configured, and
            // the waitlist admits instead of rejecting.
            assert_eq!(report.rejected, 0, "{at}");
            for class in &report.classes {
                assert_eq!(class.tenants, 4, "{at}");
                assert_eq!(class.latency.frames, 4 * frames, "{at}");
                assert_eq!((class.shed_frames, class.degraded_frames), (0, 0), "{at}");
                let l = &class.latency;
                assert!(
                    l.p50_ms <= l.p95_ms && l.p95_ms <= l.p99_ms && l.p99_ms <= l.max_ms,
                    "{at}, {}: latency percentiles out of order: {l:?}",
                    class.qos.name()
                );
            }
        }
    }
}

/// Weighted-fair isolation: Interactive p95 under full Background
/// saturation stays within a generous bound of Interactive running
/// alone. Background may wait; Interactive must not starve.
#[test]
fn interactive_p95_bounded_under_background_saturation() {
    let exec = slow_exec();
    let run_mix = |background_tenants: usize| {
        let mut server =
            StreamServer::new(ServerConfig::default().with_workers(1).with_queue_depth(2));
        server
            .submit(
                cls_spec("fg")
                    .with_qos(QosClass::Interactive)
                    .with_exec(exec),
                SyntheticSource::new(2400, 8),
            )
            .unwrap();
        for i in 0..background_tenants {
            server
                .submit(
                    cls_spec(&format!("bg{i}"))
                        .with_qos(QosClass::Background)
                        .with_exec(exec),
                    SyntheticSource::new(2400, 6),
                )
                .unwrap();
        }
        server.run()
    };

    let alone = run_mix(0);
    let saturated = run_mix(4);
    let alone_p95 = alone.class(QosClass::Interactive).latency.p95_ms;
    let saturated_p95 = saturated.class(QosClass::Interactive).latency.p95_ms;
    assert!(
        alone_p95 > 0.0,
        "cycle-accurate frames take measurable time"
    );
    assert_eq!(saturated.class(QosClass::Background).tenants, 4);
    assert!(saturated.all_clean());
    // Generous 1-core bound: WFQ gives Interactive 8/9 of dispatches
    // under dual backlog, so its p95 may pay a queue wait but never the
    // Background backlog. 25× + 50 ms absorbs any CI-host noise.
    assert!(
        saturated_p95 <= alone_p95 * 25.0 + 50.0,
        "Interactive p95 {saturated_p95:.3} ms under saturation vs {alone_p95:.3} ms alone \
         — Background is starving the Interactive class"
    );
}

/// A zero shed deadline sheds every Background frame at dispatch —
/// deterministically — while Interactive (never sheddable) executes
/// everything; the accounting splits exactly.
#[test]
fn background_sheds_past_deadline_interactive_never_does() {
    let mut server = StreamServer::new(
        ServerConfig::default()
            .with_workers(1)
            .with_shed_after(Duration::ZERO),
    );
    server
        .submit(
            cls_spec("fg").with_qos(QosClass::Interactive),
            SyntheticSource::new(1200, 4),
        )
        .unwrap();
    server
        .submit(
            cls_spec("bg").with_qos(QosClass::Background),
            SyntheticSource::new(1200, 4),
        )
        .unwrap();
    let report = server.run();

    let fg = &report.tenants[0];
    let bg = &report.tenants[1];
    assert_eq!((fg.shed_frames, fg.stream.frame_count()), (0, 4));
    assert_eq!((bg.shed_frames, bg.stream.frame_count()), (4, 0));
    assert_eq!(report.class(QosClass::Background).shed_frames, 4);
    assert_eq!(report.class(QosClass::Interactive).shed_frames, 0);
    assert_eq!(report.shed_frames(), 4);
    assert!(report.all_clean(), "shed frames are not errors");
}

/// Background-only policy fields on a non-Background tenant are inert
/// and flagged `SG006` on the tenant's report (and aggregated on the
/// server report); clean specs produce clean lint summaries.
#[test]
fn inert_qos_policy_on_non_background_is_flagged_sg006() {
    let mut server = StreamServer::new(ServerConfig::default().with_workers(1));
    // Interactive tenant setting BOTH Background-only knobs: one SG006
    // naming both fields.
    server
        .submit(
            cls_spec("eager")
                .with_qos(QosClass::Interactive)
                .with_shed_after(Duration::ZERO)
                .with_degraded_bucketing(SizeBucketing::Quantize(4800)),
            SyntheticSource::new(1200, 2),
        )
        .unwrap();
    // A clean Standard tenant: no lints.
    server
        .submit(cls_spec("quiet"), SyntheticSource::new(1200, 2))
        .unwrap();
    // A Background tenant with the same knobs: legitimate, no lints.
    server
        .submit(
            cls_spec("bg")
                .with_qos(QosClass::Background)
                .with_degraded_bucketing(SizeBucketing::Quantize(4800)),
            SyntheticSource::new(1200, 2),
        )
        .unwrap();
    let report = server.run();

    let eager = &report.tenants[0];
    assert_eq!(eager.lints.warnings, 1);
    assert_eq!(eager.lints.errors, 0);
    assert!(
        eager.lints.messages[0].contains("SG006")
            && eager.lints.messages[0].contains("shed_after")
            && eager.lints.messages[0].contains("degraded_bucketing"),
        "{:?}",
        eager.lints.messages
    );
    // The zero shed deadline was inert: every Interactive frame ran.
    assert_eq!(eager.shed_frames, 0);
    assert_eq!(eager.stream.frame_count(), 2);
    assert!(eager.is_clean(), "SG006 is a warning, not a failure");

    assert!(report.tenants[1].lints.is_clean());
    assert!(report.tenants[2].lints.is_clean());
    // The server-level summary aggregates the one warning.
    assert_eq!(report.lints.warnings, 1);
    assert_eq!(report.lints.messages.len(), 1);
    assert!(report.all_clean());
}

/// Per-tenant shed/degrade policy on a Background tenant overrides the
/// server-wide config: it takes effect with no server-level policy set
/// at all, and lints stay clean.
#[test]
fn background_tenant_policy_overrides_server_config() {
    // No server-wide shed_after: only the tenant's own zero deadline
    // sheds its frames; the policy-less Background tenant executes all.
    let mut server = StreamServer::new(ServerConfig::default().with_workers(1));
    server
        .submit(
            cls_spec("shedder")
                .with_qos(QosClass::Background)
                .with_shed_after(Duration::ZERO),
            SyntheticSource::new(1200, 4),
        )
        .unwrap();
    server
        .submit(
            cls_spec("keeper").with_qos(QosClass::Background),
            SyntheticSource::new(1200, 4),
        )
        .unwrap();
    let report = server.run();
    let shedder = &report.tenants[0];
    let keeper = &report.tenants[1];
    assert_eq!((shedder.shed_frames, shedder.stream.frame_count()), (4, 0));
    assert_eq!((keeper.shed_frames, keeper.stream.frame_count()), (0, 4));
    assert!(shedder.lints.is_clean(), "Background policy is not SG006");
    assert!(report.lints.is_clean());

    // Per-tenant degraded bucketing with no server-wide one: the
    // pressured Background tenant compiles at its own coarse bucket.
    let exec = slow_exec();
    let mut server = StreamServer::new(ServerConfig::default().with_workers(1).with_queue_depth(2));
    server
        .submit(
            cls_spec("fg")
                .with_qos(QosClass::Interactive)
                .with_exec(exec),
            SyntheticSource::new(1200, 4),
        )
        .unwrap();
    server
        .submit(
            cls_spec("bg")
                .with_qos(QosClass::Background)
                .with_exec(exec)
                .with_degraded_bucketing(SizeBucketing::Quantize(4800)),
            SyntheticSource::new(1200, 8),
        )
        .unwrap();
    let report = server.run();
    let bg = &report.tenants[1];
    assert!(
        bg.degraded_frames >= 1,
        "the tenant's own degraded bucketing must engage under pressure"
    );
    assert!(
        bg.stream
            .frames
            .iter()
            .any(|f| f.scheduled_elements == 4800),
        "degraded frames compile at the tenant's Quantize(4800) bucket"
    );
    assert!(report.lints.is_clean());
}

/// Under queue pressure, Background frames compile under the coarser
/// degraded bucketing (and only Background — Interactive buckets stay
/// exact).
#[test]
fn background_degrades_to_coarser_buckets_under_pressure() {
    let exec = slow_exec();
    let mut server = StreamServer::new(
        ServerConfig::default()
            .with_workers(1)
            .with_queue_depth(2)
            .with_degraded_bucketing(SizeBucketing::Quantize(4800)),
    );
    server
        .submit(
            cls_spec("fg")
                .with_qos(QosClass::Interactive)
                .with_exec(exec),
            SyntheticSource::new(1200, 4),
        )
        .unwrap();
    server
        .submit(
            cls_spec("bg")
                .with_qos(QosClass::Background)
                .with_exec(exec),
            SyntheticSource::new(1200, 8),
        )
        .unwrap();
    let report = server.run();

    let fg = &report.tenants[0];
    let bg = &report.tenants[1];
    assert_eq!(fg.degraded_frames, 0, "Interactive never degrades");
    assert!(
        fg.stream
            .frames
            .iter()
            .all(|f| f.scheduled_elements == f.frame.elements),
        "Interactive buckets stay exact"
    );
    // With one worker on cycle-accurate frames, the Background queue
    // holds a waiting job from the second pull on: later pulls see the
    // half-full queue and degrade.
    assert!(
        bg.degraded_frames >= 1,
        "a saturated depth-2 Background queue must trigger degradation"
    );
    // Degraded frames schedule the coarse bucket, not the exact size.
    assert!(
        bg.stream
            .frames
            .iter()
            .any(|f| f.scheduled_elements == 4800),
        "degraded frames compile at the Quantize(4800) bucket"
    );
    // Interactive pays the exact 1200 bucket; Background hits it, then
    // pays for the degraded Quantize(4800) bucket.
    assert_eq!(fg.stream.solver_invocations, 1);
    assert_eq!(bg.stream.solver_invocations, 1);
    assert_eq!(report.solver_invocations, 2);
    assert!(report.all_clean(), "degraded frames still run clean");
}
