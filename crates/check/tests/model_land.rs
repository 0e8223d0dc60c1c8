//! Model tests for the engine's one landing path,
//! [`spmv_engine::shard::land`]: the synchronous miss path, background
//! admission flights and snapshot restore all land conversions through
//! it, differing only in their [`Source`] and publish hook. These tests
//! drive the real function under the deterministic scheduler, with the
//! hooks the engine passes.
//!
//! Compiled only under `RUSTFLAGS="--cfg spmv_model_check"`.
#![cfg(spmv_model_check)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use spmv_check::Checker;
use spmv_core::CsrMatrix;
use spmv_engine::shard::{land, Landing, PlanState, PlanTable, ShardedConversions, Source};
use spmv_formats::{FormatKind, LaneProfile};
use spmv_parallel::sync::thread;

const KIND: FormatKind = FormatKind::NaiveCsr;
const CHAIN: [FormatKind; 1] = [FormatKind::NaiveCsr];

fn operand() -> CsrMatrix {
    CsrMatrix::identity(2)
}

fn ready_format() -> Source<'static> {
    Source::Ready(Arc::new(spmv_formats::build_format(KIND, &operand()).unwrap()))
}

/// A synchronous miss (`Engine::serve` under `Admission::Sync`): build
/// from the operand, re-pin the plan in the publication.
fn sync_landing(plans: &PlanTable, conv: &ShardedConversions, leads: &AtomicUsize) {
    plans.insert_pending("m", KIND);
    let csr = operand();
    let source = Source::Build { csr: &csr, chain: &CHAIN, lanes: LaneProfile::scalar() };
    let (_, actual, outcome) = land(conv, "m", KIND, source, |actual| {
        plans.pin("m", actual);
        true
    });
    assert_eq!(actual, KIND);
    if let Landing::Led { .. } = outcome {
        leads.fetch_add(1, Ordering::Relaxed);
    }
}

/// One restore record (`Engine::restore`): claim the plan's build, then
/// land the decoded format with the epoch ticket.
fn restore_landing(plans: &PlanTable, conv: &ShardedConversions, leads: &AtomicUsize) {
    plans.insert_pending("m", KIND);
    let Some((_, epoch)) = plans.try_begin_build("m") else {
        return; // a live admission flight owns the plan: skip
    };
    let (_, actual, outcome) =
        land(conv, "m", KIND, ready_format(), |actual| plans.finish_build("m", epoch, actual));
    assert_eq!(actual, KIND);
    if let Landing::Led { .. } = outcome {
        leads.fetch_add(1, Ordering::Relaxed);
    }
}

/// A synchronous landing races a restore landing of the same cold key
/// and a reader. Whatever the interleaving, exactly one of them builds
/// or publishes, exactly one entry is resident, and the plan ends
/// `Pinned` — a restore that meets the live leader waits for it and
/// re-pins, never leaving the plan in `Building`.
#[test]
fn sync_and_restore_landings_publish_exactly_once() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let plans = Arc::new(PlanTable::new(8, 1));
        let conv = Arc::new(ShardedConversions::new(1 << 20, 1));
        let leads = Arc::new(AtomicUsize::new(0));

        let server = {
            let (p, c, l) = (Arc::clone(&plans), Arc::clone(&conv), Arc::clone(&leads));
            thread::spawn(move || sync_landing(&p, &c, &l))
        };
        let restorer = {
            let (p, c, l) = (Arc::clone(&plans), Arc::clone(&conv), Arc::clone(&leads));
            thread::spawn(move || restore_landing(&p, &c, &l))
        };
        // An assert-free reader widens the explored interleavings.
        let reader = {
            let (p, c) = (Arc::clone(&plans), Arc::clone(&conv));
            thread::spawn(move || {
                let _ = p.get("m");
                let _ = c.peek("m", KIND);
            })
        };
        server.join().unwrap();
        restorer.join().unwrap();
        reader.join().unwrap();

        assert_eq!(leads.load(Ordering::Relaxed), 1, "exactly one build or publish");
        assert_eq!(conv.len(), 1, "exactly one entry resident");
        assert!(conv.bytes_resident() > 0, "byte account tracks the resident entry");
        assert_eq!(plans.get("m"), Some(PlanState::Pinned(KIND)), "plan must land Pinned");
    });
    report.assert_ok();
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}

/// A background admission flight holding an epoch ticket races a
/// `forget` + re-admission of its id. The flight lands through `land`
/// with `finish_build` as its hook and aborts its claim unless the plan
/// landed, as the engine's flight slot does. In every interleaving the
/// successor plan stays untouched and nothing of the forgotten id is
/// resident.
#[test]
fn flight_landing_never_resurrects_a_forgotten_id() {
    let report = Checker::dfs().preemption_bound(None).max_schedules(30_000).check(|| {
        let plans = Arc::new(PlanTable::new(8, 1));
        let conv = Arc::new(ShardedConversions::new(1 << 20, 1));
        plans.insert_pending("m", KIND);
        let (kind, epoch) = plans.try_begin_build("m").expect("pending is claimable");

        let flight = {
            let (p, c) = (Arc::clone(&plans), Arc::clone(&conv));
            thread::spawn(move || {
                let csr = operand();
                let source =
                    Source::Build { csr: &csr, chain: &CHAIN, lanes: LaneProfile::scalar() };
                let mut landed = false;
                land(&c, "m", kind, source, |actual| {
                    landed = p.finish_build("m", epoch, actual);
                    landed
                });
                if !landed {
                    p.abort_build("m", epoch);
                }
            })
        };
        // Forget the id mid-flight, then re-admit it under another plan.
        let forgetter = {
            let (p, c) = (Arc::clone(&plans), Arc::clone(&conv));
            thread::spawn(move || {
                p.remove("m");
                c.forget("m");
                p.insert_pending("m", FormatKind::Coo);
            })
        };
        // An assert-free reader widens the explored interleavings.
        let reader = {
            let (p, c) = (Arc::clone(&plans), Arc::clone(&conv));
            thread::spawn(move || {
                let _ = p.get("m");
                let _ = c.peek("m", KIND);
            })
        };
        flight.join().unwrap();
        forgetter.join().unwrap();
        reader.join().unwrap();

        assert_eq!(
            plans.get("m"),
            Some(PlanState::Pending(FormatKind::Coo)),
            "stale flight landing touched the successor plan"
        );
        assert!(conv.peek("m", KIND).is_none(), "forgotten conversion resurrected by a flight");
        assert!(conv.is_empty(), "nothing of the forgotten id may be resident");
        assert_eq!(conv.bytes_resident(), 0, "forgotten bytes still accounted");
    });
    report.assert_ok();
    assert!(report.schedules >= 1_000, "insufficient exploration: {} schedules", report.schedules);
}
