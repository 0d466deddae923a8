//! Backpressure and admission control over a **live machine**: the
//! sluice's unit tests exercise the policies against a mock layer;
//! these drive them through `libpass` into a real PASS volume, so
//! Block-policy inline drains really commit and rejected submissions
//! really leave no trace in the store.
//!
//! Everything here is deterministic — the typed [`RejectReason`]
//! payloads are asserted exactly, not pattern-matched loosely.

use dpapi::{Attribute, Bundle, DpapiError, Handle, ProvenanceRecord, RejectReason, Value};
use passv2::{LibPass, System};
use sim_os::proc::Pid;
use sluice::{BackpressurePolicy, ClientId, Quota, Sluice, SluiceConfig};

struct Fixture {
    sys: System,
    pid: Pid,
    app: Handle,
}

fn fixture() -> Fixture {
    let mut sys = System::single_volume();
    let pid = sys.spawn("app");
    let app = sys.kernel.pass_mkobj(pid, None).unwrap();
    Fixture { sys, pid, app }
}

/// One single-op disclosure transaction carrying `bytes` of payload
/// via a write-op record (payload bytes are what the byte budgets
/// meter).
fn one_op_txn(app: Handle, bytes: usize) -> dpapi::Txn {
    let mut txn = dpapi::Txn::new();
    if bytes == 0 {
        txn.disclose(
            app,
            Bundle::single(
                app,
                ProvenanceRecord::new(Attribute::Other("TICK".into()), Value::Int(1)),
            ),
        );
    } else {
        txn.write(app, 0, vec![b'x'; bytes], Bundle::new());
    }
    txn
}

/// Reject policy: submissions past the shared op budget fail with the
/// exact typed reason, the queue is untouched by the rejection, and a
/// drain makes room for a resubmit.
#[test]
fn reject_policy_returns_exact_queue_full_error() {
    let mut fx = fixture();
    let mut pipe = Sluice::new(SluiceConfig {
        max_queued_ops: 4,
        coalesce_ops: 100,
        policy: BackpressurePolicy::Reject,
        ..SluiceConfig::default()
    });
    let client = ClientId(7);
    let mut tickets = Vec::new();
    for _ in 0..4 {
        let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
        tickets.push(
            pipe.submit(&mut layer, client, one_op_txn(fx.app, 0))
                .unwrap(),
        );
    }
    assert_eq!(pipe.queue_depth(), 4);

    // The fifth submission is refused, precisely.
    let err = {
        let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
        pipe.submit(&mut layer, client, one_op_txn(fx.app, 0))
            .unwrap_err()
    };
    assert_eq!(
        err,
        DpapiError::Rejected(RejectReason::QueueFullOps {
            queued: 4,
            limit: 4
        })
    );
    // Rejection is side-effect free: nothing drained, nothing dropped.
    assert_eq!(pipe.queue_depth(), 4);
    assert_eq!(pipe.stats().rejected_queue_ops, 1);

    // Draining clears the budget; a resubmit is admitted and commits.
    let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
    assert!(pipe.drain(&mut layer) >= 1);
    let t = pipe
        .submit(&mut layer, client, one_op_txn(fx.app, 0))
        .unwrap();
    pipe.wait(&mut layer, t).unwrap();
    for t in tickets {
        assert!(pipe.take(t).unwrap().is_ok());
    }
}

/// Reject policy, byte budget: the same exactness for payload bytes.
#[test]
fn reject_policy_returns_exact_queue_bytes_error() {
    let mut fx = fixture();
    let mut pipe = Sluice::new(SluiceConfig {
        max_queued_ops: 1024,
        max_queued_bytes: 100,
        coalesce_ops: 100,
        policy: BackpressurePolicy::Reject,
        ..SluiceConfig::default()
    });
    let client = ClientId(1);
    {
        let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
        pipe.submit(&mut layer, client, one_op_txn(fx.app, 80))
            .unwrap();
    }
    let err = {
        let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
        pipe.submit(&mut layer, client, one_op_txn(fx.app, 40))
            .unwrap_err()
    };
    assert_eq!(
        err,
        DpapiError::Rejected(RejectReason::QueueFullBytes {
            queued: 80,
            limit: 100
        })
    );
}

/// Quota exhaustion rejects with the typed per-client error — even
/// under the Block policy — while an unthrottled client sails through.
#[test]
fn quota_exhaustion_is_typed_and_per_client() {
    let mut fx = fixture();
    let mut pipe = Sluice::new(SluiceConfig {
        policy: BackpressurePolicy::Block,
        ..SluiceConfig::default()
    });
    let (alice, bob) = (ClientId(1), ClientId(2));
    pipe.set_quota(
        alice,
        Quota {
            max_ops: 2,
            max_bytes: usize::MAX,
        },
    );
    for _ in 0..2 {
        let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
        pipe.submit(&mut layer, alice, one_op_txn(fx.app, 0))
            .unwrap();
    }
    let err = {
        let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
        pipe.submit(&mut layer, alice, one_op_txn(fx.app, 0))
            .unwrap_err()
    };
    assert_eq!(
        err,
        DpapiError::Rejected(RejectReason::QuotaOps {
            client: 1,
            in_flight: 2,
            limit: 2
        })
    );
    assert_eq!(pipe.stats().rejected_quota_ops, 1);
    assert_eq!(pipe.in_flight_of(alice), (2, 0));

    // Bob is unaffected by Alice's quota.
    let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
    let t = pipe.submit(&mut layer, bob, one_op_txn(fx.app, 0)).unwrap();
    pipe.wait(&mut layer, t).unwrap();
    // Alice's in-flight fell to zero with the drain; she may submit
    // again.
    assert_eq!(pipe.in_flight_of(alice), (0, 0));
    pipe.submit(&mut layer, alice, one_op_txn(fx.app, 0))
        .unwrap();
}

/// Block policy: submissions past the budget never error — they drain
/// frames inline into the live volume, keeping queue memory bounded,
/// and every ticket still resolves.
#[test]
fn block_policy_drains_inline_and_loses_nothing() {
    let mut fx = fixture();
    let mut pipe = Sluice::new(SluiceConfig {
        max_queued_ops: 2,
        coalesce_ops: 100,
        policy: BackpressurePolicy::Block,
        ..SluiceConfig::default()
    });
    let client = ClientId(3);
    let mut tickets = Vec::new();
    for _ in 0..5 {
        let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
        tickets.push(
            pipe.submit(&mut layer, client, one_op_txn(fx.app, 0))
                .unwrap(),
        );
        assert!(pipe.queue_depth() <= 2, "budget held while blocking");
    }
    let stats = pipe.stats();
    assert_eq!(stats.admitted, 5);
    assert!(
        stats.blocked_submits > 0,
        "submissions past the budget drained inline: {stats:?}"
    );
    let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
    pipe.drain(&mut layer);
    for t in tickets {
        let results = pipe.take(t).expect("resolved").expect("committed");
        assert_eq!(results.len(), 1);
    }
}

/// A transaction larger than the whole queue budget can never fit:
/// rejected under Block too, instead of blocking forever.
#[test]
fn oversized_txn_is_rejected_under_block() {
    let mut fx = fixture();
    let mut pipe = Sluice::new(SluiceConfig {
        max_queued_ops: 2,
        policy: BackpressurePolicy::Block,
        ..SluiceConfig::default()
    });
    let mut txn = dpapi::Txn::new();
    for _ in 0..3 {
        txn.disclose(
            fx.app,
            Bundle::single(
                fx.app,
                ProvenanceRecord::new(Attribute::Other("BIG".into()), Value::Int(0)),
            ),
        );
    }
    let mut layer = LibPass::new(&mut fx.sys.kernel, fx.pid);
    let err = pipe.submit(&mut layer, ClientId(0), txn).unwrap_err();
    assert_eq!(
        err,
        DpapiError::Rejected(RejectReason::QueueFullOps {
            queued: 0,
            limit: 2
        })
    );
}
