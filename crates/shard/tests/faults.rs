//! Fault-tolerance acceptance for sharded fits: workers that are
//! SIGKILLed, stalled, or fed corrupted frames mid-fit must either
//! surface a *typed* error promptly (no policy) or be survived with a
//! **bitwise identical** result (with a [`FaultPolicy`]) — for every
//! kernel variant, resident and spilled placement, and both recovery
//! strategies. Checkpoint–resume must likewise continue a sharded fit
//! bitwise.

use proptest::prelude::*;
use ptucker::{FitOptions, FitResult, MemoryBudget, PTucker, Variant};
use ptucker_shard::protocol::{self, Message};
use ptucker_shard::{
    worker_loop, Channel, FaultPolicy, Recovery, ShardError, ShardedFit, WorkerSpawn,
    PROTOCOL_VERSION,
};
use ptucker_tensor::SparseTensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// The dedicated worker binary, built alongside this test. Kill faults
/// take the whole process down, so chaos tests need real processes.
fn worker_bin() -> WorkerSpawn {
    WorkerSpawn::Binary(env!("CARGO_BIN_EXE_ptucker-shard-worker").into())
}

fn planted(seed: u64) -> SparseTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    ptucker_datagen::planted_lowrank(&[14, 12, 10], &[2, 2, 2], 700, 0.01, &mut rng).tensor
}

fn base_opts() -> FitOptions {
    FitOptions::new(vec![2, 2, 2])
        .max_iters(3)
        .tol(0.0)
        .threads(2)
        .seed(17)
}

/// Deadlines tight enough that an injected stall is condemned in well
/// under a second, but generous enough that an honestly busy worker on
/// a loaded CI machine is never condemned by accident.
fn policy(recovery: Recovery) -> FaultPolicy {
    FaultPolicy {
        frame_timeout: Duration::from_millis(2_000),
        worker_retries: 2,
        backoff: Duration::from_millis(100),
        recovery,
    }
}

fn assert_bitwise(a: &FitResult, b: &FitResult, tag: &str) {
    assert_eq!(
        a.stats.iterations.len(),
        b.stats.iterations.len(),
        "{tag}: iteration count"
    );
    for (ia, ib) in a.stats.iterations.iter().zip(&b.stats.iterations) {
        assert_eq!(
            ia.reconstruction_error.to_bits(),
            ib.reconstruction_error.to_bits(),
            "{tag}: error at iter {}",
            ia.iter
        );
    }
    assert_eq!(
        a.stats.final_error.to_bits(),
        b.stats.final_error.to_bits(),
        "{tag}: final error"
    );
    for (m, (fa, fb)) in a
        .decomposition
        .factors
        .iter()
        .zip(&b.decomposition.factors)
        .enumerate()
    {
        for (va, vb) in fa.as_slice().iter().zip(fb.as_slice()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "{tag}: factor {m} drift");
        }
    }
    for (va, vb) in a
        .decomposition
        .core
        .values()
        .iter()
        .zip(b.decomposition.core.values())
    {
        assert_eq!(va.to_bits(), vb.to_bits(), "{tag}: core drift");
    }
}

/// Malformed fault specs are rejected before any worker is spawned.
#[test]
fn bad_fault_specs_are_rejected_up_front() {
    let x = planted(90);
    let err = ShardedFit::new(2, worker_bin())
        .inject_fault(0, "sideways:rows:1:drop")
        .fit(&x, base_opts())
        .expect_err("bad point must be rejected");
    assert!(matches!(err, ShardError::Protocol(_)), "got {err}");
    let err = ShardedFit::new(2, worker_bin())
        .inject_fault(7, "send:rows:1:drop")
        .fit(&x, base_opts())
        .expect_err("out-of-range worker must be rejected");
    assert!(
        err.to_string().contains("worker 7"),
        "error must name the worker: {err}"
    );
}

/// A coordinator speaking a future protocol version gets a named
/// version-mismatch error from the worker, not a panic or garbage.
#[test]
fn wrong_protocol_version_is_named_not_panicked() {
    let (ours, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
    let reader = theirs.try_clone().unwrap();
    let worker = std::thread::spawn(move || worker_loop(reader, theirs));
    let mut chan = Channel::new(ours.try_clone().unwrap(), ours);
    protocol::send(
        &mut chan,
        &Message::Hello {
            version: PROTOCOL_VERSION + 1,
            worker_id: 0,
            workers: 1,
        },
    )
    .unwrap();
    let err = worker.join().unwrap().expect_err("worker must refuse");
    match err {
        ShardError::Protocol(msg) => {
            assert!(msg.contains("version mismatch"), "unhelpful error: {msg}")
        }
        other => panic!("expected a protocol error, got {other}"),
    }
}

/// A protocol-v2 coordinator (no squared-residual section in `Rows` /
/// `FactorSync`) is refused at the handshake with the typed
/// version-mismatch error — never a mis-decoded frame later.
#[test]
fn v2_hello_gets_the_typed_version_mismatch() {
    assert_eq!(PROTOCOL_VERSION, 3);
    let (ours, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
    let reader = theirs.try_clone().unwrap();
    let worker = std::thread::spawn(move || worker_loop(reader, theirs));
    let mut chan = Channel::new(ours.try_clone().unwrap(), ours);
    protocol::send(
        &mut chan,
        &Message::Hello {
            version: 2,
            worker_id: 0,
            workers: 1,
        },
    )
    .unwrap();
    match worker.join().unwrap().expect_err("worker must refuse v2") {
        ShardError::Protocol(msg) => assert!(
            msg.contains("version mismatch") && msg.contains("coordinator 2"),
            "unhelpful error: {msg}"
        ),
        other => panic!("expected a protocol error, got {other}"),
    }
}

/// A worker SIGKILLed as mode `N−1`'s sweep begins (its third
/// `ModeStart`: iteration 0, mode 2) never sends that mode's rows or their
/// squared residuals. The coordinator's resweep covers both, so the
/// iteration's folded error — the row-order sum of every row's residual —
/// and the whole fit are bitwise the solo fit's, under both recovery
/// strategies and for Direct and Cache.
#[test]
fn sigkilled_worker_last_mode_residuals_are_recovered_bitwise() {
    let x = planted(98);
    for variant in [Variant::Default, Variant::Cache] {
        let opts = base_opts().variant(variant);
        let solo = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
        for recovery in [Recovery::Reassign, Recovery::Respawn] {
            let tag = format!("{variant:?}/{recovery:?}");
            let out = ShardedFit::new(2, worker_bin())
                .fault_policy(policy(recovery))
                .inject_fault(1, "recv:modestart:3:kill")
                .fit(&x, opts.clone())
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_bitwise(&solo, &out.fit, &tag);
            assert!(
                out.recovered.iter().any(|r| r.contains("worker 1 removed")),
                "{tag}: recovery log must name the death: {:?}",
                out.recovered
            );
        }
    }
}

/// Regression: without a policy, a worker SIGKILLed between receiving
/// `ModeStart` and sending `Rows` must fail the fit *promptly* with a
/// typed, attributed error — the old teardown deadlocked joining the
/// I/O thread against the half-closed pipe.
#[test]
fn sigkilled_worker_without_policy_fails_fast_and_typed() {
    let x = planted(91);
    // The worker SIGKILLs itself upon receiving the 2nd ModeStart —
    // after the handshake, mid-fit, before answering with Rows.
    let err = ShardedFit::new(2, worker_bin())
        .inject_fault(1, "recv:modestart:2:kill")
        .fit(&x, base_opts())
        .expect_err("a dead worker without a policy must fail the fit");
    match &err {
        ShardError::Worker { worker, .. } => assert_eq!(*worker, 1, "wrong worker blamed: {err}"),
        other => panic!("expected an attributed worker error, got {other}"),
    }
}

/// Tentpole acceptance (reassign): a worker SIGKILLed mid-fit is
/// detected, its rows are re-swept by the coordinator and then handed
/// to an adjacent survivor — and the fit is bitwise identical to the
/// undisturbed single-process fit.
#[test]
fn sigkilled_worker_recovers_bitwise_via_reassign() {
    let x = planted(92);
    let opts = base_opts().variant(Variant::Cache);
    let solo = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
    let out = ShardedFit::new(3, worker_bin())
        .fault_policy(policy(Recovery::Reassign))
        .inject_fault(1, "recv:modestart:2:kill")
        .fit(&x, opts)
        .expect("the fit must survive the death");
    assert_bitwise(&solo, &out.fit, "reassign");
    assert!(
        out.recovered.iter().any(|r| r.contains("worker 1 removed")),
        "recovery log must name the death: {:?}",
        out.recovered
    );
    assert!(
        out.recovered.iter().any(|r| r.contains("reassigned")),
        "recovery log must record the reassignment: {:?}",
        out.recovered
    );
}

/// Tentpole acceptance (respawn): the dead worker's replacement is
/// seeded from an in-memory checkpoint at the end of the iteration,
/// rejoins in lockstep, and the fit is bitwise identical. The
/// replacement also reports stats again at the end.
#[test]
fn sigkilled_worker_recovers_bitwise_via_respawn() {
    let x = planted(93);
    let opts = base_opts().variant(Variant::Cache);
    let solo = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
    let out = ShardedFit::new(2, worker_bin())
        .fault_policy(policy(Recovery::Respawn))
        .inject_fault(0, "recv:modestart:2:kill")
        .fit(&x, opts)
        .expect("the fit must survive the death");
    assert_bitwise(&solo, &out.fit, "respawn");
    assert!(
        out.recovered.iter().any(|r| r.contains("respawned")),
        "recovery log must record the respawn: {:?}",
        out.recovered
    );
    assert_eq!(
        out.worker_stats.len(),
        2,
        "the respawned worker must report stats"
    );
}

/// A *hung* worker — alive, pipe open, accepting heartbeats, but not
/// answering — must trip `frame_timeout` and be recovered from, not
/// block the fit forever. The stall is injected as a 60 s delay on the
/// worker's next receive; the policy condemns it in under a second.
#[test]
fn stalled_worker_trips_frame_timeout() {
    let x = planted(94);
    let opts = base_opts();
    let solo = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
    let tight = FaultPolicy {
        frame_timeout: Duration::from_millis(150),
        worker_retries: 1,
        backoff: Duration::ZERO,
        recovery: Recovery::Reassign,
    };
    let out = ShardedFit::new(2, worker_bin())
        .fault_policy(tight)
        .inject_fault(1, "recv:factorsync:2:delay:60000")
        .fit(&x, opts)
        .expect("the fit must survive the stall");
    assert_bitwise(&solo, &out.fit, "stall");
    assert!(
        out.recovered
            .iter()
            .any(|r| r.contains("timed out") && r.contains("worker 1")),
        "recovery log must record the timeout: {:?}",
        out.recovered
    );
}

/// A worker whose `Rows` frame is silently dropped looks identical to a
/// hung worker from the coordinator's side (it even echoes heartbeat
/// probes, since it is alive and blocked on FactorSync) — the bounded
/// revive budget must still condemn it.
#[test]
fn dropped_rows_frame_is_condemned_despite_heartbeat_echoes() {
    let x = planted(95);
    let opts = base_opts();
    let solo = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
    let tight = FaultPolicy {
        frame_timeout: Duration::from_millis(150),
        worker_retries: 1,
        backoff: Duration::ZERO,
        recovery: Recovery::Reassign,
    };
    let out = ShardedFit::new(2, worker_bin())
        .fault_policy(tight)
        .inject_fault(0, "send:rows:3:drop")
        .fit(&x, opts)
        .expect("the fit must survive the dropped frame");
    assert_bitwise(&solo, &out.fit, "dropped-rows");
    assert!(!out.recovered.is_empty(), "the drop must be recovered from");
}

/// A corrupted frame (bit flipped in flight, caught by the checksum)
/// names itself as a transport error and is recovered from like any
/// other death of that worker.
#[test]
fn corrupted_frame_is_recovered_from() {
    let x = planted(96);
    let opts = base_opts();
    let solo = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
    let out = ShardedFit::new(2, worker_bin())
        .fault_policy(policy(Recovery::Reassign))
        .inject_fault(1, "recv:factorsync:2:corrupt")
        .fit(&x, opts)
        .expect("the fit must survive the corruption");
    assert_bitwise(&solo, &out.fit, "corrupt");
    assert!(!out.recovered.is_empty());
}

/// Interrupt a *sharded* fit (checkpoint cadence 1), resume it sharded,
/// and land bitwise on the uninterrupted single-process fit. The
/// workers never see the checkpoint file — they receive the bytes in
/// their plan.
#[test]
fn sharded_checkpoint_resume_is_bitwise() {
    let x = planted(97);
    let dir = std::env::temp_dir().join(format!("ptk-shard-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sharded.ckpt");
    for variant in [Variant::Cache, Variant::Default] {
        let opts = base_opts().max_iters(3).variant(variant);
        let solo = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
        let interrupted = ShardedFit::new(2, worker_bin())
            .fit(
                &x,
                opts.clone()
                    .max_iters(1)
                    .checkpoint_every(1)
                    .checkpoint_path(&path),
            )
            .expect("interrupted run");
        assert_eq!(interrupted.fit.stats.iterations.len(), 1);
        let resumed = ShardedFit::new(2, worker_bin())
            .fit(&x, opts.clone().resume_from(&path))
            .expect("resumed run");
        assert_bitwise(&solo, &resumed.fit, &format!("{variant:?}/sharded-resume"));
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    // Tentpole property: a worker killed at a *random* protocol point,
    // under a random worker count, kernel variant, placement and
    // recovery strategy, leaves the fit bitwise identical to the
    // undisturbed single-process fit. The resident-only Cache variant
    // under the spilling budget is O.O.M. solo, and fails sharded.
    #[test]
    fn sharded_fit_survives_random_worker_death(seed in 0..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = ptucker_datagen::planted_lowrank(&[11, 9, 8], &[2, 2, 2], 350, 0.02, &mut rng).tensor;
        let k = 2 + (seed % 2) as usize; // 2 or 3 workers
        let victim = (seed % k as u64) as u32;
        let variant = [
            Variant::Default,
            Variant::Cache,
            Variant::Approx { truncation_rate: 0.3 },
        ][(seed % 3) as usize];
        let budget = if seed & 1 == 0 {
            MemoryBudget::unlimited()
        } else {
            MemoryBudget::new(1)
        };
        let recovery = if seed & 2 == 0 { Recovery::Reassign } else { Recovery::Respawn };
        // Random kill point: either on receiving a ModeStart or a
        // FactorSync, somewhere in the first two iterations (2 iters ×
        // 3 modes = 6 of each).
        let tag = if seed & 4 == 0 { "modestart" } else { "factorsync" };
        let nth = 1 + (seed >> 8) % 6;
        let opts = FitOptions::new(vec![2, 2, 2])
            .max_iters(3)
            .tol(0.0)
            .threads(2)
            .seed(seed ^ 0xdead)
            .variant(variant)
            .budget(budget);
        let solo = PTucker::new(opts.clone()).unwrap().fit(&x);
        let out = ShardedFit::new(k, worker_bin())
            .fault_policy(policy(recovery))
            .inject_fault(victim, format!("recv:{tag}:{nth}:kill"))
            .fit(&x, opts);
        if variant == Variant::Cache && seed & 1 == 1 {
            prop_assert!(matches!(solo, Err(ptucker::PtuckerError::OutOfMemory(_))));
            prop_assert!(out.is_err(), "the sharded Cache fit must fail");
            return Ok(());
        }
        let solo = solo.unwrap();
        let out =
            out.unwrap_or_else(|e| panic!("K={k} victim={victim} {tag}#{nth} {recovery:?}: {e}"));
        assert_bitwise(
            &solo,
            &out.fit,
            &format!("{variant:?}/K={k}/victim={victim}/{tag}#{nth}/{recovery:?}"),
        );
        prop_assert!(
            !out.recovered.is_empty(),
            "a mid-fit kill must be recovered from"
        );
    }
}
