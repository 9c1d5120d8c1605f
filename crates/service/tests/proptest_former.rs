//! Property tests for the fused (zero-copy) ingest path: for any mix of
//! payloads, dtypes, plan layouts, and ragged tails, [`form_batch`] must
//! produce a **bitwise-identical** packed buffer to a reference oracle
//! that stages payloads into canonical layout, identity-pads, and calls
//! `pack_batch_host` — and factorizing the formed batch must route
//! per-matrix failures to exactly the planted request ids.

use ibcf_core::lane_batch::{LaneOrder, LaneWidth};
use ibcf_core::spd::{random_spd, SpdKind};
use ibcf_core::{factorize_batch_auto_backend, LaneBackend, Real};
use ibcf_kernels::pack_batch_host;
use ibcf_layout::{alloc_batch, AlignedVec, BatchLayout, Canonical, LayoutKind, BUFFER_ALIGN};
use ibcf_service::former::{form_batch, FormedBatch, PackedData};
use ibcf_service::request::{Payload, Pending, ReplySink};
use ibcf_service::{Dtype, EnginePlan, EngineSelector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::time::Instant;

fn plan_of(
    kind_pick: usize,
    chunk_pick: usize,
    order_pick: usize,
    width_pick: usize,
) -> EnginePlan {
    EnginePlan {
        kind: [LayoutKind::Interleaved, LayoutKind::Chunked][kind_pick % 2],
        chunk: [32, 64, 128][chunk_pick % 3],
        order: LaneOrder::ALL[order_pick % 2],
        width: [
            LaneWidth::Auto,
            LaneWidth::W8,
            LaneWidth::W16,
            LaneWidth::W32,
        ][width_pick % 4],
        backend: LaneBackend::Auto,
    }
}

/// `count` requests of dimension `n`; indices in `bad` carry a planted
/// indefinite matrix (−I), everyone else a random SPD one.
fn requests_f32(n: usize, count: usize, bad: &BTreeSet<usize>, seed: u64) -> Vec<Pending> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let m = if bad.contains(&i) {
                (0..n * n)
                    .map(|e| if e % (n + 1) == 0 { -1.0 } else { 0.0 })
                    .collect()
            } else {
                random_spd::<f32>(n, SpdKind::Wishart, &mut rng).into_vec()
            };
            Pending {
                id: 1000 + i as u64,
                n,
                payload: Payload::F32(m),
                enqueued: Instant::now(),
                deadline: None,
                sink: ReplySink::boxed(|_| {}),
            }
        })
        .collect()
}

fn requests_f64(n: usize, count: usize, bad: &BTreeSet<usize>, seed: u64) -> Vec<Pending> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let m = if bad.contains(&i) {
                (0..n * n)
                    .map(|e| if e % (n + 1) == 0 { -1.0 } else { 0.0 })
                    .collect()
            } else {
                random_spd::<f64>(n, SpdKind::Wishart, &mut rng).into_vec()
            };
            Pending {
                id: 1000 + i as u64,
                n,
                payload: Payload::F64(m),
                enqueued: Instant::now(),
                deadline: None,
                sink: ReplySink::boxed(|_| {}),
            }
        })
        .collect()
}

/// The reference pack: stages every payload into a canonical buffer of
/// `batch.slots` matrices, identity-pads the tail, and transcodes the
/// whole batch into `batch.layout` with `pack_batch_host` — one extra
/// full copy relative to the fused scatter.
fn reference_pack<T: Real>(batch: &FormedBatch, elems: impl Fn(&Payload) -> &[T]) -> AlignedVec<T> {
    let n = batch.n;
    let canonical = Canonical::new(n, batch.slots);
    let mut staging = alloc_batch::<T, _>(&canonical);
    for (mat, req) in batch.reqs.iter().enumerate() {
        let base = canonical.addr(mat, 0, 0);
        staging[base..base + n * n].copy_from_slice(elems(&req.payload));
    }
    for mat in batch.reqs.len()..batch.slots {
        let base = canonical.addr(mat, 0, 0);
        for d in 0..n {
            staging[base + d * n + d] = T::ONE;
        }
    }
    pack_batch_host(&canonical, staging.as_slice(), &batch.layout)
}

/// Compares a formed batch with [`reference_pack`] bit for bit, including
/// identity padding and the layout's own padding, and checks the buffer's
/// 128-byte alignment.
fn matches_reference(batch: &FormedBatch) -> Result<(), String> {
    fn same<T: Real + std::fmt::Display>(
        got: &AlignedVec<T>,
        want: &AlignedVec<T>,
        bits: fn(T) -> u64,
    ) -> Result<(), String> {
        if !(got.as_slice().as_ptr() as usize).is_multiple_of(BUFFER_ALIGN) {
            return Err("packed buffer is not 128-byte aligned".into());
        }
        if got.len() != want.len() {
            return Err(format!("length {} vs reference {}", got.len(), want.len()));
        }
        match got
            .iter()
            .zip(want.iter())
            .position(|(&x, &y)| bits(x) != bits(y))
        {
            Some(i) => Err(format!("elem {i}: {} vs reference {}", got[i], want[i])),
            None => Ok(()),
        }
    }
    if batch.layout.batch() != batch.slots {
        return Err(format!(
            "layout holds {} matrices, slots {}",
            batch.layout.batch(),
            batch.slots
        ));
    }
    match &batch.data {
        PackedData::F32(got) => same(
            got,
            &reference_pack::<f32>(batch, |p| match p {
                Payload::F32(v) => v,
                Payload::F64(_) => unreachable!(),
            }),
            |x| x.to_bits().into(),
        ),
        PackedData::F64(got) => same(
            got,
            &reference_pack::<f64>(batch, |p| match p {
                Payload::F64(v) => v,
                Payload::F32(_) => unreachable!(),
            }),
            f64::to_bits,
        ),
    }
}

#[test]
fn heuristic_plans_match_the_reference_pack() {
    // Fixed cases under the serving selector's own plans: a single
    // request, ragged tails, and a count that fills whole lane groups.
    for (n, count) in [(4usize, 1usize), (8, 19), (16, 33), (5, 64)] {
        let plan = EngineSelector::heuristic().plan(n);
        let none = BTreeSet::new();
        let batch = form_batch(n, Dtype::F32, requests_f32(n, count, &none, 7), plan);
        assert_eq!(batch.slots % plan.lanes::<f32>(), 0, "n={n} count={count}");
        if let Err(e) = matches_reference(&batch) {
            panic!("n={n} count={count}: {e}");
        }
    }
}

fn params() -> impl Strategy<Value = (usize, usize, usize, usize, usize, usize, u64)> {
    (
        1usize..=12,  // n
        1usize..=80,  // count (ragged tails almost always)
        0usize..2,    // layout kind pick
        0usize..3,    // chunk pick
        0usize..2,    // order pick
        0usize..4,    // width pick
        any::<u64>(), // seed
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fused ingest path produces the reference pack's buffer bit for
    /// bit — same slot count, same bits in every element including
    /// identity padding and the layout's own padding — for both dtypes.
    #[test]
    fn fused_ingest_is_bitwise_identical_to_reference_pack(
        (n, count, k, c, o, w, seed) in params(),
        f64_pick in any::<bool>(),
    ) {
        let plan = plan_of(k, c, o, w);
        let bad = BTreeSet::new();
        let batch = if f64_pick {
            form_batch(n, Dtype::F64, requests_f64(n, count, &bad, seed), plan)
        } else {
            form_batch(n, Dtype::F32, requests_f32(n, count, &bad, seed), plan)
        };
        let checked = matches_reference(&batch);
        prop_assert!(checked.is_ok(), "n={} count={}: {:?}", n, count, checked);
    }

    /// Factorizing a formed batch reports failures on exactly the planted
    /// request ids: non-SPD payloads route to their own requests, and
    /// padding slots never fail.
    #[test]
    fn fused_ingest_routes_failures_to_planted_ids(
        (n, count, k, c, o, w, seed) in params(),
        bad_mask in any::<u64>(),
    ) {
        let plan = plan_of(k, c, o, w);
        // Up to 8 planted failures at pseudo-random request indices.
        let bad: BTreeSet<usize> = (0..8)
            .map(|i| (bad_mask.rotate_left(8 * i) & 0xff) as usize % count)
            .take_while(|_| bad_mask != 0)
            .collect();
        let batch = form_batch(n, Dtype::F32, requests_f32(n, count, &bad, seed), plan);
        let mut data = match batch.data {
            PackedData::F32(v) => v,
            _ => unreachable!(),
        };
        let report = factorize_batch_auto_backend(
            &batch.layout,
            data.as_mut_slice(),
            plan.order,
            plan.width,
            plan.backend,
        );
        // Map failed matrix slots onto request ids, exactly as the
        // worker's reply routing does.
        let mut failed_ids: Vec<u64> = Vec::new();
        for &(mat, _) in &report.failures {
            prop_assert!(mat < batch.reqs.len(), "padding slot {} failed", mat);
            failed_ids.push(batch.reqs[mat].id);
        }
        let want: Vec<u64> = bad.iter().map(|&i| 1000 + i as u64).collect();
        prop_assert_eq!(&failed_ids, &want);
    }
}
