//! Seeded request inputs, their pre-encoded wire frames, and the output
//! checks every reply goes through.

use ibcf_core::spd::{random_spd, SpdKind};
use ibcf_core::verify::reconstruction_error;
use ibcf_core::{potrf_unblocked, Real};
use ibcf_service::codec::{decode_factor_reply, encode_factor_req, K_FACTOR_REQ, K_LARGE_REQ};
use ibcf_service::{Dtype, Outcome, Payload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Byte offset of the request id inside a request frame (after the
/// 4-byte length word and the kind byte).
pub const FRAME_ID_AT: usize = 5;

/// The backward-error tolerance is `BACKWARD_C · n · ε`.
pub const BACKWARD_C: f64 = 4.0;

/// Reply status codes of the wire protocol.
pub const STATUS_FACTOR: u8 = 0;
pub const STATUS_NOT_SPD: u8 = 1;

/// One distinct request input.
pub struct Entry {
    pub n: usize,
    pub dtype: Dtype,
    /// Routed to the task-graph (`FactorizeLarge`) path.
    pub large: bool,
    /// The column at which a planted non-SPD input must fail.
    pub planted: Option<usize>,
    pub payload: Payload,
    /// Complete request frame; the id at [`FRAME_ID_AT`] is patched per
    /// send.
    pub frame: Vec<u8>,
    /// For large inputs: the reference factor and its backward error as
    /// a fraction of the tolerance, so each reply is checked by a bitwise
    /// comparison instead of an O(n³) product.
    pub reference: Option<(Payload, f64)>,
}

/// Every input of one workload.
pub struct Inputs {
    pub entries: Vec<Entry>,
}

/// A 64-bit mix for deriving per-request choices from the seed.
pub fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the full request frame for `payload`.
pub fn request_frame(large: bool, n: usize, payload: &Payload) -> Vec<u8> {
    let body = encode_factor_req(0, n, 0, payload);
    let mut frame = Vec::with_capacity(5 + body.len());
    frame.extend_from_slice(&((body.len() + 1) as u32).to_le_bytes());
    frame.push(if large { K_LARGE_REQ } else { K_FACTOR_REQ });
    frame.extend_from_slice(&body);
    frame
}

fn spd_payload(n: usize, dtype: Dtype, rng: &mut StdRng) -> Payload {
    // Wishart inputs are well conditioned; above n = 64 the Gram product
    // gets costly, and diagonally dominant inputs are just as safe.
    let kind = if n <= 64 {
        SpdKind::Wishart
    } else {
        SpdKind::DiagDominant
    };
    match dtype {
        Dtype::F32 => Payload::F32(random_spd::<f32>(n, kind, rng).into_vec()),
        Dtype::F64 => Payload::F64(random_spd::<f64>(n, kind, rng).into_vec()),
    }
}

/// Makes the pivot at `col` negative: the leading `col × col` block
/// stays SPD, so the factorization must fail exactly at `col`.
fn plant(payload: &mut Payload, n: usize, col: usize) {
    let at = col + col * n;
    match payload {
        Payload::F32(v) => v[at] = -1.0 - v[at].abs(),
        Payload::F64(v) => v[at] = -1.0 - v[at].abs(),
    }
}

fn reference_factor<T: Real>(n: usize, a: &[T]) -> Result<(Vec<T>, f64), String> {
    let mut l = a.to_vec();
    potrf_unblocked(n, &mut l, n).map_err(|e| format!("reference factorization: {e:?}"))?;
    let ratio = reconstruction_error(n, a, &l, n) / tolerance::<T>(n);
    Ok((l, ratio))
}

fn tolerance<T: Real>(n: usize) -> f64 {
    BACKWARD_C * n as f64 * T::epsilon().to_f64()
}

impl Inputs {
    pub fn new() -> Self {
        Inputs {
            entries: Vec::new(),
        }
    }

    /// Adds `count` SPD inputs of `(n, dtype)` (planted at a seeded
    /// column when `planted`) and returns their entry indices.
    pub fn add(
        &mut self,
        seed: u64,
        n: usize,
        dtype: Dtype,
        large: bool,
        planted: bool,
        count: usize,
    ) -> Result<Vec<usize>, String> {
        let key =
            (n as u64) << 8 | (dtype.to_u8() as u64) << 2 | (large as u64) << 1 | planted as u64;
        let mut rng = StdRng::seed_from_u64(mix(seed, key));
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let mut payload = spd_payload(n, dtype, &mut rng);
            let planted = planted.then(|| rng.random_range(0..n));
            if let Some(col) = planted {
                plant(&mut payload, n, col);
            }
            let reference = if large && planted.is_none() {
                Some(match &payload {
                    Payload::F32(a) => {
                        let (l, r) = reference_factor(n, a)?;
                        (Payload::F32(l), r)
                    }
                    Payload::F64(a) => {
                        let (l, r) = reference_factor(n, a)?;
                        (Payload::F64(l), r)
                    }
                })
            } else {
                None
            };
            if let Some((_, ratio)) = &reference {
                if *ratio > 1.0 {
                    return Err(format!(
                        "reference factor of n={n} exceeds the backward-error bound"
                    ));
                }
            }
            out.push(self.entries.len());
            self.entries.push(Entry {
                n,
                dtype,
                large,
                planted,
                frame: request_frame(large, n, &payload),
                payload,
                reference,
            });
        }
        Ok(out)
    }
}

/// A reply as the generator sees it, from either transport.
pub struct ReplyView<'a> {
    pub id: u64,
    pub status: u8,
    pub aux: u32,
    pub body: Body<'a>,
}

/// Where a reply's factor lives.
pub enum Body<'a> {
    /// A raw wire reply body (decoded only when checked numerically).
    Wire(&'a [u8]),
    /// An in-process reply.
    Local(&'a Outcome),
}

/// The verdict on one reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Correct; carries the backward error as a fraction of the
    /// tolerance when it was checked numerically.
    Correct(Option<f64>),
    Wrong,
}

fn lower_equal<T: PartialEq + Copy>(n: usize, a: &[T], b: &[T]) -> bool {
    (0..n).all(|c| a[c * n + c..c * n + n] == b[c * n + c..c * n + n])
}

fn backward_ratio(e: &Entry, factor: &Payload) -> Option<f64> {
    let n = e.n;
    match (&e.payload, factor) {
        (Payload::F32(a), Payload::F32(l)) if l.len() == n * n => {
            if let Some((Payload::F32(r), ratio)) = &e.reference {
                if lower_equal(n, l, r) {
                    return Some(*ratio);
                }
            }
            Some(reconstruction_error(n, a, l, n) / tolerance::<f32>(n))
        }
        (Payload::F64(a), Payload::F64(l)) if l.len() == n * n => {
            if let Some((Payload::F64(r), ratio)) = &e.reference {
                if lower_equal(n, l, r) {
                    return Some(*ratio);
                }
            }
            Some(reconstruction_error(n, a, l, n) / tolerance::<f64>(n))
        }
        _ => None,
    }
}

/// Checks one reply against the input it answers. Planted inputs must
/// come back `NotSpd` at their exact column; every other input must be
/// factored, and when `numeric` its backward error must be within
/// `BACKWARD_C · n · ε`.
pub fn check(e: &Entry, reply: &ReplyView<'_>, numeric: bool) -> Verdict {
    if let Some(col) = e.planted {
        let ok = reply.status == STATUS_NOT_SPD && reply.aux as usize == col;
        return if ok {
            Verdict::Correct(None)
        } else {
            Verdict::Wrong
        };
    }
    if reply.status != STATUS_FACTOR {
        return Verdict::Wrong;
    }
    if !numeric {
        let len = match reply.body {
            Body::Wire(b) => b.len().saturating_sub(14) / e.dtype.elem_bytes(),
            Body::Local(Outcome::Factor(p)) => p.len(),
            Body::Local(_) => 0,
        };
        return if len == e.n * e.n {
            Verdict::Correct(None)
        } else {
            Verdict::Wrong
        };
    }
    let ratio = match reply.body {
        Body::Wire(b) => match decode_factor_reply(b) {
            Ok(r) => match r.outcome {
                Outcome::Factor(p) => backward_ratio(e, &p),
                _ => None,
            },
            Err(_) => None,
        },
        Body::Local(Outcome::Factor(p)) => backward_ratio(e, p),
        Body::Local(_) => None,
    };
    match ratio {
        Some(r) if r <= 1.0 => Verdict::Correct(Some(r)),
        _ => Verdict::Wrong,
    }
}

/// Maps an in-process outcome onto the wire's `(status, aux)` pair.
pub fn status_of(outcome: &Outcome) -> (u8, u32) {
    match outcome {
        Outcome::Factor(_) => (STATUS_FACTOR, 0),
        Outcome::NotSpd { column } => (STATUS_NOT_SPD, *column as u32),
        Outcome::NonFinite { column } => (2, *column as u32),
        Outcome::Rejected(ibcf_service::RejectReason::Backpressure { retry_after_us }) => {
            (5, *retry_after_us)
        }
        Outcome::Rejected(reason) => (3, reason.to_u8() as u32),
        Outcome::WorkerCrashed => (4, 0),
        Outcome::ShardLost => (6, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibcf_service::codec::reply_frame;
    use ibcf_service::FactorReply;

    fn wire(reply: &FactorReply, dtype: Dtype) -> Vec<u8> {
        reply_frame(reply, dtype)[5..].to_vec()
    }

    #[test]
    fn planted_inputs_fail_at_their_column() {
        let mut inputs = Inputs::new();
        let idx = inputs.add(7, 12, Dtype::F64, false, true, 3).unwrap();
        for i in idx {
            let e = &inputs.entries[i];
            let col = e.planted.unwrap();
            let Payload::F64(mut a) = e.payload.clone() else {
                unreachable!()
            };
            let err = potrf_unblocked(12, &mut a, 12).unwrap_err();
            assert_eq!(
                err,
                ibcf_core::CholeskyError::NotPositiveDefinite { column: col }
            );
            let body = wire(
                &FactorReply {
                    id: 1,
                    outcome: Outcome::NotSpd { column: col },
                },
                Dtype::F64,
            );
            let view = ReplyView {
                id: 1,
                status: STATUS_NOT_SPD,
                aux: col as u32,
                body: Body::Wire(&body),
            };
            assert_eq!(check(e, &view, true), Verdict::Correct(None));
            let off_by_one = ReplyView {
                aux: col as u32 + 1,
                ..view
            };
            assert_eq!(check(e, &off_by_one, true), Verdict::Wrong);
        }
    }

    #[test]
    fn a_wrong_factor_fails_the_backward_error_check() {
        let mut inputs = Inputs::new();
        let i = inputs.add(3, 16, Dtype::F32, false, false, 1).unwrap()[0];
        let e = &inputs.entries[i];
        let Payload::F32(a) = &e.payload else {
            unreachable!()
        };
        let (mut l, _) = reference_factor(16, a).unwrap();
        let good = Outcome::Factor(Payload::F32(l.clone()));
        let view = |o| ReplyView {
            id: 0,
            status: STATUS_FACTOR,
            aux: 0,
            body: Body::Local(o),
        };
        assert!(matches!(check(e, &view(&good), true), Verdict::Correct(Some(r)) if r < 1.0));
        l[5] *= 1.001;
        let bad = Outcome::Factor(Payload::F32(l));
        assert_eq!(check(e, &view(&bad), true), Verdict::Wrong);
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        let mut a = Inputs::new();
        let mut b = Inputs::new();
        a.add(11, 8, Dtype::F32, false, true, 4).unwrap();
        b.add(11, 8, Dtype::F32, false, true, 4).unwrap();
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.frame, y.frame);
            assert_eq!(x.planted, y.planted);
        }
    }
}
