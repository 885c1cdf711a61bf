//! Seeded temporal burstiness for synthetic injection.
//!
//! The steady synthetics in [`crate::patterns`] decide *where* traffic
//! goes; a [`BurstSpec`] decides *when*, by modulating every source's
//! Bernoulli injection probability with a per-(seed, node, cycle) rate
//! factor. The factor process is mean-one, so a bursty sweep offers the
//! same long-run load as the steady one — only the short-run clustering
//! (and therefore the latency tail) changes.
//!
//! Two modulators ride on one common construction:
//!
//! * [`BurstSpec::OnOff`] — the classic two-state ON/OFF source: a node
//!   is ON for a `duty` fraction of time at factor `1/duty`, and OFF
//!   (factor 0) otherwise.
//! * [`BurstSpec::Mmpp`] — a three-state Markov-modulated process in
//!   the MMPP spirit: an idle state (factor 0), a nominal state, and a
//!   burst state at `burstiness ×` the mean, with stationary weights
//!   chosen so the mean factor is exactly 1.
//!
//! **Determinism.** The factor is a *pure function* of
//! `(spec, seed, node, cycle)`, and so is the Bernoulli draw it
//! modulates ([`injection_draw`]): no generator state exists, so every
//! shard draws only for its own nodes, every snapshot splice point
//! resumes the same draws, and one node's draws never depend on another
//! node's rate (counter-based generation; Salmon et al., "Parallel
//! Random Numbers: As Easy as 1, 2, 3", SC'11). The state process is
//! slot-quantized ([`BURST_SLOT_CYCLES`]) and regenerates from the
//! stationary distribution every [`BURST_REGEN_SLOTS`] slots; within a
//! superslot each slot either holds the previous state or jumps to a
//! fresh stationary draw (a jump chain whose invariant distribution is
//! the stationary one by construction, with geometric sojourns of
//! nominal mean [`BurstSpec::sojourn_slots`]). Evaluating the state at
//! an arbitrary cycle therefore replays at most one superslot of
//! per-slot hashes — cheap enough for warm-start resumes and idle
//! fast-forward jumps, and [`BurstState`] caches the per-node factors
//! of the current slot for the engine hot path.
//!
//! **Clamping.** The engine gates injection on
//! `uniform() < rate × factor`; a product above 1 simply fires every
//! cycle, so extreme `rate × burstiness` combinations saturate the ON
//! slots rather than overflowing. This slightly under-delivers the mean
//! at very high offered loads — identically in every engine.

use serde::{Deserialize, Serialize};

/// Cycles per burst slot: the modulation factor is constant within a
/// slot, so burst dwell times are multiples of this quantum.
pub const BURST_SLOT_CYCLES: u64 = 16;

/// Slots per superslot: the state regenerates from the stationary
/// distribution at every superslot boundary, bounding the replay cost
/// of evaluating the state at an arbitrary cycle.
pub const BURST_REGEN_SLOTS: u64 = 32;

/// Nominal mean state sojourn, in slots, of every modulator.
pub const DEFAULT_SOJOURN_SLOTS: f64 = 4.0;

/// A seeded temporal modulation of synthetic injection rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum BurstSpec {
    /// Steady Bernoulli injection: factor 1 everywhere (the default).
    #[default]
    Steady,
    /// Two-state ON/OFF source: ON a `duty ∈ (0, 1]` fraction of slots
    /// at factor `1/duty`, OFF at factor 0.
    OnOff { duty: f64 },
    /// Three-state MMPP-style source: idle (factor 0), nominal, and a
    /// burst state at `peak > 1` times the mean; stationary weights put
    /// `1/(2·peak)` of slots in each of idle and burst, and the nominal
    /// factor is solved so the stationary mean is exactly 1.
    Mmpp { peak: f64 },
}

impl BurstSpec {
    /// ON/OFF spec with peak-to-mean ratio `burstiness ≥ 1` (duty
    /// `1/burstiness`). `1.0` is steady.
    pub fn onoff(burstiness: f64) -> Self {
        assert!(
            burstiness >= 1.0 && burstiness.is_finite(),
            "burstiness must be ≥ 1, got {burstiness}"
        );
        if burstiness == 1.0 {
            return BurstSpec::Steady;
        }
        BurstSpec::OnOff {
            duty: 1.0 / burstiness,
        }
    }

    /// MMPP spec with peak-to-mean ratio `burstiness > 1`. `1.0` is
    /// steady.
    pub fn mmpp(burstiness: f64) -> Self {
        assert!(
            burstiness >= 1.0 && burstiness.is_finite(),
            "burstiness must be ≥ 1, got {burstiness}"
        );
        if burstiness == 1.0 {
            return BurstSpec::Steady;
        }
        BurstSpec::Mmpp { peak: burstiness }
    }

    /// Peak-to-mean ratio of the factor process (1 for steady).
    pub fn burstiness(&self) -> f64 {
        match *self {
            BurstSpec::Steady => 1.0,
            BurstSpec::OnOff { duty } => 1.0 / duty,
            BurstSpec::Mmpp { peak } => peak,
        }
    }

    /// Nominal mean state sojourn in slots: [`DEFAULT_SOJOURN_SLOTS`]
    /// for every modulator (steady never changes state).
    pub fn sojourn_slots(&self) -> f64 {
        match *self {
            BurstSpec::Steady => f64::INFINITY,
            BurstSpec::OnOff { .. } | BurstSpec::Mmpp { .. } => DEFAULT_SOJOURN_SLOTS,
        }
    }

    /// Stable label for tables, JSON records and curve names.
    pub fn name(&self) -> String {
        match *self {
            BurstSpec::Steady => "steady".into(),
            BurstSpec::OnOff { duty } => format!("onoff-b{:.1}", 1.0 / duty),
            BurstSpec::Mmpp { peak } => format!("mmpp-b{peak:.1}"),
        }
    }

    /// Panics on parameters the factor construction cannot represent.
    pub fn validate(&self) {
        match *self {
            BurstSpec::Steady => {}
            BurstSpec::OnOff { duty } => {
                assert!(
                    duty > 0.0 && duty <= 1.0 && duty.is_finite(),
                    "ON/OFF duty must be in (0, 1], got {duty}"
                );
            }
            BurstSpec::Mmpp { peak } => {
                assert!(
                    peak > 1.0 && peak.is_finite(),
                    "MMPP peak must be > 1, got {peak}"
                );
            }
        }
    }

    /// Words folded into plan fingerprints: the discriminant plus the
    /// raw parameter and sojourn bits, so two runs share a snapshot only
    /// when their burst processes are bit-identical.
    pub fn fingerprint_words(&self) -> [u64; 3] {
        let sojourn = DEFAULT_SOJOURN_SLOTS.to_bits();
        match *self {
            BurstSpec::Steady => [0, 0, 0],
            BurstSpec::OnOff { duty } => [1, duty.to_bits(), sojourn],
            BurstSpec::Mmpp { peak } => [2, peak.to_bits(), sojourn],
        }
    }

    /// Stationary draw: maps a uniform `u ∈ [0, 1)` to this spec's rate
    /// factor. The stationary mean is exactly 1 for every spec.
    fn stationary_factor(&self, u: f64) -> f64 {
        match *self {
            BurstSpec::Steady => 1.0,
            BurstSpec::OnOff { duty } => {
                if u < duty {
                    1.0 / duty
                } else {
                    0.0
                }
            }
            BurstSpec::Mmpp { peak } => {
                // π(idle) = π(burst) = 1/(2·peak); the nominal factor m
                // solves π(nominal)·m + π(burst)·peak = 1.
                let tail = 1.0 / (2.0 * peak);
                if u < tail {
                    0.0
                } else if u < 2.0 * tail {
                    peak
                } else {
                    // (1 − peak·tail) / (1 − 2·tail) = 0.5 / (1 − 1/peak)
                    0.5 / (1.0 - 1.0 / peak)
                }
            }
        }
    }

    /// The rate factor of `node` at `cycle` under `seed` — the pure
    /// function both engines and the parity oracle share. Replays at
    /// most one superslot of per-slot jump decisions.
    pub fn factor_at(&self, seed: u64, node: usize, cycle: u64) -> f64 {
        if matches!(self, BurstSpec::Steady) {
            return 1.0;
        }
        let slot = cycle / BURST_SLOT_CYCLES;
        let base = slot - slot % BURST_REGEN_SLOTS;
        let jump_p = 1.0 / self.sojourn_slots();
        let h = slot_hash(seed, node, base);
        let mut factor = self.stationary_factor(unit(h as u32));
        for s in base + 1..=slot {
            let h = slot_hash(seed, node, s);
            // Low half decides whether this slot jumps; high half is the
            // fresh stationary draw when it does.
            if unit(h as u32) < jump_p {
                factor = self.stationary_factor(unit((h >> 32) as u32));
            }
        }
        factor
    }
}

impl std::fmt::Display for BurstSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// The SplitMix64 golden-ratio increment.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Stream tag of the injection draws: folded into the seed so their keys
/// stay apart from the burst process's slot keys under the same seed.
const INJECT_STREAM: u64 = 0x6A09_E667_F3BC_C909;

/// SplitMix64's output finalizer: a bijective 64-bit mixer, the entropy
/// source of every draw in this module.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 over (seed, node, slot) — the per-slot entropy source.
#[inline]
fn slot_hash(seed: u64, node: usize, slot: u64) -> u64 {
    mix64(
        seed.wrapping_mul(GOLDEN)
            .wrapping_add((node as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(slot.wrapping_mul(0x94D0_49BB_1331_11EB)),
    )
}

/// Maps 32 hash bits to a uniform in [0, 1).
#[inline]
fn unit(bits: u32) -> f64 {
    f64::from(bits) / (u32::MAX as f64 + 1.0)
}

/// Maps the top 53 hash bits to a uniform in [0, 1).
#[inline]
fn unit53(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One Bernoulli injection draw of `node` at `cycle` under the workload
/// `seed`: `Some(u)` when the source fires with probability `p`, where
/// `u ∈ [0, 1)` is the uniform that picks the destination; `None`
/// otherwise (always for `p ≤ 0`; always fires for `p ≥ 1`).
///
/// A pure function of its key — the counter-based form of Salmon et al.
/// (SC'11) over SplitMix64. The gate uniform is the finalizer of
/// `(node, cycle)` packed into one counter (node ids fit in 16 bits, so
/// the packing is injective below cycle 2⁴⁸) on a stream chosen by the
/// mixed seed; the destination uniform is one more SplitMix64 step from
/// the gate hash, taken only when the gate fires. Both engines and the
/// parity oracle call this, so injection needs no generator state: it is
/// the same at every shard count and from every snapshot splice point.
#[inline]
pub fn injection_draw(seed: u64, node: usize, cycle: u64, p: f64) -> Option<f64> {
    if p <= 0.0 {
        return None;
    }
    let counter = ((node as u64) << 48) | cycle;
    let gate = mix64(mix64(seed ^ INJECT_STREAM).wrapping_add(counter.wrapping_mul(GOLDEN)));
    if unit53(gate) < p {
        Some(unit53(mix64(gate.wrapping_add(GOLDEN))))
    } else {
        None
    }
}

/// Per-node factor cache for the engine injection loop: factors are
/// constant within a slot, so the cache recomputes only at slot
/// boundaries (and from scratch after an arbitrary jump — a resume or
/// an idle fast-forward — by replaying within the superslot). Pure
/// bookkeeping over [`BurstSpec::factor_at`]; never snapshotted.
#[derive(Debug, Clone)]
pub struct BurstState {
    spec: BurstSpec,
    seed: u64,
    /// Slot the cached factors belong to (`u64::MAX` = not yet filled).
    slot: u64,
    factors: Vec<f64>,
}

impl BurstState {
    /// A cache for `nodes` sources under `spec` and the workload `seed`.
    pub fn new(spec: BurstSpec, seed: u64, nodes: usize) -> Self {
        spec.validate();
        BurstState {
            spec,
            seed,
            slot: u64::MAX,
            factors: vec![1.0; nodes],
        }
    }

    /// A zero-node steady cache — the placeholder for workloads that
    /// never consult burst factors (trace-driven runs).
    pub fn steady() -> Self {
        Self::new(BurstSpec::Steady, 0, 0)
    }

    /// Whether the spec is steady (factors are all 1 forever).
    pub fn is_steady(&self) -> bool {
        matches!(self.spec, BurstSpec::Steady)
    }

    /// Per-node rate factors at `cycle` (refreshed on slot change).
    pub fn factors_at(&mut self, cycle: u64) -> &[f64] {
        if !self.is_steady() {
            let slot = cycle / BURST_SLOT_CYCLES;
            if slot != self.slot {
                for (node, f) in self.factors.iter_mut().enumerate() {
                    *f = self.spec.factor_at(self.seed, node, cycle);
                }
                self.slot = slot;
            }
        }
        &self.factors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_is_identity() {
        let spec = BurstSpec::Steady;
        for c in [0, 7, 1000, u64::MAX / 2] {
            assert_eq!(spec.factor_at(42, 3, c), 1.0);
        }
        assert_eq!(BurstSpec::onoff(1.0), BurstSpec::Steady);
        assert_eq!(BurstSpec::mmpp(1.0), BurstSpec::Steady);
    }

    #[test]
    fn factor_is_pure_and_slot_constant() {
        for spec in [BurstSpec::onoff(4.0), BurstSpec::mmpp(3.0)] {
            for node in [0usize, 17] {
                for slot in [0u64, 5, 31, 32, 100] {
                    let base = slot * BURST_SLOT_CYCLES;
                    let f = spec.factor_at(9, node, base);
                    // Same value at every cycle of the slot, every call.
                    for off in [0, 1, BURST_SLOT_CYCLES - 1] {
                        assert_eq!(spec.factor_at(9, node, base + off), f);
                    }
                }
            }
        }
    }

    #[test]
    fn cache_matches_pure_function_across_jumps() {
        let spec = BurstSpec::mmpp(4.0);
        let mut st = BurstState::new(spec, 77, 5);
        // Forward scan, then an arbitrary jump (resume / fast-forward).
        for cycle in [0u64, 3, 16, 17, 160, 4096, 50, 1_000_000] {
            let cached = st.factors_at(cycle).to_vec();
            for (node, &f) in cached.iter().enumerate() {
                assert_eq!(f, spec.factor_at(77, node, cycle), "node {node} @ {cycle}");
            }
        }
    }

    #[test]
    fn factors_differ_across_nodes_and_seeds() {
        let spec = BurstSpec::onoff(4.0);
        let series = |seed: u64, node: usize| -> Vec<u64> {
            (0..64)
                .map(|s| spec.factor_at(seed, node, s * BURST_SLOT_CYCLES).to_bits())
                .collect()
        };
        assert_ne!(series(1, 0), series(1, 1), "nodes share a phase");
        assert_ne!(series(1, 0), series(2, 0), "seeds share a phase");
    }

    #[test]
    fn long_run_mean_is_one() {
        // The stationary mean is exactly 1; the slot average over many
        // superslots must converge near it for both modulators.
        for spec in [
            BurstSpec::onoff(2.0),
            BurstSpec::onoff(6.0),
            BurstSpec::mmpp(2.0),
            BurstSpec::mmpp(8.0),
        ] {
            let slots = 40_000u64;
            let mean: f64 = (0..slots)
                .map(|s| spec.factor_at(1234, 7, s * BURST_SLOT_CYCLES))
                .sum::<f64>()
                / slots as f64;
            assert!(
                (mean - 1.0).abs() < 0.05,
                "{spec}: long-run mean {mean} drifted from 1"
            );
        }
    }

    #[test]
    fn onoff_takes_exactly_two_levels() {
        let spec = BurstSpec::onoff(4.0);
        for s in 0..200u64 {
            let f = spec.factor_at(5, 0, s * BURST_SLOT_CYCLES);
            assert!(f == 0.0 || (f - 4.0).abs() < 1e-12, "unexpected level {f}");
        }
    }

    #[test]
    fn mmpp_takes_three_levels_with_mean_one() {
        let BurstSpec::Mmpp { peak } = BurstSpec::mmpp(4.0) else {
            panic!("mmpp constructor");
        };
        let spec = BurstSpec::mmpp(4.0);
        let nominal = 0.5 / (1.0 - 1.0 / peak);
        let mut seen = [false; 3];
        for s in 0..400u64 {
            let f = spec.factor_at(5, 0, s * BURST_SLOT_CYCLES);
            if f == 0.0 {
                seen[0] = true;
            } else if (f - nominal).abs() < 1e-12 {
                seen[1] = true;
            } else if (f - peak).abs() < 1e-12 {
                seen[2] = true;
            } else {
                panic!("unexpected level {f}");
            }
        }
        assert_eq!(seen, [true; 3], "all three MMPP states visited");
        // Stationary mean identity: 2·(1/(2p))·p-weighted terms sum to 1.
        let tail = 1.0 / (2.0 * peak);
        assert!((tail * peak + (1.0 - 2.0 * tail) * nominal - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_words_separate_specs() {
        let words: Vec<[u64; 3]> = [
            BurstSpec::Steady,
            BurstSpec::onoff(2.0),
            BurstSpec::onoff(4.0),
            BurstSpec::mmpp(4.0),
        ]
        .iter()
        .map(|s| s.fingerprint_words())
        .collect();
        for i in 0..words.len() {
            for j in i + 1..words.len() {
                assert_ne!(words[i], words[j], "{i} vs {j}");
            }
        }
        // Plan fingerprints, and so v4 snapshot bytes, fold these words:
        // the discriminant, the parameter's bits and the sojourn's
        // (4.0 slots).
        assert_eq!(
            BurstSpec::onoff(4.0).fingerprint_words(),
            [1, 0x3FD0_0000_0000_0000, 0x4010_0000_0000_0000]
        );
        assert_eq!(
            BurstSpec::mmpp(3.0).fingerprint_words(),
            [2, 0x4008_0000_0000_0000, 0x4010_0000_0000_0000]
        );
    }

    #[test]
    #[should_panic(expected = "must be ≥ 1")]
    fn rejects_sub_one_burstiness() {
        let _ = BurstSpec::onoff(0.5);
    }

    /// 10⁶ (node, cycle) keys of one seed.
    fn keys() -> impl Iterator<Item = (usize, u64)> {
        (0..1000usize).flat_map(|node| (0..1000u64).map(move |cycle| (node, cycle)))
    }

    #[test]
    fn injection_gate_fires_at_rate() {
        for p in [0.005, 0.1, 0.5] {
            let n = keys().count() as f64;
            let fired = keys()
                .filter(|&(node, cycle)| injection_draw(21, node, cycle, p).is_some())
                .count() as f64;
            let sigma = (n * p * (1.0 - p)).sqrt();
            assert!(
                (fired - n * p).abs() < 4.0 * sigma,
                "p = {p}: {fired} of {n} fired, expected {} ± {}",
                n * p,
                4.0 * sigma
            );
        }
        assert_eq!(injection_draw(21, 3, 9, 0.0), None);
        assert!(injection_draw(21, 3, 9, 1.0).is_some());
    }

    #[test]
    fn injection_destinations_are_uniform() {
        // At a low gate rate too: the destination must not inherit the
        // gate's bias towards small hashes.
        for p in [0.005, 0.5] {
            let mut buckets = [0f64; 16];
            for (node, cycle) in keys() {
                if let Some(u) = injection_draw(4, node, cycle, p) {
                    assert!((0.0..1.0).contains(&u));
                    buckets[(u * 16.0) as usize] += 1.0;
                }
            }
            let total: f64 = buckets.iter().sum();
            let (mean, sigma) = (total / 16.0, (total * (1.0 / 16.0) * (15.0 / 16.0)).sqrt());
            for (b, &c) in buckets.iter().enumerate() {
                assert!(
                    (c - mean).abs() < 4.0 * sigma,
                    "p = {p}: bucket {b} holds {c}, expected {mean} ± {}",
                    4.0 * sigma
                );
            }
        }
    }

    #[test]
    fn injection_streams_differ_across_seeds_and_nodes() {
        let stream = |seed: u64, node: usize| -> Vec<Option<u64>> {
            (0..256)
                .map(|c| injection_draw(seed, node, c, 0.5).map(f64::to_bits))
                .collect()
        };
        let streams = [
            stream(1, 0),
            stream(1, 1),
            stream(1, 17),
            stream(2, 0),
            stream(2, 1),
        ];
        for i in 0..streams.len() {
            for j in i + 1..streams.len() {
                assert_ne!(streams[i], streams[j], "streams {i} and {j} coincide");
            }
        }
        // Pure: the same key always draws the same value.
        assert_eq!(stream(1, 17), stream(1, 17));
    }
}
