//! Deterministic, seedable fault plans.
//!
//! A [`FaultPlan`] answers one question — "does a transient fault fire
//! at this execution site, and of which kind?" — as a pure function of
//! the plan's seed and the site coordinates. Purity is the point:
//! a failing run replays bit-identically from its seed, per-lane plans
//! fork deterministically from a batch seed, and a plan can be
//! serialized into a job spec and re-evaluated anywhere.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// What a fired fault does to its operation. Every kind preserves the
/// machine-model discipline (slots still fill and clear on schedule),
/// so a faulty program always runs to completion — faults corrupt
/// *data*, never the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A compare-exchange inverts its swap decision: it swaps exactly
    /// when the clean compare-exchange would not (a strictly ordered
    /// pair goes out of order, and an equal pair trades places), so the
    /// minimum lands on the wrong side.
    FlipCompare,
    /// A route message is lost: the receiving transit slot is filled
    /// with a stale copy of the receiver's resident key instead of the
    /// payload (the source slot is still cleared on schedule).
    DropRoute,
    /// A resolve stalls: the arrived value is discarded and the
    /// resident key kept unconditionally.
    StallResolve,
}

impl FaultKind {
    /// All kinds, in declaration order.
    pub const ALL: [FaultKind; 3] = [
        FaultKind::FlipCompare,
        FaultKind::DropRoute,
        FaultKind::StallResolve,
    ];

    /// Stable small code for event payloads (`0` flip, `1` drop,
    /// `2` stall).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            FaultKind::FlipCompare => 0,
            FaultKind::DropRoute => 1,
            FaultKind::StallResolve => 2,
        }
    }

    /// The operation class this kind strikes.
    #[must_use]
    pub fn class(self) -> OpClass {
        match self {
            FaultKind::FlipCompare => OpClass::Compare,
            FaultKind::DropRoute => OpClass::Route,
            FaultKind::StallResolve => OpClass::Resolve,
        }
    }

    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::FlipCompare => "flip-compare",
            FaultKind::DropRoute => "drop-route",
            FaultKind::StallResolve => "stall-resolve",
        }
    }
}

/// Classification of machine operations for fault eligibility — the
/// executor maps its op enum onto this, keeping this crate independent
/// of the executor's types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpClass {
    /// An adjacent compare-exchange.
    Compare,
    /// A one-hop message move.
    Route,
    /// A local resolve of an arrived transit value.
    Resolve,
}

impl OpClass {
    /// The fault kind that strikes this class of operation.
    #[must_use]
    pub fn fault_kind(self) -> FaultKind {
        match self {
            OpClass::Compare => FaultKind::FlipCompare,
            OpClass::Route => FaultKind::DropRoute,
            OpClass::Resolve => FaultKind::StallResolve,
        }
    }
}

/// One execution site: the `op`-th operation of round `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultSite {
    /// Round index within the compiled program.
    pub round: u64,
    /// Operation index within the round.
    pub op: u64,
}

/// Scale of the per-million rate: a site fires iff its hash bucket in
/// `[0, RATE_SCALE)` falls below `rate_per_million`.
const RATE_SCALE: u64 = 1_000_000;

/// A deterministic fault plan: which sites fault, and how.
///
/// Construction picks among three modes:
/// * [`FaultPlan::disabled`] — never fires (zero-cost guard for
///   production paths).
/// * [`FaultPlan::random`] / [`FaultPlan::random_with_kinds`] — every
///   eligible site fires independently with probability
///   `rate_per_million / 1e6`, decided by a seeded hash (the seed is
///   expanded through the vendored `rand` [`StdRng`], so plan streams
///   are as well-mixed as the workspace's other randomness).
/// * [`FaultPlan::single`] — exactly one chosen site fires (the
///   building block for exhaustive single-fault sweeps).
///
/// Fields stay flat (no tuples or arrays) so the derived serde impls
/// cover them with the workspace's vendored stand-in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Mixed seed material (already expanded; 0 is a valid mix).
    mix: u64,
    /// Firing threshold in `[0, RATE_SCALE]`.
    rate_per_million: u64,
    /// Compare-exchange sites eligible for [`FaultKind::FlipCompare`].
    flip_compare: bool,
    /// Move sites eligible for [`FaultKind::DropRoute`].
    drop_route: bool,
    /// Resolve sites eligible for [`FaultKind::StallResolve`].
    stall_resolve: bool,
    /// When set (with `target_kind`), only this exact site fires.
    target_site: Option<FaultSite>,
    /// The kind fired at `target_site`.
    target_kind: Option<FaultKind>,
    enabled: bool,
}

impl FaultPlan {
    /// The plan that never fires. [`FaultPlan::is_enabled`] is `false`,
    /// so executors can skip per-op checks entirely.
    #[must_use]
    pub fn disabled() -> Self {
        FaultPlan {
            mix: 0,
            rate_per_million: 0,
            flip_compare: false,
            drop_route: false,
            stall_resolve: false,
            target_site: None,
            target_kind: None,
            enabled: false,
        }
    }

    /// Random transient faults of every kind at the given rate
    /// (`rate_per_million` faults per million eligible operations).
    #[must_use]
    pub fn random(seed: u64, rate_per_million: u64) -> Self {
        FaultPlan::random_with_kinds(seed, rate_per_million, &FaultKind::ALL)
    }

    /// As [`FaultPlan::random`], restricted to the given kinds — the
    /// fault-matrix axis of experiment E18.
    #[must_use]
    pub fn random_with_kinds(seed: u64, rate_per_million: u64, kinds: &[FaultKind]) -> Self {
        FaultPlan {
            mix: StdRng::seed_from_u64(seed).next_u64(),
            rate_per_million: rate_per_million.min(RATE_SCALE),
            flip_compare: kinds.contains(&FaultKind::FlipCompare),
            drop_route: kinds.contains(&FaultKind::DropRoute),
            stall_resolve: kinds.contains(&FaultKind::StallResolve),
            target_site: None,
            target_kind: None,
            enabled: rate_per_million > 0 && !kinds.is_empty(),
        }
    }

    /// Exactly one fault: `kind` at `site`, nothing else. The site must
    /// hold an operation of the matching class at run time, or nothing
    /// fires.
    #[must_use]
    pub fn single(kind: FaultKind, site: FaultSite) -> Self {
        FaultPlan {
            mix: 0,
            rate_per_million: 0,
            flip_compare: false,
            drop_route: false,
            stall_resolve: false,
            target_site: Some(site),
            target_kind: Some(kind),
            enabled: true,
        }
    }

    /// A per-lane plan derived from this one: same rate and kinds,
    /// independently mixed decisions. Forking is deterministic —
    /// `plan.fork(i)` is the same plan for every evaluation — and
    /// `fork(a)` and `fork(b)` decide independently for `a != b`.
    #[must_use]
    pub fn fork(&self, lane: u64) -> Self {
        let mut forked = self.clone();
        if self.target_site.is_none() {
            forked.mix = StdRng::seed_from_u64(self.mix ^ lane.wrapping_mul(0xA076_1D64_78BD_642F))
                .next_u64();
        }
        forked
    }

    /// `false` iff no site can ever fire — executors use this to take
    /// the unwrapped fast path.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Deterministic seed for an executor's sampled certificate probes
    /// at a retry `attempt` of the segment ending at `boundary`. Derived
    /// from the plan's mix so a replayed run probes the same pairs, and
    /// salted so probe positions never correlate with fault decisions
    /// (which hash the raw mix).
    #[must_use]
    pub fn probe_seed(&self, boundary: u64, attempt: u64) -> u64 {
        site_hash(
            self.mix ^ 0x5851_F42D_4C95_7F2D,
            FaultSite {
                round: boundary,
                op: attempt,
            },
        )
    }

    /// Does a fault fire at `site` for an operation of `class`?
    /// Pure: same plan, same site, same answer. The *transient*
    /// guarantee (each site fires at most once per run) is the
    /// executor's job — it tracks fired sites and consults this only
    /// for fresh ones.
    #[must_use]
    pub fn decide(&self, site: FaultSite, class: OpClass) -> Option<FaultKind> {
        if !self.enabled {
            return None;
        }
        if let (Some(target), Some(kind)) = (self.target_site, self.target_kind) {
            return (target == site && kind.class() == class).then_some(kind);
        }
        let kind = class.fault_kind();
        let eligible = match kind {
            FaultKind::FlipCompare => self.flip_compare,
            FaultKind::DropRoute => self.drop_route,
            FaultKind::StallResolve => self.stall_resolve,
        };
        if !eligible {
            return None;
        }
        (site_hash(self.mix, site) % RATE_SCALE < self.rate_per_million).then_some(kind)
    }
}

/// SplitMix64-style avalanche of the site coordinates into the plan's
/// mix. Full 64-bit diffusion, so the `% RATE_SCALE` bucket is
/// uniform across sites.
fn site_hash(mix: u64, site: FaultSite) -> u64 {
    let mut z = mix
        ^ site.round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ site.op.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites() -> impl Iterator<Item = FaultSite> {
        (0..64u64).flat_map(|round| (0..32u64).map(move |op| FaultSite { round, op }))
    }

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_enabled());
        for site in sites() {
            for class in [OpClass::Compare, OpClass::Route, OpClass::Resolve] {
                assert_eq!(plan.decide(site, class), None);
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::random(7, 100_000);
        let b = FaultPlan::random(7, 100_000);
        let c = FaultPlan::random(8, 100_000);
        let decide_all = |p: &FaultPlan| -> Vec<Option<FaultKind>> {
            sites().map(|s| p.decide(s, OpClass::Compare)).collect()
        };
        assert_eq!(decide_all(&a), decide_all(&b), "same seed, same stream");
        assert_ne!(decide_all(&a), decide_all(&c), "different seed differs");
    }

    #[test]
    fn rate_controls_firing_frequency() {
        // 10% rate over 2048 sites: expect roughly 205 hits; the hash
        // is uniform enough that [100, 320] is a safe deterministic
        // band for this fixed seed.
        let plan = FaultPlan::random(42, 100_000);
        let fired = sites()
            .filter(|&s| plan.decide(s, OpClass::Compare).is_some())
            .count();
        assert!((100..=320).contains(&fired), "fired {fired} of 2048");
        // Rate zero is disabled outright.
        assert!(!FaultPlan::random(42, 0).is_enabled());
        // Rate 1e6 fires everywhere.
        let always = FaultPlan::random(42, RATE_SCALE);
        assert!(sites().all(|s| always.decide(s, OpClass::Route).is_some()));
    }

    #[test]
    fn kind_mask_gates_op_classes() {
        let plan = FaultPlan::random_with_kinds(3, RATE_SCALE, &[FaultKind::DropRoute]);
        let site = FaultSite { round: 1, op: 2 };
        assert_eq!(plan.decide(site, OpClass::Compare), None);
        assert_eq!(plan.decide(site, OpClass::Resolve), None);
        assert_eq!(
            plan.decide(site, OpClass::Route),
            Some(FaultKind::DropRoute)
        );
    }

    #[test]
    fn single_fault_plan_fires_exactly_once() {
        let target = FaultSite { round: 5, op: 3 };
        let plan = FaultPlan::single(FaultKind::FlipCompare, target);
        assert!(plan.is_enabled());
        let fired: Vec<FaultSite> = sites()
            .filter(|&s| plan.decide(s, OpClass::Compare).is_some())
            .collect();
        assert_eq!(fired, vec![target]);
        // Wrong class at the target site: nothing fires.
        assert_eq!(plan.decide(target, OpClass::Route), None);
    }

    #[test]
    fn forked_lanes_decide_independently_but_deterministically() {
        let base = FaultPlan::random(99, 200_000);
        let stream = |p: &FaultPlan| -> Vec<bool> {
            sites()
                .map(|s| p.decide(s, OpClass::Compare).is_some())
                .collect()
        };
        assert_eq!(stream(&base.fork(4)), stream(&base.fork(4)));
        assert_ne!(stream(&base.fork(0)), stream(&base.fork(1)));
        // Single-site plans target the same site in every lane (the
        // sweep semantics exhaustive tests rely on).
        let single = FaultPlan::single(FaultKind::StallResolve, FaultSite { round: 2, op: 0 });
        assert_eq!(single.fork(0), single.fork(17));
    }

    #[test]
    fn kinds_map_to_classes_and_codes() {
        for kind in FaultKind::ALL {
            assert_eq!(kind.class().fault_kind(), kind);
            assert!(!kind.name().is_empty());
        }
        let codes: Vec<u64> = FaultKind::ALL.iter().map(|k| k.code()).collect();
        assert_eq!(codes, vec![0, 1, 2]);
    }

    #[test]
    fn plans_serialize_roundtrip() {
        for plan in [
            FaultPlan::disabled(),
            FaultPlan::random(11, 5_000),
            FaultPlan::single(FaultKind::DropRoute, FaultSite { round: 9, op: 1 }),
        ] {
            let json = serde_json::to_string(&plan).expect("serialize");
            let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, plan);
        }
    }
}
