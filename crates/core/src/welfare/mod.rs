//! Social-welfare evaluation: the objective `U(x)` of Eq. (1).
//!
//! Three levels of generality, matching the paper:
//!
//! * `homogeneous` — all pairs meet at the same rate `μ`; welfare depends
//!   only on replica counts (Eqs. 2–5, both populations, both contact
//!   models);
//! * `heterogeneous` — arbitrary pairwise rate matrix `μ_{m,n}` and full
//!   placement matrix (Lemma 1), used to compute OPT on contact traces.
//!
//! The bridge between the two is the identity
//! `∫₀^∞ e^{−λt} c(t) dt = h(0⁺) − G(λ)` (integration by parts), where
//! `G(λ) = E[h(Y)]`, `Y ~ Exp(λ)` is [`crate::utility::DelayUtility::gain`].
//! Every formula below is expressed through `G`, which keeps the
//! infinite-`h(0⁺)` families (inverse power, neg-log) finite wherever the
//! paper's restriction (dedicated nodes) is respected.

mod heterogeneous;
mod homogeneous;
mod mixed;

pub use heterogeneous::{
    item_welfare_heterogeneous, social_welfare_heterogeneous, ContactRates, HeterogeneousSystem,
};
pub(crate) use homogeneous::welfare_sum;
pub use homogeneous::{
    expected_gain_continuous, expected_gain_pure_p2p, item_gain, social_welfare_homogeneous,
    social_welfare_homogeneous_discrete,
};
pub use mixed::{greedy_homogeneous_mixed, social_welfare_homogeneous_mixed, UtilityCatalog};
