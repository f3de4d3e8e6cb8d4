//! The paper's evaluation as data: one [`Figure`] per `figures --fig` id,
//! all of them listed in [`FIGURES`].
//!
//! Most figures plot per-cycle curves of one metric from a few engine runs
//! that differ in one setting. Such a figure is a [`Curves`] value: a CSV
//! stem, a cycle count and a base configuration, and per curve a column
//! name, a protocol, an edit to the base, an optional churn model and the
//! metric read after each cycle (SDM, GDM, unsuccessful-swap % or slice
//! accuracy). One runner turns every such figure into the rows
//! `[cycle, v₁, v₂, …]`. The others — Lemma 4.1, Theorem 5.1, Fig. 4(b)
//! banded over seeds, Fig. 6(b) with its deviation column and the
//! quantile-search baseline — are functions.
//!
//! The ablations vary exactly one parameter the paper fixes (view size
//! 20/10, 10 or 100 slices, the Cyclon substrate, uniform attributes, the
//! `j1` boundary-targeting heuristic, the sliding window, no message loss,
//! within-cycle delivery), so the cost of each choice is measurable in
//! isolation.
//!
//! Every experiment is deterministic given `(scale, seed)`. The `Paper`
//! scale replays the published setup (10⁴ nodes); `Small` and `Tiny` shrink
//! the population for CI and integration tests while preserving every
//! qualitative shape the paper reports.

use crate::table::Table;
use dslice_aggregation::{quantile::exact_quantile, QuantileSearch};
use dslice_analysis as analysis;
use dslice_core::Partition;
use dslice_gossip::SamplerKind;
use dslice_sim::churn::{ChurnModel, ChurnSchedule};
use dslice_sim::Concurrency::{Full, Half};
use dslice_sim::ProtocolKind::{self, Jk, ModJk, Ranking, RankingUniform, SlidingRanking};
use dslice_sim::{
    run_seeds, AttributeDistribution, CorrelatedChurn, Engine, LatencyModel, SimConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use Metric::{Accuracy, Gdm, Sdm, UnsuccessfulSwapPct};

/// Experiment scale: the paper's setup or a shrunken replica.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The published setup: n = 10⁴ (view 20/10, 10 or 100 slices).
    Paper,
    /// n = 2 000 — minutes-level full sweep.
    Small,
    /// n = 300 — seconds-level, used by the integration tests.
    Tiny,
}

impl Scale {
    /// Population size.
    pub fn n(self) -> usize {
        match self {
            Scale::Paper => 10_000,
            Scale::Small => 2_000,
            Scale::Tiny => 300,
        }
    }

    /// Cycles for the ordering experiments (Fig. 4).
    pub fn ordering_cycles(self) -> usize {
        match self {
            Scale::Paper | Scale::Small => 100,
            Scale::Tiny => 80,
        }
    }

    /// Cycles for the ranking experiments (Fig. 6 runs 1 000 cycles).
    pub fn ranking_cycles(self) -> usize {
        match self {
            Scale::Paper => 1_000,
            Scale::Small => 600,
            Scale::Tiny => 200,
        }
    }

    /// Slice count for the 100-slice experiments, kept ≥ ~10 nodes/slice.
    pub fn many_slices(self) -> usize {
        match self {
            Scale::Paper | Scale::Small => 100,
            Scale::Tiny => 20,
        }
    }

    /// The sliding window of Fig. 6(d), in samples: twice the ranking
    /// experiments' cycle count (2 000 at the paper's scale).
    ///
    /// The paper does not state the window size used in Fig. 6(d). The
    /// operative trade-off is drift tracking: a node absorbs ~12 samples per
    /// cycle, so a window of W samples remembers ~W/12 cycles of history and
    /// the estimator's churn-induced lag is bounded by (drift rate)·W/24
    /// instead of growing with the run length. This window spans roughly a
    /// sixth of the run.
    pub fn window(self) -> usize {
        2 * self.ranking_cycles()
    }

    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "paper" | "full" => Some(Scale::Paper),
            "small" => Some(Scale::Small),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }
}

/// The configuration every run starts from: `scale`'s population split
/// into `slices` equal slices, with views of `view_size`.
fn config(scale: Scale, slices: usize, view_size: usize) -> SimConfig {
    SimConfig {
        n: scale.n(),
        view_size,
        partition: Partition::equal(slices).expect("slices > 0"),
        ..SimConfig::default()
    }
}

/// What a [`Curve`] reads from its engine after each cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Metric {
    /// The slice disorder measure (§4.4).
    Sdm,
    /// The global disorder measure (§4.2).
    Gdm,
    /// The percentage of unsuccessful swaps.
    UnsuccessfulSwapPct,
    /// The fraction of nodes that believe their true slice
    /// ([`Engine::accuracy`]).
    Accuracy,
}

/// One column of a [`Curves`] figure: an engine run and what it reads.
#[derive(Clone, Copy, Debug)]
struct Curve {
    /// The column name.
    column: &'static str,
    /// The protocol; a function of the scale, as sliding windows are.
    kind: fn(Scale) -> ProtocolKind,
    /// The run's edit to the figure's base configuration.
    edit: fn(&mut SimConfig),
    /// The churn model driving the run, if any.
    churn: fn(Scale) -> Option<Box<dyn ChurnModel>>,
    /// What the run reads after each cycle.
    metric: Metric,
}

impl Curve {
    /// A churn-free `kind` run on the unedited base, reading `metric`.
    const fn new(column: &'static str, metric: Metric, kind: fn(Scale) -> ProtocolKind) -> Self {
        Curve {
            column,
            kind,
            edit: |_| {},
            churn: |_| None,
            metric,
        }
    }

    const fn edit(self, edit: fn(&mut SimConfig)) -> Self {
        Curve { edit, ..self }
    }

    const fn churn(self, churn: fn(Scale) -> Option<Box<dyn ChurnModel>>) -> Self {
        Curve { churn, ..self }
    }

    /// Runs `cycles` cycles from the edited `cfg`, reading after each.
    fn run(&self, mut cfg: SimConfig, scale: Scale, cycles: usize) -> Vec<f64> {
        (self.edit)(&mut cfg);
        let mut engine = Engine::new(cfg, (self.kind)(scale)).expect("valid config");
        if let Some(model) = (self.churn)(scale) {
            engine = engine.with_churn(model);
        }
        (0..cycles)
            .map(|_| {
                let stats = engine.step();
                match self.metric {
                    Metric::Sdm => stats.sdm,
                    Metric::Gdm => stats.gdm,
                    Metric::UnsuccessfulSwapPct => stats.unsuccessful_swap_pct(),
                    Metric::Accuracy => engine.accuracy(),
                }
            })
            .collect()
    }
}

/// A figure of per-cycle curves: one engine run per curve, each from the
/// same base configuration and seed, written as the rows
/// `[cycle, v₁, v₂, …]`.
#[derive(Clone, Copy, Debug)]
pub struct Curves {
    /// The `--fig` id.
    id: &'static str,
    /// The CSV file stem.
    stem: &'static str,
    /// Cycles per run.
    cycles: fn(Scale) -> usize,
    /// The configuration each curve edits; the seed is the figure's.
    base: fn(Scale) -> SimConfig,
    /// The columns after `cycle`, in order.
    curves: &'static [Curve],
}

impl Curves {
    /// Runs every curve and returns the rows `[cycle, v₁, v₂, …]`.
    fn table(&self, scale: Scale, seed: u64) -> Table {
        let cycles = (self.cycles)(scale);
        let mut base = (self.base)(scale);
        base.seed = seed;
        let runs: Vec<Vec<f64>> = self
            .curves
            .iter()
            .map(|curve| curve.run(base.clone(), scale, cycles))
            .collect();
        let mut columns = vec!["cycle"];
        columns.extend(self.curves.iter().map(|curve| curve.column));
        let mut table = Table::new(self.stem, &columns);
        for i in 0..cycles {
            let values = runs.iter().map(|run| run[i]);
            table.push(std::iter::once((i + 1) as f64).chain(values).collect());
        }
        table
    }
}

/// One figure of the `figures` binary.
#[derive(Clone, Copy, Debug)]
pub enum Figure {
    /// Per-cycle curves.
    Curves(Curves),
    /// A table that a function of the scale and the seed computes, under
    /// its `--fig` id.
    Table(&'static str, fn(Scale, u64) -> Table),
}

impl Figure {
    /// The `--fig` id.
    pub fn id(&self) -> &'static str {
        match self {
            Figure::Curves(curves) => curves.id,
            Figure::Table(id, _) => id,
        }
    }

    /// The figure's table at `scale` and `seed`.
    pub fn table(&self, scale: Scale, seed: u64) -> Table {
        match self {
            Figure::Curves(curves) => curves.table(scale, seed),
            Figure::Table(_, table) => table(scale, seed),
        }
    }
}

/// Every figure, in `figures --fig all` order.
pub const FIGURES: &[Figure] = &[
    FIG4A,
    FIG4B,
    Figure::Table("4b-banded", |scale, seed| {
        fig4b_banded(scale, &[seed, seed + 1, seed + 2])
    }),
    FIG4C,
    FIG4D,
    FIG6A,
    Figure::Table("6b", fig6b),
    FIG6C,
    FIG6D,
    Figure::Table("lemma41", |_, seed| lemma41(seed)),
    Figure::Table("thm51", |_, seed| thm51(seed)),
    ABLATION_SAMPLER,
    ABLATION_DISTRIBUTION,
    ABLATION_VIEW_SIZE,
    ABLATION_SLICE_COUNT,
    ABLATION_LOSS,
    ABLATION_TARGETING,
    ABLATION_SAMPLER_RANKING,
    ABLATION_WINDOW,
    ABLATION_LATENCY,
    Figure::Table("baseline-quantile", baseline_quantile),
];

/// Fig. 6(c)'s churn: a burst correlated with the attribute (0.1% of the
/// lowest-attribute nodes leave and 0.1% join above the maximum, every
/// cycle for the first 200 cycles, or half the run if that is shorter).
fn burst(scale: Scale) -> Option<Box<dyn ChurnModel>> {
    let schedule = ChurnSchedule {
        stop_after: Some(200.min(scale.ranking_cycles() / 2)),
        ..ChurnSchedule::burst()
    };
    Some(Box::new(CorrelatedChurn::new(schedule, 1.0)))
}

/// Fig. 6(d)'s churn: low, regular and attribute-correlated (0.1% every 10
/// cycles, indefinitely).
fn regular(_: Scale) -> Option<Box<dyn ChurnModel>> {
    let schedule = ChurnSchedule::regular();
    Some(Box::new(CorrelatedChurn::new(schedule, 1.0)))
}

/// The sliding-window ranking over the freshest `window` samples.
const fn sliding(window: usize) -> ProtocolKind {
    SlidingRanking { window }
}

/// Fig. 4(a): evolution of GDM and SDM for mod-JK — the GDM reaches 0 while
/// the SDM plateaus at a positive floor (§4.5.1).
///
/// Columns: `cycle, gdm, sdm`.
pub const FIG4A: Figure = Figure::Curves(Curves {
    id: "4a",
    stem: "fig4a",
    cycles: Scale::ordering_cycles,
    base: |s| config(s, s.many_slices(), 20),
    curves: &[
        Curve::new("gdm", Gdm, |_| ModJk),
        Curve::new("sdm", Sdm, |_| ModJk),
    ],
});

/// Fig. 4(b): SDM over time, JK vs mod-JK, 10 equal slices — mod-JK
/// converges significantly faster; both share the same SDM floor (they sort
/// the same multiset of random values).
///
/// Columns: `cycle, sdm_jk, sdm_modjk`.
pub const FIG4B: Figure = Figure::Curves(Curves {
    id: "4b",
    stem: "fig4b",
    cycles: Scale::ordering_cycles,
    base: |s| config(s, 10, 20),
    curves: &[
        Curve::new("sdm_jk", Sdm, |_| Jk),
        Curve::new("sdm_modjk", Sdm, |_| ModJk),
    ],
});

/// Fig. 4(c): percentage of unsuccessful swaps for JK and mod-JK under half
/// and full concurrency — concurrency wastes messages, and mod-JK (which
/// concentrates proposals on the most misplaced nodes) wastes more than JK.
///
/// Columns: `cycle, jk_half, jk_full, modjk_half, modjk_full`.
pub const FIG4C: Figure = Figure::Curves(Curves {
    id: "4c",
    stem: "fig4c",
    cycles: Scale::ordering_cycles,
    base: |s| config(s, 10, 20),
    curves: &[
        Curve::new("jk_half", UnsuccessfulSwapPct, |_| Jk).edit(|c| c.concurrency = Half),
        Curve::new("jk_full", UnsuccessfulSwapPct, |_| Jk).edit(|c| c.concurrency = Full),
        Curve::new("modjk_half", UnsuccessfulSwapPct, |_| ModJk).edit(|c| c.concurrency = Half),
        Curve::new("modjk_full", UnsuccessfulSwapPct, |_| ModJk).edit(|c| c.concurrency = Full),
    ],
});

/// Fig. 4(d): mod-JK convergence, no concurrency vs full concurrency — full
/// concurrency slows convergence only slightly.
///
/// Columns: `cycle, sdm_none, sdm_full`.
pub const FIG4D: Figure = Figure::Curves(Curves {
    id: "4d",
    stem: "fig4d",
    cycles: Scale::ordering_cycles,
    base: |s| config(s, s.many_slices(), 20),
    curves: &[
        Curve::new("sdm_none", Sdm, |_| ModJk),
        Curve::new("sdm_full", Sdm, |_| ModJk).edit(|c| c.concurrency = Full),
    ],
});

/// Fig. 6(a): ranking vs ordering in the static case — the ordering SDM is
/// lower-bounded by the random-value floor while the ranking SDM keeps
/// decreasing.
///
/// Columns: `cycle, sdm_ranking, sdm_ordering`.
pub const FIG6A: Figure = Figure::Curves(Curves {
    id: "6a",
    stem: "fig6a",
    cycles: Scale::ranking_cycles,
    base: |s| config(s, s.many_slices(), 10),
    curves: &[
        Curve::new("sdm_ranking", Sdm, |_| Ranking),
        Curve::new("sdm_ordering", Sdm, |_| ModJk),
    ],
});

/// Fig. 6(b): the ranking algorithm on the idealized uniform sampler vs the
/// Cyclon variant — the two SDM curves nearly coincide (deviation within a
/// few percent).
///
/// Columns: `cycle, sdm_uniform, sdm_views, deviation_pct`.
pub fn fig6b(scale: Scale, seed: u64) -> Table {
    const CURVES: Curves = Curves {
        id: "6b",
        stem: "fig6b",
        cycles: Scale::ranking_cycles,
        base: |s| config(s, s.many_slices(), 10),
        curves: &[
            Curve::new("sdm_uniform", Sdm, |_| Ranking)
                .edit(|c| c.sampler = SamplerKind::UniformOracle),
            Curve::new("sdm_views", Sdm, |_| Ranking),
        ],
    };
    let mut table = CURVES.table(scale, seed);
    table.columns.push("deviation_pct".to_string());
    for row in &mut table.rows {
        let (uniform, views) = (row[1], row[2]);
        row.push(if uniform > 0.0 {
            100.0 * (views - uniform) / uniform
        } else {
            0.0
        });
    }
    table
}

/// Fig. 6(c): a churn burst correlated with the attribute (0.1% of the
/// lowest-attribute nodes leave and 0.1% join above the maximum, every cycle
/// for the first 200 cycles) — after the burst stops, the ranking SDM
/// resumes its decrease while the ordering SDM stays stuck.
///
/// Columns: `cycle, sdm_ranking, sdm_jk`.
pub const FIG6C: Figure = Figure::Curves(Curves {
    id: "6c",
    stem: "fig6c",
    cycles: Scale::ranking_cycles,
    base: |s| config(s, s.many_slices(), 10),
    curves: &[
        Curve::new("sdm_ranking", Sdm, |_| Ranking).churn(burst),
        Curve::new("sdm_jk", Sdm, |_| Jk).churn(burst),
    ],
});

/// Fig. 6(d): low, regular, attribute-correlated churn (0.1% every 10
/// cycles, indefinitely) — the ordering SDM inflects upward early, the
/// ranking SDM much later, and the sliding-window ranking suppresses the
/// increase.
///
/// Columns: `cycle, sdm_ordering, sdm_ranking, sdm_sliding`.
pub const FIG6D: Figure = Figure::Curves(Curves {
    id: "6d",
    stem: "fig6d",
    cycles: Scale::ranking_cycles,
    base: |s| config(s, s.many_slices(), 10),
    curves: &[
        Curve::new("sdm_ordering", Sdm, |_| ModJk).churn(regular),
        Curve::new("sdm_ranking", Sdm, |_| Ranking).churn(regular),
        Curve::new("sdm_sliding", Sdm, |s| sliding(s.window())).churn(regular),
    ],
});

/// Lemma 4.1: Monte-Carlo slice populations vs the Chernoff bound. For each
/// `(n, p, β)` the table reports the bound `2·exp(−β²np/3)`, the empirical
/// probability that `|X − np| ≥ βnp`, and whether the lemma's premise
/// `p ≥ 3·ln(2/ε)/(β²n)` holds at ε = 0.05.
///
/// Columns: `n, p, beta, bound, empirical, premise_ok`.
pub fn lemma41(seed: u64) -> Table {
    lemma41_with(seed, 1_000, &[1_000, 10_000])
}

/// [`lemma41`] with explicit Monte-Carlo budget (used by fast tests).
pub fn lemma41_with(seed: u64, trials: usize, ns: &[usize]) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = Table::new(
        "lemma41",
        &["n", "p", "beta", "bound", "empirical", "premise_ok"],
    );
    for &n in ns {
        for &p in &[0.01f64, 0.05, 0.2] {
            for &beta in &[0.2f64, 0.5, 1.0] {
                let bound = analysis::deviation_probability_bound(beta, n, p);
                let mut hits = 0usize;
                for _ in 0..trials {
                    let x = (0..n).filter(|_| rng.gen::<f64>() < p).count() as f64;
                    if (x - n as f64 * p).abs() >= beta * n as f64 * p {
                        hits += 1;
                    }
                }
                let empirical = hits as f64 / trials as f64;
                let premise = analysis::chernoff::lemma_applies(beta, 0.05, n, p);
                table.push(vec![
                    n as f64,
                    p,
                    beta,
                    bound,
                    empirical,
                    if premise { 1.0 } else { 0.0 },
                ]);
            }
        }
    }
    table
}

/// Theorem 5.1: nodes at decreasing boundary distance `d` sample at the
/// prescribed rate `k = (Z_{α/2}·√(p̂(1−p̂))/d)²` and the table reports the
/// empirical probability of naming the correct slice, which must reach the
/// requested confidence (95%).
///
/// Columns: `d, required_k, empirical_correct, confidence`.
pub fn thm51(seed: u64) -> Table {
    thm51_with(seed, 400, &[0.04, 0.02, 0.01, 0.005])
}

/// [`thm51`] with explicit Monte-Carlo budget (used by fast tests).
pub fn thm51_with(seed: u64, trials: usize, ds: &[f64]) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let alpha = 0.05;
    let mut table = Table::new(
        "thm51",
        &["d", "required_k", "empirical_correct", "confidence"],
    );
    // True rank p placed at distance d inside the slice (0.4, 0.5].
    for &d in ds {
        let p = 0.5 - d; // boundary at 0.5 is the closest
        let k = analysis::required_samples(p, d, alpha) as usize;
        let correct = (0..trials)
            .filter(|_| {
                let hits = (0..k).filter(|_| rng.gen::<f64>() < p).count();
                let p_hat = hits as f64 / k as f64;
                0.4 < p_hat && p_hat <= 0.5
            })
            .count();
        table.push(vec![
            d,
            k as f64,
            correct as f64 / trials as f64,
            1.0 - alpha,
        ]);
    }
    table
}

/// Fig. 4(b) with confidence bands: JK vs mod-JK aggregated over several
/// seeds (mean ± std of the SDM per cycle) — the single-trajectory curves
/// of the paper, made statistically honest.
///
/// Columns: `cycle, jk_mean, jk_std, modjk_mean, modjk_std`.
pub fn fig4b_banded(scale: Scale, seeds: &[u64]) -> Table {
    let cfg = config(scale, 10, 20);
    let run = |kind| {
        run_seeds(&cfg, kind, scale.ordering_cycles(), seeds, || None).expect("valid config")
    };
    let (jk, modjk) = (run(Jk), run(ModJk));
    let mut table = Table::new(
        "fig4b_banded",
        &["cycle", "jk_mean", "jk_std", "modjk_mean", "modjk_std"],
    );
    for (a, b) in jk.cycles.iter().zip(&modjk.cycles) {
        table.push(vec![
            a.cycle as f64,
            a.sdm_mean,
            a.sdm_std,
            b.sdm_mean,
            b.sdm_std,
        ]);
    }
    table
}

/// Ablation: mod-JK running on the Cyclon variant vs Newscast — the §6.2
/// "perspective" question of how the peer-sampling substrate parameterizes
/// convergence.
///
/// Columns: `cycle, sdm_cyclon, sdm_newscast`.
pub const ABLATION_SAMPLER: Figure = Figure::Curves(Curves {
    id: "ablation-sampler",
    stem: "ablation_sampler",
    cycles: Scale::ordering_cycles,
    base: |s| config(s, 10, 20),
    curves: &[
        Curve::new("sdm_cyclon", Sdm, |_| ModJk),
        Curve::new("sdm_newscast", Sdm, |_| ModJk).edit(|c| c.sampler = SamplerKind::Newscast),
    ],
});

/// Ablation: ranking convergence under heavy-tailed (Pareto) vs uniform
/// attribute distributions — slicing is rank-based, so the attribute shape
/// must not matter (§3.2's argument for slices over absolute thresholds).
///
/// Columns: `cycle, sdm_uniform, sdm_pareto`.
pub const ABLATION_DISTRIBUTION: Figure = Figure::Curves(Curves {
    id: "ablation-dist",
    stem: "ablation_distribution",
    cycles: Scale::ranking_cycles,
    base: |s| config(s, s.many_slices(), 10),
    curves: &[
        Curve::new("sdm_uniform", Sdm, |_| Ranking),
        Curve::new("sdm_pareto", Sdm, |_| Ranking).edit(|c| c.distribution = PARETO),
    ],
});

/// The heavy-tailed attribute distribution of the distribution ablation.
const PARETO: AttributeDistribution = AttributeDistribution::Pareto {
    scale: 1.0,
    shape: 1.5,
};

/// View-size ablation: mod-JK with `c ∈ {5, 10, 20, 40}` (the paper fixes
/// c = 20). Larger views see more misplaced candidates per cycle, so
/// convergence accelerates — with diminishing returns that this table makes
/// visible.
///
/// Columns: `cycle, sdm_c5, sdm_c10, sdm_c20, sdm_c40`.
pub const ABLATION_VIEW_SIZE: Figure = Figure::Curves(Curves {
    id: "ablation-view-size",
    stem: "ablation_view_size",
    cycles: Scale::ordering_cycles,
    base: |s| config(s, 10, 20),
    curves: &[
        Curve::new("sdm_c5", Sdm, |_| ModJk).edit(|c| c.view_size = 5),
        Curve::new("sdm_c10", Sdm, |_| ModJk).edit(|c| c.view_size = 10),
        Curve::new("sdm_c20", Sdm, |_| ModJk),
        Curve::new("sdm_c40", Sdm, |_| ModJk).edit(|c| c.view_size = 40),
    ],
});

/// Slice-count ablation: ranking accuracy with `k ∈ {2, 10, 50, 100}`
/// slices. More slices mean tighter boundaries, so per Theorem 5.1 each
/// node needs more samples before its assignment stabilizes: accuracy at a
/// fixed cycle count degrades as `k` grows.
///
/// Columns: `cycle, acc_k2, acc_k10, acc_k50, acc_k100`.
pub const ABLATION_SLICE_COUNT: Figure = Figure::Curves(Curves {
    id: "ablation-slice-count",
    stem: "ablation_slice_count",
    cycles: Scale::ordering_cycles,
    base: |s| config(s, 10, 10),
    curves: &[
        Curve::new("acc_k2", Accuracy, |_| Ranking)
            .edit(|c| c.partition = Partition::equal(2).expect("2 slices")),
        Curve::new("acc_k10", Accuracy, |_| Ranking),
        Curve::new("acc_k50", Accuracy, |_| Ranking)
            .edit(|c| c.partition = Partition::equal(50).expect("50 slices")),
        Curve::new("acc_k100", Accuracy, |_| Ranking)
            .edit(|c| c.partition = Partition::equal(100).expect("100 slices")),
    ],
});

/// Message-loss ablation: both families under `loss ∈ {0, 5%, 20%}`.
/// Ordering exchanges are request/reply (a lost ACK aborts the swap), so
/// loss slows them roughly proportionally; ranking messages are one-way
/// samples, so loss only thins the sample stream.
///
/// Columns: `cycle, modjk_l0, modjk_l5, modjk_l20, ranking_l0, ranking_l5,
/// ranking_l20`.
pub const ABLATION_LOSS: Figure = Figure::Curves(Curves {
    id: "ablation-loss",
    stem: "ablation_loss",
    cycles: Scale::ordering_cycles,
    base: |s| config(s, 10, 20),
    curves: &[
        Curve::new("modjk_l0", Sdm, |_| ModJk),
        Curve::new("modjk_l5", Sdm, |_| ModJk).edit(|c| c.loss_rate = 0.05),
        Curve::new("modjk_l20", Sdm, |_| ModJk).edit(|c| c.loss_rate = 0.20),
        Curve::new("ranking_l0", Sdm, |_| Ranking),
        Curve::new("ranking_l5", Sdm, |_| Ranking).edit(|c| c.loss_rate = 0.05),
        Curve::new("ranking_l20", Sdm, |_| Ranking).edit(|c| c.loss_rate = 0.20),
    ],
});

/// Targeting ablation: the ranking algorithm's `j1` boundary heuristic
/// (Fig. 5 lines 8–10) vs two uniformly random targets. The heuristic
/// shifts samples toward boundary nodes — exactly the nodes Theorem 5.1
/// says need them — so the heuristic's SDM should dominate late in the run.
///
/// Columns: `cycle, sdm_boundary, sdm_uniform_targets`.
pub const ABLATION_TARGETING: Figure = Figure::Curves(Curves {
    id: "ablation-targeting",
    stem: "ablation_targeting",
    cycles: Scale::ranking_cycles,
    base: |s| config(s, s.many_slices(), 10),
    curves: &[
        Curve::new("sdm_boundary", Sdm, |_| Ranking),
        Curve::new("sdm_uniform_targets", Sdm, |_| RankingUniform),
    ],
});

/// Substrate ablation for the ranking algorithm: Cyclon variant vs Newscast
/// vs Lpbcast vs the uniform oracle. Extends Fig. 6(b) (which compares only
/// Cyclon against the oracle) to every sampler in the workspace.
///
/// Columns: `cycle, sdm_cyclon, sdm_newscast, sdm_lpbcast, sdm_oracle`.
pub const ABLATION_SAMPLER_RANKING: Figure = Figure::Curves(Curves {
    id: "ablation-sampler-ranking",
    stem: "ablation_sampler_ranking",
    cycles: Scale::ordering_cycles,
    base: |s| config(s, s.many_slices(), 10),
    curves: &[
        Curve::new("sdm_cyclon", Sdm, |_| Ranking),
        Curve::new("sdm_newscast", Sdm, |_| Ranking).edit(|c| c.sampler = SamplerKind::Newscast),
        Curve::new("sdm_lpbcast", Sdm, |_| Ranking).edit(|c| c.sampler = SamplerKind::Lpbcast),
        Curve::new("sdm_oracle", Sdm, |_| Ranking).edit(|c| c.sampler = SamplerKind::UniformOracle),
    ],
});

/// Window-size ablation: the sliding-window ranking under the Fig. 6(d)
/// regular correlated churn with `W ∈ {w/4, w, 4·w}` samples around the
/// Fig. 6(d) window `w` ([`Scale::window`]). Small windows track drift fastest but
/// are noisy (Theorem 5.1 needs `k` samples for tight estimates); large
/// windows approach the unbounded counter's staleness.
///
/// Columns: `cycle, sdm_small, sdm_medium, sdm_large`.
pub const ABLATION_WINDOW: Figure = Figure::Curves(Curves {
    id: "ablation-window",
    stem: "ablation_window",
    cycles: Scale::ranking_cycles,
    base: |s| config(s, s.many_slices(), 10),
    curves: &[
        Curve::new("sdm_small", Sdm, |s| sliding(s.window() / 4)).churn(regular),
        Curve::new("sdm_medium", Sdm, |s| sliding(s.window())).churn(regular),
        Curve::new("sdm_large", Sdm, |s| sliding(s.window() * 4)).churn(regular),
    ],
});

/// Latency ablation: both families under cross-cycle message delays
/// (uniform 1–4 cycles vs the paper's within-cycle model). Ordering
/// proposals go stale over multi-cycle flight (an extreme §4.5.2), while
/// the ranking family's one-way samples are delay-insensitive: an attribute
/// value is as correct late as it was on time.
///
/// Columns: `cycle, modjk_zero, modjk_lat, ranking_zero, ranking_lat`.
pub const ABLATION_LATENCY: Figure = Figure::Curves(Curves {
    id: "ablation-latency",
    stem: "ablation_latency",
    cycles: Scale::ordering_cycles,
    base: |s| config(s, 10, 20),
    curves: &[
        Curve::new("modjk_zero", Sdm, |_| ModJk),
        Curve::new("modjk_lat", Sdm, |_| ModJk).edit(|c| c.latency = DELAYED),
        Curve::new("ranking_zero", Sdm, |_| Ranking),
        Curve::new("ranking_lat", Sdm, |_| Ranking).edit(|c| c.latency = DELAYED),
    ],
});

/// The latency ablation's delays: uniform over 1–4 cycles.
const DELAYED: LatencyModel = LatencyModel::Uniform { min: 1, max: 4 };

/// Baseline comparison against gossip φ-quantile search (ref \[13\]).
///
/// Slicing with `k` slices defines `k − 1` boundary values; the
/// quantile-search way to locate them is one bisection run per boundary,
/// each probe costing a full averaging epoch. The table reports, per
/// boundary: the probes used, the gossip rounds consumed, and the absolute
/// error of the found value — against the cycles the ranking algorithm
/// needs to bring *every node* to ≥ 95% correct assignment (one number,
/// repeated per row for plotting convenience).
///
/// The point the paper makes in §2, quantified: quantile search answers `k−1`
/// global questions at a cost that *scales with k*, while slicing answers
/// `n` per-node questions at a k-independent gossip cost.
///
/// Columns: `phi, probes, gossip_rounds, abs_error, ranking_cycles_to_95`.
pub fn baseline_quantile(scale: Scale, seed: u64) -> Table {
    let slices = 10usize;
    let n = scale.n().min(2_000); // quantile swarms are O(n) per round

    // A shared attribute population.
    let mut rng = StdRng::seed_from_u64(seed);
    let distribution = AttributeDistribution::default();
    let values: Vec<f64> = (0..n)
        .map(|_| distribution.sample(&mut rng).value())
        .collect();

    // Ranking cost: cycles to 95% correct assignment on the same population
    // size (its cost is independent of which boundary you care about).
    let cfg = SimConfig {
        n,
        seed,
        ..config(scale, slices, 10)
    };
    let mut engine = Engine::new(cfg, Ranking).expect("valid config");
    let mut ranking_cycles = scale.ranking_cycles();
    for cycle in 1..=scale.ranking_cycles() {
        engine.step();
        if engine.accuracy() >= 0.95 {
            ranking_cycles = cycle;
            break;
        }
    }

    let mut table = Table::new(
        "baseline_quantile",
        &[
            "phi",
            "probes",
            "gossip_rounds",
            "abs_error",
            "ranking_cycles_to_95",
        ],
    );
    for b in 1..slices {
        let phi = b as f64 / slices as f64;
        let result = QuantileSearch::new(phi).run(&values, seed ^ b as u64);
        let exact = exact_quantile(&values, phi);
        table.push(vec![
            phi,
            result.probes as f64,
            result.gossip_rounds as f64,
            (result.value - exact).abs(),
            ranking_cycles as f64,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn scale_parameters_are_sane() {
        for s in [Scale::Paper, Scale::Small, Scale::Tiny] {
            assert!(s.n() >= 100);
            assert!(s.ordering_cycles() >= 10);
            assert!(s.ranking_cycles() >= s.ordering_cycles());
            assert!(s.n() / s.many_slices() >= 10, "≥10 nodes per slice");
        }
    }

    #[test]
    fn lemma41_table_bound_holds() {
        let t = lemma41_with(7, 300, &[1_000]);
        let bounds = t.column("bound").unwrap();
        let empirical = t.column("empirical").unwrap();
        for (b, e) in bounds.iter().zip(&empirical) {
            assert!(
                e <= &(b + 0.05),
                "empirical {e} above Chernoff bound {b} (+ MC slack)"
            );
        }
    }

    #[test]
    fn thm51_table_reaches_confidence() {
        let t = thm51_with(11, 150, &[0.04, 0.02]);
        let correct = t.column("empirical_correct").unwrap();
        for c in correct {
            assert!(c >= 0.90, "correct-slice rate {c} below requested band");
        }
    }

    #[test]
    fn view_size_speeds_convergence() {
        let t = ABLATION_VIEW_SIZE.table(Scale::Tiny, 3);
        let c5 = t.column("sdm_c5").unwrap();
        let c40 = t.column("sdm_c40").unwrap();
        // Compare mid-run: bigger views must be ahead.
        let mid = c5.len() / 3;
        assert!(
            c40[mid] < c5[mid],
            "c=40 ({}) should beat c=5 ({}) at cycle {mid}",
            c40[mid],
            c5[mid]
        );
    }

    #[test]
    fn more_slices_is_harder() {
        let t = ABLATION_SLICE_COUNT.table(Scale::Tiny, 5);
        let k2 = t.column("acc_k2").unwrap();
        let k100 = t.column("acc_k100").unwrap();
        let last = k2.len() - 1;
        assert!(
            k2[last] > k100[last],
            "2 slices ({}) must be easier than 100 ({})",
            k2[last],
            k100[last]
        );
    }

    #[test]
    fn loss_degrades_but_does_not_break() {
        let t = ABLATION_LOSS.table(Scale::Tiny, 7);
        let last = t.rows.len() - 1;
        let l0 = t.column("ranking_l0").unwrap();
        let l20 = t.column("ranking_l20").unwrap();
        let first = l0[0].max(l20[0]);
        // Both converge to well below the starting disorder.
        assert!(l0[last] < first / 3.0);
        assert!(l20[last] < first / 3.0, "20% loss must still converge");
    }

    #[test]
    fn latency_hurts_ordering_more_than_ranking() {
        let t = ABLATION_LATENCY.table(Scale::Tiny, 13);
        // Compare total disorder over the run (area under the SDM curve):
        // a single mid-run sample lands after mod-JK has already converged
        // even with latency, where both ratios degenerate to 1.
        let auc = |name: &str| t.column(name).unwrap().iter().sum::<f64>();
        let modjk_slowdown = auc("modjk_lat") / auc("modjk_zero");
        let ranking_slowdown = auc("ranking_lat") / auc("ranking_zero");
        assert!(
            modjk_slowdown > ranking_slowdown,
            "ordering should suffer more from latency: modjk ×{modjk_slowdown:.2} vs ranking ×{ranking_slowdown:.2}"
        );
    }

    #[test]
    fn quantile_baseline_is_costly_and_accurate() {
        let t = baseline_quantile(Scale::Tiny, 11);
        assert_eq!(t.rows.len(), 9, "one row per internal boundary");
        for row in &t.rows {
            let gossip_rounds = row[2];
            assert!(
                gossip_rounds >= 90.0,
                "each boundary costs ≥ 3 epochs of 30 rounds"
            );
        }
        let errors = t.column("abs_error").unwrap();
        let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(mean_err < 0.1, "quantile search should be accurate");
    }
}
