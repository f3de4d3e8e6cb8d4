//! Integration: every figure pipeline runs end-to-end at Tiny scale and
//! reproduces the paper's qualitative shape.
//!
//! These tests exercise exactly the code the `figures` binary runs, so a
//! green run here means `cargo run -p dslice_bench --bin figures` will
//! produce meaningful CSVs. Each table is also pinned by the FNV-1a-64 of
//! its CSV bytes at Tiny scale, so a change to the harness that moves a
//! single byte of a figure fails here.

use dslice_bench::experiments::{self, Scale};
use dslice_bench::Table;
use dslice_core::digest::fnv1a64;

const SEED: u64 = 0xF16;

/// FNV-1a-64 of the table's CSV bytes, exactly as `figures` writes them.
fn csv_digest(t: &Table) -> u64 {
    let mut csv = Vec::new();
    t.write_csv(&mut csv).expect("writing to a Vec cannot fail");
    fnv1a64(csv)
}

fn column(t: &Table, name: &str) -> Vec<f64> {
    t.column(name)
        .unwrap_or_else(|| panic!("table {} lacks column {name}", t.name))
}

#[test]
fn fig4a_gdm_hits_zero_sdm_plateaus_positive() {
    let t = experiments::FIG4A.table(Scale::Tiny, SEED);
    assert_eq!(csv_digest(&t), 0xfe19_45fe_8b71_2223);
    let gdm = column(&t, "gdm");
    let sdm = column(&t, "sdm");
    assert_eq!(*gdm.last().unwrap(), 0.0, "GDM must reach 0");
    assert!(
        *sdm.last().unwrap() > 0.0,
        "SDM floor must be positive (random-value inaccuracy, §4.4)"
    );
    assert!(
        sdm.last().unwrap() < &sdm[0],
        "SDM still improved massively"
    );
}

#[test]
fn fig4b_modjk_faster_than_jk() {
    let t = experiments::FIG4B.table(Scale::Tiny, SEED);
    assert_eq!(csv_digest(&t), 0xe729_9861_61dc_17a6);
    let jk: f64 = column(&t, "sdm_jk").iter().sum();
    let modjk: f64 = column(&t, "sdm_modjk").iter().sum();
    assert!(modjk < jk, "mod-JK AUC {modjk} must beat JK {jk}");
}

#[test]
fn fig4c_concurrency_wastes_messages_modjk_most() {
    let t = experiments::FIG4C.table(Scale::Tiny, SEED);
    assert_eq!(csv_digest(&t), 0x3dff_f493_d885_48db);
    // Average over the first eighth of the run: that is the active phase
    // where swaps are still being proposed. Once mod-JK converges (which it
    // does first, and faster still under the schedule-driven membership
    // phase) its unsuccessful-swap rate collapses to zero, so a longer
    // average would dilute exactly the effect the figure shows.
    let window = t.rows.len() / 8;
    let avg = |name: &str| {
        let v = column(&t, name);
        v[..window].iter().sum::<f64>() / window as f64
    };
    let jk_half = avg("jk_half");
    let jk_full = avg("jk_full");
    let _modjk_half = avg("modjk_half");
    let modjk_full = avg("modjk_full");
    assert!(jk_full > 0.0 && modjk_full > 0.0);
    assert!(
        jk_full > jk_half * 0.8,
        "full ≥ half for JK: {jk_full} vs {jk_half}"
    );
    assert!(
        modjk_full > jk_full,
        "mod-JK wastes more than JK under full concurrency: {modjk_full} vs {jk_full}"
    );
}

#[test]
fn fig4d_full_concurrency_only_slightly_slower() {
    let t = experiments::FIG4D.table(Scale::Tiny, SEED);
    assert_eq!(csv_digest(&t), 0x238a_3255_30a7_97d1);
    let none: f64 = column(&t, "sdm_none").iter().sum();
    let full: f64 = column(&t, "sdm_full").iter().sum();
    assert!(
        full < none * 2.5,
        "full-concurrency AUC {full} vs atomic {none}: impact must stay slight"
    );
    let last = *column(&t, "sdm_full").last().unwrap();
    let first = column(&t, "sdm_full")[0];
    assert!(last < first / 3.0, "still converges under full concurrency");
}

#[test]
fn fig6a_ranking_passes_below_ordering() {
    let t = experiments::FIG6A.table(Scale::Tiny, SEED);
    assert_eq!(csv_digest(&t), 0x0a1c_c99c_1ac0_176b);
    let ranking = column(&t, "sdm_ranking");
    let ordering = column(&t, "sdm_ordering");
    assert!(
        ranking.last().unwrap() < ordering.last().unwrap(),
        "ranking must end below the ordering floor: {} vs {}",
        ranking.last().unwrap(),
        ordering.last().unwrap()
    );
}

#[test]
fn fig6b_views_track_the_uniform_oracle() {
    let t = experiments::fig6b(Scale::Tiny, SEED);
    assert_eq!(csv_digest(&t), 0x9432_9abc_e0f9_c230);
    let uniform = column(&t, "sdm_uniform");
    let views = column(&t, "sdm_views");
    // Compare converged tails.
    let tail = |v: &[f64]| {
        let t = &v[v.len() - 20..];
        t.iter().sum::<f64>() / t.len() as f64
    };
    let u = tail(&uniform);
    let v = tail(&views);
    assert!(
        (u - v).abs() <= u.max(v) * 0.6 + 5.0,
        "substrates must agree: uniform {u:.1} vs views {v:.1}"
    );
}

#[test]
fn fig6c_ranking_recovers_ordering_does_not() {
    let t = experiments::FIG6C.table(Scale::Tiny, SEED);
    assert_eq!(csv_digest(&t), 0x630b_0aca_c2ef_d02b);
    let ranking = column(&t, "sdm_ranking");
    let jk = column(&t, "sdm_jk");
    // Burst covers the first half; afterwards ranking decreases, JK stays
    // stuck above it.
    let half = ranking.len() / 2;
    assert!(
        ranking.last().unwrap() < &ranking[half],
        "ranking must keep dropping after the burst"
    );
    assert!(
        jk.last().unwrap() > ranking.last().unwrap(),
        "JK must end above ranking after correlated churn: {} vs {}",
        jk.last().unwrap(),
        ranking.last().unwrap()
    );
}

#[test]
fn fig6d_sliding_window_contains_churn() {
    let t = experiments::FIG6D.table(Scale::Tiny, SEED);
    assert_eq!(csv_digest(&t), 0xa047_224e_6bda_5ce4);
    let ordering = column(&t, "sdm_ordering");
    let sliding = column(&t, "sdm_sliding");
    let tail = |v: &[f64]| {
        let t = &v[v.len() - 20..];
        t.iter().sum::<f64>() / t.len() as f64
    };
    assert!(
        tail(&sliding) < tail(&ordering),
        "sliding-window tail {} must sit below the ordering tail {}",
        tail(&sliding),
        tail(&ordering)
    );
}

#[test]
fn lemma41_and_thm51_tables_are_well_formed() {
    let l = experiments::lemma41_with(SEED, 200, &[1_000]);
    assert_eq!(csv_digest(&l), 0xebf1_dce7_2071_4788);
    assert!(!l.rows.is_empty());
    for (b, e) in column(&l, "bound").iter().zip(column(&l, "empirical")) {
        assert!(e <= b + 0.06, "empirical {e} above bound {b}");
    }
    let t = experiments::thm51_with(SEED, 100, &[0.04, 0.02]);
    assert_eq!(csv_digest(&t), 0x5a1d_fbfe_28fc_b062);
    for c in column(&t, "empirical_correct") {
        assert!(c >= 0.88, "correct rate {c} too low");
    }
}

#[test]
fn ablations_run() {
    let s = experiments::ABLATION_SAMPLER.table(Scale::Tiny, SEED);
    assert_eq!(csv_digest(&s), 0x1493_9d62_97b1_b6b9);
    assert!(!s.rows.is_empty());
    // Both substrates converge.
    let last = s.rows.last().unwrap();
    assert!(last[1] < s.rows[0][1], "cyclon converged");
    assert!(last[2] < s.rows[0][2], "newscast converged");

    let d = experiments::ABLATION_DISTRIBUTION.table(Scale::Tiny, SEED);
    assert_eq!(csv_digest(&d), 0xf6ba_0848_97ed_3bca);
    let last = d.rows.last().unwrap();
    // Rank-based slicing is insensitive to the attribute shape.
    assert!(
        (last[1] - last[2]).abs() <= last[1].max(last[2]) + 10.0,
        "uniform vs pareto diverged: {} vs {}",
        last[1],
        last[2]
    );
}

#[test]
fn ablation_sampler_ranking_orders_substrates() {
    // Ranking quality by substrate: the Cyclon variant must track the
    // uniform oracle closely, and Newscast must trail badly (its
    // freshest-c merge correlates views, biasing the sample stream).
    let t = experiments::ABLATION_SAMPLER_RANKING.table(Scale::Tiny, SEED);
    assert_eq!(csv_digest(&t), 0x1e52_952e_d1b4_a07b);
    let last = t.rows.len() - 1;
    let cyclon = column(&t, "sdm_cyclon")[last];
    let oracle = column(&t, "sdm_oracle")[last];
    let newscast = column(&t, "sdm_newscast")[last];
    assert!(
        cyclon < oracle * 2.0,
        "Cyclon ({cyclon}) must track the oracle ({oracle})"
    );
    assert!(
        newscast > cyclon * 1.5,
        "Newscast ({newscast}) must trail Cyclon ({cyclon}) clearly"
    );
}

#[test]
fn ablation_targeting_boundary_heuristic_helps_or_ties() {
    // The j1 heuristic is a refinement: it must never substantially hurt.
    let t = experiments::ABLATION_TARGETING.table(Scale::Tiny, SEED);
    assert_eq!(csv_digest(&t), 0x9897_35d3_2abd_e422);
    let last = t.rows.len() - 1;
    let boundary = column(&t, "sdm_boundary")[last];
    let uniform = column(&t, "sdm_uniform_targets")[last];
    assert!(
        boundary < uniform * 1.2,
        "boundary targeting ({boundary}) must not lose to uniform ({uniform})"
    );
}

#[test]
fn ablation_window_has_an_interior_optimum_or_monotone_edge() {
    // The window trade-off: the medium window must beat at least one
    // extreme (short = noisy, long = stale) under correlated churn.
    let t = experiments::ABLATION_WINDOW.table(Scale::Tiny, SEED);
    assert_eq!(csv_digest(&t), 0x8c13_d6ad_016b_33fc);
    let last = t.rows.len() - 1;
    let small = column(&t, "sdm_small")[last];
    let medium = column(&t, "sdm_medium")[last];
    let large = column(&t, "sdm_large")[last];
    assert!(
        medium <= small.max(large),
        "medium window ({medium}) worse than both extremes ({small}, {large})"
    );
}

#[test]
fn tables_without_a_shape_test_are_pinned() {
    let pins = [
        ("4b-banded", 0xd037_705c_db81_0736),
        ("ablation-view-size", 0x14eb_160b_f0eb_6160),
        ("ablation-slice-count", 0x1b16_44fc_3d46_a79a),
        ("ablation-loss", 0x33d9_e787_0f5c_8e09),
        ("ablation-latency", 0xf53c_d222_a4da_d2bd),
        ("baseline-quantile", 0x0270_f6ff_0a84_ebd9),
    ];
    // Six independent runs of a few seconds each in a debug build: spread
    // them over the cores.
    std::thread::scope(|s| {
        for (id, pin) in pins {
            s.spawn(move || {
                let fig = experiments::FIGURES.iter().find(|fig| fig.id() == id);
                let t = fig.expect("a figure id").table(Scale::Tiny, SEED);
                assert_eq!(csv_digest(&t), pin, "figure {id}");
            });
        }
    });
}
