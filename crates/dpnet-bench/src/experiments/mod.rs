//! One module per paper artifact — each regenerates a table or figure.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — aggregation noise calibration |
//! | [`example23`] | §2.3 worked example |
//! | [`fig1`] | Figure 1 — three CDF estimators |
//! | [`table4`] | Table 4 — top-10 payload strings |
//! | [`itemsets_exp`] | §4.3 — frequent port itemsets |
//! | [`fig2`] | Figure 2 — packet length & port CDFs |
//! | [`worm_exp`] | §5.1.2 — worm signature recovery |
//! | [`fig3`] | Figure 3 — RTT & loss CDFs |
//! | [`table5`] | Table 5 — stepping-stone detection |
//! | [`fig4`] | Figure 4 — anomalous traffic norm |
//! | [`fig5`] | Figure 5 — clustering error vs iteration |
//! | [`table2`] | Table 2 — analysis summary |
//!
//! Beyond the paper's figures, six experiments cover what the paper
//! mentions but does not show:
//!
//! | module | covers |
//! |---|---|
//! | [`rules_exp`] | §5.2.3 — Kandula communication rules ("results omitted") |
//! | [`connections_exp`] | §5.2.1 — packets-per-connection via owner pre-processing |
//! | [`principals`] | §3 — privacy-principal granularity cost |
//! | [`ablation`] | composition-rule ablation + privacy-accuracy sweep |
//! | [`graphdist_exp`] | §5.3 — degree CDFs easy, max degree impossible |
//! | [`classify_exp`] | §5.1.3 — private traffic classification |
//!
//! An experiment's noise-free baselines and owner-side pre-processing run
//! in `harness/<step>` spans, so a profiled run attributes their time.

pub mod ablation;
pub mod classify_exp;
pub mod connections_exp;
pub mod example23;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod graphdist_exp;
pub mod itemsets_exp;
pub mod principals;
pub mod rules_exp;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod table5;
pub mod worm_exp;

/// The typed results that [`table2`] summarizes, kept by the driver of one
/// run: one per `repro` process, a fresh one per timed run elsewhere.
#[derive(Debug, Default)]
pub struct Results {
    pub(crate) fig2: Option<fig2::Fig2>,
    pub(crate) worm: Option<worm_exp::WormResult>,
    pub(crate) fig3: Option<fig3::Fig3>,
    pub(crate) table5: Option<Vec<table5::Table5Row>>,
    pub(crate) fig5: Option<fig5::Fig5>,
}
