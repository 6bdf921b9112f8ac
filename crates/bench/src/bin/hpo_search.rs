//! **H1 — §4.3 HPO protocol demo**: TPE sampling + successive-halving
//! scheduling over the surrogate's hyperparameter space (shrunk budget;
//! the paper ran 30 trials × up to 150 epochs on a V100).

use mcmcmi_autodiff::{AdamConfig, AggKind};
use mcmcmi_bench::harness::load_or_build_dataset;
use mcmcmi_bench::parse_profile;
use mcmcmi_gnn::{train_surrogate, ConvKind, Surrogate, SurrogateConfig, TrainConfig};
use mcmcmi_hpo::{
    run_successive_halving, AshaConfig, ParamKind, SearchSpace, TpeConfig, TpeSampler,
};

fn decode(cfg: &[f64], base: SurrogateConfig) -> (SurrogateConfig, f64, f64) {
    let conv = match cfg[2] as usize {
        0 => ConvKind::EdgeConv,
        1 => ConvKind::Gine,
        2 => ConvKind::Gcn,
        3 => ConvKind::GatV2,
        _ => ConvKind::Pna,
    };
    let agg = match cfg[3] as usize {
        0 => AggKind::Mean,
        1 => AggKind::Sum,
        _ => AggKind::Max,
    };
    let hidden = [32usize, 64, 128][cfg[4] as usize];
    (
        SurrogateConfig {
            conv,
            agg,
            gnn_hidden: hidden,
            dropout: cfg[1],
            ..base
        },
        cfg[0], // lr
        cfg[5], // weight decay
    )
}

fn main() {
    let profile = parse_profile();
    let matrices = profile.materialize_training();
    let ds = load_or_build_dataset(&profile, &matrices);
    let (sds, _, _) = ds.to_surrogate_dataset(&matrices);

    let space = SearchSpace::new()
        .add("lr", ParamKind::LogUniform { lo: 1e-4, hi: 1e-1 })
        .add("dropout", ParamKind::Uniform { lo: 0.0, hi: 0.2 })
        .add("conv", ParamKind::Choice { n: 5 })
        .add("agg", ParamKind::Choice { n: 3 })
        .add("hidden", ParamKind::Choice { n: 3 })
        .add("weight_decay", ParamKind::LogUniform { lo: 1e-6, hi: 1e-3 });

    let n_trials = if profile.name == "full" { 30 } else { 8 };
    let asha = if profile.name == "full" {
        AshaConfig::default() // 20 / 3 / 150, the paper's settings
    } else {
        AshaConfig {
            grace: 4,
            reduction: 3,
            max_resource: 16,
        }
    };
    println!(
        "HPO demo — TPE ({n_trials} trials) + successive halving (grace {}, η {}, max {})",
        asha.grace, asha.reduction, asha.max_resource
    );

    // TPE proposes the trial configurations up front.
    let mut tpe = TpeSampler::new(
        space,
        TpeConfig {
            seed: profile.seed,
            ..Default::default()
        },
    );
    let configs: Vec<Vec<f64>> = (0..n_trials).map(|_| tpe.suggest()).collect();

    let outcomes = run_successive_halving(n_trials, asha, |trial, resource| {
        let (scfg, lr, wd) = decode(&configs[trial], profile.surrogate);
        let mut s = Surrogate::new(scfg);
        let tc = TrainConfig {
            epochs: resource,
            patience: 0,
            adam: AdamConfig {
                lr,
                weight_decay: wd,
            },
            ..profile.train
        };
        let report = train_surrogate(&mut s, &sds, tc);
        report.best_val_loss
    });

    println!(
        "\n{:<6} {:>9} {:>10} {:>9} | configuration",
        "trial", "resource", "val loss", "finished"
    );
    for o in &outcomes {
        let (scfg, lr, wd) = decode(&configs[o.trial], profile.surrogate);
        println!(
            "{:<6} {:>9} {:>10.4} {:>9} | {:?}/{:?} hidden={} lr={:.2e} dropout={:.3} wd={:.2e}",
            o.trial,
            o.resource,
            o.loss,
            o.finished,
            scfg.conv,
            scfg.agg,
            scfg.gnn_hidden,
            lr,
            scfg.dropout,
            wd,
        );
    }
    if let Some(w) = mcmcmi_hpo::asha::winner(&outcomes) {
        let (scfg, lr, wd) = decode(&configs[w], profile.surrogate);
        println!(
            "\nselected architecture: {:?}/{:?}, hidden {}, lr {:.3e}, dropout {:.3}, wd {:.2e}",
            scfg.conv, scfg.agg, scfg.gnn_hidden, lr, scfg.dropout, wd
        );
        println!(
            "(paper's HPO on the real dataset selected EdgeConv/Mean, hidden 256, lr 1.848e-3)"
        );
    }
}
