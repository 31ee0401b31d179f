//! Extension: peer-sampling topologies (paper §V future work).
//!
//! "JWINS does not assume anything about the topology of the nodes,
//! therefore can be combined with peer-sampling and selection services."
//! This harness extends the Figure-7 topology comparison with a third
//! provider: graphs sampled each round from a Cyclon-style partial-view
//! peer-sampling service — what a real deployment without global membership
//! would actually use. The expectation, following Figure 7's dynamic-
//! topology result, is that peer-sampled (changing) graphs mix at least as
//! well as a static random-regular graph, for full-sharing and JWINS alike.

use jwins::strategies::JwinsConfig;
use jwins_bench::{banner, run_cifar, save_csv, Algo, RunCfg, Scale};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Extension — Cyclon peer-sampled topologies (§V future work; extends Figure 7)",
        "peer-sampled dynamic graphs mix as well as global random-regular constructions",
    );
    let rounds = scale.rounds(100);
    let algos = [
        ("full-sharing", Algo::Full),
        ("jwins", Algo::Jwins(JwinsConfig::paper_default())),
    ];
    type TopoSetter = fn(&mut RunCfg);
    let topologies: [(&str, TopoSetter); 3] = [
        ("static d-regular", |_| {}),
        ("dynamic d-regular", |cfg| cfg.dynamic_topology = true),
        ("peer-sampling", |cfg| cfg.peer_sampling = true),
    ];

    println!(
        "{:<14} {:>18} {:>18} {:>16}",
        "algorithm", "static regular", "dynamic regular", "peer-sampling"
    );
    let mut csv = String::from("algo,topology,final_accuracy\n");
    let mut table = Vec::new();
    for (alg_name, algo) in &algos {
        let mut row = format!("{alg_name:<14}");
        let mut accs = Vec::new();
        for (topo_name, set) in &topologies {
            let mut cfg = RunCfg::new(rounds);
            cfg.train.eval_every = rounds;
            set(&mut cfg);
            let result = run_cifar(scale, algo, &cfg, 2);
            let acc = result.final_record().expect("evaluated").test_accuracy;
            row.push_str(&format!(" {:>17.1}%", acc * 100.0));
            csv.push_str(&format!("{alg_name},{topo_name},{acc:.4}\n"));
            accs.push(acc);
        }
        println!("{row}");
        table.push(accs);
    }
    save_csv("ext_peer_sampling", &csv);

    println!("\npaper-vs-measured:");
    println!("  paper: Figure 7 shows dynamic topologies beat static for full-sharing and JWINS;");
    println!("         peer-sampling services are proposed as future work");
    let jwins_static = table[1][0];
    let jwins_ps = table[1][2];
    println!(
        "  here:  JWINS on peer-sampled graphs {:.1}% vs static {:.1}% => {}",
        jwins_ps * 100.0,
        jwins_static * 100.0,
        if jwins_ps >= jwins_static - 0.03 {
            "SUPPORTED (no global construction needed)"
        } else {
            "PEER SAMPLING UNDERPERFORMS at this scale"
        }
    );
}
