//! A request's solver is bound to the form of the cached inverse it needs:
//! the CG family to the symmetrised copy — made once per operator, charged
//! to the cache once — every other driver to the inverse as built.

mod common;

use common::*;
use mcmcmi_krylov::{solve, RecoveryTrail, SolveOptions, SolverType};
use mcmcmi_mcmc::{BuildConfig, McmcInverse, McmcParams, SafeguardConfig};
use mcmcmi_serve::{ServeConfig, Server};
use serde::Deserialize as _;

#[test]
fn cg_gets_the_symmetrised_inverse_gmres_the_built_one_and_the_copy_is_charged_once() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let a = mcmcmi_matgen::fd_laplace_2d(16);
    let b = rhs(a.nrows(), 0.0);
    // In process: the same seeded build, each driver on the form it is owed.
    let raw = McmcInverse::new(BuildConfig::default())
        .build_safeguarded(
            &a,
            McmcParams::new(0.5, 0.125, 0.0625),
            &SafeguardConfig::default(),
        )
        .expect("laplacian builds")
        .outcome
        .precond;
    let sym = raw.symmetrized();
    let want_cg = solve(&a, &b, &sym, SolverType::Cg, SolveOptions::default());
    let want_gmres = solve(&a, &b, &raw, SolverType::Gmres, SolveOptions::default());

    let params = "\"params\":{\"alpha\":0.5,\"eps\":0.125,\"delta\":0.0625}";
    let ask = |matrix, solver: &str| {
        let extras = [params, &format!("\"solver\":\"{solver}\"")];
        let (status, v) = post_solve(
            addr,
            &solve_body(matrix, Some(a.fingerprint()), &b, &extras),
        );
        assert_eq!(status, 200, "{v:?}");
        let trail = RecoveryTrail::from_value(v.get("trail").expect("reply has a trail")).unwrap();
        assert!(trail.is_clean(), "{solver}: {}", trail.summary());
        (v, stats(addr).cache_bytes)
    };
    // Classical CG on the inverse as built stagnates and the flexible swap
    // finishes in 83 iterations; on the symmetrised form it takes 30.
    let (v, bytes) = ask(Some(&a), "cg");
    assert_eq!(reply_u64(&v, "iterations") as usize, want_cg.iterations);
    assert_eq!(reply_x(&v), want_cg.x);
    let built = a.storage_bytes() + raw.matrix().storage_bytes();
    assert_eq!(
        bytes as usize,
        built + sym.matrix().storage_bytes(),
        "the copy is on the books"
    );
    // Asked again, and for the flexible driver: shared, not made again.
    assert_eq!((ask(None, "cg").1, ask(None, "fcg").1), (bytes, bytes));
    // GMRES on the same fingerprint: a hit, on the inverse as built.
    let (v, after) = ask(None, "gmres");
    assert_eq!(v.get("cached"), Some(&serde::Value::Bool(true)));
    assert_eq!((reply_x(&v), after), (want_gmres.x, bytes));
    server.join().unwrap();
}
