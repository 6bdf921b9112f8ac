//! Differential tests for the one-scan request parser and the in-place
//! reply writer, each against the `Value`-tree path it replaced on the
//! served route: `SolveRequest::from_value(parse_value_str(..))` and
//! `serde_json::to_string` of the assembled reply tree.
//!
//! Bodies are generated from a seed: members in any order with any
//! whitespace, optional fields absent / `null` / of the wrong type, unknown
//! and nested unknown members, duplicate keys, every number spelling the
//! grammar admits in every array, every `fault` form, hostile CSR arrays,
//! and whole-body damage (truncation, trailing garbage, a top level that is
//! not an object). The two parsers must agree on the verdict, on the error
//! text when they reject, and on every field when they accept.

use mcmcmi_krylov::{
    BreakdownKind, RecoveryStep, RecoveryStepKind, RecoveryTrail, SolveFailure, SolverType,
};
use mcmcmi_serve::{SolveReply, SolveRequest};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::{Serialize, Value};

/// The body generator's only source of choice.
struct Rng(TestRng);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(TestRng::deterministic(seed, 0))
    }
    fn next(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Optional whitespace, mostly none.
fn ws(rng: &mut Rng) -> &'static str {
    rng.pick(&["", "", "", "", " ", "\n", "\t", " \r\n "])
}

/// Number spellings: plain and negative integers, the signed zero an
/// integer token loses, exponents, a bare trailing point, leading zeros,
/// values past `u64`, past `f64` (→ inf), subnormal, and 17-digit.
fn number(rng: &mut Rng) -> String {
    match rng.below(8) {
        0 => rng.below(7).to_string(),
        1 => format!("{:?}", rng.below(2000) as f64 / 8.0 - 100.0),
        2 => format!("{:e}", f64::from_bits(rng.next() >> 2)),
        _ => rng
            .pick(&[
                "-0",
                "-3",
                "1.0",
                "2.",
                "01",
                "1e0",
                "1E+2",
                "2.5e-1",
                "0.1",
                "1e999",
                "-1e999",
                "5e-324",
                "1.7976931348623157e308",
                "0.30000000000000004",
                "18446744073709551615",
                "18446744073709551616",
                "123456789012345678901234567890",
                "-9223372036854775809",
                "-",
                "1e",
                "1.2.3",
            ])
            .to_string(),
    }
}

fn array(rng: &mut Rng, items: &[String]) -> String {
    let mut out = format!("[{}", ws(rng));
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out += &format!("{},{}", ws(rng), ws(rng));
        }
        out += item;
    }
    out + ws(rng) + "]"
}

fn object(rng: &mut Rng, members: &[(String, String)]) -> String {
    let mut out = format!("{{{}", ws(rng));
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            out += &format!("{},{}", ws(rng), ws(rng));
        }
        out += &format!("\"{key}\"{}:{}{value}", ws(rng), ws(rng));
    }
    out + ws(rng) + "}"
}

/// Any JSON value, nested a little: what an unknown member may hold.
fn anything(rng: &mut Rng, depth: usize) -> String {
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => "null".to_string(),
        1 => rng.pick(&["true", "false"]).to_string(),
        2 => number(rng),
        3 => rng
            .pick(&[
                "\"\"",
                "\"a b\"",
                "\"é✓\"",
                "\"q\\\"\\n\\u00e9\\ud834\\udd1e\"",
                "\"\\x\"",
            ])
            .to_string(),
        4 => "[]".to_string(),
        5 => {
            let items: Vec<String> = (0..rng.below(4))
                .map(|_| anything(rng, depth - 1))
                .collect();
            array(rng, &items)
        }
        _ => {
            let members: Vec<(String, String)> = (0..rng.below(3))
                .map(|i| (format!("k{i}"), anything(rng, depth - 1)))
                .collect();
            object(rng, &members)
        }
    }
}

/// An array of numbers in which any element may be misspelt or mistyped.
fn number_array(rng: &mut Rng, clean: &[String]) -> String {
    let mut items = clean.to_vec();
    for item in &mut items {
        if rng.one_in(60) {
            *item = if rng.one_in(3) {
                anything(rng, 1)
            } else {
                number(rng)
            };
        }
    }
    match rng.below(30) {
        0 => anything(rng, 1),
        1 => "[]".to_string(),
        _ => array(rng, &items),
    }
}

/// Floats as the client prints them, some as integer tokens.
fn floats(rng: &mut Rng, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| match rng.below(4) {
            0 => (rng.below(9) as i64 - 4).to_string(),
            _ => format!("{:?}", rng.below(4000) as f64 / 16.0 - 100.0),
        })
        .collect()
}

/// The `matrix` member: a small valid CSR, then damaged in the ways the
/// invariant check and the field rules exist for.
fn matrix(rng: &mut Rng, n: usize) -> String {
    // Diagonal plus an optional superdiagonal entry per row.
    let (mut indptr, mut indices) = (vec![0usize], Vec::new());
    for i in 0..n {
        indices.push(i);
        if i + 1 < n && rng.one_in(2) {
            indices.push(i + 1);
        }
        indptr.push(indices.len());
    }
    if rng.one_in(20) {
        let k = 1 + rng.below(indptr.len() - 1);
        indptr[k] = [0, 100, usize::MAX][rng.below(3)];
    }
    if rng.one_in(20) {
        let k = rng.below(indices.len());
        indices[k] = [0, n, usize::MAX][rng.below(3)];
    }
    let index_tokens = |rng: &mut Rng, xs: &[usize]| -> Vec<String> {
        xs.iter()
            .map(|&x| match rng.below(10) {
                0 => format!("{x}.0"),
                1 => format!("{x}e0"),
                _ => x.to_string(),
            })
            .collect()
    };
    let dim = |rng: &mut Rng, n: usize| match rng.below(60) {
        0 => "18446744073709551615".to_string(),
        1 => number(rng),
        2 => (n + 1).to_string(),
        _ => n.to_string(),
    };
    let (indptr, indices) = (index_tokens(rng, &indptr), index_tokens(rng, &indices));
    let data = floats(rng, indices.len());
    let mut members = vec![
        ("nrows".to_string(), dim(rng, n)),
        ("ncols".to_string(), dim(rng, n)),
        ("indptr".to_string(), number_array(rng, &indptr)),
        ("indices".to_string(), number_array(rng, &indices)),
        ("data".to_string(), number_array(rng, &data)),
    ];
    if rng.one_in(25) {
        members.remove(rng.below(members.len()));
    }
    if rng.one_in(8) {
        let (key, _) = members[rng.below(members.len())].clone();
        members.push((key, anything(rng, 1)));
    }
    if rng.one_in(6) {
        members.push(("note".to_string(), anything(rng, 2)));
    }
    rng.shuffle(&mut members);
    object(rng, &members)
}

fn body(rng: &mut Rng) -> String {
    let n = 1 + rng.below(5);
    let mut members: Vec<(String, String)> = Vec::new();
    let mut member = |rng: &mut Rng, key: &str, value: String| {
        // Mostly present and well-formed; sometimes absent, null, some
        // other number, or some other type.
        match rng.below(40) {
            0 => {}
            1 => members.push((key.to_string(), "null".to_string())),
            2 => members.push((key.to_string(), anything(rng, 1))),
            3 => members.push((key.to_string(), number(rng))),
            _ => members.push((key.to_string(), value)),
        }
    };
    if !rng.one_in(4) {
        let m = matrix(rng, n);
        member(rng, "matrix", m);
    }
    if rng.one_in(2) {
        let f = rng.next().to_string();
        member(rng, "fingerprint", f);
    }
    let b_len = if rng.one_in(20) { n + 1 } else { n };
    let b = floats(rng, b_len);
    let b = number_array(rng, &b);
    member(rng, "b", b);
    let optional: [(&str, &[&str]); 6] = [
        (
            "solver",
            &[
                "\"cg\"",
                "\"GMRES\"",
                "\"bicgstab\"",
                "\"fgmres\"",
                "\"fcg\"",
                "\"qr\"",
            ],
        ),
        ("tol", &["1e-9", "1E-10", "0", "1", "0.5", "-1.0"]),
        ("max_iter", &["123", "1000", "7.0", "1.5"]),
        ("restart", &["30", "5e1", "0"]),
        ("deadline_ms", &["250", "0", "1000.0", "-5"]),
        (
            "fault",
            &[
                "\"panic\"",
                "\"panic-in-build\"",
                "\"sleep:30\"",
                "\"sleep:\"",
                "\"sleep:x\"",
                "\"explode\"",
                "7",
            ],
        ),
    ];
    for (key, values) in optional {
        if rng.one_in(3) {
            let value = rng.pick(values).to_string();
            member(rng, key, value);
        }
    }
    if rng.one_in(3) {
        let mut p: Vec<(String, String)> = [("alpha", "2"), ("eps", "0.5"), ("delta", "0.125")]
            .iter()
            .map(|(k, x)| {
                (
                    k.to_string(),
                    if rng.one_in(10) {
                        number(rng)
                    } else {
                        x.to_string()
                    },
                )
            })
            .collect();
        if rng.one_in(10) {
            p.pop();
        }
        let p = object(rng, &p);
        member(rng, "params", p);
    }
    for i in 0..rng.below(3) {
        members.push((format!("unknown{i}"), anything(rng, 2)));
    }
    if !members.is_empty() && rng.one_in(6) {
        // A duplicate key: the first occurrence in document order wins.
        let (key, _) = members[rng.below(members.len())].clone();
        let value = if rng.one_in(2) {
            matrix(rng, n)
        } else {
            anything(rng, 1)
        };
        members.push((key, value));
    }
    rng.shuffle(&mut members);
    let text = format!("{}{}{}", ws(rng), object(rng, &members), ws(rng));
    match rng.below(40) {
        0 => {
            let mut cut = rng.below(text.len() + 1);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_string()
        }
        1 => text + rng.pick(&["x", "}", ",", "{}", "1"]),
        2 => anything(rng, 2),
        _ => text,
    }
}

fn tree_parse(body: &str) -> Result<SolveRequest, String> {
    let v = serde_json::parse_value_str(body).map_err(|e| format!("invalid JSON: {e}"))?;
    SolveRequest::from_value(&v)
}

/// Everything a parsed request carries, floats by their bits.
fn digest(r: &SolveRequest) -> impl PartialEq + std::fmt::Debug {
    (
        r.matrix
            .as_ref()
            .map(|m| (m.nrows(), m.ncols(), m.fingerprint())),
        r.fingerprint,
        r.b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        (r.solver, r.tol.to_bits(), r.max_iter, r.restart),
        r.params
            .map(|p| [p.alpha.to_bits(), p.eps.to_bits(), p.delta.to_bits()]),
        (r.deadline_ms, r.fault),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn scan_and_tree_agree_on_verdict_message_and_fields(seed in 0u64..u64::MAX) {
        let body = body(&mut Rng::new(seed));
        match (SolveRequest::parse(&body), tree_parse(&body)) {
            (Ok(scan), Ok(tree)) => prop_assert_eq!(digest(&scan), digest(&tree), "{}", body),
            (Err(scan), Err(tree)) => prop_assert_eq!(scan, tree, "{}", body),
            (scan, tree) => prop_assert!(
                false,
                "verdicts differ: scan {:?}, tree {:?} on {}",
                scan.map(|_| ()),
                tree.map(|_| ()),
                body
            ),
        }
    }
}

#[test]
fn the_generator_reaches_both_verdicts_and_the_interesting_rejections() {
    let (mut accepted, mut with_matrix) = (0, 0);
    let mut reasons = std::collections::BTreeSet::new();
    for seed in 0..3000u64 {
        match SolveRequest::parse(&body(&mut Rng::new(seed))) {
            Ok(r) => {
                accepted += 1;
                with_matrix += usize::from(r.matrix.is_some());
            }
            Err(e) => {
                // The message up to its first variable part.
                let stem: String = e
                    .chars()
                    .take_while(|c| !c.is_ascii_digit())
                    .take(40)
                    .collect();
                reasons.insert(stem);
            }
        }
    }
    assert!(
        accepted > 300 && with_matrix > 200,
        "{accepted} accepted, {with_matrix} with a matrix"
    );
    for needle in [
        "invalid JSON",
        "bad `matrix`: missing field",
        "bad `matrix`: indptr",
        "bad `matrix`: `data` has a non-finite",
        "bad `matrix`: expected unsigned integer",
        "bad `b`: non-finite",
        "bad `b`: expected number",
        "bad `fault`",
        "`matrix` must be square",
        "request must be a JSON object",
    ] {
        assert!(
            reasons.iter().any(|r| r.contains(needle)),
            "no generated body was rejected with {needle:?}: {reasons:?}"
        );
    }
}

#[test]
fn one_document_many_spellings() {
    // The same request with its members reordered, re-spaced, with an
    // ignored duplicate and integer tokens for floats.
    let plain = r#"{"matrix":{"nrows":2,"ncols":2,"indptr":[0,1,2],"indices":[0,1],"data":[4.0,-0.0]},"b":[1.0,2.0],"tol":1e-9}"#;
    let spelt = " {\"tol\" : 1e-9 ,\n\"b\":[ 1 , 2.0e0 ],\"extra\":{\"b\":[9]},\"matrix\" :{ \"data\":[4, -0.0],\"indices\" :[0.0,1],\n\"ncols\":2,\"indptr\":[0,1,2.0],\"nrows\":2 , \"nrows\":7},\"b\":[] }\r\n";
    let (plain, spelt) = (
        SolveRequest::parse(plain).unwrap(),
        SolveRequest::parse(spelt).unwrap(),
    );
    assert_eq!(digest(&plain), digest(&spelt));
    // `-0` as an integer token is +0.0, as the tree has always read it.
    let zero = SolveRequest::parse(r#"{"fingerprint":1,"b":[-0]}"#).unwrap();
    assert_eq!(zero.b[0].to_bits(), 0.0f64.to_bits());
}

/// The reply as the tree path serialised it before `to_json` wrote in place.
fn tree_json(r: &SolveReply) -> String {
    let body = Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("x".to_string(), r.x.to_value()),
        ("iterations".to_string(), Value::UInt(r.iterations as u64)),
        ("rel_residual".to_string(), Value::Float(r.rel_residual)),
        ("converged".to_string(), Value::Bool(r.converged)),
        ("fingerprint".to_string(), Value::UInt(r.fingerprint)),
        ("cached".to_string(), Value::Bool(r.cached)),
        (
            "build_attempts".to_string(),
            Value::UInt(r.build_attempts as u64),
        ),
        (
            "coalesced_width".to_string(),
            Value::UInt(r.coalesced_width as u64),
        ),
        ("trail".to_string(), r.trail.to_value()),
    ]);
    serde_json::to_string(&body).unwrap()
}

fn trail() -> RecoveryTrail {
    RecoveryTrail {
        steps: vec![
            RecoveryStep {
                step: RecoveryStepKind::FlexibleSwap,
                trigger: SolveFailure::Stagnated {
                    window: 400,
                    best_residual: 0.1 + 0.2,
                },
                solver: SolverType::Fgmres,
                iterations: 213,
                recovered: false,
            },
            RecoveryStep {
                step: RecoveryStepKind::UnpreconditionedFallback,
                trigger: SolveFailure::Breakdown {
                    kind: BreakdownKind::ZeroCurvature,
                    iteration: 17,
                },
                solver: SolverType::Gmres,
                iterations: 88,
                recovered: true,
            },
        ],
        recovered: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn reply_writer_is_the_tree_serialisation_byte_for_byte(
        seed in 0u64..u64::MAX,
        len in 0usize..40,
    ) {
        let mut rng = Rng::new(seed);
        let x: Vec<f64> = (0..len)
            .map(|_| match rng.below(8) {
                0 => (rng.below(2001) as f64) - 1000.0,       // integral: keeps its `.0`
                1 => f64::from_bits(rng.next() >> 12),        // subnormal
                2 => [0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, f64::EPSILON][rng.below(5)],
                3 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)],
                4 => 0.1 + rng.below(1000) as f64 * 0.3,      // 17 significant digits
                _ => f64::from_bits(rng.next()),               // any bit pattern
            })
            .collect();
        let reply = SolveReply {
            x,
            iterations: rng.below(5000),
            rel_residual: f64::from_bits(rng.next() >> 2),
            converged: rng.one_in(2),
            fingerprint: rng.next(),
            cached: rng.one_in(2),
            build_attempts: 1 + rng.below(8),
            coalesced_width: 1 + rng.below(8),
            trail: if rng.one_in(2) { trail() } else { RecoveryTrail::default() },
        };
        prop_assert_eq!(reply.to_json(), tree_json(&reply));
    }
}
