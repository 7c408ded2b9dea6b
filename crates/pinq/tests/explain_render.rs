//! Pins the exact bytes of `Queryable::explain()`'s three renders and its
//! `predict` vector on one pipeline that reaches every charge-node kind: a
//! two-budget source (a combined node of two roots), two `group_by`s (×4),
//! a partition nested in a partition with some parts already charged (so
//! part and max ε are not zero), and a `concat` of two inner parts.

use pinq::{Accountant, ExplainTree, NoiseSource, Queryable};
use std::sync::Arc;

fn pipeline() -> (Accountant, Accountant, ExplainTree) {
    let analyst = Accountant::new(4.0);
    let global = Accountant::new(8.0);
    let noise = NoiseSource::seeded(0xE7);
    let source =
        Queryable::new_shared(Arc::new((0..64u32).collect()), &[&analyst, &global], &noise)
            .with_label("pinned");
    let grouped = source.group_by(|v| v % 8).group_by(|g| g.key % 2);
    let outer = grouped.partition(&[0u32, 1, 2], |g| g.key).unwrap();
    outer[0].noisy_count(0.125).unwrap();
    outer[2].noisy_count(0.0625).unwrap();
    let inner = outer[1]
        .partition(&[0usize, 1, 2, 3], |g| g.items.len() % 4)
        .unwrap();
    inner[0].noisy_count(0.1875).unwrap();
    inner[2].noisy_count(0.125).unwrap();
    let both = inner[1].concat(&inner[2]).filter(|g| g.key < 2);
    (analyst, global, both.explain())
}

const TEXT: &str = r#"queryable "pinned"  stability x1  pending fused stages 1  materialized false
plan:
  filter (x1, fused)
    concat (x1)
      partition (x1) [part[1] of 4]
        partition (x1) [part[1] of 3]
          group_by (x4)
            group_by (x2)
              source (x1) [2 budgets]
      partition (x1) [part[2] of 4]
        partition (x1) [part[1] of 3]
          group_by (x4)
            group_by (x2)
              source (x1) [2 budgets]
charge:
  combined (2 inputs)
    in[0]:
      scale(x1)
        part[1] of 4  [part ε 0.000000, max ε 0.187500]
          scale(x1)
            part[1] of 3  [part ε 0.187500, max ε 0.187500]
              scale(x4)
                combined (2 inputs)
                  in[0]:
                    root  [spent 0.750000 of 4.000000]
                  in[1]:
                    root  [spent 0.750000 of 8.000000]
    in[1]:
      scale(x1)
        part[2] of 4  [part ε 0.125000, max ε 0.187500]
          scale(x1)
            part[1] of 3  [part ε 0.187500, max ε 0.187500]
              scale(x4)
                combined (2 inputs)
                  in[0]:
                    root  [spent 0.750000 of 4.000000]
                  in[1]:
                    root  [spent 0.750000 of 8.000000]
"#;

const JSON: &str = concat!(
    r#"{"label":"pinned","stability":1,"pending_fused":1,"materialized":false,"#,
    r#""plan":{"op":"filter","stability":1,"fused":true,"detail":null,"#,
    r#""inputs":[{"op":"concat","stability":1,"fused":false,"detail":null,"#,
    r#""inputs":[{"op":"partition","stability":1,"fused":false,"#,
    r#""detail":"part[1] of 4","inputs":[{"op":"partition","stability":1,"#,
    r#""fused":false,"detail":"part[1] of 3","inputs":[{"op":"group_by","#,
    r#""stability":4,"fused":false,"detail":null,"inputs":[{"op":"group_by","#,
    r#""stability":2,"fused":false,"detail":null,"inputs":[{"op":"source","#,
    r#""stability":1,"fused":false,"detail":"2 budgets","inputs":[]}]}]}]}]},"#,
    r#"{"op":"partition","stability":1,"fused":false,"detail":"part[2] of 4","#,
    r#""inputs":[{"op":"partition","stability":1,"fused":false,"#,
    r#""detail":"part[1] of 3","inputs":[{"op":"group_by","stability":4,"#,
    r#""fused":false,"detail":null,"inputs":[{"op":"group_by","stability":2,"#,
    r#""fused":false,"detail":null,"inputs":[{"op":"source","stability":1,"#,
    r#""fused":false,"detail":"2 budgets","inputs":[]}]}]}]}]}]}]},"#,
    r#""charge":{"kind":"combined","inputs":[{"kind":"scale","factor":1,"#,
    r#""child":{"kind":"part","index":1,"parts":4,"part_eps":0,"max_eps":0.1875,"#,
    r#""child":{"kind":"scale","factor":1,"child":{"kind":"part","index":1,"#,
    r#""parts":3,"part_eps":0.1875,"max_eps":0.1875,"child":{"kind":"scale","#,
    r#""factor":4,"child":{"kind":"combined","inputs":[{"kind":"root","spent":0.75,"#,
    r#""total":4},{"kind":"root","spent":0.75,"total":8}]}}}}}},{"kind":"scale","#,
    r#""factor":1,"child":{"kind":"part","index":2,"parts":4,"part_eps":0.125,"#,
    r#""max_eps":0.1875,"child":{"kind":"scale","factor":1,"child":{"kind":"part","#,
    r#""index":1,"parts":3,"part_eps":0.1875,"max_eps":0.1875,"#,
    r#""child":{"kind":"scale","factor":4,"child":{"kind":"combined","#,
    r#""inputs":[{"kind":"root","spent":0.75,"total":4},{"kind":"root","#,
    r#""spent":0.75,"total":8}]}}}}}}]}}"#,
);

const DOT: &str = r#"digraph explain {
  rankdir=BT;
  op0 [label="filter (x1, fused)",style=dashed];
  op1 [label="concat (x1)"];
  op2 [label="partition (x1) [part[1] of 4]"];
  op3 [label="partition (x1) [part[1] of 3]"];
  op4 [label="group_by (x4)"];
  op5 [label="group_by (x2)"];
  op6 [label="source (x1) [2 budgets]"];
  op6 -> op5;
  op5 -> op4;
  op4 -> op3;
  op3 -> op2;
  op2 -> op1;
  op7 [label="partition (x1) [part[2] of 4]"];
  op8 [label="partition (x1) [part[1] of 3]"];
  op9 [label="group_by (x4)"];
  op10 [label="group_by (x2)"];
  op11 [label="source (x1) [2 budgets]"];
  op11 -> op10;
  op10 -> op9;
  op9 -> op8;
  op8 -> op7;
  op7 -> op1;
  op1 -> op0;
  charge12 [shape=box,label="combined"];
  charge13 [shape=box,label="scale(x1)"];
  charge14 [shape=box,label="part[1] of 4\npart ε 0.000000\nmax ε 0.187500"];
  charge15 [shape=box,label="scale(x1)"];
  charge16 [shape=box,label="part[1] of 3\npart ε 0.187500\nmax ε 0.187500"];
  charge17 [shape=box,label="scale(x4)"];
  charge18 [shape=box,label="combined"];
  charge19 [shape=box,label="root\nspent 0.750000/4.000000"];
  charge18 -> charge19;
  charge20 [shape=box,label="root\nspent 0.750000/8.000000"];
  charge18 -> charge20;
  charge17 -> charge18;
  charge16 -> charge17;
  charge15 -> charge16;
  charge14 -> charge15;
  charge13 -> charge14;
  charge12 -> charge13;
  charge21 [shape=box,label="scale(x1)"];
  charge22 [shape=box,label="part[2] of 4\npart ε 0.125000\nmax ε 0.187500"];
  charge23 [shape=box,label="scale(x1)"];
  charge24 [shape=box,label="part[1] of 3\npart ε 0.187500\nmax ε 0.187500"];
  charge25 [shape=box,label="scale(x4)"];
  charge26 [shape=box,label="combined"];
  charge27 [shape=box,label="root\nspent 0.750000/4.000000"];
  charge26 -> charge27;
  charge28 [shape=box,label="root\nspent 0.750000/8.000000"];
  charge26 -> charge28;
  charge25 -> charge26;
  charge24 -> charge25;
  charge23 -> charge24;
  charge22 -> charge23;
  charge21 -> charge22;
  charge12 -> charge21;
  op0 -> charge12 [style=dotted,label="x1"];
}
"#;

#[test]
fn explain_renders_are_pinned_byte_for_byte() {
    let (analyst, global, tree) = pipeline();
    let before = (analyst.spent().to_bits(), global.spent().to_bits());
    assert_eq!(tree.render_text(), TEXT);
    assert_eq!(tree.to_json(), JSON);
    assert_eq!(tree.render_dot(), DOT);
    // The inner part[1] sits at 0 under the 0.1875 max, so it absorbs the
    // charge; part[2] at 0.125 forwards 0.0375, which raises the outer
    // part[1] above its max and reaches both roots ×4.
    let via = |input: usize, part: usize, root: usize| {
        format!("in[{input}]/scale(x1)/part[{part}]/scale(x1)/part[1]/scale(x4)/in[{root}]/root")
    };
    let expected = vec![
        (via(0, 1, 0), 0.0),
        (via(0, 1, 1), 0.0),
        (via(1, 2, 0), 0.15000000000000002),
        (via(1, 2, 1), 0.15000000000000002),
    ];
    assert_eq!(tree.predict(0.1), expected);
    // Rendering and predicting spend nothing.
    assert_eq!(
        (analyst.spent().to_bits(), global.spent().to_bits()),
        before
    );
}
