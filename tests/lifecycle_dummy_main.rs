//! E6 — the dummy-main CFG has the shape of the paper's Figure 1:
//! opaque branches make every lifecycle transition feasible, callbacks
//! run between onResume and onPause, components interleave arbitrarily.

use flowdroid::android::{
    generate_dummy_main, install_platform, CallbackAssociation, EntryPointModel,
};
use flowdroid::ir::{Cond, Stmt};
use flowdroid::prelude::*;

const MANIFEST: &str = r#"<manifest package="fig1">
  <application>
    <activity android:name=".Main"/>
    <service android:name=".Svc"/>
  </application>
</manifest>"#;

const CODE: &str = r#"
class fig1.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void { return }
  method onStart() -> void { return }
  method onResume() -> void { return }
  method onPause() -> void { return }
  method onStop() -> void { return }
  method onRestart() -> void { return }
  method onDestroy() -> void { return }
  method sendMessage(v: android.view.View) -> void { return }
}
class fig1.Svc extends android.app.Service {
  method onCreate() -> void { return }
  method onDestroy() -> void { return }
}
"#;

const LAYOUT: &str = r#"<L><Button android:id="@+id/b" android:onClick="sendMessage"/></L>"#;

const CODE_WITH_LAYOUT_HOOK: &str = r#"
class fig1.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    virtualinvoke this.<android.app.Activity: void setContentView(int)>(@layout/main)
    return
  }
  method onStart() -> void { return }
  method onResume() -> void { return }
  method onPause() -> void { return }
  method onStop() -> void { return }
  method onRestart() -> void { return }
  method onDestroy() -> void { return }
  method sendMessage(v: android.view.View) -> void { return }
}
class fig1.Svc extends android.app.Service {
  method onCreate() -> void { return }
  method onDestroy() -> void { return }
}
"#;

fn build() -> (Program, flowdroid::ir::MethodId) {
    let mut p = Program::new();
    let platform = install_platform(&mut p);
    let app =
        App::from_parts(&mut p, MANIFEST, &[("main", LAYOUT)], CODE_WITH_LAYOUT_HOOK).unwrap();
    let model = EntryPointModel::build(&mut p, &platform, &app, CallbackAssociation::PerComponent);
    let main = generate_dummy_main(&mut p, &platform, &model, "fig1");
    (p, main)
}

#[test]
fn every_lifecycle_method_is_reachable() {
    let (p, main) = build();
    let cg = CallGraph::build(&p, &[main]);
    for name in [
        "onCreate",
        "onStart",
        "onResume",
        "onPause",
        "onStop",
        "onRestart",
        "onDestroy",
        "sendMessage",
    ] {
        let reached = cg.reachable_methods().iter().any(|&m| {
            p.str(p.method(m).name()) == name
                && p.class_name(p.method(m).class()).starts_with("fig1")
        });
        assert!(reached, "{name} must be reachable from the dummy main");
    }
}

#[test]
fn branches_are_opaque_predicates() {
    let (p, main) = build();
    let body = p.method(main).body().unwrap();
    let mut opaque = 0;
    for s in body.stmts() {
        if let Stmt::If { cond, .. } = s {
            assert!(matches!(cond, Cond::Opaque), "dummy main uses only opaque predicates");
            opaque += 1;
        }
    }
    assert!(opaque >= 5, "selector + lifecycle transitions: {opaque}");
}

#[test]
fn callback_runs_between_resume_and_pause() {
    // Statement order inside the activity block: onResume before the
    // callback invocation, onPause after it.
    let (p, main) = build();
    let body = p.method(main).body().unwrap();
    let printer = flowdroid::ir::ProgramPrinter::new(&p);
    let mut resume_idx = None;
    let mut send_idx = None;
    let mut pause_idx = None;
    for i in 0..body.len() {
        let line = printer.stmt_to_string(main, i);
        if line.contains("onResume") {
            resume_idx = Some(i);
        }
        if line.contains("sendMessage") {
            send_idx = Some(i);
        }
        if line.contains("onPause") {
            pause_idx = Some(i);
        }
    }
    let (r, s, pz) = (resume_idx.unwrap(), send_idx.unwrap(), pause_idx.unwrap());
    assert!(r < s && s < pz, "onResume@{r} < sendMessage@{s} < onPause@{pz}");
}

#[test]
fn restart_loops_back_to_started_state() {
    let (p, main) = build();
    let body = p.method(main).body().unwrap();
    let printer = flowdroid::ir::ProgramPrinter::new(&p);
    // Find the onRestart call; some goto after it must jump backwards.
    let restart = (0..body.len())
        .find(|&i| printer.stmt_to_string(main, i).contains("onRestart"))
        .expect("onRestart call present");
    let jumps_back = (restart..body.len().min(restart + 3))
        .any(|i| matches!(body.stmt(i), Stmt::Goto { target } if *target < restart));
    assert!(jumps_back, "onRestart is followed by a back edge to the started state");
}

#[test]
fn components_can_repeat_in_any_order() {
    // The component selector is a loop: each component block ends with
    // a goto back to the selector at index 0's mark.
    let mut p = Program::new();
    let platform = install_platform(&mut p);
    let app = App::from_parts(&mut p, MANIFEST, &[], CODE).unwrap();
    let model = EntryPointModel::build(&mut p, &platform, &app, CallbackAssociation::PerComponent);
    assert_eq!(model.components.len(), 2);
    let main = generate_dummy_main(&mut p, &platform, &model, "order");
    let body = p.method(main).body().unwrap();
    let back_edges = body
        .stmts()
        .iter()
        .enumerate()
        .filter(|(i, s)| matches!(s, Stmt::Goto { target } if target < i))
        .count();
    assert!(back_edges >= 2, "each component block loops back: {back_edges}");
}
