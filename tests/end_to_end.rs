//! Cross-crate end-to-end pipeline tests: author in `jasm` → encode to
//! SDEX → package as RPK → unpack → analyze, exercising every pipeline
//! stage of the paper's Figure 4 in one pass.

use flowdroid::android::install_platform;
use flowdroid::frontend::layout::ResourceTable;
use flowdroid::frontend::{rpk::Archive, sdex};
use flowdroid::prelude::*;

const MANIFEST: &str = r#"<manifest package="e2e">
  <application>
    <activity android:name=".Main">
      <intent-filter><action android:name="android.intent.action.MAIN"/></intent-filter>
    </activity>
  </application>
</manifest>"#;

const CODE: &str = r#"
class e2e.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    let o: java.lang.Object
    let tm: android.telephony.TelephonyManager
    let id: java.lang.String
    o = virtualinvoke this.<android.content.Context: java.lang.Object getSystemService(java.lang.String)>("phone")
    tm = (android.telephony.TelephonyManager) o
    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", id)
    return
  }
}
"#;

fn analyze(program: &mut Program, platform: &flowdroid::android::PlatformInfo, app: &App) -> usize {
    let sources = SourceSinkManager::default_android();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    Infoflow::new(&sources, &wrapper, &config)
        .analyze_app(program, platform, app, "e2e")
        .results
        .leak_count()
}

#[test]
fn jasm_text_pipeline() {
    let mut p = Program::new();
    let platform = install_platform(&mut p);
    let app = App::from_parts(&mut p, MANIFEST, &[], CODE).unwrap();
    assert_eq!(analyze(&mut p, &platform, &app), 1);
}

#[test]
fn sdex_binary_pipeline() {
    // Author in one program, ship as binary, analyze in another — like
    // compiling an app on one machine and analyzing the APK elsewhere.
    let mut author = Program::new();
    install_platform(&mut author);
    let rt = ResourceTable::new();
    let classes = parse_jasm(&mut author, &rt, CODE).unwrap();
    let image = sdex::encode(&author, &classes);

    let mut archive = Archive::new();
    archive.add("AndroidManifest.xml", MANIFEST.as_bytes());
    archive.add("classes.sdex", image);
    let bytes = archive.to_bytes();

    let mut analyst = Program::new();
    let platform = install_platform(&mut analyst);
    let unpacked = Archive::from_bytes(&bytes).unwrap();
    let app = App::from_archive(&mut analyst, &unpacked).unwrap();
    assert_eq!(analyze(&mut analyst, &platform, &app), 1, "binary route finds the same leak");
}

#[test]
fn rpk_text_pipeline_matches_direct_load() {
    let archive = App::bundle(MANIFEST, &[], CODE);
    let bytes = archive.to_bytes();
    let unpacked = Archive::from_bytes(&bytes).unwrap();
    let mut p = Program::new();
    let platform = install_platform(&mut p);
    let app = App::from_archive(&mut p, &unpacked).unwrap();
    assert_eq!(analyze(&mut p, &platform, &app), 1);
}

#[test]
fn facade_prelude_compiles_the_quickstart() {
    // The doctest on the crate root is the canonical quickstart; this
    // keeps it green as a plain test as well.
    let mut program = Program::new();
    let platform = install_platform(&mut program);
    let app = App::from_parts(&mut program, MANIFEST, &[], CODE).unwrap();
    let sources = SourceSinkManager::default_android();
    let wrapper = TaintWrapper::default_rules();
    let config = InfoflowConfig::default();
    let analysis = Infoflow::new(&sources, &wrapper, &config).analyze_app(
        &mut program,
        &platform,
        &app,
        "facade",
    );
    assert_eq!(analysis.results.leak_count(), 1);
    assert!(!analysis.model.components.is_empty());
}
