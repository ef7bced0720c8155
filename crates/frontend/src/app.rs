//! The app loader: archive/parts → manifest + layouts + resources + IR.

use crate::jasm::{self, ParseError};
use crate::layout::{Layout, ResourceTable};
use crate::manifest::Manifest;
use crate::rpk::{Archive, ArchiveError};
use crate::sdex::{self, SdexError};
use crate::xml::XmlError;
use flowdroid_ir::{ClassId, FxHashMap, Program};
use std::fmt;

/// Errors raised while loading an app.
#[derive(Debug)]
pub enum AppError {
    /// Malformed manifest or layout XML.
    Xml(XmlError),
    /// Malformed `jasm` code.
    Parse(ParseError),
    /// Malformed SDEX binary classes.
    Sdex(SdexError),
    /// Malformed RPK archive.
    Archive(ArchiveError),
    /// A required artifact is missing (e.g. the manifest).
    Missing(String),
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Xml(e) => write!(f, "app xml error: {e}"),
            AppError::Parse(e) => write!(f, "app code error: {e}"),
            AppError::Sdex(e) => write!(f, "app sdex error: {e}"),
            AppError::Archive(e) => write!(f, "app archive error: {e}"),
            AppError::Missing(what) => write!(f, "app is missing {what}"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<XmlError> for AppError {
    fn from(e: XmlError) -> Self {
        AppError::Xml(e)
    }
}

impl From<ParseError> for AppError {
    fn from(e: ParseError) -> Self {
        AppError::Parse(e)
    }
}

impl From<SdexError> for AppError {
    fn from(e: SdexError) -> Self {
        AppError::Sdex(e)
    }
}

impl From<ArchiveError> for AppError {
    fn from(e: ArchiveError) -> Self {
        AppError::Archive(e)
    }
}

/// A fully loaded app: the analysis input.
///
/// Produced by [`App::from_archive`] or [`App::from_parts`]; consumed
/// by the lifecycle model and the taint analysis. The IR classes live
/// in the [`Program`] passed to the loader (which typically already
/// contains the Android platform stubs). The default app has no
/// manifest entries, layouts, resources or classes.
#[derive(Clone, Debug, Default)]
pub struct App {
    /// The parsed manifest.
    pub manifest: Manifest,
    /// Parsed layouts by resource name.
    pub layouts: FxHashMap<String, Layout>,
    /// The app's resource-id table.
    pub resources: ResourceTable,
    /// Ids of the classes the app contributed to the program.
    pub classes: Vec<ClassId>,
}

impl App {
    /// Loads an app from its constituent artifacts.
    ///
    /// `layouts` are `(resource name, xml)` pairs; `jasm_src` is the
    /// app's code.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] if any artifact fails to parse.
    pub fn from_parts(
        program: &mut Program,
        manifest_xml: &str,
        layouts: &[(&str, &str)],
        jasm_src: &str,
    ) -> Result<App, AppError> {
        let manifest = Manifest::parse(manifest_xml)?;
        let mut parsed = FxHashMap::default();
        for (name, xml) in layouts {
            parsed.insert((*name).to_owned(), Layout::parse(name, xml)?);
        }
        let resources = ResourceTable::from_layouts(parsed.values());
        let classes = jasm::parse_jasm(program, &resources, jasm_src)?;
        Ok(App { manifest, layouts: parsed, resources, classes })
    }

    /// Loads an app from an RPK [`Archive`].
    ///
    /// Expects `AndroidManifest.xml`, any number of `res/layout/*.xml`
    /// files, and code in `classes.jasm` (text) and/or `classes.sdex`
    /// (binary).
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] if the manifest is missing or any artifact
    /// fails to parse.
    pub fn from_archive(program: &mut Program, archive: &Archive) -> Result<App, AppError> {
        Self::load_archive(program, archive, sdex::decode)
    }

    /// Loads an app from an RPK [`Archive`] like [`App::from_archive`],
    /// but defers SDEX method-body decoding: class/method indexes are
    /// declared eagerly while bodies become pending bodies that the
    /// callgraph closure materializes on first access (see
    /// [`flowdroid_ir::Program::ensure_body`]). `classes.jasm` text has
    /// no body index and is still parsed eagerly.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] under exactly the same conditions as the
    /// eager loader: lazily loaded bodies are fully validated up front,
    /// so a malformed archive is rejected here, not at materialization.
    pub fn from_archive_lazy(program: &mut Program, archive: &Archive) -> Result<App, AppError> {
        Self::load_archive(program, archive, |p, bytes| sdex::decode_lazy(p, bytes.to_vec().into()))
    }

    /// The loader behind [`App::from_archive`] and
    /// [`App::from_archive_lazy`], which differ only in how `decode`
    /// declares the classes of `classes.sdex`.
    fn load_archive(
        program: &mut Program,
        archive: &Archive,
        decode: impl FnOnce(&mut Program, &[u8]) -> Result<Vec<ClassId>, SdexError>,
    ) -> Result<App, AppError> {
        let manifest_xml = archive
            .get_str("AndroidManifest.xml")
            .ok_or_else(|| AppError::Missing("AndroidManifest.xml".to_owned()))?;
        let manifest = Manifest::parse(manifest_xml)?;
        let mut parsed = FxHashMap::default();
        for path in archive.paths_under("res/layout/") {
            let name = path
                .strip_prefix("res/layout/")
                .and_then(|p| p.strip_suffix(".xml"))
                .unwrap_or(path);
            let xml = archive
                .get_str(path)
                .ok_or_else(|| AppError::Missing(format!("{path} (not UTF-8)")))?;
            parsed.insert(name.to_owned(), Layout::parse(name, xml)?);
        }
        let resources = ResourceTable::from_layouts(parsed.values());
        let mut classes = match archive.get_str("classes.jasm") {
            Some(src) => jasm::parse_jasm(program, &resources, src)?,
            None => Vec::new(),
        };
        if let Some(bytes) = archive.get("classes.sdex") {
            classes.extend(decode(program, bytes)?);
        }
        if classes.is_empty() {
            return Err(AppError::Missing("classes.jasm or classes.sdex".to_owned()));
        }
        Ok(App { manifest, layouts: parsed, resources, classes })
    }

    /// Bundles raw app artifacts into an RPK archive (the inverse of
    /// [`App::from_archive`]).
    pub fn bundle(manifest_xml: &str, layouts: &[(&str, &str)], jasm_src: &str) -> Archive {
        let mut a = Archive::new();
        a.add("AndroidManifest.xml", manifest_xml.as_bytes());
        for (name, xml) in layouts {
            a.add(format!("res/layout/{name}.xml"), xml.as_bytes());
        }
        a.add("classes.jasm", jasm_src.as_bytes());
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"<manifest package="com.example">
  <application>
    <activity android:name=".Main">
      <intent-filter><action android:name="android.intent.action.MAIN"/></intent-filter>
    </activity>
  </application>
</manifest>"#;

    const LAYOUT: &str = r#"<LinearLayout>
  <EditText android:id="@+id/pwd" android:inputType="textPassword"/>
  <Button android:id="@+id/go" android:onClick="onGo"/>
</LinearLayout>"#;

    const CODE: &str = r#"
class com.example.Main extends android.app.Activity {
  method onCreate() -> void {
    virtualinvoke this.<android.app.Activity: void setContentView(int)>(@layout/main)
    return
  }
  method onGo(v: android.view.View) -> void {
    return
  }
}
"#;

    #[test]
    fn from_parts_loads_everything() {
        let mut p = Program::new();
        let app = App::from_parts(&mut p, MANIFEST, &[("main", LAYOUT)], CODE).unwrap();
        assert_eq!(app.manifest.package, "com.example");
        assert_eq!(app.classes.len(), 1);
        assert!(app.layouts.contains_key("main"));
        assert!(app.resources.widget_id("pwd").is_some());
        assert!(p.find_method("com.example.Main", "onCreate").is_some());
    }

    #[test]
    fn archive_round_trip_loads() {
        let archive = App::bundle(MANIFEST, &[("main", LAYOUT)], CODE);
        let bytes = archive.to_bytes();
        let archive2 = Archive::from_bytes(&bytes).unwrap();
        let mut p = Program::new();
        let app = App::from_archive(&mut p, &archive2).unwrap();
        assert_eq!(app.manifest.launcher().unwrap().class_name, "com.example.Main");
        assert_eq!(app.layouts["main"].click_handlers().count(), 1);
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let mut p = Program::new();
        let a = Archive::new();
        assert!(matches!(
            App::from_archive(&mut p, &a),
            Err(AppError::Missing(m)) if m.contains("Manifest")
        ));
    }

    #[test]
    fn missing_code_is_an_error() {
        let mut p = Program::new();
        let mut a = Archive::new();
        a.add("AndroidManifest.xml", MANIFEST.as_bytes());
        assert!(matches!(
            App::from_archive(&mut p, &a),
            Err(AppError::Missing(m)) if m.contains("classes")
        ));
    }

    #[test]
    fn sdex_classes_load_from_archive() {
        // Author in jasm, encode to SDEX, then load an app whose code is
        // binary-only.
        let mut author = Program::new();
        let rt = crate::layout::ResourceTable::new();
        let ids = crate::jasm::parse_jasm(
            &mut author,
            &rt,
            "class com.example.Main extends android.app.Activity { method onCreate() -> void { return } }",
        )
        .unwrap();
        let sdex = crate::sdex::encode(&author, &ids);
        let mut a = Archive::new();
        a.add("AndroidManifest.xml", MANIFEST.as_bytes());
        a.add("classes.sdex", sdex);
        let mut p = Program::new();
        let app = App::from_archive(&mut p, &a).unwrap();
        assert_eq!(app.classes.len(), 1);
        assert!(p.find_method("com.example.Main", "onCreate").is_some());
    }
}
