//! `AndroidManifest.xml` semantics: the app's declared components.

use crate::xml::{self, XmlError};
use std::fmt;

/// The four Android component kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ComponentKind {
    /// A UI screen.
    Activity,
    /// A background task.
    Service,
    /// A global-event listener.
    BroadcastReceiver,
    /// A database-like storage component.
    ContentProvider,
}

impl ComponentKind {
    /// The framework base class for this kind.
    pub fn base_class(self) -> &'static str {
        match self {
            ComponentKind::Activity => "android.app.Activity",
            ComponentKind::Service => "android.app.Service",
            ComponentKind::BroadcastReceiver => "android.content.BroadcastReceiver",
            ComponentKind::ContentProvider => "android.content.ContentProvider",
        }
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ComponentKind::Activity => "activity",
            ComponentKind::Service => "service",
            ComponentKind::BroadcastReceiver => "receiver",
            ComponentKind::ContentProvider => "provider",
        };
        f.write_str(s)
    }
}

/// One component declared in the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentDecl {
    /// The component kind.
    pub kind: ComponentKind,
    /// Fully qualified class name (relative names are resolved against
    /// the manifest package).
    pub class_name: String,
    /// `android:enabled` (defaults to `true`). Disabled components are
    /// excluded from the lifecycle model, exactly as the paper's
    /// InactiveActivity benchmark requires.
    pub enabled: bool,
    /// `android:exported` (defaults to `false`).
    pub exported: bool,
    /// Whether an intent filter marks this the MAIN/LAUNCHER activity.
    pub is_launcher: bool,
}

/// A parsed manifest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// The application package.
    pub package: String,
    /// Declared components in document order.
    pub components: Vec<ComponentDecl>,
    /// Declared `<uses-permission>` names in document order.
    pub permissions: Vec<String>,
}

impl Manifest {
    /// Parses a manifest document.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError`] on malformed XML or a missing
    /// `<manifest package=…>` root.
    pub fn parse(input: &str) -> Result<Manifest, XmlError> {
        let root = xml::parse(input)?;
        if root.name != "manifest" {
            return Err(XmlError {
                message: format!("expected <manifest> root, found <{}>", root.name),
                offset: 0,
            });
        }
        let package = root.attr("package").unwrap_or("").to_owned();
        let permissions: Vec<String> = root
            .children_named("uses-permission")
            .filter_map(|e| e.attr("android:name"))
            .map(str::to_owned)
            .collect();
        let mut components = Vec::new();
        if let Some(app) = root.child("application") {
            for child in &app.children {
                let kind = match child.name.as_str() {
                    "activity" => ComponentKind::Activity,
                    "service" => ComponentKind::Service,
                    "receiver" => ComponentKind::BroadcastReceiver,
                    "provider" => ComponentKind::ContentProvider,
                    _ => continue,
                };
                let raw_name = child.attr("android:name").unwrap_or("");
                let class_name = if let Some(stripped) = raw_name.strip_prefix('.') {
                    format!("{package}.{stripped}")
                } else if raw_name.contains('.') || package.is_empty() {
                    raw_name.to_owned()
                } else {
                    format!("{package}.{raw_name}")
                };
                let enabled = child.attr("android:enabled") != Some("false");
                let exported = child.attr("android:exported") == Some("true");
                let is_launcher = child.children_named("intent-filter").any(|f| {
                    f.children_named("action")
                        .any(|a| a.attr("android:name") == Some("android.intent.action.MAIN"))
                });
                components.push(ComponentDecl { kind, class_name, enabled, exported, is_launcher });
            }
        }
        Ok(Manifest { package, components, permissions })
    }

    /// Components that are enabled (participate in the lifecycle model).
    pub fn enabled_components(&self) -> impl Iterator<Item = &ComponentDecl> {
        self.components.iter().filter(|c| c.enabled)
    }

    /// The launcher activity, if declared.
    pub fn launcher(&self) -> Option<&ComponentDecl> {
        self.components.iter().find(|c| c.is_launcher && c.kind == ComponentKind::Activity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"<?xml version="1.0"?>
<manifest package="com.example">
  <uses-permission android:name="android.permission.READ_PHONE_STATE"/>
  <uses-permission android:name="android.permission.SEND_SMS"/>
  <application>
    <activity android:name=".Main">
      <intent-filter><action android:name="android.intent.action.MAIN"/></intent-filter>
    </activity>
    <activity android:name="com.other.Second" android:enabled="false"/>
    <service android:name="Worker"/>
    <receiver android:name=".Boot" android:exported="true"/>
    <provider android:name=".Store"/>
  </application>
</manifest>"#;

    #[test]
    fn parses_components_and_names() {
        let m = Manifest::parse(DOC).unwrap();
        assert_eq!(m.package, "com.example");
        assert_eq!(m.components.len(), 5);
        assert_eq!(m.components[0].class_name, "com.example.Main");
        assert_eq!(m.components[1].class_name, "com.other.Second");
        assert_eq!(m.components[2].class_name, "com.example.Worker");
        assert_eq!(m.components[2].kind, ComponentKind::Service);
        assert_eq!(m.components[3].kind, ComponentKind::BroadcastReceiver);
        assert!(m.components[3].exported);
        assert_eq!(m.components[4].kind, ComponentKind::ContentProvider);
    }

    #[test]
    fn disabled_components_are_filtered() {
        let m = Manifest::parse(DOC).unwrap();
        assert!(!m.components[1].enabled);
        assert_eq!(m.enabled_components().count(), 4);
    }

    #[test]
    fn uses_permissions_are_collected() {
        let m = Manifest::parse(DOC).unwrap();
        assert_eq!(
            m.permissions,
            vec![
                "android.permission.READ_PHONE_STATE".to_owned(),
                "android.permission.SEND_SMS".to_owned()
            ]
        );
    }

    #[test]
    fn launcher_detection() {
        let m = Manifest::parse(DOC).unwrap();
        assert_eq!(m.launcher().unwrap().class_name, "com.example.Main");
    }

    #[test]
    fn rejects_wrong_root() {
        assert!(Manifest::parse("<application/>").is_err());
    }

    #[test]
    fn component_kind_base_classes() {
        assert_eq!(ComponentKind::Activity.base_class(), "android.app.Activity");
        assert_eq!(ComponentKind::Service.to_string(), "service");
    }
}
