//! Typed deployment-error taxonomy over substrate results.
//!
//! Raw stderr is not actionable feedback — the IaC error-taxonomy line of
//! work shows that *classified* failures are what a repair loop can learn
//! from. This module folds every [`ExecError`] and every failing
//! [`ExecOutcome`] produced by [`ShellSubstrate`](crate::ShellSubstrate) into a
//! **closed** set of buckets ([`Bucket`]), each carrying structured
//! diagnostics ([`Diagnosis`]): the offending path, field or name pulled
//! out of the simulators' own error phrasing.
//!
//! The classifier is **total** and **deterministic**: any string maps to
//! exactly one bucket (worst case [`Bucket::Unknown`], which keeps the
//! raw text in [`Diagnosis::raw`]), the same input always maps to the
//! same bucket, and nothing panics — properties pinned by the property
//! tests in `tests/proptest_taxonomy.rs` and by the curated broken
//! candidates in `tests/conformance.rs`.
//!
//! # Examples
//!
//! ```
//! use substrate::taxonomy::{classify_message, Bucket};
//!
//! let d = classify_message(
//!     "Pod in version \"v1\" cannot be handled as a Pod: strict decoding error: unknown field \"containerz\"",
//! );
//! assert_eq!(d.bucket, Bucket::SchemaViolation);
//! assert_eq!(d.subject.as_deref(), Some("containerz"));
//! assert!(!d.bucket.retryable());
//! ```

use crate::{ExecError, ExecOutcome};

/// The closed deployment-error taxonomy.
///
/// Buckets are ordered roughly by lifecycle stage: text-level
/// (`YamlSyntax`), admission-level (`SchemaViolation` through
/// `QuotaExceeded`), then probe-level (`ProbeTimeout`, `ProbeFailed`).
/// `Unknown` is the explicit escape hatch — its rate over the generated
/// scenario grid is pinned below a threshold by the property tests, so
/// classifier coverage cannot silently regress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// The candidate is not parseable YAML at all.
    YamlSyntax,
    /// Parsed but violates the resource schema: unknown/missing/mistyped
    /// fields, missing `kind`/`apiVersion`, malformed structure.
    SchemaViolation,
    /// A workload selector does not match its pod template labels.
    SelectorMismatch,
    /// A referenced resource, namespace, kind or image does not exist.
    MissingResource,
    /// A field references a sibling object that was never declared
    /// (volume mount without a volume, route to an unknown cluster).
    BadReference,
    /// Admission refused the object because a quota is exhausted.
    QuotaExceeded,
    /// A readiness/condition wait ran out its deadline.
    ProbeTimeout,
    /// The functional probe ran and its assertion failed.
    ProbeFailed,
    /// Outside the closed taxonomy; the raw text rides along in
    /// [`Diagnosis::raw`].
    Unknown,
}

impl Bucket {
    /// Every bucket, in taxonomy order (stable across releases — counters
    /// and wire formats index into this).
    pub const ALL: [Bucket; 9] = [
        Bucket::YamlSyntax,
        Bucket::SchemaViolation,
        Bucket::SelectorMismatch,
        Bucket::MissingResource,
        Bucket::BadReference,
        Bucket::QuotaExceeded,
        Bucket::ProbeTimeout,
        Bucket::ProbeFailed,
        Bucket::Unknown,
    ];

    /// Stable kebab-case label (wire format, stats keys, repair feedback).
    pub fn label(self) -> &'static str {
        match self {
            Bucket::YamlSyntax => "yaml-syntax",
            Bucket::SchemaViolation => "schema-violation",
            Bucket::SelectorMismatch => "selector-mismatch",
            Bucket::MissingResource => "missing-resource",
            Bucket::BadReference => "bad-reference",
            Bucket::QuotaExceeded => "quota-exceeded",
            Bucket::ProbeTimeout => "probe-timeout",
            Bucket::ProbeFailed => "probe-failed",
            Bucket::Unknown => "unknown",
        }
    }

    /// Inverse of [`Bucket::label`].
    pub fn from_label(label: &str) -> Option<Bucket> {
        Bucket::ALL.into_iter().find(|b| b.label() == label)
    }

    /// Position in [`Bucket::ALL`] (for counter arrays).
    pub fn index(self) -> usize {
        Bucket::ALL
            .iter()
            .position(|b| *b == self)
            .expect("bucket in ALL")
    }

    /// Whether resubmitting the *same* candidate could plausibly change
    /// the verdict in a real deployment. Timeouts and quota pressure are
    /// transient; syntax, schema and reference faults are deterministic
    /// properties of the candidate. `Unknown` is conservatively
    /// retryable — we cannot prove the failure was the candidate's.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            Bucket::ProbeTimeout | Bucket::QuotaExceeded | Bucket::Unknown
        )
    }
}

impl std::fmt::Display for Bucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A classified failure: the bucket plus whatever structured context the
/// error text yielded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnosis {
    /// The taxonomy bucket.
    pub bucket: Bucket,
    /// Offending path, field or name when the error phrasing names one
    /// (e.g. the unknown field, the missing pod, the dangling cluster).
    pub subject: Option<String>,
    /// The raw line the classification was made from.
    pub raw: String,
}

impl Diagnosis {
    fn new(bucket: Bucket, subject: Option<&str>, raw: &str) -> Diagnosis {
        Diagnosis {
            bucket,
            subject: subject.map(str::to_owned),
            raw: raw.to_owned(),
        }
    }
}

/// First double-quoted substring of `text`.
fn quoted(text: &str) -> Option<&str> {
    let start = text.find('"')? + 1;
    let len = text[start..].find('"')?;
    Some(&text[start..start + len])
}

/// First single-quoted substring of `text` (envoy phrasing).
fn single_quoted(text: &str) -> Option<&str> {
    let start = text.find('\'')? + 1;
    let len = text[start..].find('\'')?;
    Some(&text[start..start + len])
}

/// The text after `marker`, trimmed to the first line.
fn after<'a>(text: &'a str, marker: &str) -> Option<&'a str> {
    let start = text.find(marker)? + marker.len();
    let rest = text[start..].trim();
    Some(rest.lines().next().unwrap_or(rest).trim())
}

/// The field path before `marker` (last whitespace-separated token of the
/// text preceding it), for `spec.foo: Required value` shapes.
fn path_before<'a>(text: &'a str, marker: &str) -> Option<&'a str> {
    let end = text.find(marker)?;
    let head = &text[..end];
    let token = head.rsplit([' ', '\n', '\t']).next()?;
    let token = token.trim_end_matches(':');
    (!token.is_empty()).then_some(token)
}

/// Classifies one error/transcript line into the taxonomy. Total: every
/// string maps to exactly one bucket; unmatched text lands in
/// [`Bucket::Unknown`] with the raw line preserved.
///
/// Pattern order is significant — earlier rules are more specific (the
/// selector-mismatch phrasing also contains `Invalid value`; the
/// volume-mount phrasing also contains `is invalid`), so the specific
/// bucket must win before the generic schema rule fires.
pub fn classify_message(msg: &str) -> Diagnosis {
    // 1. Text level: the candidate never parsed.
    if msg.contains("error parsing YAML")
        || msg.contains("not parseable YAML")
        || msg.contains("malformed yaml")
        || msg.contains("error parsing manifest")
    {
        return Diagnosis::new(Bucket::YamlSyntax, None, msg);
    }
    // 2. Selector vs template labels (contains "Invalid value" — must
    //    precede the schema rule).
    if msg.contains("`selector` does not match template `labels`") {
        return Diagnosis::new(Bucket::SelectorMismatch, quoted(msg), msg);
    }
    // 3. Quota admission.
    if msg.contains("exceeded quota") {
        let subject = after(msg, "exceeded quota:").map(|s| s.trim_end_matches(','));
        let subject = subject.map(|s| s.split(',').next().unwrap_or(s).trim());
        return Diagnosis::new(Bucket::QuotaExceeded, subject, msg);
    }
    // 4. Dangling intra-manifest references (contains "Not found"/"is
    //    invalid" — must precede the missing-resource and schema rules).
    if msg.contains("Not found: \"") {
        return Diagnosis::new(
            Bucket::BadReference,
            quoted(&msg[msg.find("Not found:").unwrap_or(0)..]),
            msg,
        );
    }
    if msg.contains("unknown cluster") {
        return Diagnosis::new(Bucket::BadReference, single_quoted(msg), msg);
    }
    // 5. Schema violations: strict decoding, validation, envoy structure.
    if msg.contains("strict decoding error") || msg.contains("cannot be handled as a") {
        let detail = msg
            .find("strict decoding error:")
            .map_or(msg, |i| &msg[i..]);
        return Diagnosis::new(Bucket::SchemaViolation, quoted(detail), msg);
    }
    if msg.contains("error validating data") {
        let subject = after(msg, "error validating data:")
            .map(|s| s.rsplit(' ').next().unwrap_or(s).trim_end_matches('.'));
        return Diagnosis::new(Bucket::SchemaViolation, subject, msg);
    }
    if msg.contains("Required value") || msg.contains("Invalid value") {
        let marker = if msg.contains("Required value") {
            ": Required value"
        } else {
            ": Invalid value"
        };
        return Diagnosis::new(Bucket::SchemaViolation, path_before(msg, marker), msg);
    }
    if msg.contains("missing static_resources")
        || msg.contains("missing socket_address")
        || msg.contains("missing address")
        || msg.contains("missing port_value")
        || msg.contains("route missing match")
        || msg.contains("missing name")
        || msg.contains("missing kind")
        || msg.contains("missing apiVersion")
        || msg.contains("no objects passed to apply")
    {
        return Diagnosis::new(Bucket::SchemaViolation, None, msg);
    }
    // 6. Deadline expiry.
    if msg.contains("timed out waiting for the condition")
        || msg.contains("Operation timed out")
        || msg.contains("deadline exceeded")
    {
        let subject = after(msg, "condition on ");
        return Diagnosis::new(Bucket::ProbeTimeout, subject, msg);
    }
    // 7. Missing resources, kinds, namespaces, images.
    if msg.contains("no matches for kind") {
        return Diagnosis::new(Bucket::MissingResource, quoted(msg), msg);
    }
    if msg.contains("NotFound")
        || msg.contains("not found")
        || msg.contains("ImagePullBackOff")
        || msg.contains("ErrImagePull")
    {
        return Diagnosis::new(Bucket::MissingResource, quoted(msg), msg);
    }
    Diagnosis::new(Bucket::Unknown, None, msg)
}

/// Classifies a typed [`ExecError`]. `InvalidInput` is by construction a
/// parse failure; `Probe` messages go through the shared line classifier.
pub fn classify_error(error: &ExecError) -> Diagnosis {
    match error {
        ExecError::InvalidInput(m) => Diagnosis::new(Bucket::YamlSyntax, None, m),
        ExecError::Probe(m) => {
            let d = classify_message(m);
            if d.bucket == Bucket::Unknown {
                // A probe program that could not run is an assertion-layer
                // fault, not an unclassifiable candidate fault.
                Diagnosis::new(Bucket::ProbeFailed, None, m)
            } else {
                d
            }
        }
    }
}

/// Classifies a failing [`ExecOutcome`] from its transcript; `None` for a
/// passing outcome. Every line is classified and the **most causal**
/// diagnosis wins — lowest [`Bucket::index`], i.e. deployment-stage
/// errors outrank probe-stage symptoms (an `ImagePullBackOff` line beats
/// the wait timeout it caused; ties go to the earliest line). Falls back
/// to [`Bucket::ProbeFailed`]: a transcript with no deployment-stage
/// error means the candidate deployed and the functional assertion
/// itself failed.
pub fn classify_outcome(outcome: &ExecOutcome) -> Option<Diagnosis> {
    if outcome.passed {
        return None;
    }
    let mut best: Option<Diagnosis> = None;
    for line in outcome.transcript.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let d = classify_message(line);
        if d.bucket != Bucket::Unknown
            && best
                .as_ref()
                .is_none_or(|b| d.bucket.index() < b.bucket.index())
        {
            best = Some(d);
        }
    }
    if let Some(d) = best {
        return Some(d);
    }
    let subject = outcome
        .transcript
        .lines()
        .map(str::trim)
        .find(|l| l.contains("!=") || l.contains("FAILED") || l.starts_with("expect "));
    Some(Diagnosis::new(
        Bucket::ProbeFailed,
        subject,
        subject.unwrap_or(""),
    ))
}

/// Classifies a full execution result: `None` iff the candidate passed.
pub fn classify_result(result: &Result<ExecOutcome, ExecError>) -> Option<Diagnosis> {
    match result {
        Ok(outcome) => classify_outcome(outcome),
        Err(e) => Some(classify_error(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kube_error_shapes_classify() {
        let cases: &[(&str, Bucket, Option<&str>)] = &[
            (
                "error parsing YAML: unclosed flow sequence",
                Bucket::YamlSyntax,
                None,
            ),
            (
                "Pod in version \"v1\" cannot be handled as a Pod: strict decoding error: unknown field \"containerz\"",
                Bucket::SchemaViolation,
                Some("containerz"),
            ),
            (
                "The Deployment \"web\" is invalid: spec.template.metadata.labels: Invalid value: `selector` does not match template `labels`",
                Bucket::SelectorMismatch,
                Some("web"),
            ),
            (
                "pods \"two\" is forbidden: exceeded quota: team-quota, requested: pods=1, used: pods=1, limited: pods=1",
                Bucket::QuotaExceeded,
                Some("team-quota"),
            ),
            (
                "Pod \"p\" is invalid: spec.containers[0].volumeMounts[0].name: Not found: \"cfg\"",
                Bucket::BadReference,
                Some("cfg"),
            ),
            (
                "no matches for kind \"Podd\" in version \"v1\"",
                Bucket::MissingResource,
                Some("Podd"),
            ),
            ("namespaces \"dev\" not found", Bucket::MissingResource, Some("dev")),
            (
                "error: timed out waiting for the condition on pods/web",
                Bucket::ProbeTimeout,
                Some("pods/web"),
            ),
            (
                "Error from server (NotFound): pods \"web\" not found",
                Bucket::MissingResource,
                Some("web"),
            ),
            (
                "Service \"s\" is invalid: spec.ports: Required value",
                Bucket::SchemaViolation,
                Some("spec.ports"),
            ),
            ("error validating data: missing kind", Bucket::SchemaViolation, Some("kind")),
        ];
        for (msg, bucket, subject) in cases {
            let d = classify_message(msg);
            assert_eq!(d.bucket, *bucket, "{msg}");
            assert_eq!(d.subject.as_deref(), *subject, "{msg}");
            assert_eq!(d.raw, *msg);
        }
    }

    #[test]
    fn envoy_error_shapes_classify() {
        assert_eq!(
            classify_message("malformed yaml").bucket,
            Bucket::YamlSyntax
        );
        assert_eq!(
            classify_message("missing static_resources").bucket,
            Bucket::SchemaViolation
        );
        let d = classify_message("route: unknown cluster 'missing_cluster'");
        assert_eq!(d.bucket, Bucket::BadReference);
        assert_eq!(d.subject.as_deref(), Some("missing_cluster"));
        assert_eq!(
            classify_message("virtual host vh: route missing match").bucket,
            Bucket::SchemaViolation
        );
    }

    #[test]
    fn failing_transcript_falls_back_to_probe_failed() {
        let outcome = ExecOutcome {
            passed: false,
            transcript: "pod/web created\nexpect Pod/web .status.phase: Some(\"Pending\") != Some(\"Running\")\n".into(),
            simulated_ms: 10,
        };
        let d = classify_outcome(&outcome).unwrap();
        assert_eq!(d.bucket, Bucket::ProbeFailed);
        assert!(d.subject.unwrap().contains("!="));
        let pass = ExecOutcome {
            passed: true,
            transcript: String::new(),
            simulated_ms: 0,
        };
        assert!(classify_outcome(&pass).is_none());
    }

    #[test]
    fn exec_error_classification_and_retryability() {
        let d = classify_error(&ExecError::InvalidInput("anything at all".into()));
        assert_eq!(d.bucket, Bucket::YamlSyntax);
        let d = classify_error(&ExecError::Probe("empty assertion program".into()));
        assert_eq!(d.bucket, Bucket::ProbeFailed);
        assert!(Bucket::ProbeTimeout.retryable());
        assert!(Bucket::QuotaExceeded.retryable());
        assert!(Bucket::Unknown.retryable());
        assert!(!Bucket::SchemaViolation.retryable());
        assert!(!Bucket::ProbeFailed.retryable());
    }

    #[test]
    fn labels_roundtrip_and_index_is_stable() {
        for (i, b) in Bucket::ALL.into_iter().enumerate() {
            assert_eq!(b.index(), i);
            assert_eq!(Bucket::from_label(b.label()), Some(b));
            assert_eq!(b.to_string(), b.label());
        }
        assert_eq!(Bucket::from_label("nope"), None);
    }
}
