//! Streaming session engine — the paper's deployment mode made first-class.
//!
//! The real in situ workflow is a time-series loop (Fig. 16): calibrate
//! once on an early snapshot, then compress every subsequent snapshot as
//! structure evolves. [`StreamSession`] owns everything that loop needs to
//! persist across snapshots:
//!
//! * the fitted [`CodecModelBank`] (one rate model per enabled backend),
//!   trained by a **single full calibration** on the first snapshot;
//! * a [`QualityPolicy`] that derives each snapshot's quality target from
//!   the evolving field instead of ad-hoc config mutation;
//! * a **drift detector**: each snapshot the per-partition bit rates the
//!   models predicted are compared against what the codecs actually
//!   produced. While the mean relative residual stays under
//!   [`SessionConfig::drift_threshold`], later snapshots pay *zero*
//!   modeling cost (the paper's Fig. 10(b) transfer claim, now checked
//!   instead of assumed). When structure formation drifts the rate curves
//!   past the threshold, the session runs an **incremental recalibration**:
//!   a sampled refresh over a small brick subset and a short bound sweep
//!   (reusing the [`RatioModel::calibrate_by`] plumbing via
//!   [`CodecModelBank::calibrate`]), several times cheaper than the
//!   first-snapshot calibration. The refreshed models take effect
//!   from the next snapshot — no snapshot is ever compressed twice.
//!
//! ## Per-partition drift localisation
//!
//! The drift signal is per-partition before it is a mean:
//! [`drift_residuals`] reports each partition's relative
//! |predicted − measured| bit-rate error, and [`drift_residual`] is its
//! mean. When the mean trips [`SessionConfig::drift_threshold`], the
//! refresh samples **only the partitions whose own residual exceeds the
//! threshold** (padded to the fit's two-brick minimum with the
//! worst-residual partitions, and evenly subsampled down to the old
//! stride-derived brick count if a global shift trips *every*
//! partition). The sample always includes the two **calmest** partitions
//! as healthy anchors: the refreshed models replace the bank globally,
//! and a fit drawn only from anomalous bricks would mis-price every
//! partition that never drifted. A moving shock front therefore refits
//! from the handful of bricks it is crossing plus two anchors, while a
//! full regime shift degrades to exactly the old whole-bank sampled
//! refresh — the localised path's worst case *is* the previous
//! behaviour, never more. The deferred
//! [`RefreshTask`] captures the same partition list, so inline and
//! deferred refreshes stay bit-for-bit identical.
//! [`SnapshotStats::refreshed_partitions`] and
//! [`SnapshotRecord::residuals`] expose the localisation for audit.
//!
//! ## Non-finite ingestion
//!
//! A field carrying NaN/∞ cells cannot be modeled: partition means go
//! NaN, the fit poisons the bank, and every later `residual > threshold`
//! comparison is silently `false` — a blinded drift detector, the worst
//! failure mode of all. [`StreamSession::push_snapshot`] therefore
//! screens the field and rejects non-finite input with a typed
//! [`PushError::NonFiniteInput`] before any state changes; the session
//! stays usable for the next (finite) snapshot. Residual terms are also
//! saturated: a non-finite prediction or an invalid bound reads as a
//! huge residual (drift **fires**) rather than a NaN comparison (drift
//! silently disabled). The chaos harness (`tests/chaos_matrix.rs`,
//! driven by the `scenarios` workload zoo) pins both behaviours, plus
//! the true-positive/false-positive envelope of the detector on every
//! scenario series.
//!
//! Per-snapshot outcomes ([`SnapshotRecord`]) carry the containers (ready
//! for a `codec_core::StreamFileWriter` frame) plus [`SnapshotStats`] with the
//! calibration event, the measured drift residual and the modeling cost,
//! so the amortization claim is auditable from the session history alone.
//!
//! ## Checkpoint / restore
//!
//! Long-running simulations die; without persistence a restart repays the
//! full first-snapshot calibration the session exists to amortize.
//! [`StreamSession::save`] serialises everything the modeling layer
//! learned — the fitted [`CodecModelBank`], the [`QualityPolicy`] and the
//! rest of the [`SessionConfig`] (including the partition geometry), the
//! optimizer's clamp tuning, and the drift state — into a versioned
//! `CKPT` blob ([`SessionCheckpoint`] is the typed form).
//! [`StreamSession::restore`] rebuilds a session that **skips
//! recalibration entirely**: its next [`StreamSession::push_snapshot`]
//! transfers the checkpointed models exactly as the uninterrupted run
//! would have, so resumed frames are byte-identical to never having
//! crashed. Every corruption of the blob surfaces as a typed
//! [`CheckpointError`], never a panic. Versioning rule: the `CKPT`
//! version byte bumps on any layout/semantics change, and old readers
//! reject newer blobs loudly (no silent best-effort decode of models that
//! would then misprice every partition).
//!
//! Pairing rule for durable streams: persist the blob only after the
//! matching frame's `append_frame` returns, so the checkpoint on disk
//! always corresponds to the stream's recoverable prefix. A checkpoint
//! taken after a frame that did *not* survive the crash may already carry
//! a drift-refreshed bank (refreshes fire inside the push that detects
//! them) and re-pushing the lost snapshot against it would not reproduce
//! the uninterrupted bytes.
//!
//! [`RatioModel::calibrate_by`]: crate::ratio_model::RatioModel::calibrate_by

use crate::optimizer::{HaloTarget, QualityTarget};
use crate::pipeline::{InSituPipeline, PipelineConfig, PipelineResult, Timings};
use crate::ratio_model::{
    bricks_at, sample_bricks, CalibrationError, CalibrationReport, CodecModelBank, RatioModel,
};
use codec_core::{fnv1a64, CodecId, Container};
use gridlab::{Decomposition, Field3, Scalar};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{Counter, Event, Gauge, Histogram, MetricsRegistry};

/// Why a snapshot push was rejected. The session state is untouched by a
/// rejected push — the caller can fix or drop the offending snapshot and
/// continue the series.
#[derive(Debug, Clone, PartialEq)]
pub enum PushError {
    /// The field carries NaN/∞ cells; modeling it would silently corrupt
    /// the bank (see the module's non-finite ingestion notes).
    NonFiniteInput {
        /// How many cells are NaN/∞.
        non_finite: usize,
        /// Total cells in the field.
        cells: usize,
    },
    /// Model calibration rejected the sampled bricks.
    Calibration(CalibrationError),
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::NonFiniteInput { non_finite, cells } => {
                write!(f, "field has {non_finite} non-finite of {cells} cells")
            }
            PushError::Calibration(e) => write!(f, "calibration failed: {e}"),
        }
    }
}

impl std::error::Error for PushError {}

impl From<CalibrationError> for PushError {
    fn from(e: CalibrationError) -> Self {
        PushError::Calibration(e)
    }
}

/// How a session derives each snapshot's average-bound budget.
///
/// This replaces the hand-rolled `pipeline.cfg.target = ...` mutation the
/// redshift-series example used to perform: the policy is declared once
/// and the session re-evaluates it against every incoming field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum QualityPolicy {
    /// The same absolute average bound for every snapshot.
    FixedEb(f64),
    /// `eb_avg = fraction × σ(field)` — the budget tracks the evolving
    /// field amplitude (the Fig. 16/17 workflow, where growing contrast
    /// at lower redshift widens the usable bound).
    SigmaScaled(f64),
    /// `eb_avg` chosen so the **model-predicted** overall bit rate equals
    /// this budget (bits/value): a storage-budget contract instead of a
    /// quality contract, inverted through the fitted model bank each
    /// snapshot.
    BitrateBudget(f64),
}

impl QualityPolicy {
    /// Non-panicking invariant check — the restore path must reject a
    /// corrupt policy with a typed error, not a panic.
    fn check(&self) -> Result<(), String> {
        let (name, v) = match *self {
            QualityPolicy::FixedEb(eb) => ("FixedEb bound", eb),
            QualityPolicy::SigmaScaled(fraction) => ("SigmaScaled fraction", fraction),
            QualityPolicy::BitrateBudget(budget) => ("BitrateBudget bits/value", budget),
        };
        if v > 0.0 && v.is_finite() {
            Ok(())
        } else {
            Err(format!("{name} must be positive and finite, got {v}"))
        }
    }

    /// One rung down a quality-degradation ladder: the same contract,
    /// `factor` times looser. Quality policies loosen by *widening* the
    /// bound (`FixedEb`, `SigmaScaled` multiply by `factor`); a storage
    /// contract loosens by *shrinking* the budget (`BitrateBudget`
    /// divides by `factor`) — both directions mean "spend fewer bits".
    /// This is the primitive an overloaded server steps through instead
    /// of stalling its callers.
    pub fn relax(&self, factor: f64) -> QualityPolicy {
        assert!(factor >= 1.0 && factor.is_finite(), "relax factor must be ≥ 1, got {factor}");
        match *self {
            QualityPolicy::FixedEb(eb) => QualityPolicy::FixedEb(eb * factor),
            QualityPolicy::SigmaScaled(f) => QualityPolicy::SigmaScaled(f * factor),
            QualityPolicy::BitrateBudget(b) => QualityPolicy::BitrateBudget(b / factor),
        }
    }

    /// The bound used to centre the first-snapshot calibration sweep,
    /// before any model exists. For [`QualityPolicy::BitrateBudget`] this
    /// is a σ-scaled guess probing the paper's operating regime; the
    /// actual budget inversion starts with the fitted bank.
    fn bootstrap_eb(&self, sigma: f64) -> f64 {
        let eb = match *self {
            QualityPolicy::FixedEb(eb) => eb,
            QualityPolicy::SigmaScaled(fraction) => fraction * sigma,
            QualityPolicy::BitrateBudget(_) => 0.1 * sigma,
        };
        eb.max(1e-12)
    }

    /// Resolve the snapshot's budget against the current models.
    fn resolve(
        &self,
        sigma: f64,
        means: impl Iterator<Item = f64> + Clone,
        bank: &CodecModelBank,
    ) -> f64 {
        match *self {
            QualityPolicy::FixedEb(eb) => eb,
            QualityPolicy::SigmaScaled(fraction) => (fraction * sigma).max(1e-12),
            QualityPolicy::BitrateBudget(budget) => {
                // Cheapest-codec pricing at a uniform bound is decreasing
                // in the bound for healthy fits (exponent < 0), so the
                // budget inverts by bisection on ln eb.
                let rate_at = |ln_eb: f64| {
                    let eb = ln_eb.exp();
                    let mut sum = 0.0;
                    let mut n = 0usize;
                    for mean in means.clone() {
                        let cheapest = bank
                            .entries()
                            .iter()
                            .map(|(_, m)| m.predict_bitrate(mean, eb))
                            .fold(f64::INFINITY, f64::min);
                        sum += cheapest;
                        n += 1;
                    }
                    sum / n.max(1) as f64
                };
                let (mut lo, mut hi) = (-60.0f64, 60.0f64);
                // Degenerate curves (near-constant fields fit c ≈ 0, so
                // the rate barely moves with the bound) cannot bracket the
                // budget; bisection would silently converge to a domain
                // edge like e^±60. Fall back to the σ-scaled bootstrap
                // guess instead of an absurd bound.
                if rate_at(lo) <= budget || rate_at(hi) >= budget {
                    return self.bootstrap_eb(sigma);
                }
                while hi - lo > 1e-12 {
                    let mid = 0.5 * (lo + hi);
                    if rate_at(mid) > budget {
                        lo = mid; // rate too high ⇒ bound too tight
                    } else {
                        hi = mid;
                    }
                }
                (0.5 * (lo + hi)).exp()
            }
        }
    }
}

/// Static configuration of a [`StreamSession`]. Serializable: the whole
/// config (decomposition geometry included) rides along in a session
/// checkpoint so a restarted run cannot resume against the wrong layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Domain decomposition shared by every snapshot.
    pub dec: Decomposition,
    /// Enabled codec backends (selection-priority order).
    pub codecs: Vec<CodecId>,
    /// Per-snapshot budget derivation.
    pub policy: QualityPolicy,
    /// Optional halo-finder constraint applied to every snapshot's target.
    pub halo: Option<HaloTarget>,
    /// Mean relative |predicted − measured| per-partition bit-rate
    /// residual above which the session refreshes its models.
    pub drift_threshold: f64,
    /// Sample-every-Nth-partition stride of the first-snapshot (full)
    /// calibration.
    pub calib_stride: usize,
    /// Stride of the drift-triggered sampled refresh (larger ⇒ fewer
    /// bricks ⇒ cheaper).
    pub refresh_stride: usize,
    /// Full-calibration sweep, as multipliers of the bootstrap bound.
    pub sweep_multipliers: Vec<f64>,
    /// Refresh sweep, as multipliers of the current bound (short: the
    /// shared exponent is re-fit from two points per brick).
    pub refresh_multipliers: Vec<f64>,
    /// Reference bound for boundary-cell feature extraction.
    pub eb_ref: f64,
    /// Auto-checkpoint cadence: `Some(k)` asks the embedding layer to
    /// persist a checkpoint every `k` accepted snapshots (see
    /// [`StreamSession::should_checkpoint`]/[`StreamSession::save_to`]),
    /// so the saved `CKPT` can never drift arbitrarily far behind the
    /// durable stream prefix. `None` (the default) keeps persistence
    /// fully caller-driven.
    pub checkpoint_every: Option<usize>,
}

impl SessionConfig {
    /// Defaults: rsz-only, 50 % drift threshold, stride-4 full calibration
    /// with the standard 5-point sweep, stride-8 refresh with a 2-point
    /// sweep.
    ///
    /// The threshold is calibrated against the rate model's honest
    /// accuracy: healthy fits on Nyx-like contrast fields sit at a mean
    /// relative residual of 0.1–0.45 (the paper tolerates per-partition
    /// errors up to ~50 %), genuine regime change pushes past 0.6, and a
    /// miscalibrated model reads in the 1–25 range — 0.5 separates the
    /// populations without churning on fit noise.
    pub fn new(dec: Decomposition, policy: QualityPolicy) -> Self {
        Self {
            dec,
            codecs: vec![CodecId::Rsz],
            policy,
            halo: None,
            drift_threshold: 0.5,
            calib_stride: 4,
            refresh_stride: 8,
            sweep_multipliers: vec![0.25, 0.5, 1.0, 2.0, 4.0],
            refresh_multipliers: vec![0.5, 2.0],
            eb_ref: 1.0,
            checkpoint_every: None,
        }
    }

    /// Builder-style: auto-checkpoint every `every` accepted snapshots.
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        assert!(every > 0, "checkpoint cadence starts at 1");
        self.checkpoint_every = Some(every);
        self
    }

    /// Builder-style: open the codec selection space.
    pub fn with_codecs(mut self, codecs: &[CodecId]) -> Self {
        assert!(!codecs.is_empty(), "need at least one codec");
        self.codecs = codecs.to_vec();
        self
    }

    /// Builder-style: set the drift threshold.
    pub fn with_drift_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold > 0.0, "drift threshold must be positive");
        self.drift_threshold = threshold;
        self
    }

    /// Builder-style: attach a halo-finder constraint to every snapshot.
    pub fn with_halo(mut self, t_boundary: f64, mass_fault_budget: f64) -> Self {
        self.halo = Some(HaloTarget { t_boundary, mass_fault_budget });
        self
    }

    /// Every invariant [`StreamSession::new`] asserts, as a `Result` — the
    /// one implementation behind both the constructor's panics (caller
    /// bugs fail where they were written) and the checkpoint-restore
    /// validation (corrupt blobs fail with a typed error).
    fn check(&self) -> Result<(), String> {
        if self.dec.num_partitions() < 2 {
            return Err("a session needs at least two partitions".into());
        }
        if self.codecs.is_empty() {
            return Err("need at least one codec".into());
        }
        self.policy.check()?;
        if !(self.drift_threshold > 0.0 && self.drift_threshold.is_finite()) {
            return Err(format!(
                "drift threshold must be positive and finite, got {}",
                self.drift_threshold
            ));
        }
        if self.calib_stride < 1 || self.refresh_stride < 1 {
            return Err("strides start at 1".into());
        }
        if self.sweep_multipliers.len() < 2 {
            return Err("full calibration needs >= 2 bounds".into());
        }
        if self.refresh_multipliers.len() < 2 {
            return Err("refresh needs >= 2 bounds".into());
        }
        for m in self.sweep_multipliers.iter().chain(&self.refresh_multipliers) {
            if !(*m > 0.0 && m.is_finite()) {
                return Err(format!("sweep multipliers must be positive and finite, got {m}"));
            }
        }
        if !(self.eb_ref > 0.0 && self.eb_ref.is_finite()) {
            return Err(format!("eb_ref must be positive and finite, got {}", self.eb_ref));
        }
        if self.checkpoint_every == Some(0) {
            return Err("checkpoint cadence starts at 1".into());
        }
        Ok(())
    }
}

/// What the modeling layer did for one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Recalibration {
    /// First snapshot: full calibration (sweep × full sample set).
    Full,
    /// Drift exceeded the threshold: sampled refresh (short sweep × small
    /// sample subset); the refreshed models apply from the next snapshot.
    Refreshed,
    /// Models transferred — zero modeling cost this snapshot.
    Skipped,
}

/// Per-snapshot session diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotStats {
    /// 0-based snapshot index within the session.
    pub snapshot: usize,
    /// The budget the policy resolved for this snapshot.
    pub eb_avg: f64,
    /// What the modeling layer did.
    pub recalibration: Recalibration,
    /// Mean relative |predicted − measured| per-partition bit-rate
    /// residual observed on this snapshot (with the models that
    /// compressed it).
    pub drift_residual: f64,
    /// Wall-clock cost of calibration/refresh work this snapshot (zero
    /// when [`Recalibration::Skipped`]).
    pub model_cost: Duration,
    /// How many partitions this snapshot's refresh sampled (0 unless
    /// [`Recalibration::Refreshed`]) — the localisation audit trail: a
    /// localised drift refits from few bricks, a global regime shift from
    /// the full stride-derived sample set.
    pub refreshed_partitions: usize,
    /// The pipeline run's phase timings (features / optimize / compress).
    pub timings: Timings,
}

impl SnapshotStats {
    /// Everything the adaptive machinery cost on top of compression this
    /// snapshot: calibration/refresh + feature extraction + optimization.
    /// The amortization claim is that after snapshot 0 this is dominated
    /// by the (cheap) feature + optimize terms.
    pub fn adaptive_cost(&self) -> Duration {
        self.model_cost + self.timings.features + self.timings.optimize
    }
}

/// One snapshot's outcome: the compressed result (containers in
/// partition-id order, ready to become a stream frame) plus diagnostics.
#[derive(Debug, Clone)]
pub struct SnapshotRecord {
    pub result: PipelineResult,
    pub stats: SnapshotStats,
    /// Per-partition drift residuals of this snapshot (the terms whose
    /// mean is `stats.drift_residual`) — which partitions the models
    /// mis-priced, and by how much.
    pub residuals: Vec<f64>,
}

/// Measured bit rates this small (bits/value) are treated as the floor
/// when normalising drift residuals, so empty-ish partitions cannot blow
/// the mean up.
const BITRATE_FLOOR: f64 = 1e-3;

/// Telemetry handles a session caches when a registry is attached via
/// [`StreamSession::attach_metrics`]. Handles are resolved once at
/// attach time (registration takes the registry mutex); per-push updates
/// are lock-free. Cloning shares the handles — clones report into the
/// same series.
#[derive(Debug, Clone)]
pub struct SessionMetrics {
    registry: Arc<MetricsRegistry>,
    stream: u64,
    /// `session_drift_residual{stream}`: drift residual of the latest
    /// push (gauge — the instantaneous drift signal).
    drift_gauge: Arc<Gauge>,
    /// `session_model_ns{kind="calibration"}`: full-calibration cost.
    model_calibration_ns: Arc<Histogram>,
    /// `session_model_ns{kind="refresh"}`: localized-refresh cost
    /// (sampling only, for deferred refreshes).
    model_refresh_ns: Arc<Histogram>,
    /// `session_steady_ns`: steady-state modeling per push (feature
    /// extraction + optimizer resolve — the no-recalibration cost).
    steady_ns: Arc<Histogram>,
    /// `span_self_ns{phase="session_push"}`: the push's self time, i.e.
    /// excluding the codec compress spans nested inside it.
    push_span_ns: Arc<Histogram>,
    refresh_partitions: Arc<Counter>,
    refreshes: Arc<Counter>,
}

impl SessionMetrics {
    fn new(registry: Arc<MetricsRegistry>, stream: u64) -> Self {
        let s = stream.to_string();
        let by_stream: &[(&str, &str)] = &[("stream", s.as_str())];
        Self {
            drift_gauge: registry.gauge("session_drift_residual", by_stream),
            model_calibration_ns: registry
                .histogram("session_model_ns", &[("stream", &s), ("kind", "calibration")]),
            model_refresh_ns: registry
                .histogram("session_model_ns", &[("stream", &s), ("kind", "refresh")]),
            steady_ns: registry.histogram("session_steady_ns", by_stream),
            push_span_ns: registry
                .histogram("span_self_ns", &[("stream", &s), ("phase", "session_push")]),
            refresh_partitions: registry.counter("session_refresh_partitions_total", by_stream),
            refreshes: registry.counter("session_refreshes_total", by_stream),
            registry,
            stream,
        }
    }

    /// The registry these handles report into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The stream id used as the `stream` label.
    pub fn stream(&self) -> u64 {
        self.stream
    }
}

/// The streaming session engine. See the module docs for the lifecycle.
#[derive(Debug, Clone)]
pub struct StreamSession {
    cfg: SessionConfig,
    pipeline: Option<InSituPipeline>,
    history: Vec<SnapshotStats>,
    calibration_reports: Vec<(CodecId, CalibrationReport)>,
    /// Lifetime counters carried over from the checkpoint a restored
    /// session resumed from (all zero for a fresh session): snapshots,
    /// full calibrations, refreshes before the restart.
    prior: (usize, usize, usize),
    /// Drift residual of the most recent snapshot (restored included).
    last_drift: f64,
    /// Telemetry handles, when a registry is attached. Purely
    /// observational: never serialized (checkpoints carry no metrics —
    /// a restored session starts detached) and never affects the
    /// compressed bytes.
    metrics: Option<SessionMetrics>,
}

impl StreamSession {
    /// Create an idle session; the first [`StreamSession::push_snapshot`]
    /// performs the one full calibration.
    pub fn new(cfg: SessionConfig) -> Self {
        if let Err(m) = cfg.check() {
            panic!("{m}");
        }
        Self {
            cfg,
            pipeline: None,
            history: Vec::new(),
            calibration_reports: Vec::new(),
            prior: (0, 0, 0),
            last_drift: 0.0,
            metrics: None,
        }
    }

    /// Attach a metrics registry: per-push modeling timings, the drift
    /// gauge, refresh counters, and the drift/refresh/checkpoint events
    /// start reporting under the `stream` label. The multi-tenant server
    /// attaches its own registry per tenant; standalone sessions may
    /// attach [`telemetry::global`]. Observational only — attaching (or
    /// not) never changes the compressed bytes.
    pub fn attach_metrics(&mut self, registry: Arc<MetricsRegistry>, stream: u64) {
        self.metrics = Some(SessionMetrics::new(registry, stream));
    }

    /// The attached metrics handles, if any.
    pub fn metrics(&self) -> Option<&SessionMetrics> {
        self.metrics.as_ref()
    }

    /// Compress the next snapshot of the series. Rejects non-finite
    /// fields with a typed [`PushError`] (session state untouched).
    pub fn push_snapshot<T: Scalar>(
        &mut self,
        field: &Field3<T>,
    ) -> Result<SnapshotRecord, PushError> {
        let (record, task) = self.push_inner(field, false)?;
        debug_assert!(task.is_none(), "inline pushes complete their refresh in place");
        Ok(record)
    }

    /// [`push_snapshot`](StreamSession::push_snapshot), with drift-
    /// triggered refreshes **deferred**: instead of recalibrating inline
    /// (which can take several times the compress cost and, in a
    /// multi-tenant server, starve neighbouring streams), a detected
    /// drift returns a [`RefreshTask`] capturing the sampled bricks at
    /// detection time. The caller steps the task at its own pace —
    /// interleaving other sessions' pushes between steps — and hands the
    /// finished task back through
    /// [`install_refresh`](StreamSession::install_refresh) *before this
    /// session's next push*. Driven to completion, the deferred path
    /// installs a bank bit-identical to what the inline path would have
    /// fitted, so the compressed series is byte-identical either way.
    ///
    /// The returned record is exactly what `push_snapshot` would have
    /// produced for this snapshot (the refresh only ever affects *later*
    /// snapshots); its stats already say [`Recalibration::Refreshed`],
    /// with `model_cost` covering only the brick sampling.
    pub fn push_snapshot_deferred<T: Scalar>(
        &mut self,
        field: &Field3<T>,
    ) -> Result<(SnapshotRecord, Option<RefreshTask<T>>), PushError> {
        self.push_inner(field, true)
    }

    fn push_inner<T: Scalar>(
        &mut self,
        field: &Field3<T>,
        defer_refresh: bool,
    ) -> Result<(SnapshotRecord, Option<RefreshTask<T>>), PushError> {
        // Screen before touching any state: a NaN/∞ cell would poison the
        // Welford σ, the partition means, and ultimately the model bank.
        let non_finite = field.as_slice().iter().filter(|v| !v.is_finite()).count();
        if non_finite > 0 {
            return Err(PushError::NonFiniteInput { non_finite, cells: field.len() });
        }
        // Span over the whole (accepted) push: its recorded self time
        // excludes the codec compress spans nested inside, so the phase
        // breakdown push → compress sums instead of double-counting. The
        // handle is cloned out so the guard's borrow cannot pin `self`.
        let push_span_hist = self.metrics.as_ref().map(|m| Arc::clone(&m.push_span_ns));
        let _push_span = push_span_hist.as_ref().map(|h| telemetry::span(h));
        let sigma = gridlab::stats::summarize(field.as_slice()).std_dev();
        let mut model_cost = Duration::ZERO;
        let mut recalibration = Recalibration::Skipped;
        let mut deferred = None;

        if self.pipeline.is_none() {
            let t = Instant::now();
            let eb0 = self.cfg.policy.bootstrap_eb(sigma);
            let sweep: Vec<f64> = self.cfg.sweep_multipliers.iter().map(|m| m * eb0).collect();
            let bank = self.fit_bank(field, self.cfg.calib_stride, &sweep, true)?;
            let target = Self::target_for(self.cfg.halo, eb0);
            let pc = PipelineConfig {
                dec: self.cfg.dec.clone(),
                target,
                codecs: self.cfg.codecs.clone(),
                eb_ref: self.cfg.eb_ref,
            };
            self.pipeline = Some(InSituPipeline::with_models(pc, bank));
            model_cost += t.elapsed();
            recalibration = Recalibration::Full;
        }
        let pipeline = self.pipeline.as_mut().expect("calibrated above");

        let t_features = Instant::now();
        let features = pipeline.extract_features(field);
        let features_time = t_features.elapsed();

        let eb_avg = self.cfg.policy.resolve(
            sigma,
            features.iter().map(|f| f.mean),
            &pipeline.optimizer.models,
        );
        pipeline.set_target(Self::target_for(self.cfg.halo, eb_avg));

        let mut result = pipeline.run_with_features(field, features);
        result.timings.features = features_time;

        let residuals = drift_residuals(&result, &pipeline.optimizer.models);
        let drift_residual = mean_residual(&residuals);
        let mut refreshed_partitions = 0usize;
        if recalibration == Recalibration::Skipped && drift_residual > self.cfg.drift_threshold {
            let t = Instant::now();
            let sweep: Vec<f64> = self.cfg.refresh_multipliers.iter().map(|m| m * eb_avg).collect();
            let ids = localized_refresh_ids(
                &residuals,
                self.cfg.drift_threshold,
                self.cfg.refresh_stride,
            );
            refreshed_partitions = ids.len();
            if defer_refresh {
                deferred = Some(self.refresh_task(field, &ids, &sweep));
            } else {
                let bank = self.fit_bank_at(field, &ids, &sweep)?;
                self.pipeline.as_mut().expect("calibrated").set_models(bank);
            }
            model_cost += t.elapsed();
            recalibration = Recalibration::Refreshed;
        }

        let stats = SnapshotStats {
            snapshot: self.snapshots(),
            eb_avg,
            recalibration,
            drift_residual,
            model_cost,
            refreshed_partitions,
            timings: result.timings,
        };
        if let Some(m) = &self.metrics {
            m.drift_gauge.set(drift_residual);
            let steady = stats.timings.features + stats.timings.optimize;
            m.steady_ns.record(steady.as_nanos() as u64);
            match recalibration {
                Recalibration::Full => {
                    m.model_calibration_ns.record(model_cost.as_nanos() as u64);
                }
                Recalibration::Refreshed => {
                    m.model_refresh_ns.record(model_cost.as_nanos() as u64);
                    m.refreshes.inc();
                    m.refresh_partitions.add(refreshed_partitions as u64);
                    m.registry.record_event(Event::DriftDetected {
                        stream: m.stream,
                        residual: drift_residual,
                        partitions: refreshed_partitions as u64,
                    });
                    if deferred.is_none() {
                        // Inline refreshes complete within this push; the
                        // deferred path completes in `install_refresh`.
                        m.registry.record_event(Event::RefreshCompleted { stream: m.stream });
                    }
                }
                Recalibration::Skipped => {}
            }
        }
        self.history.push(stats);
        self.last_drift = drift_residual;
        Ok((SnapshotRecord { result, stats, residuals }, deferred))
    }

    /// Capture a deferred refresh: the same localised brick subset and
    /// sweep the inline path would use, cloned at detection time so later
    /// field mutations cannot leak into the fit.
    fn refresh_task<T: Scalar>(
        &self,
        field: &Field3<T>,
        ids: &[usize],
        sweep: &[f64],
    ) -> RefreshTask<T> {
        RefreshTask {
            codecs: self.cfg.codecs.clone(),
            bricks: bricks_at(field, &self.cfg.dec, ids),
            sweep: sweep.to_vec(),
            measured: Vec::new(),
        }
    }

    /// Install the bank a completed [`RefreshTask`] fitted — the deferred
    /// counterpart of the inline refresh's `set_models`. Panics if the
    /// task still has steps left (installing a half-measured fit would
    /// silently misprice every partition) or if the session was never
    /// calibrated (a refresh implies a fitted bank to replace).
    pub fn install_refresh<T: Scalar>(&mut self, task: RefreshTask<T>) {
        assert!(task.is_done(), "refresh task has {} steps left", task.remaining());
        let bank = task.into_bank();
        self.pipeline.as_mut().expect("a refresh implies a calibrated session").set_models(bank);
        if let Some(m) = &self.metrics {
            m.registry.record_event(Event::RefreshCompleted { stream: m.stream });
        }
    }

    /// Swap the quality policy mid-series — the hook a multi-tenant
    /// budget arbiter uses to impose an externally computed share (e.g.
    /// a [`QualityPolicy::BitrateBudget`] slice of a global storage
    /// contract), and the degradation ladder uses to shed quality under
    /// load ([`QualityPolicy::relax`]). Takes effect from the next push;
    /// panics on invalid parameters exactly like the constructor.
    pub fn set_policy(&mut self, policy: QualityPolicy) {
        if let Err(m) = policy.check() {
            panic!("{m}");
        }
        self.cfg.policy = policy;
    }

    /// Fit one model per enabled codec on a sampled brick subset. The
    /// stride is clamped so at least two bricks are sampled (the fit's
    /// minimum).
    fn fit_bank<T: Scalar>(
        &mut self,
        field: &Field3<T>,
        stride: usize,
        sweep: &[f64],
        keep_reports: bool,
    ) -> Result<CodecModelBank, CalibrationError> {
        let parts = self.cfg.dec.num_partitions();
        let stride = stride.min(parts - 1).max(1);
        let bricks = sample_bricks(field, &self.cfg.dec, stride);
        let refs: Vec<&Field3<T>> = bricks.iter().collect();
        let (bank, reports) = CodecModelBank::calibrate(&self.cfg.codecs, &refs, sweep)?;
        if keep_reports {
            self.calibration_reports = reports;
        }
        Ok(bank)
    }

    /// Fit one model per enabled codec from an explicit partition-id list
    /// — the localised refresh path.
    fn fit_bank_at<T: Scalar>(
        &self,
        field: &Field3<T>,
        ids: &[usize],
        sweep: &[f64],
    ) -> Result<CodecModelBank, CalibrationError> {
        let bricks = bricks_at(field, &self.cfg.dec, ids);
        let refs: Vec<&Field3<T>> = bricks.iter().collect();
        let (bank, _) = CodecModelBank::calibrate(&self.cfg.codecs, &refs, sweep)?;
        Ok(bank)
    }

    fn target_for(halo: Option<HaloTarget>, eb_avg: f64) -> QualityTarget {
        match halo {
            Some(h) => QualityTarget::with_halo(eb_avg, h.t_boundary, h.mass_fault_budget),
            None => QualityTarget::fft_only(eb_avg),
        }
    }

    /// Session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The underlying pipeline, once the first snapshot calibrated it.
    pub fn pipeline(&self) -> Option<&InSituPipeline> {
        self.pipeline.as_ref()
    }

    /// The fitted model bank, once calibrated.
    pub fn models(&self) -> Option<&CodecModelBank> {
        self.pipeline.as_ref().map(|p| &p.optimizer.models)
    }

    /// Diagnostics of the full calibration (per codec, bank order).
    pub fn calibration_reports(&self) -> &[(CodecId, CalibrationReport)] {
        &self.calibration_reports
    }

    /// Per-snapshot stats since this process started, oldest first. A
    /// restored session's history restarts empty (wall-clock diagnostics
    /// do not survive a checkpoint); the lifetime counters below include
    /// the pre-restart snapshots.
    pub fn history(&self) -> &[SnapshotStats] {
        &self.history
    }

    /// Snapshots pushed over the session's lifetime, restarts included.
    pub fn snapshots(&self) -> usize {
        self.prior.0 + self.history.len()
    }

    /// How many snapshots ran a full calibration over the session's
    /// lifetime (must be ≤ 1: only the first snapshot of the *series* ever
    /// pays it — a restore does not reset this).
    pub fn full_calibrations(&self) -> usize {
        self.prior.1
            + self.history.iter().filter(|s| s.recalibration == Recalibration::Full).count()
    }

    /// How many snapshots triggered a sampled refresh, restarts included.
    pub fn refreshes(&self) -> usize {
        self.prior.2
            + self.history.iter().filter(|s| s.recalibration == Recalibration::Refreshed).count()
    }

    /// Drift residual of the most recent snapshot (0 before the first).
    pub fn last_drift(&self) -> f64 {
        self.last_drift
    }

    /// Snapshot the session's learned state as a typed checkpoint. See
    /// [`StreamSession::save`] for the serialized form.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            config: self.cfg.clone(),
            bank: self.models().cloned(),
            clamp_factor: self
                .pipeline
                .as_ref()
                .map_or(DEFAULT_CLAMP_FACTOR, |p| p.optimizer.clamp_factor),
            snapshots: self.snapshots(),
            full_calibrations: self.full_calibrations(),
            refreshes: self.refreshes(),
            last_drift: self.last_drift,
        }
    }

    /// Serialise the session into a versioned `CKPT` blob: everything a
    /// restarted run needs to resume **without recalibrating** — the
    /// fitted model bank, the quality policy and partition geometry, the
    /// optimizer tuning, and the drift state.
    pub fn save(&self) -> Vec<u8> {
        let bytes = self.checkpoint().to_bytes();
        if let Some(m) = &self.metrics {
            m.registry.record_event(Event::CheckpointSaved {
                stream: m.stream,
                bytes: bytes.len() as u64,
            });
        }
        bytes
    }

    /// True when [`SessionConfig::checkpoint_every`] says the current
    /// snapshot count is a checkpoint boundary. Embedding layers call
    /// this after each accepted snapshot and persist via
    /// [`StreamSession::save_to`], so the saved `CKPT` tracks the durable
    /// stream prefix at the configured cadence instead of silently going
    /// stale.
    pub fn should_checkpoint(&self) -> bool {
        self.cfg.checkpoint_every.is_some_and(|k| {
            let n = self.snapshots();
            n > 0 && n.is_multiple_of(k)
        })
    }

    /// Persist [`StreamSession::save`] bytes to `path` atomically
    /// (write-temp + rename): a crash mid-save leaves the previous
    /// checkpoint intact, never a torn blob next to a newer stream.
    /// Returns the bytes written.
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> Result<u64, CheckpointError> {
        let path = path.as_ref();
        let bytes = self.save();
        let mut tmp_os = path.to_path_buf().into_os_string();
        tmp_os.push(".tmp");
        let tmp: std::path::PathBuf = tmp_os.into();
        let io = |what: &str, e: std::io::Error| CheckpointError::Io(format!("{what}: {e}"));
        std::fs::write(&tmp, &bytes).map_err(|e| io("write checkpoint temp file", e))?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(io("publish checkpoint", e));
        }
        Ok(bytes.len() as u64)
    }

    /// Rebuild a session from [`StreamSession::save`] bytes. The restored
    /// session's next [`StreamSession::push_snapshot`] transfers the
    /// checkpointed models — no full calibration — and compresses
    /// byte-identically to the uninterrupted run. All corruption surfaces
    /// as a typed [`CheckpointError`].
    pub fn restore(bytes: &[u8]) -> Result<Self, CheckpointError> {
        Self::from_checkpoint(SessionCheckpoint::from_bytes(bytes)?)
    }

    /// [`StreamSession::restore`] over an already-parsed checkpoint.
    pub fn from_checkpoint(ckpt: SessionCheckpoint) -> Result<Self, CheckpointError> {
        ckpt.validate()?;
        let SessionCheckpoint {
            config: cfg,
            bank,
            clamp_factor,
            snapshots,
            full_calibrations,
            refreshes,
            last_drift,
        } = ckpt;
        let pipeline = match bank {
            Some(bank) => {
                // The eb_avg placeholder is overwritten by the policy
                // before the optimizer ever prices against it; the halo
                // constraint must survive, it drives feature extraction.
                let pc = PipelineConfig {
                    dec: cfg.dec.clone(),
                    target: Self::target_for(cfg.halo, 1.0),
                    codecs: cfg.codecs.clone(),
                    eb_ref: cfg.eb_ref,
                };
                let mut p = InSituPipeline::with_models(pc, bank);
                p.optimizer.clamp_factor = clamp_factor;
                Some(p)
            }
            None => None,
        };
        Ok(Self {
            cfg,
            pipeline,
            history: Vec::new(),
            calibration_reports: Vec::new(),
            prior: (snapshots, full_calibrations, refreshes),
            last_drift,
            metrics: None,
        })
    }
}

/// A drift-triggered model refresh, sliced into yieldable units so a
/// scheduler can interleave other work between steps — the primitive that
/// keeps one drifting stream's recalibration from starving its
/// neighbours in a multi-tenant server.
///
/// Each [`step`](RefreshTask::step) performs exactly one trial
/// compression (one `(codec, brick, bound)` measurement — the unit the
/// whole refresh cost is made of); everything else (means, the two-pass
/// fit) is arithmetic too cheap to slice. The task owns clones of the
/// sampled bricks, so it stays valid however long the scheduler delays
/// it. Once done, [`StreamSession::install_refresh`] fits and installs
/// the bank; the fit replays the stored measurements through the *same*
/// [`RatioModel::calibrate_by`] code path the inline refresh uses, so a
/// completed deferred refresh is bit-identical to the inline one.
#[derive(Debug, Clone)]
pub struct RefreshTask<T: Scalar> {
    codecs: Vec<CodecId>,
    bricks: Vec<Field3<T>>,
    sweep: Vec<f64>,
    /// Raw bits/value measurements in calibration order: codec-major,
    /// then brick, then sweep bound.
    measured: Vec<f64>,
}

impl<T: Scalar> RefreshTask<T> {
    /// Total yieldable units (trial compressions) in this refresh.
    pub fn total_steps(&self) -> usize {
        self.codecs.len() * self.bricks.len() * self.sweep.len()
    }

    /// How many partitions this refresh samples — the localisation
    /// audit: few for a localised drift, the stride-derived full sample
    /// count for a global regime shift.
    pub fn sampled_partitions(&self) -> usize {
        self.bricks.len()
    }

    /// Steps not yet performed.
    pub fn remaining(&self) -> usize {
        self.total_steps() - self.measured.len()
    }

    /// True once every measurement has been taken.
    pub fn is_done(&self) -> bool {
        self.measured.len() == self.total_steps()
    }

    /// Perform one trial compression (no-op when already done). Returns
    /// `true` when the task is complete.
    pub fn step(&mut self) -> bool {
        if !self.is_done() {
            let i = self.measured.len();
            let per_codec = self.bricks.len() * self.sweep.len();
            let codec = self.codecs[i / per_codec];
            let brick = &self.bricks[(i % per_codec) / self.sweep.len()];
            let eb = self.sweep[i % self.sweep.len()];
            let c = Container::compress(codec, brick.as_slice(), brick.dims(), eb);
            self.measured.push(8.0 * c.payload_len() as f64 / brick.len() as f64);
        }
        self.is_done()
    }

    /// Drive every remaining step back-to-back (what an idle scheduler —
    /// or a single-tenant caller — does).
    pub fn run_to_completion(&mut self) {
        while !self.step() {}
    }

    /// Fit the bank from the completed measurements, replaying them
    /// through the standard calibration so the arithmetic (and therefore
    /// the bank, bit for bit) matches the inline refresh.
    fn into_bank(self) -> CodecModelBank {
        assert!(self.is_done(), "cannot fit an incomplete refresh");
        let refs: Vec<&Field3<T>> = self.bricks.iter().collect();
        let next = std::cell::Cell::new(0usize);
        let mut entries = Vec::with_capacity(self.codecs.len());
        for &codec in &self.codecs {
            // calibrate_by queries measurements in exactly the order step()
            // recorded them (brick-major, sweep inner), so a replay cursor
            // stands in for the compressor.
            let (model, _) = RatioModel::calibrate_by(&refs, &self.sweep, |_, _| {
                let i = next.get();
                next.set(i + 1);
                self.measured[i]
            })
            .expect("measurements of a screened (finite) field replay finitely");
            entries.push((codec, model));
        }
        CodecModelBank::new(entries)
    }
}

/// `Optimizer::with_models`'s clamp default, mirrored for checkpoints of
/// never-calibrated sessions (no optimizer exists to read it from yet).
const DEFAULT_CLAMP_FACTOR: f64 = 4.0;

/// Current `CKPT` blob version. Bumps on any layout or semantics change;
/// readers reject other versions loudly. v2 added
/// [`SessionConfig::checkpoint_every`] to the config document.
pub const CHECKPOINT_VERSION: u8 = 2;
const CKPT_MAGIC: &[u8; 4] = b"CKPT";
/// Fixed wrapper bytes preceding the checkpoint payload.
const CKPT_HEADER_LEN: usize = 4 + 1 + 3 + 8 + 8;

/// Why a checkpoint failed to restore. Corruption must never panic the
/// restore path — the fault-injection suite drives every byte of the blob
/// through these.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Wrapper-level problem: magic, version, length, or checksum.
    Format(String),
    /// The payload is not a valid checkpoint document.
    Parse(String),
    /// Decoded fine but violates a session invariant (e.g. a codec with
    /// no fitted model, a non-finite threshold).
    Invalid(String),
    /// Persisting or loading the blob failed at the filesystem layer
    /// ([`StreamSession::save_to`]).
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Format(m) => write!(f, "checkpoint format error: {m}"),
            CheckpointError::Parse(m) => write!(f, "checkpoint parse error: {m}"),
            CheckpointError::Invalid(m) => write!(f, "checkpoint invalid: {m}"),
            CheckpointError::Io(m) => write!(f, "checkpoint io error: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The typed contents of a `CKPT` blob — what a [`StreamSession`] needs
/// to resume a series without recalibrating.
///
/// ## `CKPT` v2 layout
///
/// ```text
/// offset  size  field
/// 0       4     magic "CKPT"
/// 4       1     version (= 2)
/// 5       3     reserved (zero)
/// 8       8     FNV-1a-64 checksum of the payload, little-endian
/// 16      8     payload length, little-endian u64
/// 24      n     payload: the checkpoint document, serialized through the
///               vendored serde shims (JSON text; field order is
///               declaration order, floats round-trip exactly)
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Full session configuration, partition geometry included.
    pub config: SessionConfig,
    /// The fitted per-codec model bank; `None` for a session checkpointed
    /// before its first snapshot (restore then calibrates as usual).
    pub bank: Option<CodecModelBank>,
    /// The optimizer's clamp tuning at checkpoint time.
    pub clamp_factor: f64,
    /// Lifetime snapshot count at checkpoint time.
    pub snapshots: usize,
    /// Lifetime full-calibration count (≤ 1 for a healthy series).
    pub full_calibrations: usize,
    /// Lifetime drift-refresh count.
    pub refreshes: usize,
    /// Drift residual of the last snapshot before the checkpoint.
    pub last_drift: f64,
}

impl SessionCheckpoint {
    /// Serialise into a `CKPT` blob (wrapper + checksummed payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = serde_json::to_string(self).expect("shim serialization is total");
        let payload = payload.as_bytes();
        let mut bytes = Vec::with_capacity(CKPT_HEADER_LEN + payload.len());
        bytes.extend_from_slice(CKPT_MAGIC);
        bytes.push(CHECKPOINT_VERSION);
        bytes.extend_from_slice(&[0u8; 3]);
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    /// Parse and validate a `CKPT` blob: structure, checksum, document,
    /// then session invariants. Total — every corruption is a typed error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < CKPT_HEADER_LEN {
            return Err(CheckpointError::Format("checkpoint shorter than header".into()));
        }
        if &bytes[..4] != CKPT_MAGIC {
            return Err(CheckpointError::Format("bad checkpoint magic".into()));
        }
        if bytes[4] != CHECKPOINT_VERSION {
            return Err(CheckpointError::Format(format!(
                "unsupported checkpoint version {}",
                bytes[4]
            )));
        }
        let stored_fnv = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        if payload_len != (bytes.len() - CKPT_HEADER_LEN) as u64 {
            return Err(CheckpointError::Format(format!(
                "payload length {payload_len} does not match blob size {}",
                bytes.len()
            )));
        }
        let payload = &bytes[CKPT_HEADER_LEN..];
        let actual_fnv = fnv1a64(payload);
        if actual_fnv != stored_fnv {
            return Err(CheckpointError::Format(format!(
                "payload checksum mismatch: stored {stored_fnv:#018x}, computed {actual_fnv:#018x}"
            )));
        }
        let text = std::str::from_utf8(payload)
            .map_err(|e| CheckpointError::Parse(format!("payload is not UTF-8: {e}")))?;
        let ckpt: SessionCheckpoint =
            serde_json::from_str(text).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        ckpt.validate()?;
        Ok(ckpt)
    }

    /// Session invariants a decodable checkpoint can still violate.
    fn validate(&self) -> Result<(), CheckpointError> {
        self.config.check().map_err(CheckpointError::Invalid)?;
        if !(self.clamp_factor > 1.0 && self.clamp_factor.is_finite()) {
            return Err(CheckpointError::Invalid(format!(
                "clamp factor must be finite and > 1, got {}",
                self.clamp_factor
            )));
        }
        if !(self.last_drift >= 0.0 && self.last_drift.is_finite()) {
            return Err(CheckpointError::Invalid(format!(
                "last drift must be finite and non-negative, got {}",
                self.last_drift
            )));
        }
        if self.full_calibrations + self.refreshes > self.snapshots {
            return Err(CheckpointError::Invalid(format!(
                "{} calibrations + {} refreshes exceed {} snapshots",
                self.full_calibrations, self.refreshes, self.snapshots
            )));
        }
        match &self.bank {
            None => {
                if self.snapshots != 0 {
                    return Err(CheckpointError::Invalid(format!(
                        "{} snapshots recorded but no model bank — a pushed-to session is \
                         always calibrated",
                        self.snapshots
                    )));
                }
            }
            Some(bank) => {
                for &codec in &self.config.codecs {
                    if bank.get(codec).is_none() {
                        return Err(CheckpointError::Invalid(format!(
                            "no model in the bank for enabled codec {codec}"
                        )));
                    }
                }
                for (codec, m) in bank.entries() {
                    if !(m.c.is_finite() && m.a0.is_finite() && m.a1.is_finite()) {
                        return Err(CheckpointError::Invalid(format!(
                            "non-finite rate model for codec {codec}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Residual value substituted when a partition's prediction cannot be
/// evaluated (non-finite model output, non-finite measurement, or an
/// invalid bound). Any such partition must *fire* the drift detector:
/// the naive arithmetic would produce NaN, and `NaN > threshold` is
/// silently `false` — a broken model would disable its own alarm.
pub const RESIDUAL_SATURATION: f64 = 1e9;

/// Per-partition relative |predicted − measured| bit rate of one run
/// under the models that produced it — the drift signal before
/// averaging, and the input to drift localisation. Partitions whose
/// prediction cannot be evaluated saturate to [`RESIDUAL_SATURATION`].
pub fn drift_residuals(result: &PipelineResult, bank: &CodecModelBank) -> Vec<f64> {
    let measured = result.measured_bitrates();
    result
        .features
        .iter()
        .zip(&result.ebs)
        .zip(&result.codecs)
        .zip(&measured)
        .map(|(((f, &eb), codec), &m)| {
            let model = bank.get(*codec).expect("run's codec is in the bank");
            if !(eb > 0.0 && eb.is_finite()) {
                return RESIDUAL_SATURATION;
            }
            let predicted = model.predict_bitrate(f.mean, eb);
            let term = (predicted - m).abs() / m.max(BITRATE_FLOOR);
            if term.is_finite() {
                term
            } else {
                RESIDUAL_SATURATION
            }
        })
        .collect()
}

/// Mean relative |predicted − measured| per-partition bit rate of one run
/// under the models that produced it — the session's drift signal (the
/// mean of [`drift_residuals`]).
pub fn drift_residual(result: &PipelineResult, bank: &CodecModelBank) -> f64 {
    mean_residual(&drift_residuals(result, bank))
}

fn mean_residual(residuals: &[f64]) -> f64 {
    if residuals.is_empty() {
        return 0.0;
    }
    residuals.iter().sum::<f64>() / residuals.len() as f64
}

/// Which partitions a drift-triggered refresh should sample: every
/// partition over the threshold, padded to the fit's two-brick minimum
/// with the worst offenders, plus the two *calmest* partitions as healthy
/// anchors (a refit sampled only from anomalous bricks would replace the
/// global model with one blind to the undrifted majority), and evenly
/// subsampled down to the stride-derived budget the old whole-bank
/// refresh would have used (so the localised path can never cost more
/// than the previous behaviour).
fn localized_refresh_ids(residuals: &[f64], threshold: f64, refresh_stride: usize) -> Vec<usize> {
    let parts = residuals.len();
    let mut order: Vec<usize> = (0..parts).collect();
    order.sort_by(|&a, &b| {
        residuals[b].partial_cmp(&residuals[a]).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ids: Vec<usize> = (0..parts).filter(|&i| residuals[i] > threshold).collect();
    if ids.len() < 2 {
        // The mean tripped but fewer than two individual partitions did
        // (a broad, shallow shift): fall back to the two worst residuals.
        ids = order.iter().take(2).copied().collect();
    }
    for &anchor in order.iter().rev().take(2) {
        if !ids.contains(&anchor) {
            ids.push(anchor);
        }
    }
    ids.sort_unstable();
    let stride = refresh_stride.min(parts - 1).max(1);
    let budget = parts.div_ceil(stride).max(2);
    if ids.len() > budget {
        ids = (0..budget).map(|k| ids[k * ids.len() / budget]).collect();
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridlab::Dim3;

    /// A field family whose contrast scales with `amp` — structure
    /// "forms" as amp grows, like lowering redshift.
    fn evolving_field(n: usize, amp: f64, seed: u64) -> Field3<f32> {
        let mut state = seed;
        Field3::from_fn(Dim3::cube(n), |x, y, z| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let bright = x >= n / 2 && y >= n / 2;
            let base = if bright { 40.0 * amp } else { 8.0 };
            (base + amp * ((z as f64 * 0.9).sin() * 3.0 + noise)) as f32
        })
    }

    fn session(n: usize, parts: usize, policy: QualityPolicy) -> StreamSession {
        let dec = Decomposition::cubic(n, parts).unwrap();
        StreamSession::new(SessionConfig::new(dec, policy))
    }

    #[test]
    fn first_snapshot_calibrates_fully_then_models_transfer() {
        let mut s = session(32, 4, QualityPolicy::SigmaScaled(0.1));
        for i in 0..4 {
            let field = evolving_field(32, 1.0 + 0.01 * i as f64, 9);
            let rec = s.push_snapshot(&field).unwrap();
            if i == 0 {
                assert_eq!(rec.stats.recalibration, Recalibration::Full);
                assert!(rec.stats.model_cost > Duration::ZERO);
            } else {
                // Near-identical snapshots: the model transfers.
                assert_eq!(rec.stats.recalibration, Recalibration::Skipped, "snapshot {i}");
                assert_eq!(rec.stats.model_cost, Duration::ZERO);
            }
        }
        assert_eq!(s.full_calibrations(), 1);
        assert_eq!(s.snapshots(), 4);
        assert!(!s.calibration_reports().is_empty());
    }

    #[test]
    fn fixed_policy_keeps_the_budget_fixed() {
        let mut s = session(16, 2, QualityPolicy::FixedEb(0.3));
        for amp in [1.0, 3.0] {
            let rec = s.push_snapshot(&evolving_field(16, amp, 3)).unwrap();
            assert_eq!(rec.stats.eb_avg, 0.3);
            let mean = rec.result.ebs.iter().sum::<f64>() / rec.result.ebs.len() as f64;
            assert!(mean <= 0.3 * (1.0 + 1e-9), "mean {mean}");
        }
    }

    #[test]
    fn sigma_policy_tracks_field_amplitude() {
        let mut s = session(16, 2, QualityPolicy::SigmaScaled(0.1));
        let lo = s.push_snapshot(&evolving_field(16, 1.0, 5)).unwrap().stats.eb_avg;
        let hi = s.push_snapshot(&evolving_field(16, 6.0, 5)).unwrap().stats.eb_avg;
        assert!(hi > lo * 2.0, "budget should scale with contrast: {lo} → {hi}");
    }

    #[test]
    fn bitrate_budget_policy_hits_the_predicted_budget() {
        let mut s = session(24, 2, QualityPolicy::BitrateBudget(2.0));
        let rec = s.push_snapshot(&evolving_field(24, 2.0, 11)).unwrap();
        let predicted = rec.result.decision.as_ref().unwrap().predicted_bitrate;
        // The optimizer redistributes bounds at the resolved eb_avg, so the
        // realised prediction sits near (at or below) the budget.
        assert!(
            predicted <= 2.0 * 1.05 && predicted > 0.5,
            "predicted bitrate {predicted} should sit near the 2.0 budget"
        );
    }

    #[test]
    fn drift_triggers_a_sampled_refresh_not_a_full_recalibration() {
        let dec = Decomposition::cubic(24, 2).unwrap();
        let cfg =
            SessionConfig::new(dec, QualityPolicy::SigmaScaled(0.1)).with_drift_threshold(0.05);
        let mut s = StreamSession::new(cfg);
        s.push_snapshot(&evolving_field(24, 1.0, 21)).unwrap();
        // A violently different field: the transferred model must misfit.
        let rec = s.push_snapshot(&evolving_field(24, 50.0, 77)).unwrap();
        assert_eq!(rec.stats.recalibration, Recalibration::Refreshed);
        assert!(rec.stats.drift_residual > 0.05);
        assert_eq!(s.full_calibrations(), 1, "refresh must not count as full");
        assert_eq!(s.refreshes(), 1);
        // The refreshed model applies from the NEXT snapshot and fits the
        // new regime better.
        let rec2 = s.push_snapshot(&evolving_field(24, 50.0, 78)).unwrap();
        assert!(
            rec2.stats.drift_residual < rec.stats.drift_residual,
            "refresh should reduce the residual: {} → {}",
            rec.stats.drift_residual,
            rec2.stats.drift_residual
        );
    }

    #[test]
    fn steady_state_adaptive_cost_is_below_full_calibration_cost() {
        let mut s = session(32, 4, QualityPolicy::SigmaScaled(0.1));
        let first = s.push_snapshot(&evolving_field(32, 2.0, 31)).unwrap();
        let mut steady = Duration::ZERO;
        for i in 0..3 {
            let rec = s.push_snapshot(&evolving_field(32, 2.0 + 0.01 * i as f64, 31)).unwrap();
            steady = steady.max(rec.stats.adaptive_cost());
        }
        assert!(
            steady < first.stats.model_cost,
            "steady adaptive cost {steady:?} should undercut the full calibration \
             {:?}",
            first.stats.model_cost
        );
    }

    #[test]
    fn session_respects_per_partition_bounds_every_snapshot() {
        let mut s = session(16, 2, QualityPolicy::SigmaScaled(0.15));
        for amp in [1.0, 4.0, 9.0] {
            let field = evolving_field(16, amp, 41);
            let rec = s.push_snapshot(&field).unwrap();
            let dec = &s.pipeline().unwrap().config().dec;
            let recon: Field3<f32> = rec.result.reconstruct(dec).unwrap();
            for ((bo, br), &eb) in
                dec.split(&field).iter().zip(&dec.split(&recon)[..]).zip(&rec.result.ebs)
            {
                assert!(bo.max_abs_diff(br) <= eb + 1e-9);
            }
        }
    }

    #[test]
    fn multi_codec_session_mixes_backends() {
        let dec = Decomposition::cubic(32, 4).unwrap();
        let cfg =
            SessionConfig::new(dec, QualityPolicy::SigmaScaled(0.1)).with_codecs(&CodecId::ALL);
        let mut s = StreamSession::new(cfg);
        let rec = s.push_snapshot(&evolving_field(32, 3.0, 13)).unwrap();
        let total: usize = rec.result.codec_counts().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 64);
        assert!(s.models().unwrap().get(CodecId::Zfp).is_some());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let dec = Decomposition::cubic(8, 2).unwrap();
        let base = SessionConfig::new(dec.clone(), QualityPolicy::FixedEb(0.1));
        let mut bad = base.clone();
        bad.refresh_multipliers = vec![1.0];
        assert!(std::panic::catch_unwind(move || StreamSession::new(bad)).is_err());
        let mut bad = base.clone();
        bad.drift_threshold = 0.0;
        assert!(std::panic::catch_unwind(move || StreamSession::new(bad)).is_err());
        let one = Decomposition::cubic(8, 1).unwrap();
        let bad = SessionConfig::new(one, QualityPolicy::FixedEb(0.1));
        assert!(std::panic::catch_unwind(move || StreamSession::new(bad)).is_err());
        // Non-positive policy parameters fail at construction, not deep in
        // the optimizer mid-series.
        for policy in [
            QualityPolicy::FixedEb(0.0),
            QualityPolicy::SigmaScaled(-0.1),
            QualityPolicy::BitrateBudget(f64::NAN),
        ] {
            let bad = SessionConfig::new(dec.clone(), policy);
            assert!(
                std::panic::catch_unwind(move || StreamSession::new(bad)).is_err(),
                "{policy:?} accepted"
            );
        }
    }

    #[test]
    fn bitrate_budget_falls_back_on_degenerate_rate_curves() {
        // A near-constant field fits c ≈ 0: the rate curve barely moves
        // with the bound, the budget cannot be bracketed, and resolve must
        // fall back to the σ-scaled bootstrap instead of converging to an
        // absurd e^±60 domain edge.
        let dec = Decomposition::cubic(16, 2).unwrap();
        let mut s = StreamSession::new(SessionConfig::new(dec, QualityPolicy::BitrateBudget(2.0)));
        // A gentle gradient: brick means differ (so the C(mean) fit is
        // well-posed), but Lorenzo predicts the field perfectly at every
        // bound, so the rate curve is flat (c ≈ 0) and cannot be inverted
        // for the budget.
        let flat = Field3::from_fn(Dim3::cube(16), |x, y, z| 5.0 + (x + y + z) as f32 * 1e-3);
        let rec = s.push_snapshot(&flat).unwrap();
        assert!(
            rec.stats.eb_avg > 1e-13 && rec.stats.eb_avg < 1e3,
            "degenerate curve must not produce an absurd bound: {}",
            rec.stats.eb_avg
        );
    }

    #[test]
    fn drift_residual_of_traditional_run_is_zero() {
        // Traditional runs carry no features; the signal degrades to 0
        // rather than panicking.
        let mut s = session(16, 2, QualityPolicy::FixedEb(0.2));
        s.push_snapshot(&evolving_field(16, 1.0, 7)).unwrap();
        let p = s.pipeline().unwrap();
        let r = p.run_traditional(&evolving_field(16, 1.0, 7), 0.2);
        assert_eq!(drift_residual(&r, &p.optimizer.models), 0.0);
    }

    // --- drift_residual edge cases ---------------------------------------

    use crate::optimizer::QualityTarget;
    use crate::pipeline::PipelineConfig;
    use crate::ratio_model::RatioModel;

    #[test]
    fn drift_residual_of_zero_partition_result_is_zero() {
        // A snapshot with no partitions at all: the signal is 0, never a
        // 0/0 NaN that would poison the threshold compare.
        let empty = PipelineResult {
            features: Vec::new(),
            ebs: Vec::new(),
            codecs: Vec::new(),
            containers: Vec::new(),
            original_bytes: 0,
            compressed_bytes: 0,
            decision: None,
            timings: Timings::default(),
        };
        let bank = CodecModelBank::single(CodecId::Rsz, RatioModel { c: -0.5, a0: 0.5, a1: 0.3 });
        let r = drift_residual(&empty, &bank);
        assert_eq!(r, 0.0);
        assert!(r <= 0.5, "an empty snapshot must never read as drifted");
    }

    #[test]
    fn drift_residual_with_floor_level_rates_stays_finite() {
        // A constant field compresses to a near-zero payload rate and a
        // coefficient-floored model predicts near-zero bits: both sides of
        // the residual sit at their floors and the result must stay
        // finite and comparable, not NaN/inf from a 0-division.
        let dec = Decomposition::cubic(8, 2).unwrap();
        let cfg = PipelineConfig::new(dec, QualityTarget::fft_only(0.1));
        // a0 = -100 pushes C(mean) onto the C_FLOOR: predicted ≈ 0.
        let model = RatioModel { c: -0.5, a0: -100.0, a1: 0.0 };
        let p = crate::pipeline::InSituPipeline::with_models(
            cfg,
            CodecModelBank::single(CodecId::Rsz, model),
        );
        let flat = Field3::from_fn(Dim3::cube(8), |_, _, _| 3.0f32);
        let r = p.run_adaptive(&flat);
        let residual = drift_residual(&r, &p.optimizer.models);
        assert!(residual.is_finite(), "residual {residual}");
        assert!(residual >= 0.0);
        // And the threshold compare is well-defined either way.
        let _ = residual > 0.5;
    }

    #[test]
    fn drift_residual_of_single_partition_result_is_finite() {
        // Sessions require >= 2 partitions, but the drift signal itself
        // must hold up on a 1-partition stream (the mean is one term).
        let dec = Decomposition::cubic(8, 1).unwrap();
        let cfg = PipelineConfig::new(dec, QualityTarget::fft_only(0.2));
        let model = RatioModel { c: -0.6, a0: 1.0, a1: 0.2 };
        let p = crate::pipeline::InSituPipeline::with_models(
            cfg,
            CodecModelBank::single(CodecId::Rsz, model),
        );
        let field = evolving_field(8, 2.0, 3);
        let r = p.run_adaptive(&field);
        assert_eq!(r.features.len(), 1);
        let residual = drift_residual(&r, &p.optimizer.models);
        assert!(residual.is_finite() && residual >= 0.0, "residual {residual}");
    }

    // --- server hooks: deferred refresh, policy swap, relax ladder -------

    #[test]
    fn deferred_refresh_is_bit_identical_to_inline() {
        let make = || {
            let dec = Decomposition::cubic(24, 2).unwrap();
            StreamSession::new(
                SessionConfig::new(dec, QualityPolicy::SigmaScaled(0.1)).with_drift_threshold(0.05),
            )
        };
        let calm = evolving_field(24, 1.0, 21);
        let wild0 = evolving_field(24, 50.0, 77);
        let wild1 = evolving_field(24, 50.0, 78);

        let mut inline = make();
        inline.push_snapshot(&calm).unwrap();
        let i_drift = inline.push_snapshot(&wild0).unwrap();
        let inline_bank = inline.models().cloned();
        let i_after = inline.push_snapshot(&wild1).unwrap();

        let mut deferred = make();
        let (_, t) = deferred.push_snapshot_deferred(&calm).unwrap();
        assert!(t.is_none(), "no drift on the calibration snapshot");
        let (d_drift, t) = deferred.push_snapshot_deferred(&wild0).unwrap();
        let mut task = t.expect("drift must hand back a task");
        assert_eq!(d_drift.stats.recalibration, Recalibration::Refreshed);
        assert_eq!(d_drift.stats.drift_residual, i_drift.stats.drift_residual);
        for (c1, c2) in d_drift.result.containers.iter().zip(&i_drift.result.containers) {
            assert_eq!(c1.as_bytes(), c2.as_bytes(), "the drifted snapshot itself is unaffected");
        }
        // Step one at a time — the yieldable unit is one trial compression.
        let total = task.total_steps();
        assert!(total >= 4, "codecs × bricks × sweep, got {total}");
        let mut steps = 0;
        while !task.step() {
            steps += 1;
            assert_eq!(task.remaining(), total - steps);
        }
        assert!(task.is_done());
        deferred.install_refresh(task);
        assert_eq!(
            deferred.models().cloned(),
            inline_bank,
            "refreshed banks must agree bit-for-bit"
        );

        let (d_after, t) = deferred.push_snapshot_deferred(&wild1).unwrap();
        assert_eq!(
            t.is_some(),
            i_after.stats.recalibration == Recalibration::Refreshed,
            "both paths must agree on whether the next snapshot drifts"
        );
        assert_eq!(d_after.stats.drift_residual, i_after.stats.drift_residual);
        for (c1, c2) in d_after.result.containers.iter().zip(&i_after.result.containers) {
            assert_eq!(c1.as_bytes(), c2.as_bytes(), "post-refresh frames must match inline");
        }
    }

    #[test]
    fn incomplete_refresh_cannot_install() {
        let dec = Decomposition::cubic(24, 2).unwrap();
        let mut s = StreamSession::new(
            SessionConfig::new(dec, QualityPolicy::SigmaScaled(0.1)).with_drift_threshold(0.05),
        );
        s.push_snapshot(&evolving_field(24, 1.0, 21)).unwrap();
        let (_, t) = s.push_snapshot_deferred(&evolving_field(24, 50.0, 77)).unwrap();
        let mut task = t.expect("drift");
        task.step(); // one of several
        assert!(!task.is_done());
        assert!(std::panic::catch_unwind(move || s.install_refresh(task)).is_err());
    }

    #[test]
    fn run_to_completion_equals_stepping() {
        let dec = Decomposition::cubic(24, 2).unwrap();
        let make = || {
            StreamSession::new(
                SessionConfig::new(dec.clone(), QualityPolicy::SigmaScaled(0.1))
                    .with_drift_threshold(0.05),
            )
        };
        let calm = evolving_field(24, 1.0, 21);
        let wild = evolving_field(24, 50.0, 77);
        let mut a = make();
        a.push_snapshot(&calm).unwrap();
        let (_, ta) = a.push_snapshot_deferred(&wild).unwrap();
        let mut ta = ta.unwrap();
        ta.run_to_completion();
        a.install_refresh(ta);
        let mut b = make();
        b.push_snapshot(&calm).unwrap();
        let (_, tb) = b.push_snapshot_deferred(&wild).unwrap();
        let mut tb = tb.unwrap();
        while !tb.step() {}
        b.install_refresh(tb);
        assert_eq!(a.models(), b.models());
    }

    #[test]
    fn set_policy_takes_effect_next_push() {
        let mut s = session(16, 2, QualityPolicy::FixedEb(0.3));
        assert_eq!(s.push_snapshot(&evolving_field(16, 1.0, 3)).unwrap().stats.eb_avg, 0.3);
        s.set_policy(QualityPolicy::FixedEb(0.15));
        assert_eq!(s.push_snapshot(&evolving_field(16, 1.0, 3)).unwrap().stats.eb_avg, 0.15);
        assert_eq!(s.config().policy, QualityPolicy::FixedEb(0.15));
        // Invalid swaps fail like the constructor.
        let mut s2 = session(16, 2, QualityPolicy::FixedEb(0.3));
        assert!(std::panic::catch_unwind(move || {
            s2.set_policy(QualityPolicy::BitrateBudget(-1.0))
        })
        .is_err());
    }

    #[test]
    fn relax_ladder_loosens_every_policy_kind() {
        assert_eq!(QualityPolicy::FixedEb(0.2).relax(2.0), QualityPolicy::FixedEb(0.4));
        assert_eq!(QualityPolicy::SigmaScaled(0.1).relax(2.0), QualityPolicy::SigmaScaled(0.2));
        assert_eq!(QualityPolicy::BitrateBudget(4.0).relax(2.0), QualityPolicy::BitrateBudget(2.0));
        // factor 1 is the identity rung.
        assert_eq!(QualityPolicy::FixedEb(0.2).relax(1.0), QualityPolicy::FixedEb(0.2));
        assert!(std::panic::catch_unwind(|| QualityPolicy::FixedEb(0.2).relax(0.5)).is_err());
    }

    // --- checkpoint / restore --------------------------------------------

    #[test]
    fn checkpoint_roundtrip_preserves_session_state() {
        let mut s = session(32, 4, QualityPolicy::SigmaScaled(0.1));
        s.push_snapshot(&evolving_field(32, 2.0, 9)).unwrap();
        s.push_snapshot(&evolving_field(32, 2.02, 9)).unwrap();
        let ckpt = s.checkpoint();
        let bytes = s.save();
        assert_eq!(&bytes[..4], b"CKPT");
        assert_eq!(bytes[4], CHECKPOINT_VERSION);
        let restored = StreamSession::restore(&bytes).expect("restores");
        assert_eq!(restored.checkpoint(), ckpt);
        assert_eq!(restored.models(), s.models());
        assert_eq!(restored.snapshots(), 2);
        assert_eq!(restored.full_calibrations(), 1);
        assert_eq!(restored.last_drift(), s.last_drift());
        assert!(restored.history().is_empty(), "wall-clock history does not survive");
    }

    #[test]
    fn restore_skips_recalibration_and_matches_uninterrupted_bytes() {
        let fields: Vec<Field3<f32>> =
            (0..4).map(|i| evolving_field(32, 1.5 + 0.02 * i as f64, 13)).collect();
        // Uninterrupted reference run.
        let mut a = session(32, 4, QualityPolicy::SigmaScaled(0.1));
        let a_recs: Vec<_> = fields.iter().map(|f| a.push_snapshot(f).unwrap()).collect();
        // Crash after snapshot 1, restore, resume.
        let mut b = session(32, 4, QualityPolicy::SigmaScaled(0.1));
        b.push_snapshot(&fields[0]).unwrap();
        b.push_snapshot(&fields[1]).unwrap();
        let blob = b.save();
        drop(b);
        let mut b = StreamSession::restore(&blob).expect("restores");
        for (i, f) in fields[2..].iter().enumerate() {
            let rec = b.push_snapshot(f).unwrap();
            let reference = &a_recs[i + 2];
            assert_ne!(
                rec.stats.recalibration,
                Recalibration::Full,
                "restore must never repay the full calibration"
            );
            assert_eq!(rec.stats.recalibration, reference.stats.recalibration);
            assert_eq!(rec.stats.snapshot, reference.stats.snapshot, "numbering continues");
            assert_eq!(rec.stats.eb_avg, reference.stats.eb_avg);
            assert_eq!(rec.stats.drift_residual, reference.stats.drift_residual);
            for (c1, c2) in rec.result.containers.iter().zip(&reference.result.containers) {
                assert_eq!(c1.as_bytes(), c2.as_bytes(), "resumed frames must be byte-identical");
            }
        }
        assert_eq!(b.full_calibrations(), 1, "lifetime count carries the pre-crash calibration");
        assert_eq!(b.snapshots(), 4);
    }

    #[test]
    fn refreshed_bank_after_restore_matches_non_restarted_drift_decisions() {
        // Regression for the restore path: a regime change after the
        // restart must trigger the same sampled refresh, and the refreshed
        // bank must steer the following snapshot identically to a run that
        // never restarted.
        let make = || {
            let dec = Decomposition::cubic(24, 2).unwrap();
            StreamSession::new(
                SessionConfig::new(dec, QualityPolicy::SigmaScaled(0.1)).with_drift_threshold(0.05),
            )
        };
        let calm = evolving_field(24, 1.0, 21);
        let wild0 = evolving_field(24, 50.0, 77);
        let wild1 = evolving_field(24, 50.0, 78);

        let mut a = make();
        a.push_snapshot(&calm).unwrap();
        let a_drift = a.push_snapshot(&wild0).unwrap();
        let a_after = a.push_snapshot(&wild1).unwrap();

        let mut b = make();
        b.push_snapshot(&calm).unwrap();
        let b2 = StreamSession::restore(&b.save()).expect("restores");
        let mut b2 = b2;
        let b_drift = b2.push_snapshot(&wild0).unwrap();
        let b_after = b2.push_snapshot(&wild1).unwrap();

        assert_eq!(a_drift.stats.recalibration, Recalibration::Refreshed);
        assert_eq!(b_drift.stats.recalibration, Recalibration::Refreshed);
        assert_eq!(a_drift.stats.drift_residual, b_drift.stats.drift_residual);
        assert_eq!(b2.models(), a.models(), "refreshed banks must agree");
        assert_eq!(a_after.stats.drift_residual, b_after.stats.drift_residual);
        assert_eq!(a_after.stats.recalibration, b_after.stats.recalibration);
        for (c1, c2) in a_after.result.containers.iter().zip(&b_after.result.containers) {
            assert_eq!(c1.as_bytes(), c2.as_bytes());
        }
        assert_eq!(b2.refreshes(), a.refreshes());
    }

    #[test]
    fn uncalibrated_session_checkpoints_and_restores() {
        let s = session(16, 2, QualityPolicy::FixedEb(0.2));
        let blob = s.save();
        let mut r = StreamSession::restore(&blob).expect("restores");
        assert!(r.models().is_none());
        assert_eq!(r.snapshots(), 0);
        // The restored idle session calibrates on its first push as usual.
        let rec = r.push_snapshot(&evolving_field(16, 1.0, 5)).unwrap();
        assert_eq!(rec.stats.recalibration, Recalibration::Full);
    }

    #[test]
    fn corrupt_checkpoints_fail_with_typed_errors() {
        let mut s = session(16, 2, QualityPolicy::FixedEb(0.2));
        s.push_snapshot(&evolving_field(16, 1.0, 5)).unwrap();
        let good = s.save();
        // Wrapper corruptions.
        let mut b = good.clone();
        b[0] = b'X';
        assert!(matches!(SessionCheckpoint::from_bytes(&b), Err(CheckpointError::Format(_))));
        let mut b = good.clone();
        b[4] = 9;
        assert!(matches!(SessionCheckpoint::from_bytes(&b), Err(CheckpointError::Format(_))));
        // Payload bit flip: checksum catches it.
        let mut b = good.clone();
        let last = b.len() - 1;
        b[last] ^= 0x20;
        let err = SessionCheckpoint::from_bytes(&b).expect_err("flip detected");
        assert!(err.to_string().contains("checksum"), "{err}");
        // Truncation.
        assert!(SessionCheckpoint::from_bytes(&good[..good.len() - 3]).is_err());
        assert!(SessionCheckpoint::from_bytes(&good[..10]).is_err());
        // Semantic violation: a codec without a model.
        let mut ckpt = s.checkpoint();
        ckpt.config.codecs = CodecId::ALL.to_vec();
        assert!(matches!(StreamSession::from_checkpoint(ckpt), Err(CheckpointError::Invalid(_))));
    }
}
