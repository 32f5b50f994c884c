package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// TraceSchema versions the JSON trace export.
const TraceSchema = "vptrace/v1"

// Trace is the exported, JSON-serializable form of a Recorder: a span
// tree, the event stream and the metrics registry.
type Trace struct {
	Schema string `json:"schema"`
	// EpochUS is the recorder's span-clock origin as unix microseconds;
	// span start offsets are relative to it.
	EpochUS int64         `json:"epoch_us"`
	Spans   []SpanRecord  `json:"spans"`
	Events  []EventRecord `json:"events"`
	Metrics Metrics       `json:"metrics"`
}

// SpanRecord is one finished (or still-open) span. Parent is the index of
// the enclosing span in Trace.Spans, or -1 at the root.
type SpanRecord struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// EventRecord is one event with its kind rendered as a string.
type EventRecord struct {
	Kind  string `json:"kind"`
	Phase int    `json:"phase"`
	Name  string `json:"name,omitempty"`
	N     int64  `json:"n,omitempty"`
}

// Metrics is the exported counter/gauge/histogram registry.
type Metrics struct {
	Counters   map[string]int64           `json:"counters,omitempty"`
	Gauges     map[string]float64         `json:"gauges,omitempty"`
	Histograms map[string]HistogramRecord `json:"histograms,omitempty"`
}

// HistogramRecord is one exported histogram: observation count, value
// sum, and per-bucket counts over the shared log-spaced layout (bucket i
// counts v <= 2^i; a trailing overflow slot catches the rest). Buckets is
// trimmed at its last non-zero slot.
type HistogramRecord struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// timeValuedMetric reports whether a histogram holds wall-clock values
// (microseconds) by naming convention: the automatic per-span histograms
// carry the span_us. prefix, and any explicitly recorded time histogram
// must use the _us suffix. Normalize zeroes exactly these.
func timeValuedMetric(name string) bool {
	return strings.HasPrefix(name, "span_us.") || strings.HasSuffix(name, "_us")
}

func kindFromString(s string) EventKind {
	for k, name := range kindNames {
		if name == s {
			return EventKind(k)
		}
	}
	return PhaseDetected
}

func (er EventRecord) eventKind() EventKind { return kindFromString(er.Kind) }

// Export snapshots the recorder as a Trace. Open spans export with the
// duration they have accumulated so far.
func (r *Recorder) Export() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Trace{Schema: TraceSchema, EpochUS: r.epoch.UnixMicro()}
	now := time.Since(r.epoch)
	for i, s := range r.spans {
		dur := s.dur
		if s.open {
			dur = now - s.start
		}
		t.Spans = append(t.Spans, SpanRecord{
			ID:      int32(i),
			Parent:  s.parent,
			Name:    s.name,
			StartUS: s.start.Microseconds(),
			DurUS:   dur.Microseconds(),
		})
	}
	for _, e := range r.events {
		t.Events = append(t.Events, EventRecord{
			Kind: e.Kind.String(), Phase: e.Phase, Name: e.Name, N: e.N,
		})
	}
	if len(r.counters) > 0 {
		t.Metrics.Counters = make(map[string]int64, len(r.counters))
		for k, v := range r.counters {
			t.Metrics.Counters[k] = v
		}
	}
	if len(r.gauges) > 0 {
		t.Metrics.Gauges = make(map[string]float64, len(r.gauges))
		for k, v := range r.gauges {
			t.Metrics.Gauges[k] = v
		}
	}
	if len(r.hists) > 0 {
		t.Metrics.Histograms = make(map[string]HistogramRecord, len(r.hists))
		for k, h := range r.hists {
			t.Metrics.Histograms[k] = h.record()
		}
	}
	// Drops are surfaced as counters only when they happened, so traces
	// from an uncapped run keep their golden-stable shape.
	if r.droppedSpans > 0 || r.droppedEvents > 0 {
		if t.Metrics.Counters == nil {
			t.Metrics.Counters = make(map[string]int64, 2)
		}
		if r.droppedSpans > 0 {
			t.Metrics.Counters[DroppedSpansCounter] += r.droppedSpans
		}
		if r.droppedEvents > 0 {
			t.Metrics.Counters[DroppedEventsCounter] += r.droppedEvents
		}
	}
	return t
}

// Counter names under which Export surfaces records discarded by the
// recorder's span/event caps.
const (
	DroppedSpansCounter  = "obs.dropped_spans"
	DroppedEventsCounter = "obs.dropped_events"
)

// Canonical counter names for the two-tier timed execution engine:
// basic-block cache traffic and superblock (tier 1) trace activity.
// Evaluation stages emit these; telemetry always exposes them.
const (
	BlockCacheHitsCounter      = "blockcache.hits"
	BlockCacheMissesCounter    = "blockcache.misses"
	BlockCacheEvictionsCounter = "blockcache.evictions"
	SuperblockPromotedCounter  = "superblock.promoted"
	SuperblockDemotedCounter   = "superblock.demoted"
	SuperblockSideExitsCounter = "superblock.side_exits"
	SuperblockChainedCounter   = "superblock.chained_insts"
)

// EngineCounters lists the execution-engine counter names in render
// order, for layers that expose or print the whole group.
func EngineCounters() []string {
	return []string{
		BlockCacheHitsCounter, BlockCacheMissesCounter, BlockCacheEvictionsCounter,
		SuperblockPromotedCounter, SuperblockDemotedCounter,
		SuperblockSideExitsCounter, SuperblockChainedCounter,
	}
}

// Canonical metric names for the persistent artifact store
// (internal/cas): hit/miss traffic against the (kind, key) index, the
// on-disk footprint, and GC reclamation. The suite additionally splits
// traffic by artifact class (store.profile_* / store.package_*) for its
// own assertions; the unsuffixed pair aggregates.
const (
	StoreHitsCounter          = "store.hits"
	StoreMissesCounter        = "store.misses"
	StoreGCReclaimedCounter   = "store.gc_reclaimed"
	StoreProfileHitsCounter   = "store.profile_hits"
	StoreProfileMissesCounter = "store.profile_misses"
	StorePackageHitsCounter   = "store.package_hits"
	StorePackageMissesCounter = "store.package_misses"
	StoreBytesGauge           = "store.bytes"
	StoreSegmentsGauge        = "store.segments"
)

// StoreCounters lists the store counter names the serving tier always
// exposes (zero without a -store), so cache hit rates can be dashboarded
// without series gaps.
func StoreCounters() []string {
	return []string{StoreHitsCounter, StoreMissesCounter, StoreGCReclaimedCounter}
}

// StoreGauges lists the store gauge names the serving tier always
// exposes.
func StoreGauges() []string {
	return []string{StoreBytesGauge, StoreSegmentsGauge}
}

// Canonical metric names for the translation-validation engine
// (internal/equiv, gated by the -equiv config knob): packages checked,
// paths proved symbolically, differential trials run past the path
// budget, refutations, and certificates reused from a proof memo instead
// of proved (paths_proved still counts a reused certificate's paths).
const (
	EquivPackagesCounter    = "equiv.packages"
	EquivPathsProvedCounter = "equiv.paths_proved"
	EquivPathsFuzzedCounter = "equiv.paths_fuzzed"
	EquivViolationsCounter  = "equiv.violations"
	EquivReusedCounter      = "equiv.reused"
)

// EquivCounters lists the translation-validation counter names the
// serving tier always exposes (zero without -equiv), so proof coverage
// and refutation rates can be dashboarded without series gaps.
func EquivCounters() []string {
	return []string{
		EquivPackagesCounter, EquivPathsProvedCounter,
		EquivPathsFuzzedCounter, EquivViolationsCounter,
		EquivReusedCounter,
	}
}

// Canonical metric names for the continuous-optimization daemon
// (cmd/vpackd): stream and repack counters, the bounded-queue depth
// gauge, and the repack wall-time histogram. Per-program stream counters
// derive from DaemonRecordsCounter by suffixing ".<program>".
const (
	DaemonRecordsCounter       = "vpackd.records"
	DaemonRepacksCounter       = "vpackd.repacks"
	DaemonQueueRejectedCounter = "vpackd.queue_rejected"
	DaemonVersionsCounter      = "vpackd.versions"
	// DaemonRecoveredCounter counts versions reloaded from the artifact
	// store at boot — served immediately without a repack.
	DaemonRecoveredCounter = "vpackd.versions_recovered"
	// DaemonEquivRejectedCounter counts repacks whose publication the
	// daemon refused because translation validation refuted a package.
	DaemonEquivRejectedCounter = "vpackd.equiv_rejected"
	DaemonQueueDepthGauge      = "vpackd.queue_depth"
	DaemonRepackLatencyHist    = "vpackd.repack_latency_us"
	// DaemonQueueWaitHist measures enqueue-to-worker-pickup latency: how
	// long a shard sat in the bounded repack queue before a worker drained
	// it. Together with DaemonRepackLatencyHist (pickup to publish) it
	// decomposes end-to-end repack latency into queueing and service time.
	DaemonQueueWaitHist = "vpackd.queue_wait_us"
)

// DaemonCounters lists the daemon counter names the serving tier always
// exposes (zero when idle), so queue-rejection and repack rates can be
// alerted on without series gaps.
func DaemonCounters() []string {
	return []string{
		DaemonRecordsCounter, DaemonRepacksCounter,
		DaemonQueueRejectedCounter, DaemonVersionsCounter,
		DaemonRecoveredCounter, DaemonEquivRejectedCounter,
	}
}

// DaemonHistograms lists the daemon histogram names the serving tier
// always exposes (empty when idle), so queue-wait and repack-latency
// quantiles render from the first scrape on.
func DaemonHistograms() []string {
	return []string{DaemonQueueWaitHist, DaemonRepackLatencyHist}
}

// Canonical metric names for the drift-observability layer
// (internal/drift): per-program windowed timelines of incoming profile
// shards scored against the phase snapshot backing the latest published
// PackageSet. Per-program series derive by suffixing ".<program>"; the
// unsuffixed gauges aggregate (max) across programs.
const (
	// DriftScoreGauge is the composite drift score in [0,1]: 0 means the
	// recent windows look exactly like the baseline profile, 1 means they
	// share nothing with it.
	DriftScoreGauge = "drift.score"
	// DriftPeakGauge is the maximum composite score ever observed (never
	// reset, not even by a new baseline), so a transient phase shift stays
	// visible to later scrapes.
	DriftPeakGauge = "drift.peak"
	// DriftDivergenceGauge is the weighted hot-set divergence component:
	// total-variation distance between the recent windows' and the
	// baseline's normalized branch-weight distributions.
	DriftDivergenceGauge = "drift.hot_set_divergence"
	// DriftBiasFlipsGauge counts branches common to the recent windows and
	// the baseline whose bias (taken/not-taken under the phasedb
	// thresholds) flipped direction.
	DriftBiasFlipsGauge = "drift.bias_flips"
	// DriftCrossingsGauge is the fraction of recent windows whose branch
	// set fails the paper's 30% filter rule against every baseline phase —
	// windows that would have founded a new phase.
	DriftCrossingsGauge = "drift.filter_crossings"
	// DriftBaselineVersionGauge is the published PackageSet version the
	// current baseline snapshot came from (0 = no baseline yet).
	DriftBaselineVersionGauge = "drift.baseline_version"
	// DriftWindowsCounter counts closed analysis windows;
	// DriftSamplesCounter counts hot-spot records observed.
	DriftWindowsCounter = "drift.windows"
	DriftSamplesCounter = "drift.samples"
	// DriftScoreHist distributes the per-window composite score as a
	// percentage (score x 100), so the shared power-of-two buckets resolve
	// it: <=1%, <=2%, <=4%, ... <=64%, overflow.
	DriftScoreHist = "drift.score_pct"
)

// DriftGauges lists the drift gauge names the serving tier always exposes
// (zero before the first window closes), so dashboards can plot drift from
// the first scrape without series gaps.
func DriftGauges() []string {
	return []string{
		DriftScoreGauge, DriftPeakGauge, DriftDivergenceGauge,
		DriftBiasFlipsGauge, DriftCrossingsGauge, DriftBaselineVersionGauge,
	}
}

// DriftCounters lists the drift counter names the serving tier always
// exposes.
func DriftCounters() []string {
	return []string{DriftWindowsCounter, DriftSamplesCounter}
}

// DriftHistograms lists the drift histogram names the serving tier always
// exposes.
func DriftHistograms() []string {
	return []string{DriftScoreHist}
}

// ReadTrace decodes one JSON trace and validates its schema marker.
func ReadTrace(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("obs: decode trace: %w", err)
	}
	if t.Schema != TraceSchema {
		return nil, fmt.Errorf("obs: trace schema %q, want %q", t.Schema, TraceSchema)
	}
	return &t, nil
}

// WriteJSON writes the trace as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Normalize zeroes every wall-clock field (epoch, span starts and
// durations, and the contents of time-valued histograms — span_us.* and
// *_us names) in place and returns t, making two traces of the same run
// byte-comparable; the golden-file schema test relies on it. Count-valued
// histograms (region sizes, link counts, simulated cycles) are
// deterministic and stay intact.
func (t *Trace) Normalize() *Trace {
	t.EpochUS = 0
	for i := range t.Spans {
		t.Spans[i].StartUS = 0
		t.Spans[i].DurUS = 0
	}
	for name := range t.Metrics.Histograms {
		if timeValuedMetric(name) {
			t.Metrics.Histograms[name] = HistogramRecord{}
		}
	}
	return t
}

// SpanTotal aggregates every span sharing one name.
type SpanTotal struct {
	Name  string
	Count int
	Total time.Duration
}

// SpanTotals aggregates span durations by name, in first-appearance
// order. Nested same-named spans each contribute their full duration.
func (t *Trace) SpanTotals() []SpanTotal {
	idx := make(map[string]int)
	var out []SpanTotal
	for _, s := range t.Spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, SpanTotal{Name: s.Name})
		}
		out[i].Count++
		out[i].Total += time.Duration(s.DurUS) * time.Microsecond
	}
	return out
}
