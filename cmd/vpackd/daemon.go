// Daemon core: per-program sharded profile accumulators, a bounded
// repack queue drained by a fixed worker pool, and versioned package
// serving. The HTTP layer is a thin JSON shim over this; the heavy
// lifting is the staged pipeline API (core.RegionStage/PackageStage)
// resumed from each program's accumulated profile artifact.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/equiv"
	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/phasedb"
	"repro/internal/prog"
	"repro/internal/report"
	"repro/internal/workload"
)

// ErrUnknownProgram reports a request naming a program the daemon does
// not serve. It is always wrapped with the offending name via %w; match
// it with errors.Is.
var ErrUnknownProgram = errors.New("unknown program")

// programState is one benchmark's shard: its pristine program and image
// (read-only after registration), the mutexed profile accumulator
// streamed records merge into, and the versioned package history.
type programState struct {
	name  string
	input string
	scale int64
	prog  *prog.Program
	img   *prog.Image
	hash  uint64

	// tracker is the shard's drift timeline; its own mutex serializes it,
	// so ingest touches it outside the shard lock.
	tracker *drift.Tracker

	// memo holds the certificates of the last successful repack (and of
	// any failed ones since), so a repack re-proves only the packages
	// that changed. Only the repack worker touches it, and pending keeps
	// a shard's repacks from overlapping, so it needs no lock.
	memo equiv.Memo

	mu      sync.Mutex
	db      *phasedb.DB
	records int64 // total hot-spot records accepted
	dirty   int   // records since the last enqueued repack
	pending bool  // queued or mid-repack
	// enqueuedAt stamps the last successful enqueue, for the
	// queue-wait histogram at worker pickup.
	enqueuedAt time.Time
	// pendIngests chains the ingest traces contributing records since the
	// last snapshot (capped at maxProvIngests); pendIngestN is the
	// uncapped count. Both reset when a repack snapshots the shard.
	pendIngests []core.IngestRef
	pendIngestN int64
	// versions holds each repack's encoded PackageSet; version N is
	// versions[N-1], its build record provs[N-1]. lastErr keeps the most
	// recent repack failure for /v1/programs (ErrNoPhases early in a
	// stream is expected).
	versions [][]byte
	provs    []*core.Provenance
	lastErr  string
}

// maxProvIngests caps the ingest-trace chain a provenance record retains;
// IngestsTotal keeps the uncapped count.
const maxProvIngests = 32

// Daemon is the continuous-optimization service state.
type Daemon struct {
	cfg      core.Config
	driftCfg drift.Config
	rec      *obs.Recorder
	logger   *slog.Logger
	batch    int

	// store, when non-nil, persists every published version and its
	// provenance; the daemon owns it (Close flushes and closes it) and
	// recovers the version history from it at boot.
	store *cas.Store

	programs map[string]*programState

	// events is the bounded /v1/events ring; ingestSeq and repackSeq mint
	// the request-scoped trace IDs.
	events    *drift.EventRing
	ingestSeq atomic.Int64
	repackSeq atomic.Int64

	// queueMu guards queue against sends after Close; the channel itself
	// is the bounded repack work queue.
	queueMu sync.Mutex
	closed  bool
	queue   chan *programState
	poolWG  sync.WaitGroup

	// packageStage runs a repack's package stage through the program's
	// proof memo: core.PackageStageReusing without an observer. Tests
	// replace it to inject a miscompile between the passes and the proof.
	packageStage func(cfg core.Config, p *prog.Program, img *prog.Image, ra *core.RegionArtifact, memo *equiv.Memo) (*core.PackageSet, error)
}

// NewDaemon registers one programState per benchmark (restricted to
// names when non-empty), each built from its first input at scale
// (0 = the input's own), and starts workers repack goroutines draining
// the queue, which holds at most queueCap pending repacks. batch is how
// many fresh records accumulate before a shard re-enters the queue.
// driftCfg sizes the per-program drift trackers (a disabled config keeps
// ingest and repack working with the drift series pinned at zero).
//
// store, when non-nil, is the persistent artifact store: each program's
// published version history is recovered from it before the daemon
// starts serving — a restarted daemon answers /v1/packages/{p}/latest
// (and the matching provenance) immediately, without waiting for a
// repack — and every future repack writes through to it. The daemon
// takes ownership: Close flushes and closes it. Drift baselines are
// deliberately not recovered; the tracker re-baselines at the first
// post-restart repack, so drift scores restart from zero rather than
// comparing against a snapshot that no longer reflects the live stream.
func NewDaemon(cfg core.Config, benches []string, scale int64, workers, queueCap, batch int, driftCfg drift.Config, store *cas.Store, rec *obs.Recorder, logger *slog.Logger) (*Daemon, error) {
	ordered := workload.Ordered()
	if len(benches) > 0 {
		var sel []*workload.Benchmark
		for _, name := range benches {
			b, err := workload.ByName(name)
			if err != nil {
				return nil, fmt.Errorf("vpackd: %q: %w", name, ErrUnknownProgram)
			}
			sel = append(sel, b)
		}
		ordered = sel
	}
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	if batch < 1 {
		batch = 1
	}
	d := &Daemon{
		cfg:      cfg,
		driftCfg: driftCfg,
		rec:      rec,
		logger:   logger,
		batch:    batch,
		store:    store,
		programs: make(map[string]*programState, len(ordered)),
		events:   drift.NewEventRing(drift.DefaultEventRing),
		queue:    make(chan *programState, queueCap),
		packageStage: func(cfg core.Config, p *prog.Program, img *prog.Image, ra *core.RegionArtifact, memo *equiv.Memo) (*core.PackageSet, error) {
			return core.PackageStageReusing(cfg, p, img, ra, obs.Nop{}, memo)
		},
	}
	for _, b := range ordered {
		in := b.Inputs[0]
		if scale > 0 {
			in.Scale = scale
		}
		p := b.Build(in)
		img, err := p.Linearize()
		if err != nil {
			return nil, fmt.Errorf("vpackd: %s: linearize: %w", b.Name, err)
		}
		st := &programState{
			name:    b.Name,
			input:   in.Name,
			scale:   in.Scale,
			prog:    p,
			img:     img,
			hash:    core.ImageHash(img),
			db:      phasedb.New(cfg.Filter),
			tracker: drift.NewTracker(driftCfg, b.Name, rec),
		}
		if n := d.recoverVersions(st); n > 0 {
			rec.Count(obs.DaemonRecoveredCounter, int64(n))
			logger.Info("recovered versions", "program", b.Name, "versions", n)
		}
		d.programs[b.Name] = st
	}
	// Fixed worker pool over the bounded queue — the same ForEachN
	// discipline the suite runner fans out with; each index is one
	// long-lived drain loop, and the pool returns when Close closes
	// the queue.
	d.poolWG.Add(1)
	go func() {
		defer d.poolWG.Done()
		report.ForEachN(workers, workers, func(int) {
			for st := range d.queue {
				d.rec.Gauge(obs.DaemonQueueDepthGauge, float64(len(d.queue)))
				d.repack(st)
			}
		})
	}()
	d.rec.Gauge(obs.DaemonQueueDepthGauge, 0)
	if d.store != nil {
		d.publishStoreGauges()
	}
	return d, nil
}

// recoverVersions reloads st's published version history from the
// artifact store: versions 1..N under (NameKey(name), v) until the first
// gap. Each recovered PackageSet must decode and claim the live
// program's image hash — a stale store (the benchmark's build changed
// under it) stops recovery at the last version that still matches, so
// the daemon never serves packages for a program it isn't running.
// Corrupt blobs likewise end recovery as a clean stop, never a panic.
func (d *Daemon) recoverVersions(st *programState) int {
	if d.store == nil {
		return 0
	}
	for v := 1; ; v++ {
		encoded, err := d.store.GetDaemonVersion(st.name, v)
		if err != nil {
			if !errors.Is(err, cas.ErrNotFound) {
				d.logger.Warn("version recovery stopped", "program", st.name, "version", v, "err", err)
			}
			break
		}
		set, err := core.DecodePackageSet(bytes.NewReader(encoded))
		if err != nil {
			d.logger.Warn("version recovery stopped", "program", st.name, "version", v, "err", err)
			break
		}
		if set.ProgramHash != st.hash {
			d.logger.Warn("stored versions are for a different program build; ignoring",
				"program", st.name, "version", v,
				"stored", fmt.Sprintf("%016x", set.ProgramHash),
				"live", fmt.Sprintf("%016x", st.hash))
			break
		}
		prov, err := d.store.GetDaemonProvenance(st.name, v)
		if err != nil {
			d.logger.Warn("version recovery stopped", "program", st.name, "version", v, "err", err)
			break
		}
		st.versions = append(st.versions, encoded)
		st.provs = append(st.provs, prov)
	}
	return len(st.versions)
}

// lookup resolves a program name, wrapping ErrUnknownProgram.
func (d *Daemon) lookup(name string) (*programState, error) {
	if st, ok := d.programs[name]; ok {
		return st, nil
	}
	return nil, fmt.Errorf("vpackd: %q: %w", name, ErrUnknownProgram)
}

// ingestTrace resolves the request-scoped trace ID for one profile POST:
// the client's own (Vpackd-Trace header) when supplied, else a
// daemon-minted "ing-" ID. Every downstream artifact of the ingest —
// queue entry, repack, published version — carries it.
func (d *Daemon) ingestTrace(client string) string {
	if client != "" {
		return client
	}
	return fmt.Sprintf("ing-%08d", d.ingestSeq.Add(1))
}

// record merges n decoded hot spots into the shard's accumulator and
// enqueues a repack once batch fresh records have piled up. A full queue
// rejects the enqueue (counted, gauge untouched); the next record past
// the threshold retries. trace is the ingest's request-scoped ID; it is
// chained into the provenance of whichever version packages the records.
func (d *Daemon) record(st *programState, spots []hotSpotWire, trace string) {
	hss := make([]hsd.HotSpot, len(spots))
	phaseIDs := make([]int, len(spots))
	for i := range spots {
		hss[i] = spots[i].toHSD()
	}

	st.mu.Lock()
	for i := range hss {
		if ph := st.db.Record(hss[i]); ph != nil {
			phaseIDs[i] = ph.ID
		} else {
			phaseIDs[i] = -1
		}
	}
	st.records += int64(len(spots))
	st.dirty += len(spots)
	if len(spots) > 0 {
		st.pendIngestN++
		if len(st.pendIngests) < maxProvIngests {
			st.pendIngests = append(st.pendIngests, core.IngestRef{Trace: trace, Records: len(spots)})
		}
	}
	enqueue := !st.pending && st.dirty >= d.batch
	if enqueue {
		st.pending = true
		st.enqueuedAt = time.Now()
	}
	st.mu.Unlock()
	if enqueue && !d.enqueue(st) {
		st.mu.Lock()
		st.pending = false
		st.mu.Unlock()
	}

	// Fold the records into the drift timeline (the tracker has its own
	// mutex, so the shard lock is not held across it) and surface every
	// closed window on the event stream.
	windowsClosed := 0
	for i := range hss {
		if st.tracker.Observe(hss[i], phaseIDs[i]) {
			windowsClosed++
		}
	}
	if windowsClosed > 0 {
		score := st.tracker.Score()
		for i := 0; i < windowsClosed; i++ {
			d.events.Append(drift.StreamEvent{
				UnixUS:  time.Now().UnixMicro(),
				Kind:    drift.EventWindow,
				Program: st.name,
				Trace:   trace,
				N:       int64(d.driftCfg.Window),
				Score:   score.Composite,
			})
		}
		d.publishDriftAggregate()
	}
	d.events.Append(drift.StreamEvent{
		UnixUS:  time.Now().UnixMicro(),
		Kind:    drift.EventIngest,
		Program: st.name,
		Trace:   trace,
		N:       int64(len(spots)),
	})

	d.rec.Count(obs.DaemonRecordsCounter, int64(len(spots)))
	d.rec.Count(obs.DaemonRecordsCounter+"."+st.name, int64(len(spots)))
}

// publishDriftAggregate refreshes the unsuffixed vp_drift_* gauges as the
// maximum across all programs' trackers — "the most drifted program" is
// the alertable fleet signal; per-program values live on the suffixed
// series.
func (d *Daemon) publishDriftAggregate() {
	var score, peak, div, flips, cross float64
	for _, st := range d.programs {
		s := st.tracker.Score()
		score = max(score, s.Composite)
		peak = max(peak, s.Peak)
		div = max(div, s.HotSetDivergence)
		flips = max(flips, float64(s.BiasFlips))
		cross = max(cross, s.FilterCrossings)
	}
	d.rec.Gauge(obs.DriftScoreGauge, score)
	d.rec.Gauge(obs.DriftPeakGauge, peak)
	d.rec.Gauge(obs.DriftDivergenceGauge, div)
	d.rec.Gauge(obs.DriftBiasFlipsGauge, flips)
	d.rec.Gauge(obs.DriftCrossingsGauge, cross)
}

// enqueue offers st to the bounded queue without blocking the ingest
// path; false means the queue was full (or the daemon closed).
func (d *Daemon) enqueue(st *programState) bool {
	d.queueMu.Lock()
	defer d.queueMu.Unlock()
	if d.closed {
		return false
	}
	select {
	case d.queue <- st:
		d.rec.Gauge(obs.DaemonQueueDepthGauge, float64(len(d.queue)))
		return true
	default:
		d.rec.Count(obs.DaemonQueueRejectedCounter, 1)
		return false
	}
}

// repack runs stages 2+3 from the shard's accumulated profile: snapshot
// the database (so ingest keeps streaming), wrap it as a ProfileArtifact
// stamped with the shard's image hash, resume RegionStage+PackageStage
// against a fresh clone, and publish the encoded PackageSet as the next
// version. Runs on a pool worker; only the snapshot and publish steps
// hold the shard mutex.
func (d *Daemon) repack(st *programState) {
	start := time.Now()
	trace := fmt.Sprintf("rpk-%05d", d.repackSeq.Add(1))

	st.mu.Lock()
	snap := st.db.Snapshot()
	st.dirty = 0
	queueWait := time.Since(st.enqueuedAt)
	ingests := st.pendIngests
	ingestsTotal := st.pendIngestN
	st.pendIngests = nil
	st.pendIngestN = 0
	records := st.records
	st.mu.Unlock()

	d.rec.Observe(obs.DaemonQueueWaitHist, float64(queueWait.Microseconds()))
	d.events.Append(drift.StreamEvent{
		UnixUS: start.UnixMicro(), Kind: drift.EventRepackStart,
		Program: st.name, Trace: trace,
	})

	// The drift measurement at snapshot time is part of the version's
	// provenance: it says how stale the *previous* baseline had become
	// when this build replaced it.
	driftAtBuild := st.tracker.Score()

	pa := &core.ProfileArtifact{
		Schema:      core.ProfileArtifactSchema,
		Program:     st.name,
		ProgramHash: st.hash,
		ProfileKey:  d.cfg.ProfileKey(),
		Phases:      snap,
	}
	prov := &core.Provenance{
		Schema:        core.ProvenanceSchema,
		Program:       st.name,
		Trace:         trace,
		ProgramHash:   st.hash,
		Records:       records,
		Ingests:       ingests,
		IngestsTotal:  ingestsTotal,
		DriftScore:    driftAtBuild.Composite,
		DriftBaseline: driftAtBuild.BaselineVersion,
		QueueWaitUS:   queueWait.Microseconds(),
	}
	encoded, err := d.buildVersion(st, pa, prov)
	prov.BuildUS = time.Since(start).Microseconds()
	if err == nil {
		// The next repack reuses this build's certificates; older ones
		// go. A failed build keeps both generations. This runs before
		// pending clears, so no other repack of st can touch the memo.
		st.memo.Rotate()
	}

	version := 0
	st.mu.Lock()
	if err != nil {
		st.lastErr = err.Error()
	} else {
		st.lastErr = ""
		st.versions = append(st.versions, encoded)
		version = len(st.versions)
		prov.Version = version
		st.provs = append(st.provs, prov)
	}
	st.pending = false
	// Records that streamed in mid-repack re-arm the queue themselves
	// once they cross the batch threshold again; nothing to do here.
	st.mu.Unlock()

	d.rec.Observe(obs.DaemonRepackLatencyHist, float64(time.Since(start).Microseconds()))
	d.rec.Count(obs.DaemonRepacksCounter, 1)
	if err != nil {
		d.events.Append(drift.StreamEvent{
			UnixUS: time.Now().UnixMicro(), Kind: drift.EventRepackDone,
			Program: st.name, Trace: trace, Detail: err.Error(),
		})
		// A refuted equivalence proof is a miscompile caught before
		// publication: the version is never appended, so clients keep
		// being served the last good one.
		if errors.Is(err, core.ErrNotEquivalent) {
			n := len(equiv.Counterexamples(err))
			if n == 0 {
				n = 1
			}
			d.rec.Count(obs.DaemonEquivRejectedCounter, 1)
			d.rec.Count(obs.EquivViolationsCounter, int64(n))
		}
		// ErrNoPhases just means the stream is still too thin to package.
		if !errors.Is(err, core.ErrNoPhases) {
			d.logger.Warn("repack failed", "program", st.name, "err", err)
		}
		return
	}

	// Write the published version through to the artifact store and make
	// it durable before announcing: a crash after this point loses
	// nothing, a crash before it simply rebuilds the version from the
	// next stream. Persistence failures degrade the store, not serving.
	if d.store != nil {
		if perr := d.persistVersion(st.name, version, encoded, prov); perr != nil {
			d.logger.Warn("version persist failed", "program", st.name, "version", version, "err", perr)
		}
	}

	// The published version's snapshot becomes the new drift baseline:
	// future windows measure against what is now actually deployed.
	st.tracker.SetBaseline(snap, version)
	d.publishDriftAggregate()
	d.events.Append(drift.StreamEvent{
		UnixUS: time.Now().UnixMicro(), Kind: drift.EventRepackDone,
		Program: st.name, Trace: trace, N: int64(version), Score: driftAtBuild.Composite,
	})
	d.events.Append(drift.StreamEvent{
		UnixUS: time.Now().UnixMicro(), Kind: drift.EventBaseline,
		Program: st.name, Trace: trace, N: int64(version),
	})

	d.rec.Count(obs.DaemonVersionsCounter, 1)
	d.logger.Info("repacked", "program", st.name,
		"version", version, "trace", trace,
		"queue_wait", queueWait.Round(time.Microsecond),
		"drift", fmt.Sprintf("%.3f", driftAtBuild.Composite),
		"elapsed", time.Since(start).Round(time.Millisecond))
}

// persistVersion writes one published version and its build record to
// the store and flushes, so the version survives an immediate crash.
// Serialized by the store's own lock; repack workers may race here.
func (d *Daemon) persistVersion(name string, version int, encoded []byte, prov *core.Provenance) error {
	if err := d.store.PutDaemonVersion(name, version, encoded); err != nil {
		return err
	}
	if err := d.store.PutDaemonProvenance(name, version, prov); err != nil {
		return err
	}
	if err := d.store.Flush(); err != nil {
		return err
	}
	d.publishStoreGauges()
	return nil
}

// publishStoreGauges refreshes the vp_store_* footprint gauges from the
// store's live stats.
func (d *Daemon) publishStoreGauges() {
	sst := d.store.Stats()
	d.rec.Gauge(obs.StoreBytesGauge, float64(sst.DiskBytes))
	d.rec.Gauge(obs.StoreSegmentsGauge, float64(sst.Segments))
}

// buildVersion resumes the staged pipeline from pa, filling prov's
// artifact hashes and stage spans, and returns the encoded PackageSet.
func (d *Daemon) buildVersion(st *programState, pa *core.ProfileArtifact, prov *core.Provenance) ([]byte, error) {
	clone := st.prog.Clone()
	cloneImg, err := clone.Linearize()
	if err != nil {
		return nil, err
	}
	if h, err := pa.Hash(); err == nil {
		prov.ProfileHash = h
	}

	stage := time.Now()
	ra, err := core.RegionStage(d.cfg, cloneImg, pa)
	prov.Spans = append(prov.Spans, core.SpanSummary{Name: "region_stage", US: time.Since(stage).Microseconds()})
	if err != nil {
		return nil, err
	}
	if h, err := ra.Hash(); err == nil {
		prov.RegionHash = h
	}

	stage = time.Now()
	set, err := d.packageStage(d.cfg, clone, cloneImg, ra, &st.memo)
	prov.Spans = append(prov.Spans, core.SpanSummary{Name: "package_stage", US: time.Since(stage).Microseconds()})
	if err != nil {
		return nil, err
	}
	set.Program = st.name
	for _, c := range set.Equiv {
		d.rec.Count(obs.EquivPackagesCounter, 1)
		d.rec.Count(obs.EquivPathsProvedCounter, int64(c.PathsProved))
		d.rec.Count(obs.EquivPathsFuzzedCounter, int64(c.PathsFuzzed))
	}
	d.rec.Count(obs.EquivReusedCounter, int64(set.Reused()))

	stage = time.Now()
	var buf bytes.Buffer
	if err := set.EncodeJSON(&buf); err != nil {
		return nil, err
	}
	if h, err := set.Hash(); err == nil {
		prov.PackageHash = h
	}
	prov.Spans = append(prov.Spans, core.SpanSummary{Name: "encode", US: time.Since(stage).Microseconds()})
	return buf.Bytes(), nil
}

// version returns the encoded PackageSet for a 1-based version number,
// or the newest one for latest.
func (st *programState) version(sel string) ([]byte, int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := len(st.versions)
	if sel == "latest" {
		if n == 0 {
			return nil, 0, fmt.Errorf("no versions yet")
		}
		return st.versions[n-1], n, nil
	}
	var v int
	if _, err := fmt.Sscanf(sel, "%d", &v); err != nil || v < 1 {
		return nil, 0, fmt.Errorf("bad version %q", sel)
	}
	if v > n {
		return nil, 0, fmt.Errorf("version %d not yet built (have %d)", v, n)
	}
	return st.versions[v-1], v, nil
}

// provenance returns the build record for a 1-based version number
// ("latest" for the newest). Records exist for exactly the published
// versions, so the same selectors resolve.
func (st *programState) provenance(sel string) (*core.Provenance, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := len(st.provs)
	if sel == "latest" {
		if n == 0 {
			return nil, fmt.Errorf("no versions yet")
		}
		return st.provs[n-1], nil
	}
	var v int
	if _, err := fmt.Sscanf(sel, "%d", &v); err != nil || v < 1 {
		return nil, fmt.Errorf("bad version %q", sel)
	}
	if v > n {
		return nil, fmt.Errorf("version %d not yet built (have %d)", v, n)
	}
	return st.provs[v-1], nil
}

// Close stops accepting repacks, waits for in-flight ones to finish,
// then flushes and closes the artifact store — pending writes hit disk
// and the manifest is fsynced before the process exits, so a SIGTERM'd
// daemon restarts with its full version history. Ingest handlers may
// still run afterwards (the HTTP server drains separately); their
// enqueue attempts fail closed.
func (d *Daemon) Close() {
	d.queueMu.Lock()
	if !d.closed {
		d.closed = true
		close(d.queue)
	}
	d.queueMu.Unlock()
	d.poolWG.Wait()
	if d.store != nil {
		if err := d.store.Close(); err != nil {
			d.logger.Warn("store close failed", "err", err)
		}
	}
}
