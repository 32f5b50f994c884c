package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/drift"
	"repro/internal/equiv"
	"repro/internal/hsd"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/telemetry"
)

// testDriftCfg sizes the drift trackers small enough that the handful of
// records a test streams closes windows.
var testDriftCfg = drift.Config{Window: 2, Ring: 16, Recent: 2}

// newTestDaemon builds a one-benchmark daemon at scale 1 (the test
// scale the rest of the repo uses) with a small batch so a handful of
// records triggers a repack.
func newTestDaemon(t *testing.T, batch int) (*Daemon, *obs.Recorder) {
	t.Helper()
	return newTestDaemonStore(t, batch, nil)
}

// newTestDaemonStore is newTestDaemon with a persistent artifact store;
// the daemon owns it (Close closes it), so restart tests reopen the
// directory for the next incarnation.
func newTestDaemonStore(t *testing.T, batch int, store *cas.Store) (*Daemon, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder()
	d, err := NewDaemon(core.ScaledConfig(), []string{"m88ksim"}, 1, 2, 4, batch,
		testDriftCfg, store, rec, slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, rec
}

// captureSpots profiles the daemon's own image and returns the raw
// detector output in wire form — genuine hot-spot records, not mocks.
func captureSpots(t *testing.T, d *Daemon, name string) []hotSpotWire {
	t.Helper()
	st := d.programs[name]
	var spots []hotSpotWire
	_, _, err := core.DetectHotSpots(d.cfg, cpu.DefaultConfig(), st.img, func(h hsd.HotSpot) { spots = append(spots, fromHSD(h)) })
	if err != nil {
		t.Fatal(err)
	}
	if len(spots) == 0 {
		t.Fatal("profiling detected no hot spots")
	}
	return spots
}

func postSpots(t *testing.T, h http.Handler, program string, hash uint64, spots []hotSpotWire) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(profilePost{ProgramHash: hash, HotSpots: spots})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/profiles/"+program, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// awaitVersion polls the package endpoint until the daemon has built at
// least one version.
func awaitVersion(t *testing.T, h http.Handler, program string) *httptest.ResponseRecorder {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		w := get(h, "/v1/packages/"+program+"/latest")
		if w.Code == http.StatusOK {
			return w
		}
		if time.Now().After(deadline) {
			t.Fatalf("no package version after 60s: %s", w.Body.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	d, _ := newTestDaemon(t, 3)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")

	// Program discovery advertises the shard and its image hash.
	w := get(h, "/v1/programs")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/programs: %d", w.Code)
	}
	var progs []programInfo
	if err := json.Unmarshal(w.Body.Bytes(), &progs); err != nil {
		t.Fatal(err)
	}
	if len(progs) != 1 || progs[0].Program != "m88ksim" {
		t.Fatalf("programs = %+v", progs)
	}
	if progs[0].ProgramHash != d.programs["m88ksim"].hash {
		t.Fatalf("advertised hash %016x, shard hash %016x", progs[0].ProgramHash, d.programs["m88ksim"].hash)
	}

	// Stream enough records to cross the batch threshold.
	for i := 0; i < 3; i++ {
		if w := postSpots(t, h, "m88ksim", progs[0].ProgramHash, spots); w.Code != http.StatusOK {
			t.Fatalf("POST profile: %d: %s", w.Code, w.Body.String())
		}
	}

	// The daemon repacks and publishes a version.
	w = awaitVersion(t, h, "m88ksim")
	set, err := core.DecodePackageSet(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if set.ProgramHash != progs[0].ProgramHash {
		t.Fatalf("package hash %016x, program hash %016x", set.ProgramHash, progs[0].ProgramHash)
	}
	if len(set.Packages) == 0 {
		t.Fatal("published PackageSet has no packages")
	}
	packed, err := set.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	img, err := packed.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if core.ImageHash(img) != set.PackedHash {
		t.Fatalf("reassembled image %016x, packed hash %016x", core.ImageHash(img), set.PackedHash)
	}

	// Explicit version numbers resolve; absurd ones don't.
	if w := get(h, "/v1/packages/m88ksim/1"); w.Code != http.StatusOK {
		t.Fatalf("GET version 1: %d", w.Code)
	}
	if w := get(h, "/v1/packages/m88ksim/999"); w.Code != http.StatusNotFound {
		t.Fatalf("GET version 999: %d", w.Code)
	}
	if w := get(h, "/v1/packages/m88ksim/bogus"); w.Code != http.StatusNotFound {
		t.Fatalf("GET version bogus: %d", w.Code)
	}

	// /metrics exports the daemon series.
	w = get(h, "/metrics")
	body := w.Body.String()
	for _, series := range []string{
		telemetry.MetricName(obs.DaemonQueueDepthGauge),
		telemetry.MetricName(obs.DaemonRepackLatencyHist),
		telemetry.MetricName(obs.DaemonRecordsCounter),
		telemetry.MetricName(obs.DaemonQueueRejectedCounter),
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics is missing %s", series)
		}
	}
}

func TestDaemonUnknownProgram(t *testing.T) {
	d, _ := newTestDaemon(t, 3)
	h := d.Handler()

	if w := postSpots(t, h, "nope", 0, nil); w.Code != http.StatusNotFound {
		t.Fatalf("POST to unknown program: %d", w.Code)
	}
	if w := get(h, "/v1/packages/nope/latest"); w.Code != http.StatusNotFound {
		t.Fatalf("GET unknown program: %d", w.Code)
	}
	if _, err := d.lookup("nope"); !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("lookup error %v, want ErrUnknownProgram", err)
	}
	_, err := NewDaemon(core.ScaledConfig(), []string{"nope"}, 1, 1, 1, 1,
		testDriftCfg, nil, obs.NewRecorder(), slog.New(slog.DiscardHandler))
	if !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("NewDaemon error %v, want ErrUnknownProgram", err)
	}
}

func TestDaemonStaleProfile(t *testing.T) {
	d, _ := newTestDaemon(t, 3)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")

	w := postSpots(t, h, "m88ksim", d.programs["m88ksim"].hash^1, spots)
	if w.Code != http.StatusConflict {
		t.Fatalf("stale POST: %d, want 409", w.Code)
	}
	if !strings.Contains(w.Body.String(), core.ErrStaleArtifact.Error()) {
		t.Fatalf("409 body %q does not name the stale-artifact error", w.Body.String())
	}
	// A zero hash means the client didn't claim a build; accept it.
	if w := postSpots(t, h, "m88ksim", 0, spots[:1]); w.Code != http.StatusOK {
		t.Fatalf("hashless POST: %d: %s", w.Code, w.Body.String())
	}
}

// TestDaemonConcurrentStreams drives 1000 concurrent profile streams
// through the handler — the acceptance load for the ingest path: the
// per-shard mutex serializes accumulation, the bounded queue absorbs
// repack pressure, and no record is lost.
func TestDaemonConcurrentStreams(t *testing.T) {
	d, rec := newTestDaemon(t, 50)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")

	const streams = 1000
	perStream := spots[:1]
	var wg, readWG sync.WaitGroup
	codes := make([]int, streams)
	// Concurrent observability readers ride along with the ingest load:
	// the bounded event ring and the drift/timeline endpoints must stay
	// consistent (and race-clean) without ever blocking ingest.
	const readers = 8
	readerErrs := make([]error, readers)
	stop := make(chan struct{})
	for rd := 0; rd < readers; rd++ {
		readWG.Add(1)
		go func(rd int) {
			defer readWG.Done()
			var cursor int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := get(h, fmt.Sprintf("/v1/events?after=%d&limit=64", cursor))
				if w.Code != http.StatusOK {
					readerErrs[rd] = fmt.Errorf("/v1/events: %d", w.Code)
					return
				}
				var ev eventsReply
				if err := json.Unmarshal(w.Body.Bytes(), &ev); err != nil {
					readerErrs[rd] = err
					return
				}
				for i := 1; i < len(ev.Events); i++ {
					if ev.Events[i].Seq != ev.Events[i-1].Seq+1 {
						readerErrs[rd] = fmt.Errorf("non-contiguous event seqs %d -> %d",
							ev.Events[i-1].Seq, ev.Events[i].Seq)
						return
					}
				}
				cursor = ev.Next
				if w := get(h, "/v1/drift/m88ksim"); w.Code != http.StatusOK {
					readerErrs[rd] = fmt.Errorf("/v1/drift: %d", w.Code)
					return
				}
				if w := get(h, "/v1/timeline/m88ksim"); w.Code != http.StatusOK {
					readerErrs[rd] = fmt.Errorf("/v1/timeline: %d", w.Code)
					return
				}
			}
		}(rd)
	}
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			codes[s] = postSpots(t, h, "m88ksim", 0, perStream).Code
		}(s)
	}
	wg.Wait()
	close(stop)
	readWG.Wait()
	for rd, err := range readerErrs {
		if err != nil {
			t.Errorf("reader %d: %v", rd, err)
		}
	}
	for s, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("stream %d: status %d", s, code)
		}
	}

	st := d.programs["m88ksim"]
	st.mu.Lock()
	records := st.records
	st.mu.Unlock()
	if records != streams {
		t.Fatalf("accepted %d records, want %d", records, streams)
	}
	if got := rec.Export().Metrics.Counters[obs.DaemonRecordsCounter]; got != streams {
		t.Fatalf("%s = %d, want %d", obs.DaemonRecordsCounter, got, streams)
	}

	// The load crossed the batch threshold many times over; the daemon
	// must still converge on at least one published version.
	awaitVersion(t, h, "m88ksim")
}

func TestDaemonCloseStopsQueue(t *testing.T) {
	rec := obs.NewRecorder()
	d, err := NewDaemon(core.ScaledConfig(), []string{"m88ksim"}, 1, 1, 1, 1,
		testDriftCfg, nil, rec, slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close() // idempotent
	if d.enqueue(d.programs["m88ksim"]) {
		t.Fatal("enqueue succeeded after Close")
	}
	if got := rec.Export().Metrics.Counters[obs.DaemonQueueRejectedCounter]; got != 0 {
		t.Fatalf("closed enqueue counted as queue rejection (%d)", got)
	}
}

func TestProgramStateVersionSelection(t *testing.T) {
	st := &programState{versions: [][]byte{[]byte("v1"), []byte("v2")}}
	for _, tc := range []struct {
		sel  string
		data string
		v    int
		ok   bool
	}{
		{"latest", "v2", 2, true},
		{"1", "v1", 1, true},
		{"2", "v2", 2, true},
		{"3", "", 0, false},
		{"0", "", 0, false},
		{"-1", "", 0, false},
		{"x", "", 0, false},
	} {
		data, v, err := st.version(tc.sel)
		if tc.ok != (err == nil) {
			t.Errorf("version(%q) err = %v, want ok=%v", tc.sel, err, tc.ok)
			continue
		}
		if tc.ok && (string(data) != tc.data || v != tc.v) {
			t.Errorf("version(%q) = %q, %d; want %q, %d", tc.sel, data, v, tc.data, tc.v)
		}
	}
	empty := &programState{}
	if _, _, err := empty.version("latest"); err == nil {
		t.Error("latest on empty history should fail")
	}
}

// shiftSpots synthesizes a phase shift from captured records: the first
// ~40% of each record's branches are dropped (hot-set change) and the
// survivors' taken counts are flipped (bias flips). The PCs stay real,
// so the daemon's phase database still accepts the records.
func shiftSpots(spots []hotSpotWire) []hotSpotWire {
	out := make([]hotSpotWire, len(spots))
	for i, s := range spots {
		ns := s
		drop := len(s.Branches) * 2 / 5
		ns.Branches = make([]branchWire, 0, len(s.Branches)-drop)
		for _, b := range s.Branches[drop:] {
			b.Taken = b.Exec - b.Taken
			ns.Branches = append(ns.Branches, b)
		}
		out[i] = ns
	}
	return out
}

// postSpotsTrace is postSpots with a client-supplied trace header.
func postSpotsTrace(t *testing.T, h http.Handler, program string, hash uint64, spots []hotSpotWire, trace string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(profilePost{ProgramHash: hash, HotSpots: spots})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/profiles/"+program, bytes.NewReader(body))
	req.Header.Set(TraceHeader, trace)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestDaemonDriftEndpoints exercises the drift observability surface
// end to end: stream → repack → baseline → /v1/drift, /v1/timeline,
// /v1/events and the always-present vp_drift_* series on /metrics.
func TestDaemonDriftEndpoints(t *testing.T) {
	d, _ := newTestDaemon(t, 3)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")

	// The drift series exist before any traffic — the no-gaps contract.
	body := get(h, "/metrics").Body.String()
	for _, name := range append(append(obs.DriftCounters(), obs.DriftGauges()...), obs.DriftHistograms()...) {
		if !strings.Contains(body, telemetry.MetricName(name)) {
			t.Errorf("/metrics missing %s before traffic", telemetry.MetricName(name))
		}
	}
	if !strings.Contains(body, telemetry.MetricName(obs.DaemonQueueWaitHist)) {
		t.Errorf("/metrics missing %s before traffic", telemetry.MetricName(obs.DaemonQueueWaitHist))
	}

	for i := 0; i < 3; i++ {
		postSpots(t, h, "m88ksim", 0, spots)
	}
	awaitVersion(t, h, "m88ksim")

	// /v1/drift reports an enabled tracker with a published baseline.
	w := get(h, "/v1/drift/m88ksim")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/drift: %d: %s", w.Code, w.Body.String())
	}
	var status drift.Status
	if err := json.Unmarshal(w.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if !status.Enabled || status.Program != "m88ksim" {
		t.Fatalf("drift status = %+v", status)
	}
	if status.BaselineVersion < 1 {
		t.Fatalf("no baseline after publish: %+v", status)
	}
	if status.Samples != int64(3*len(spots)) {
		t.Fatalf("drift samples = %d, want %d", status.Samples, 3*len(spots))
	}

	// /v1/timeline retains closed windows.
	w = get(h, "/v1/timeline/m88ksim")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/timeline: %d", w.Code)
	}
	var tl timelineReply
	if err := json.Unmarshal(w.Body.Bytes(), &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Windows) == 0 {
		t.Fatal("timeline empty after streaming")
	}
	if tl.Windows[0].Records != testDriftCfg.Window {
		t.Fatalf("window records = %d, want %d", tl.Windows[0].Records, testDriftCfg.Window)
	}

	// /v1/events carries the full chain: ingests, windows, repacks,
	// baseline publishes — and the cursor paginates.
	w = get(h, "/v1/events")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/events: %d", w.Code)
	}
	var ev eventsReply
	if err := json.Unmarshal(w.Body.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	for _, e := range ev.Events {
		kinds[e.Kind]++
	}
	for _, k := range []string{drift.EventIngest, drift.EventWindow, drift.EventRepackStart, drift.EventRepackDone, drift.EventBaseline} {
		if kinds[k] == 0 {
			t.Errorf("no %q event in stream (have %v)", k, kinds)
		}
	}
	w = get(h, fmt.Sprintf("/v1/events?after=%d&limit=2", ev.Events[0].Seq))
	var page eventsReply
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 2 || page.Events[0].Seq != ev.Events[0].Seq+1 {
		t.Fatalf("cursor page = %+v", page.Events)
	}
	if w := get(h, "/v1/events?after=x"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad cursor accepted: %d", w.Code)
	}

	// Unknown programs 404 on every new endpoint.
	for _, path := range []string{"/v1/drift/nope", "/v1/timeline/nope", "/v1/provenance/nope/latest"} {
		if w := get(h, path); w.Code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, w.Code)
		}
	}

	// After traffic the queue-wait histogram has samples and the
	// per-program drift series exist.
	body = get(h, "/metrics").Body.String()
	if !strings.Contains(body, telemetry.MetricName(obs.DaemonQueueWaitHist)+"_count") {
		t.Error("queue-wait histogram not rendered")
	}
	if !strings.Contains(body, telemetry.MetricName(obs.DriftScoreGauge+".m88ksim")) {
		t.Error("per-program drift score series missing")
	}
}

// TestDaemonProvenanceChain checks that a published version links back
// to the ingest traces that fed it and the artifact hashes it produced.
func TestDaemonProvenanceChain(t *testing.T) {
	d, _ := newTestDaemon(t, 3)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")

	// Client-scoped traces: the daemon must chain these, not invent IDs.
	traces := []string{"client-alpha", "client-beta", "client-gamma"}
	for _, tr := range traces {
		w := postSpotsTrace(t, h, "m88ksim", 0, spots, tr)
		if w.Code != http.StatusOK {
			t.Fatalf("POST: %d", w.Code)
		}
		if got := w.Header().Get(TraceHeader); got != tr {
			t.Fatalf("ingest echoed trace %q, want %q", got, tr)
		}
		var ack profileAck
		if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Trace != tr {
			t.Fatalf("ack trace %q, want %q", ack.Trace, tr)
		}
	}
	pkg := awaitVersion(t, h, "m88ksim")

	w := get(h, "/v1/provenance/m88ksim/latest")
	if w.Code != http.StatusOK {
		t.Fatalf("GET provenance: %d: %s", w.Code, w.Body.String())
	}
	prov, err := core.DecodeProvenance(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if prov.Program != "m88ksim" || prov.Version < 1 {
		t.Fatalf("provenance = %+v", prov)
	}
	if !strings.HasPrefix(prov.Trace, "rpk-") {
		t.Fatalf("repack trace %q", prov.Trace)
	}
	got := make(map[string]bool)
	for _, ing := range prov.Ingests {
		got[ing.Trace] = true
		if ing.Records != len(spots) {
			t.Fatalf("ingest ref %+v, want %d records", ing, len(spots))
		}
	}
	if !got[traces[0]] {
		t.Fatalf("version 1 provenance lost ingest %q: %+v", traces[0], prov.Ingests)
	}
	if prov.ProgramHash != d.programs["m88ksim"].hash {
		t.Fatalf("provenance program hash %016x, shard %016x", prov.ProgramHash, d.programs["m88ksim"].hash)
	}
	if prov.ProfileHash == 0 || prov.RegionHash == 0 || prov.PackageHash == 0 {
		t.Fatalf("artifact hashes missing: %+v", prov)
	}
	if prov.QueueWaitUS < 0 || prov.BuildUS <= 0 {
		t.Fatalf("timings: %+v", prov)
	}
	if len(prov.Spans) < 2 {
		t.Fatalf("stage spans missing: %+v", prov.Spans)
	}

	// The artifact chain is consistent with what's actually served: the
	// published PackageSet's content hash matches the provenance record.
	set, err := core.DecodePackageSet(bytes.NewReader(pkg.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	setHash, err := set.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if setHash != prov.PackageHash {
		t.Fatalf("served set hash %016x, provenance %016x", setHash, prov.PackageHash)
	}

	// The package response advertises its provenance in headers.
	if got := pkg.Header().Get(TraceHeader); got != prov.Trace {
		t.Fatalf("package trace header %q, provenance trace %q", got, prov.Trace)
	}
	if pkg.Header().Get("Vpackd-Drift-Score") == "" {
		t.Fatal("package response missing drift-score header")
	}
}

// TestDaemonDriftScoreRises is the tentpole's acceptance check at unit
// scale: a phase shift in the stream demonstrably moves the score.
func TestDaemonDriftScoreRises(t *testing.T) {
	d, _ := newTestDaemon(t, 3)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")

	for i := 0; i < 3; i++ {
		postSpots(t, h, "m88ksim", 0, spots)
	}
	awaitVersion(t, h, "m88ksim")

	var before drift.Status
	if err := json.Unmarshal(get(h, "/v1/drift/m88ksim").Body.Bytes(), &before); err != nil {
		t.Fatal(err)
	}

	// Keep the stream identical: the score stays low.
	postSpots(t, h, "m88ksim", 0, spots)
	var stable drift.Status
	if err := json.Unmarshal(get(h, "/v1/drift/m88ksim").Body.Bytes(), &stable); err != nil {
		t.Fatal(err)
	}
	if stable.Score.Composite > 0.3 {
		t.Fatalf("stable stream scored %.3f", stable.Score.Composite)
	}

	// Shift the phase: the composite must rise well past the stable level
	// and the peak must record it.
	postSpots(t, h, "m88ksim", 0, shiftSpots(spots))
	var after drift.Status
	if err := json.Unmarshal(get(h, "/v1/drift/m88ksim").Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Score.Composite <= stable.Score.Composite+0.2 {
		t.Fatalf("shift did not move the score: stable %.3f, shifted %.3f",
			stable.Score.Composite, after.Score.Composite)
	}
	if after.Score.Peak < after.Score.Composite {
		t.Fatalf("peak %.3f below composite %.3f", after.Score.Peak, after.Score.Composite)
	}
	if after.Score.BiasFlips == 0 {
		t.Fatal("flipped stream reported no bias flips")
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(""); got != nil {
		t.Errorf("splitList(\"\") = %v", got)
	}
	got := splitList("a, b,,c ")
	want := []string{"a", "b", "c"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("splitList = %v, want %v", got, want)
	}
}

// TestDaemonEquivGate runs the daemon with translation validation gating
// every repack: the published version must carry per-package certificates
// proving the build, the vp_equiv_* series must be live on /metrics, and
// no rejection may fire on a clean build. (The blocking path itself —
// a refuted proof leaves st.lastErr set and never appends the version —
// shares the repack error machinery exercised by TestDaemonStaleProfile;
// the refutation corpus lives in internal/equiv.)
func TestDaemonEquivGate(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := core.ScaledConfig()
	cfg.Equiv = true
	d, err := NewDaemon(cfg, []string{"m88ksim"}, 1, 2, 4, 3,
		testDriftCfg, nil, rec, slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")
	hash := d.programs["m88ksim"].hash
	for i := 0; i < 3; i++ {
		if w := postSpots(t, h, "m88ksim", hash, spots); w.Code != http.StatusOK {
			t.Fatalf("POST profile: %d: %s", w.Code, w.Body.String())
		}
	}
	w := awaitVersion(t, h, "m88ksim")
	set, err := core.DecodePackageSet(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Equiv) != len(set.Packages) {
		t.Fatalf("published version has %d certificates for %d packages", len(set.Equiv), len(set.Packages))
	}
	for _, c := range set.Equiv {
		if !c.Equivalent {
			t.Fatalf("published version carries a non-equivalent certificate: %s", c.Verdict())
		}
	}

	counters := rec.Export().Metrics.Counters
	if counters[obs.EquivPackagesCounter] == 0 {
		t.Fatal("equiv-gated repack recorded no proved packages")
	}
	if counters[obs.EquivViolationsCounter] != 0 {
		t.Fatalf("clean repack recorded %d equiv violations", counters[obs.EquivViolationsCounter])
	}
	if counters[obs.DaemonEquivRejectedCounter] != 0 {
		t.Fatalf("clean repack recorded %d equiv rejections", counters[obs.DaemonEquivRejectedCounter])
	}

	// The equiv series are always-on for the serving tier: present on
	// /metrics even before any violation.
	body := get(h, "/metrics").Body.String()
	for _, series := range []string{
		telemetry.MetricName(obs.EquivPackagesCounter),
		telemetry.MetricName(obs.EquivViolationsCounter),
		telemetry.MetricName(obs.DaemonEquivRejectedCounter),
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics is missing %s", series)
		}
	}
}

// newReuseDaemon builds an equiv-gated m88ksim daemon whose batch is too
// large for ingest ever to enqueue a repack: the test drives repacks
// itself. It records one captured run into the shard.
func newReuseDaemon(t *testing.T) (*Daemon, *obs.Recorder, *programState) {
	t.Helper()
	rec := obs.NewRecorder()
	cfg := core.ScaledConfig()
	cfg.Equiv = true
	d, err := NewDaemon(cfg, []string{"m88ksim"}, 1, 1, 4, 1<<30,
		testDriftCfg, nil, rec, slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	st := d.programs["m88ksim"]
	d.record(st, captureSpots(t, d, "m88ksim"), "ing-test")
	return d, rec, st
}

// TestDaemonRepackReusesProofs repacks an unchanged shard twice: both
// versions must be byte-identical, and the second must reuse every proof
// the first published.
func TestDaemonRepackReusesProofs(t *testing.T) {
	d, rec, st := newReuseDaemon(t)
	d.repack(st)
	first := rec.Export().Metrics.Counters[obs.EquivReusedCounter]
	d.repack(st)
	if len(st.versions) != 2 {
		t.Fatalf("%d versions after two repacks (last error %q)", len(st.versions), st.lastErr)
	}
	if !bytes.Equal(st.versions[0], st.versions[1]) {
		t.Fatal("repacks of an unchanged shard published different bytes")
	}
	set, err := core.DecodePackageSet(bytes.NewReader(st.versions[1]))
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Equiv) == 0 {
		t.Fatal("published version carries no certificates")
	}
	if got := rec.Export().Metrics.Counters[obs.EquivReusedCounter] - first; got != int64(len(set.Equiv)) {
		t.Fatalf("second repack reused %d of %d proofs", got, len(set.Equiv))
	}
	if !strings.Contains(get(d.Handler(), "/metrics").Body.String(), telemetry.MetricName(obs.EquivReusedCounter)) {
		t.Errorf("/metrics is missing %s", telemetry.MetricName(obs.EquivReusedCounter))
	}
}

// storeAtEntry is an observer that miscompiles the first package the
// stage optimizes: once that package's last pass has run, every package
// function of its phase gains a store at its entry, so the proof that
// follows refutes it.
type storeAtEntry struct {
	obs.Nop
	p    *prog.Program
	done bool
}

func (s *storeAtEntry) Emit(e obs.Event) {
	if s.done || e.Kind != obs.PassApplied || e.Name != "schedule" {
		return
	}
	s.done = true
	for _, fn := range s.p.Funcs {
		if fn.IsPackage && fn.PhaseID == e.Phase {
			b := fn.Entry()
			st := prog.Ins{Inst: isa.Inst{Op: isa.ST, Rs1: isa.R0, Rs2: isa.R0, Imm: 1 << 40}}
			b.Insts = append([]prog.Ins{st}, b.Insts...)
		}
	}
}

// TestDaemonRefutedBuildLeavesMemoEmpty refutes a repack's first proof,
// in the manner of TestDaemonEquivGate's blocking path, and checks the
// refutation left nothing in the program's proof memo; the next, clean
// repack then proves and publishes normally.
func TestDaemonRefutedBuildLeavesMemoEmpty(t *testing.T) {
	d, rec, st := newReuseDaemon(t)
	clean := d.packageStage
	d.packageStage = func(cfg core.Config, p *prog.Program, img *prog.Image, ra *core.RegionArtifact, memo *equiv.Memo) (*core.PackageSet, error) {
		return core.PackageStageReusing(cfg, p, img, ra, &storeAtEntry{p: p}, memo)
	}
	d.repack(st)
	if len(st.versions) != 0 {
		t.Fatal("a refuted build was published")
	}
	if !strings.Contains(st.lastErr, "translation validation") {
		t.Fatalf("repack error %q, want a refutation", st.lastErr)
	}
	if n := rec.Export().Metrics.Counters[obs.DaemonEquivRejectedCounter]; n != 1 {
		t.Fatalf("%d equiv rejections, want 1", n)
	}
	if n := st.memo.Len(); n != 0 {
		t.Fatalf("refuted build left %d certificates in the memo", n)
	}

	d.packageStage = clean
	d.repack(st)
	if len(st.versions) != 1 {
		t.Fatalf("clean repack after a refutation published nothing: %q", st.lastErr)
	}
	if st.memo.Len() == 0 {
		t.Fatal("clean repack left the memo empty")
	}
}
