package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// A stalled server delays every POST queued behind the stall; latency is
// measured from each POST's due time, so the delay is charged to all of
// them, not only to the POST that met the stall.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	var posts []plannedPost
	for i := 0; i < 10; i++ {
		posts = append(posts, plannedPost{Program: "p", Due: time.Duration(i) * 10 * time.Millisecond, Trace: "t"})
	}
	start := time.Now()
	out := openLoop(srv.Client(), srv.URL, start, posts, 1, time.Minute)
	for i, o := range out {
		if !o.ok() {
			t.Fatalf("post %d failed: %+v", i, o)
		}
	}
	// POST 2 met the stall; POSTs 3..9 were due during it and were sent
	// late, so each latency covers the rest of the stall.
	for i := 2; i < 10; i++ {
		lat := out[i].Done - posts[i].Due
		want := stall - time.Duration(i-2)*10*time.Millisecond
		if lat < want-20*time.Millisecond {
			t.Errorf("post %d: latency %v from due time, want at least %v", i, lat, want)
		}
	}
	if lag := out[5].Sent - posts[5].Due; lag < 200*time.Millisecond {
		t.Errorf("post 5 sent only %v after its due time; the generator should report the stall as lag", lag)
	}
}

func TestMatchPostsToVersions(t *testing.T) {
	posts := []plannedPost{
		{Program: "a", Trace: "pb-000000"},
		{Program: "b", Trace: "pb-000001"},
		{Program: "a", Trace: "pb-000002"},
		{Program: "b", Trace: "pb-000003"},
		{Program: "a", Trace: "pb-000004"},
	}
	provs := map[string][]*core.Provenance{
		"a": {
			{Version: 1, Trace: "rpk-1", Ingests: []core.IngestRef{{Trace: "setup"}}, IngestsTotal: 1},
			{Version: 2, Trace: "rpk-3", Ingests: []core.IngestRef{{Trace: "pb-000000"}, {Trace: "pb-000002"}}, IngestsTotal: 2},
		},
		"b": {
			// Version 1 saw two ingests but listed only one (the cap).
			{Version: 1, Trace: "rpk-2", Ingests: []core.IngestRef{{Trace: "pb-000001"}}, IngestsTotal: 2},
		},
	}
	built := func(program string, version, post int) bool { return true }
	found, unmatched := matchPosts(posts, provs, built)
	if m := found["pb-000002"]; m.Version != 2 || m.RepackTrace != "rpk-3" {
		t.Errorf("pb-000002 matched %+v, want version 2 built by rpk-3", m)
	}
	if m := found["pb-000001"]; m.Version != 1 || m.RepackTrace != "rpk-2" {
		t.Errorf("pb-000001 matched %+v, want version 1 built by rpk-2", m)
	}
	if got := unmatched["pb-000003"]; got != unmatchedCap {
		t.Errorf("pb-000003 unmatched as %q, want %q", got, unmatchedCap)
	}
	if got := unmatched["pb-000004"]; got != unmatchedTail {
		t.Errorf("pb-000004 unmatched as %q, want %q", got, unmatchedTail)
	}
	if len(found) != 4 || len(unmatched) != 2 {
		t.Errorf("found %d, unmatched %d; want 4 (3 POSTs and the set-up ingest) and 2", len(found), len(unmatched))
	}
}

func TestPlanStreamIsSeeded(t *testing.T) {
	progs := []wireProgram{{Program: "a"}, {Program: "b"}, {Program: "c"}}
	spots := map[string][]wireHotSpot{}
	for _, p := range progs {
		spots[p.Program] = []wireHotSpot{{Seq: 1, Branches: []wireBranch{{PC: 1, Exec: 10, Taken: 9}, {PC: 2, Exec: 10, Taken: 1}, {PC: 3, Exec: 4, Taken: 4}}}}
	}
	plan := func(seed int64) streamPlan {
		rng := rand.New(rand.NewSource(seed))
		shifted := map[string][]wireHotSpot{}
		for _, p := range progs {
			shifted[p.Program] = shiftSpots(rng, spots[p.Program])
		}
		return planStream(rng, progs, newFeeder(spots, shifted), 100, 50, 2)
	}
	a, b := plan(7), plan(7)
	if a.Shift != b.Shift || a.Order[0] != b.Order[0] || a.Posts[99].Spots[0].Branches[0] != b.Posts[99].Spots[0].Branches[0] {
		t.Error("the same seed planned different streams")
	}
	if a.Shift < 45 || a.Shift > 55 {
		t.Errorf("shift at POST %d, want within 45%%..55%% of 100", a.Shift)
	}
	last := a.Posts[99]
	if !last.Shifted || len(last.Spots[0].Branches) != 2 {
		t.Errorf("last POST shifted=%v with %d branches, want shifted with 2 of 3", last.Shifted, len(last.Spots[0].Branches))
	}
	if d := a.Posts[50].Due; d != time.Second {
		t.Errorf("POST 50 due at %v, want 1s at 50/s", d)
	}
}
