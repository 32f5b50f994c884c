// The daemon-drift load: captured hot-spot records, the seeded stream
// plan, the open-loop generator and the matching of POSTs to the
// versions that published them. These parts talk only HTTP and are unit
// tested against stand-in servers.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
)

// vpackd's v1 wire format. Hash and count fields big enough to lose
// precision in float64 travel as JSON strings.
type wireBranch struct {
	PC    int64  `json:"pc"`
	Exec  uint32 `json:"exec"`
	Taken uint32 `json:"taken"`
}

type wireHotSpot struct {
	Seq      int          `json:"seq"`
	AtBranch uint64       `json:"at_branch,string"`
	AtInst   uint64       `json:"at_inst,string"`
	Branches []wireBranch `json:"branches"`
}

type wirePost struct {
	ProgramHash uint64        `json:"program_hash,string"`
	HotSpots    []wireHotSpot `json:"hot_spots"`
}

type wireProgram struct {
	Program     string `json:"program"`
	Input       string `json:"input"`
	Scale       int64  `json:"scale"`
	ProgramHash uint64 `json:"program_hash,string"`
	Versions    int    `json:"versions"`
	Pending     bool   `json:"pending"`
}

// traceHeader carries a client trace ID on ingest POSTs.
const traceHeader = "Vpackd-Trace"

// plannedPost is one POST of the stream.
type plannedPost struct {
	Program string
	Hash    uint64
	Slot    int           // the program's position in the seeded order
	Due     time.Duration // offset from the stream's start
	Shifted bool
	Trace   string
	Spots   []wireHotSpot
}

// shiftSpots synthesizes the phase shift: in every record a seeded 40%
// of the branches drop out of the hot set and the survivors' taken
// counts flip. PCs stay real, so the daemon accepts the records; only
// their phase shape changes.
func shiftSpots(rng *rand.Rand, spots []wireHotSpot) []wireHotSpot {
	out := make([]wireHotSpot, len(spots))
	for i, s := range spots {
		drop := make(map[int]bool)
		for _, j := range rng.Perm(len(s.Branches))[:len(s.Branches)*2/5] {
			drop[j] = true
		}
		ns := s
		ns.Branches = nil
		for j, b := range s.Branches {
			if drop[j] {
				continue
			}
			b.Taken = b.Exec - b.Taken
			ns.Branches = append(ns.Branches, b)
		}
		out[i] = ns
	}
	return out
}

// streamPlan is the seeded stream: POSTs round-robin over the programs in
// a seeded order, each carrying recordsPerPost consecutive records of
// its program, phase-shifted from index Shift on.
type streamPlan struct {
	Order []wireProgram
	Posts []plannedPost
	Shift int
}

// feeder hands out each program's records in order, cycling, from the
// baseline or the shifted set.
type feeder struct {
	base, shifted map[string][]wireHotSpot
	cursor        map[string]int
}

func newFeeder(base, shifted map[string][]wireHotSpot) *feeder {
	return &feeder{base: base, shifted: shifted, cursor: make(map[string]int)}
}

func (f *feeder) next(program string, n int, shifted bool) []wireHotSpot {
	src := f.base[program]
	if shifted {
		src = f.shifted[program]
	}
	out := make([]wireHotSpot, n)
	c := f.cursor[program]
	for i := range out {
		out[i] = src[(c+i)%len(src)]
	}
	f.cursor[program] = c + n
	return out
}

// planStream lays out n POSTs at rate per second. The seed sets the
// program order and the shift point, which falls between 45% and 55%
// of the stream.
func planStream(rng *rand.Rand, progs []wireProgram, f *feeder, n int, rate float64, perPost int) streamPlan {
	sp := streamPlan{Shift: int(float64(n) * (0.45 + 0.1*rng.Float64()))}
	for _, i := range rng.Perm(len(progs)) {
		sp.Order = append(sp.Order, progs[i])
	}
	for i := 0; i < n; i++ {
		slot := i % len(sp.Order)
		p := sp.Order[slot]
		shifted := i >= sp.Shift
		sp.Posts = append(sp.Posts, plannedPost{
			Program: p.Program,
			Hash:    p.ProgramHash,
			Slot:    slot,
			Due:     time.Duration(float64(i) / rate * float64(time.Second)),
			Shifted: shifted,
			Trace:   fmt.Sprintf("pb-%06d", i),
			Spots:   f.next(p.Program, perPost, shifted),
		})
	}
	return sp
}

// postOutcome is what the generator saw for one POST. Times are offsets
// from the stream's start.
type postOutcome struct {
	Sent, Done time.Duration
	Status     int
	Err        string
}

func (o postOutcome) ok() bool { return o.Err == "" && o.Status == http.StatusOK }

// postProfile sends one ingest POST carrying the client trace ID.
func postProfile(client *http.Client, base string, p plannedPost) (int, error) {
	body, err := json.Marshal(wirePost{ProgramHash: p.Hash, HotSpots: p.Spots})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/profiles/"+p.Program, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(traceHeader, p.Trace)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("POST %s: %s", p.Program, resp.Status)
	}
	return resp.StatusCode, nil
}

// openLoop sends every planned POST at its due time, regardless of how
// earlier POSTs fared: an open loop. senders goroutines share the load;
// a program's POSTs always go through the same sender (its slot modulo
// senders), so each program's records arrive in order. A sender that
// falls behind sends late; latency is measured from the due time, so a
// stall is charged to every POST it delays. POSTs not sent by deadline
// (an offset from start) are left unsent.
func openLoop(client *http.Client, base string, start time.Time, posts []plannedPost, senders int, deadline time.Duration) []postOutcome {
	out := make([]postOutcome, len(posts))
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i, p := range posts {
				if p.Slot%senders != s {
					continue
				}
				if d := time.Until(start.Add(p.Due)); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				if sent > deadline {
					out[i] = postOutcome{Err: "unsent"}
					continue
				}
				status, err := postProfile(client, base, p)
				out[i] = postOutcome{Sent: sent, Done: time.Since(start), Status: status}
				if err != nil {
					out[i].Err = err.Error()
				}
			}
		}(s)
	}
	wg.Wait()
	return out
}

// provSpan returns the named step's seconds from a provenance record.
func provSpan(p *core.Provenance, name string) float64 {
	for _, s := range p.Spans {
		if s.Name == name {
			return float64(s.US) / 1e6
		}
	}
	return 0
}

// match is where one POST's records were published.
type match struct {
	Version     int
	RepackTrace string
}

// Reasons a POST is left unmatched to a version.
const (
	unmatchedCap  = "cap"  // its version's ingest list hit the provenance cap
	unmatchedTail = "tail" // no version was built after it
)

// matchPosts maps each POST trace ID to the first version of its program
// whose provenance lists it. provs holds each program's versions in
// order. A POST no provenance lists is classified: "cap" when some
// version of its program built after it truncated its ingest list, else
// "tail".
func matchPosts(posts []plannedPost, provs map[string][]*core.Provenance, builtAfter func(program string, version int, post int) bool) (map[string]match, map[string]string) {
	found := make(map[string]match)
	for _, list := range provs {
		for _, pv := range list {
			for _, in := range pv.Ingests {
				if _, dup := found[in.Trace]; !dup {
					found[in.Trace] = match{Version: pv.Version, RepackTrace: pv.Trace}
				}
			}
		}
	}
	unmatched := make(map[string]string)
	for i, p := range posts {
		if _, ok := found[p.Trace]; ok {
			continue
		}
		reason := unmatchedTail
		for _, pv := range provs[p.Program] {
			if int64(len(pv.Ingests)) < pv.IngestsTotal && builtAfter(p.Program, pv.Version, i) {
				reason = unmatchedCap
				break
			}
		}
		unmatched[p.Trace] = reason
	}
	return found, unmatched
}
