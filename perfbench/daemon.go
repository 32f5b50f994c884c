// The daemon-drift workload: vpackd runs as a child process with -equiv
// and a store; set-up boots it and streams a baseline until every program
// publishes v1; the measured window is an open-loop POST stream that
// shifts phase partway through; three fleet rounds then make every
// program repack once more, which both times a whole-fleet repack and
// publishes the stream's tail.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/hsd"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/workload"
)

// Load shape of daemon-drift. On a 2-vCPU Intel Xeon VM 60 POSTs/s of one
// record each keep the two repack workers busy for 15-25% of the stream
// and give 1200 samples per 20 s run. A POST that arrives while both
// workers repack waits for the Go scheduler to preempt one (10-30 ms).
// With two records per POST (30-40% busy) the ingest median sat on the
// knee between such POSTs and the rest and moved by up to 45% between
// runs; with the programs' batches filling together (see setupDaemon)
// about a fifth of the POSTs met twelve-repack bursts and it still moved
// by 15%. A batch is kept to 25 records so a version's provenance,
// capped at 32 ingests, lists every POST it packages.
const (
	postsPerSecond = 60 // offered POST rate
	recordsPerPost = 1  // hot-spot records per POST
	daemonBatch    = 25 // vpackd -batch: records before a shard re-queues
	// daemonQueue (vpackd -queue) holds a pending repack for every served
	// program, so a fleet round is never rejected.
	daemonQueue   = 16
	daemonWorkers = jobs
	fleetRounds   = 3
	// A daemon set-up takes well under a second, so five cost little and
	// steady the median more than the suites' three.
	daemonSetups = 5
	waitTimeout  = 60 * time.Second
)

// daemonProc is one vpackd child process.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	done   chan struct{} // closed once the process has been waited for
}

// startDaemon boots vpackd on a free loopback port with its store under
// dir and waits until it answers /readyz.
func startDaemon(bin, dir string) (*daemonProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addrfile", addrFile,
		"-equiv", "-store", filepath.Join(dir, "store"),
		"-workers", strconv.Itoa(daemonWorkers), "-batch", strconv.Itoa(daemonBatch),
		"-queue", strconv.Itoa(daemonQueue), "-q")
	cmd.Stderr = os.Stderr
	// The daemon dies with perfbench, even if perfbench is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{
		cmd:  cmd,
		done: make(chan struct{}),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
		}},
	}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(waitTimeout)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(data), "\n") {
			d.base = "http://" + strings.TrimSpace(string(data))
			break
		}
		select {
		case <-d.done:
			return nil, errors.New("vpackd exited during start-up")
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("vpackd did not start listening")
		}
	}
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("vpackd never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the daemon to drain and exit (killing it
// after 30 s), and returns its peak RSS in MB.
func (d *daemonProc) stop() float64 {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.client.CloseIdleConnections()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func (d *daemonProc) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (d *daemonProc) getBytes(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

func (d *daemonProc) programs() ([]wireProgram, error) {
	var progs []wireProgram
	err := d.getJSON("/v1/programs", &progs)
	return progs, err
}

// awaitIdle polls /v1/programs until every program has at least the
// wanted number of versions and none is queued or repacking.
func (d *daemonProc) awaitIdle(want map[string]int) error {
	deadline := time.Now().Add(waitTimeout)
	for {
		progs, err := d.programs()
		if err != nil {
			return err
		}
		idle := true
		for _, p := range progs {
			if p.Pending || p.Versions < want[p.Program] {
				idle = false
			}
		}
		if idle {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not idle after %v: %+v", waitTimeout, progs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// servedPrograms lists what vpackd serves by default — every benchmark at
// its first input — with the image hash the daemon checks on ingest.
func servedPrograms() ([]wireProgram, error) {
	var progs []wireProgram
	for _, b := range workload.Ordered() {
		p := wireProgram{Program: b.Name, Input: b.Inputs[0].Name, Scale: b.Inputs[0].Scale}
		_, img, err := p.build()
		if err != nil {
			return nil, err
		}
		p.ProgramHash = core.ImageHash(img)
		progs = append(progs, p)
	}
	return progs, nil
}

// build returns a fresh copy of the served program and its image.
func (p wireProgram) build() (*prog.Program, *prog.Image, error) {
	b, err := workload.ByName(p.Program)
	if err != nil {
		return nil, nil, err
	}
	in, err := b.InputByName(p.Input)
	if err != nil {
		return nil, nil, err
	}
	in.Scale = p.Scale
	pr := b.Build(in)
	img, err := pr.Linearize()
	return pr, img, err
}

// captureSpots profiles each served program locally under the scaled
// Hot Spot Detector and keeps the raw hot-spot records — what a deployed
// client's hardware monitor would stream. This prepares the load; it is
// not part of the measured system.
func captureSpots(progs []wireProgram) (map[string][]wireHotSpot, error) {
	out := make(map[string][]wireHotSpot, len(progs))
	for _, p := range progs {
		_, img, err := p.build()
		if err != nil {
			return nil, err
		}
		var spots []wireHotSpot
		det := hsd.New(core.ScaledConfig().Detector, func(h hsd.HotSpot) {
			w := wireHotSpot{Seq: h.Seq, AtBranch: h.DetectedAtBranch, AtInst: h.DetectedAtInst}
			for _, br := range h.Branches {
				w.Branches = append(w.Branches, wireBranch{PC: br.PC, Exec: br.Exec, Taken: br.Taken})
			}
			spots = append(spots, w)
		})
		m := cpu.NewMachine(img)
		if err := m.Run(0, func(si *cpu.StepInfo) {
			if si.Inst.Op.IsCondBranch() {
				det.SetInstCount(m.InstCount)
				det.Branch(si.PC, si.Taken)
			}
		}); err != nil {
			return nil, fmt.Errorf("%s: capture: %w", p.Program, err)
		}
		if len(spots) == 0 {
			return nil, fmt.Errorf("%s: no hot spots detected", p.Program)
		}
		out[p.Program] = spots
	}
	return out, nil
}

// setupDaemon boots a daemon and streams baseline records until every
// program has published v1. Each program's first POST carries its whole
// captured run (at least a batch), so v1's baseline holds every phase the
// program has and only the synthesized shift reads as drift. Then each
// program gets lead[program] more baseline records, fewer than a batch,
// so the programs' batches do not all fill, and repack, at once.
func setupDaemon(bin, dir string, f *feeder, lead map[string]int) (*daemonProc, error) {
	d, err := startDaemon(bin, dir)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(waitTimeout)
	for round := 0; ; round++ {
		cur, err := d.programs()
		if err != nil {
			d.stop()
			return nil, err
		}
		var need []plannedPost
		for i, p := range cur {
			if p.Versions == 0 && !p.Pending {
				need = append(need, plannedPost{Program: p.Program, Hash: p.ProgramHash, Slot: i,
					Trace: fmt.Sprintf("pb-setup-%d-%s", round, p.Program), Spots: f.next(p.Program, max(daemonBatch, len(f.base[p.Program])), false)})
			}
		}
		if len(need) > 0 {
			for _, o := range openLoop(d.client, d.base, time.Now(), need, daemonWorkers, waitTimeout) {
				if !o.ok() {
					d.stop()
					return nil, fmt.Errorf("baseline POST: %s (status %d)", o.Err, o.Status)
				}
			}
		}
		if err := d.awaitIdle(nil); err != nil {
			d.stop()
			return nil, err
		}
		cur, err = d.programs()
		if err != nil {
			d.stop()
			return nil, err
		}
		ready := true
		for _, p := range cur {
			ready = ready && p.Versions >= 1
		}
		if ready {
			var posts []plannedPost
			for i, p := range cur {
				if n := lead[p.Program]; n > 0 {
					posts = append(posts, plannedPost{Program: p.Program, Hash: p.ProgramHash, Slot: i,
						Trace: "pb-setup-lead-" + p.Program, Spots: f.next(p.Program, n, false)})
				}
			}
			for _, o := range openLoop(d.client, d.base, time.Now(), posts, daemonWorkers, waitTimeout) {
				if !o.ok() {
					d.stop()
					return nil, fmt.Errorf("baseline POST: %s (status %d)", o.Err, o.Status)
				}
			}
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("baseline stream did not publish v1 for every program")
		}
	}
}

// eventLog follows /v1/events with a cursor and keeps repack_done times.
type eventLog struct {
	mu     sync.Mutex
	cursor int64
	lost   int64
	// done maps a repack trace ID, and "program/version", to the
	// repack_done event's unix microseconds.
	done map[string]int64
}

func (e *eventLog) poll(d *daemonProc) error {
	e.mu.Lock()
	after := e.cursor
	e.mu.Unlock()
	var reply struct {
		Events []struct {
			Seq     int64  `json:"seq"`
			UnixUS  int64  `json:"unix_us"`
			Kind    string `json:"kind"`
			Program string `json:"program"`
			Trace   string `json:"trace"`
			N       int64  `json:"n"`
			Detail  string `json:"detail"`
		} `json:"events"`
		Earliest int64 `json:"earliest"`
		Next     int64 `json:"next"`
	}
	if err := d.getJSON(fmt.Sprintf("/v1/events?after=%d", after), &reply); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if reply.Earliest > after+1 && after > 0 {
		e.lost += reply.Earliest - after - 1
	}
	for _, ev := range reply.Events {
		if ev.Kind == "repack_done" && ev.Detail == "" {
			e.done[ev.Trace] = ev.UnixUS
			e.done[fmt.Sprintf("%s/%d", ev.Program, ev.N)] = ev.UnixUS
		}
		e.cursor = ev.Seq
	}
	return nil
}

func (e *eventLog) at(key string) (int64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.done[key]
	return t, ok
}

// driftWindow is one closed drift analysis window of /v1/timeline.
type driftWindow struct {
	Seq   int     `json:"seq"`
	Score float64 `json:"score"`
}

// timelines fetches every program's retained drift windows.
func timelines(d *daemonProc, progs []wireProgram) (map[string][]driftWindow, error) {
	out := make(map[string][]driftWindow, len(progs))
	for _, p := range progs {
		var tl struct {
			Windows []driftWindow `json:"windows"`
		}
		if err := d.getJSON("/v1/timeline/"+p.Program, &tl); err != nil {
			return nil, err
		}
		out[p.Program] = tl.Windows
	}
	return out, nil
}

func lastSeq(ws []driftWindow) int {
	last := 0
	for _, w := range ws {
		last = max(last, w.Seq)
	}
	return last
}

func windowsAfter(ws []driftWindow, seq int) []driftWindow {
	var out []driftWindow
	for _, w := range ws {
		if w.Seq > seq {
			out = append(out, w)
		}
	}
	return out
}

// parseMetrics maps each sample of a Prometheus text page to its value.
func parseMetrics(body []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// memStats reads TotalAlloc and NumGC from the daemon's heap profile
// page, which appends the runtime's MemStats.
func (d *daemonProc) memStats() (allocMB, gcs float64, err error) {
	body, err := d.getBytes("/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			n, _ := strconv.ParseFloat(v, 64)
			allocMB = n / (1 << 20)
		}
		if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			gcs, _ = strconv.ParseFloat(v, 64)
		}
	}
	return allocMB, gcs, nil
}

// runDaemonWorkload runs daemon-drift end to end.
func runDaemonWorkload(r *run) error {
	bin := filepath.Join(r.buildDir, "vpackd")
	rng := rand.New(rand.NewSource(r.seed))

	// Capture the served programs' records once; the capture is load
	// preparation, not set-up.
	progs, err := servedPrograms()
	if err != nil {
		return err
	}
	base, err := captureSpots(progs)
	if err != nil {
		return err
	}
	shifted := make(map[string][]wireHotSpot, len(progs))
	for _, p := range progs {
		shifted[p.Program] = shiftSpots(rng, base[p.Program])
	}

	// Each program's seeded lead into its next batch, the same in every
	// set-up.
	lead := make(map[string]int, len(progs))
	for _, p := range progs {
		lead[p.Program] = rng.Intn(daemonBatch)
	}

	// Set-up, daemonSetups times; the last daemon is measured.
	var setupS []float64
	var d *daemonProc
	var f *feeder
	for i := 0; i < daemonSetups; i++ {
		if d != nil {
			d.stop()
		}
		f = newFeeder(base, shifted)
		start := time.Now()
		d, err = setupDaemon(bin, r.workPath(fmt.Sprintf("daemon-%d", i)), f, lead)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	r.e2e["setup_s"] = median(setupS)
	err = measureDrift(r, d, rng, progs, f)
	rss := d.stop()
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = rss
	return nil
}

// measureDrift runs the open-loop window, the fleet rounds, the matching
// and the output checks against a set-up daemon.
func measureDrift(r *run, d *daemonProc, rng *rand.Rand, progs []wireProgram, f *feeder) error {
	setupVersions := make(map[string]int)
	cur, err := d.programs()
	if err != nil {
		return err
	}
	for _, p := range cur {
		setupVersions[p.Program] = p.Versions
	}
	n := max(1, int(r.seconds*postsPerSecond))
	plan := planStream(rng, progs, f, n, postsPerSecond, recordsPerPost)
	window := time.Duration(r.seconds * float64(time.Second))

	ev := &eventLog{done: make(map[string]int64)}
	if err := ev.poll(d); err != nil {
		return err
	}
	metricsBefore, err := d.getBytes("/metrics")
	if err != nil {
		return err
	}
	allocBefore, gcBefore, err := d.memStats()
	if err != nil {
		return err
	}

	// Observers: the event cursor (every 100 ms), /metrics once a second,
	// and the drift status at the shift point.
	start := time.Now().Add(50 * time.Millisecond)
	stopObs := make(chan struct{})
	var obsWG sync.WaitGroup
	var scrapeMS []float64
	var lastMetrics []byte
	var obsErr error
	var obsMu sync.Mutex
	startWindows, err := timelines(d, progs)
	if err != nil {
		return err
	}
	var shiftWindows map[string][]driftWindow
	obsWG.Add(1)
	go func() {
		defer obsWG.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		shiftAt := start.Add(plan.Posts[plan.Shift].Due)
		shiftSeen := false
		nextScrape := start
		for {
			select {
			case <-stopObs:
				return
			case <-tick.C:
			}
			if err := ev.poll(d); err != nil {
				obsMu.Lock()
				obsErr = err
				obsMu.Unlock()
			}
			if now := time.Now(); !now.Before(nextScrape) {
				nextScrape = nextScrape.Add(time.Second)
				t := time.Now()
				body, err := d.getBytes("/metrics")
				obsMu.Lock()
				if err != nil {
					obsErr = err
				} else {
					scrapeMS = append(scrapeMS, float64(time.Since(t).Microseconds())/1000)
					lastMetrics = body
				}
				obsMu.Unlock()
			}
			if !shiftSeen && !time.Now().Before(shiftAt) {
				shiftSeen = true
				tl, err := timelines(d, progs)
				obsMu.Lock()
				if err != nil {
					obsErr = err
				}
				shiftWindows = tl
				obsMu.Unlock()
			}
		}
	}()

	outcomes := openLoop(d.client, d.base, start, plan.Posts, daemonWorkers, window+10*time.Second)
	streamEnd := time.Since(start)

	// Fleet rounds: once idle, one batch-sized POST per program; the
	// round ends when every program's next version is done.
	var roundS []float64
	for round := 0; round < fleetRounds; round++ {
		if err := d.awaitIdle(nil); err != nil {
			return err
		}
		cur, err := d.programs()
		if err != nil {
			return err
		}
		var posts []plannedPost
		next := make(map[string]int)
		for i, p := range cur {
			next[p.Program] = p.Versions + 1
			posts = append(posts, plannedPost{Program: p.Program, Hash: p.ProgramHash, Slot: i,
				Trace: fmt.Sprintf("pb-fleet-%d-%s", round, p.Program), Spots: f.next(p.Program, daemonBatch, true)})
		}
		t0 := time.Now()
		for _, o := range openLoop(d.client, d.base, t0, posts, daemonWorkers, waitTimeout) {
			r.check("fleet.post", o.ok(), "round %d POST: %s status %d", round, o.Err, o.Status)
		}
		if err := d.awaitIdle(next); err != nil {
			return err
		}
		// repack_done follows publication once the version is persisted.
		var last int64
		complete := false
		for deadline := time.Now().Add(waitTimeout); !complete && time.Now().Before(deadline); {
			if err := ev.poll(d); err != nil {
				return err
			}
			complete, last = true, 0
			for prog, v := range next {
				t, ok := ev.at(fmt.Sprintf("%s/%d", prog, v))
				complete = complete && ok
				last = max(last, t)
			}
			if !complete {
				time.Sleep(10 * time.Millisecond)
			}
		}
		r.check("fleet.round", complete, "round %d: every program published its next version", round)
		roundS = append(roundS, float64(last-t0.UnixMicro())/1e6)
	}
	close(stopObs)
	obsWG.Wait()
	if err := ev.poll(d); err != nil {
		return err
	}
	obsEnd := time.Since(start)
	if obsErr != nil {
		return obsErr
	}
	r.e2e["suite_s"] = median(roundS)
	r.note("fleet rounds (s): %v", roundS)

	// Matching: every version's provenance, newest state.
	cur, err = d.programs()
	if err != nil {
		return err
	}
	provs := make(map[string][]*core.Provenance)
	encoded := make(map[string][][]byte)
	for _, p := range cur {
		for v := 1; v <= p.Versions; v++ {
			body, err := d.getBytes(fmt.Sprintf("/v1/provenance/%s/%d", p.Program, v))
			if err != nil {
				return err
			}
			pv, err := core.DecodeProvenance(bytes.NewReader(body))
			if err != nil {
				return err
			}
			provs[p.Program] = append(provs[p.Program], pv)
			if r.trace && v > setupVersions[p.Program] {
				data, err := d.getBytes(fmt.Sprintf("/v1/packages/%s/%d", p.Program, v))
				if err != nil {
					return err
				}
				encoded[p.Program] = append(encoded[p.Program], data)
			}
		}
	}
	builtAfter := func(program string, version, post int) bool {
		t, ok := ev.at(fmt.Sprintf("%s/%d", program, version))
		return ok && t >= start.Add(outcomes[post].Sent).UnixMicro()
	}
	found, unmatched := matchPosts(plan.Posts, provs, builtAfter)

	var ingest, publish, lag []float64
	sent, failedPosts := 0, 0
	reasons := map[string]int{}
	for i, p := range plan.Posts {
		o := outcomes[i]
		if o.Err == "unsent" {
			failedPosts++
			ingest = append(ingest, ms(obsEnd-p.Due))
			publish = append(publish, ms(obsEnd-p.Due))
			continue
		}
		sent++
		lag = append(lag, ms(o.Sent-p.Due))
		if !o.ok() {
			failedPosts++
			ingest = append(ingest, ms(obsEnd-p.Due))
			publish = append(publish, ms(obsEnd-p.Due))
			continue
		}
		ingest = append(ingest, ms(o.Done-p.Due))
		due := start.Add(p.Due).UnixMicro()
		if mt, ok := found[p.Trace]; ok {
			if t, ok := ev.at(mt.RepackTrace); ok {
				publish = append(publish, float64(t-due)/1000)
				continue
			}
			reasons["events"]++
		} else {
			reasons[unmatched[p.Trace]]++
		}
		// An unmatched POST never counts as fast: its latency is at
		// least the time until observation ended.
		publish = append(publish, ms(obsEnd-p.Due))
	}
	r.attempted += int64(len(plan.Posts))
	r.failed += int64(failedPosts)
	r.check("posts", failedPosts == 0, "%d of %d POSTs failed or unsent", failedPosts, len(plan.Posts))
	r.check("events.complete", ev.lost == 0, "%d events lost to ring overwrite", ev.lost)
	r.latencies("ingest", ingest, "POST due time to response")
	r.latencies("publish", publish, "POST due time to repack_done of its version")
	// publish holds one value per planned POST, in plan order.
	_, publishTail := tailPercentile(publish)
	tailByProgram := make(map[string]int)
	for i, v := range publish {
		if v >= publishTail {
			tailByProgram[plan.Posts[i].Program]++
		}
	}
	r.note("POSTs at or beyond the publish tail, by program: %v", tailByProgram)
	lagPct, lagTail := tailPercentile(lag)
	r.note("open loop: offered %d POSTs at %d/s, sent %d, stream took %.3f s, generator lag p50 %.3f ms, p%g %.3f ms; shift at POST %d",
		len(plan.Posts), postsPerSecond, sent, streamEnd.Seconds(), median(lag), lagPct, lagTail, plan.Shift)
	r.note("unmatched POSTs: %d (provenance cap %d, tail %d, events %d)",
		len(unmatched)+reasons["events"], reasons[unmatchedCap], reasons[unmatchedTail], reasons["events"])
	var busyS float64
	for prog, list := range provs {
		for _, pv := range list {
			if t, ok := ev.at(pv.Trace); ok && pv.Version > setupVersions[prog] && t <= start.Add(streamEnd).UnixMicro() {
				busyS += float64(pv.BuildUS) / 1e6
			}
		}
	}
	busy := busyS / (streamEnd.Seconds() * daemonWorkers)
	r.note("repack pool busy %.3f during the stream (build time of its versions over %d workers)", busy, daemonWorkers)
	r.layers["vpackd.pool_busy_frac"] = busy
	r.layers["loadgen.gen_lag_ms"] = lagTail
	r.layers["loadgen.offered"] = float64(len(plan.Posts))
	r.layers["loadgen.sent"] = float64(sent)
	r.layers["loadgen.unmatched_cap"] = float64(reasons[unmatchedCap])
	r.layers["loadgen.unmatched_tail"] = float64(reasons[unmatchedTail])

	// Drift: every program's score must rise after the shift — some
	// window after it must score above the mean of the measured windows
	// before it.
	endWindows, err := timelines(d, progs)
	if err != nil {
		return err
	}
	for _, p := range progs {
		pre := windowsAfter(shiftWindows[p.Program], lastSeq(startWindows[p.Program]))
		post := windowsAfter(endWindows[p.Program], lastSeq(shiftWindows[p.Program]))
		var preScores []float64
		for _, w := range pre {
			preScores = append(preScores, w.Score)
		}
		postMax := 0.0
		for _, w := range post {
			postMax = max(postMax, w.Score)
		}
		r.check("drift.rises", len(pre) > 0 && len(post) > 0 && postMax > mean(preScores),
			"%s: mean score %.3f over %d windows before the shift, max %.3f over %d after",
			p.Program, mean(preScores), len(pre), postMax, len(post))
	}

	if err := checkLatest(r, d, cur); err != nil {
		return err
	}

	if !r.trace {
		return nil
	}
	return driftLayers(r, d, windowObs{
		progs: cur, provs: provs, encoded: encoded, setupVersions: setupVersions,
		metricsBefore: metricsBefore, metricsAfter: lastMetrics, scrapeMS: scrapeMS,
		allocBefore: allocBefore, gcBefore: gcBefore,
	})
}

// windowObs is what the measured window left for the per-layer values.
type windowObs struct {
	progs         []wireProgram
	provs         map[string][]*core.Provenance
	encoded       map[string][][]byte // versions built after set-up, as served
	setupVersions map[string]int
	metricsBefore []byte
	metricsAfter  []byte
	scrapeMS      []float64
	allocBefore   float64
	gcBefore      float64
}

// driftLayers fills the traced run's per-layer values for the versions
// built after set-up, from their provenance and encoded sets, /metrics
// deltas, the heap profile page, and in-process replays.
func driftLayers(r *run, d *daemonProc, w windowObs) error {
	var regionS, packageS, encodeS, encodedKB float64
	var waitMS, buildMS []float64
	var packages, links, regions float64
	var certs, proved int
	for prog, list := range w.provs {
		for _, pv := range list {
			if pv.Version <= w.setupVersions[prog] {
				continue
			}
			regionS += provSpan(pv, "region_stage")
			packageS += provSpan(pv, "package_stage")
			encodeS += provSpan(pv, "encode")
			waitMS = append(waitMS, float64(pv.QueueWaitUS)/1000)
			buildMS = append(buildMS, float64(pv.BuildUS)/1000)
		}
		for _, data := range w.encoded[prog] {
			encodedKB += float64(len(data)) / 1024
			set, err := core.DecodePackageSet(bytes.NewReader(data))
			if err != nil {
				return err
			}
			packages += float64(set.Stats.Packages)
			links += float64(set.Stats.Links)
			regions += float64(set.Phases)
			for _, c := range set.Equiv {
				certs++
				if c.Equivalent && !c.BudgetExceeded {
					proved++
				}
			}
		}
	}
	mb, ma := parseMetrics(w.metricsBefore), parseMetrics(w.metricsAfter)
	delta := func(name string) float64 { return ma[name] - mb[name] }
	allocAfter, gcAfter, err := d.memStats()
	if err != nil {
		return err
	}
	l := r.layers
	l["region.s"] = regionS
	l["region.regions"] = regions
	l["pack.packages"] = packages
	l["pack.links"] = links
	l["core.encode_s"] = encodeS
	l["core.encoded_kb"] = encodedKB
	if certs > 0 {
		l["equiv.proved_frac"] = float64(proved) / float64(certs)
	}
	_, l["vpackd.queue_wait_ms_p99"] = tailPercentile(waitMS)
	l["vpackd.queue_wait_ms_p50"] = median(waitMS)
	_, l["vpackd.build_ms_p99"] = tailPercentile(buildMS)
	l["vpackd.build_ms_p50"] = median(buildMS)
	repacks := delta("vp_vpackd_repacks")
	l["vpackd.repacks"] = repacks
	if repacks > 0 {
		l["vpackd.records_per_repack"] = delta("vp_vpackd_records") / repacks
	}
	l["vpackd.queue_rejected"] = delta("vp_vpackd_queue_rejected")
	l["drift.windows"] = delta("vp_drift_windows")
	l["drift.peak_score"] = ma["vp_drift_peak"]
	l["equiv.paths_proved"] = delta("vp_equiv_paths_proved")
	l["equiv.paths_fuzzed"] = delta("vp_equiv_paths_fuzzed")
	l["cas.hits"] = delta("vp_store_hits")
	l["cas.misses"] = delta("vp_store_misses")
	l["telemetry.scrape_ms_p50"] = median(w.scrapeMS)
	l["telemetry.series"] = float64(len(ma))
	l["go.alloc_mb"] = allocAfter - w.allocBefore
	l["go.gc_cycles"] = gcAfter - w.gcBefore
	l["trace.overhead_frac"] = 0

	if err := replayWrites(l, w.provs, w.encoded, w.setupVersions, r.workPath("replay-store")); err != nil {
		return err
	}
	shares, err := packageShares(w.progs)
	if err != nil {
		return err
	}
	l["pack.s"] = packageS * shares.pack
	l["opt.s"] = packageS * shares.opt
	l["equiv.s"] = packageS * shares.equiv
	r.note("package_stage %.4f s split by in-process shares pack %.3f opt %.3f equiv %.3f",
		packageS, shares.pack, shares.opt, shares.equiv)
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// checkLatest checks each program's latest version: it decodes, its
// assembly materializes to an image hashing to PackedHash, every package
// carries an equivalence certificate that holds, and its timed run
// computes the same data as the original program's (see sameStores). The timed runs give
// the daemon-drift paper results.
func checkLatest(r *run, d *daemonProc, cur []wireProgram) error {
	var speedups, coverage, growth []float64
	mc := cpu.DefaultConfig()
	for _, p := range cur {
		data, err := d.getBytes("/v1/packages/" + p.Program + "/latest")
		if err != nil {
			return err
		}
		set, err := core.DecodePackageSet(bytes.NewReader(data))
		if err != nil {
			r.check("latest.decode", false, "%s: %v", p.Program, err)
			continue
		}
		packed, err := set.Materialize()
		var packedImg *prog.Image
		if err == nil {
			packedImg, err = packed.Linearize()
		}
		if err != nil {
			r.check("latest.materialize", false, "%s: %v", p.Program, err)
			continue
		}
		r.check("latest.packed_hash", core.ImageHash(packedImg) == set.PackedHash && set.PackedHash != 0,
			"%s: materialized image hash matches PackedHash %016x", p.Program, set.PackedHash)
		held := len(set.Equiv) == len(set.Packages) && len(set.Packages) > 0
		for _, c := range set.Equiv {
			held = held && c.Equivalent
		}
		r.check("latest.equiv", held, "%s: %d certificates for %d packages, all proved or fuzzed", p.Program, len(set.Equiv), len(set.Packages))

		_, origImg, err := p.build()
		if err != nil {
			return err
		}
		base, bm, err := cpu.RunTimed(mc, origImg, 0)
		if err != nil {
			return err
		}
		st, pm, err := cpu.RunTimedCached(mc, packedImg, 0, cpu.NewBlockCache(packedImg))
		if err != nil {
			r.check("latest.run", false, "%s: %v", p.Program, err)
			continue
		}
		bh, bn := bm.DataHash()
		ph, pn := pm.DataHash()
		if bh == ph && bn == pn {
			r.check("latest.data", true, "%s: packed run stores the original's data in the original's order", p.Program)
		} else {
			same, detail, err := sameStores(origImg, packedImg)
			if err != nil {
				return err
			}
			r.check("latest.data", same, "%s: store order differs (data hash %016x vs %016x); %s", p.Program, bh, ph, detail)
		}
		speedups = append(speedups, float64(base.Cycles)/float64(st.Cycles))
		coverage = append(coverage, st.PackageCoverage()*100)
		growth = append(growth, set.CodeGrowth()*100)
	}
	r.e2e["speedup_geomean"] = geomean(speedups)
	r.e2e["coverage_mean"] = mean(coverage)
	r.e2e["code_growth_mean"] = mean(growth)
	return nil
}

// storeLog is what a functional run stored to the data segment: the
// count, an order-insensitive digest of its (address, value) pairs, and
// the final value at every stored address.
type storeLog struct {
	count  uint64
	digest uint64
	final  map[int64]int64
}

// logStores runs img functionally and logs its data-segment stores, the
// range the machine's data hash covers.
func logStores(img *prog.Image) (*storeLog, error) {
	m := cpu.NewMachine(img)
	l := &storeLog{final: make(map[int64]int64)}
	err := m.Run(0, func(si *cpu.StepInfo) {
		if (si.Inst.Op != isa.ST && si.Inst.Op != isa.FST) || si.MemAddr < prog.DataBase || si.MemAddr >= prog.StackBase/2 {
			return
		}
		v, _ := m.Mem.Load(si.MemAddr)
		l.count++
		l.digest += mix64(mix64(uint64(si.MemAddr)) ^ uint64(v))
		l.final[si.MemAddr] = v
	})
	return l, err
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sameStores decides whether a packed image computes the original's data
// when the order-sensitive data hashes differ. The scheduler may reorder
// independent stores, which changes that hash but no result; the runs
// agree when they make the same stores (as a multiset of address, value
// pairs) and leave the same final memory.
func sameStores(orig, packed *prog.Image) (bool, string, error) {
	a, err := logStores(orig)
	if err != nil {
		return false, "", fmt.Errorf("original functional run: %w", err)
	}
	b, err := logStores(packed)
	if err != nil {
		return false, fmt.Sprintf("packed functional run: %v", err), nil
	}
	if a.count != b.count || a.digest != b.digest {
		return false, fmt.Sprintf("stores differ: %d vs %d, multiset digest %016x vs %016x", a.count, b.count, a.digest, b.digest), nil
	}
	if len(a.final) != len(b.final) {
		return false, fmt.Sprintf("stored addresses differ: %d vs %d", len(a.final), len(b.final)), nil
	}
	for addr, v := range a.final {
		if w, ok := b.final[addr]; !ok || w != v {
			return false, fmt.Sprintf("final memory differs at %#x: %d vs %d", addr, v, w), nil
		}
	}
	return true, fmt.Sprintf("the same %d stores as a multiset and the same final memory at %d addresses", a.count, len(a.final)), nil
}

// replayWrites times the store writes the daemon made for the window's
// versions — PutDaemonVersion and PutDaemonProvenance, then Flush, per
// version, as vpackd persists them — by making the same calls on a
// throwaway store.
func replayWrites(l map[string]float64, provs map[string][]*core.Provenance, encoded map[string][][]byte, setupVersions map[string]int, dir string) error {
	store, err := cas.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	for prog, list := range encoded {
		for i, data := range list {
			v := setupVersions[prog] + i + 1
			pv := provs[prog][v-1]
			t := time.Now()
			if err := store.PutDaemonVersion(prog, v, data); err != nil {
				return err
			}
			if err := store.PutDaemonProvenance(prog, v, pv); err != nil {
				return err
			}
			l["cas.put_s"] += time.Since(t).Seconds()
			t = time.Now()
			if err := store.Flush(); err != nil {
				return err
			}
			l["cas.flush_s"] += time.Since(t).Seconds()
		}
	}
	l["cas.bytes"] = float64(store.Stats().BytesWritten)
	return nil
}

// stageShares splits vpackd's package_stage time into packaging and
// linking, optimization, and translation validation.
type stageShares struct{ pack, opt, equiv float64 }

// packageShares measures those shares in process: for every program it
// profiles the program once, then times core.PackageStageObserved with
// equiv on and with equiv off. Package and link spans give the
// packaging share; the optimize span with equiv off the optimization
// share; the rest of the equiv-on call is translation validation.
func packageShares(progs []wireProgram) (stageShares, error) {
	var packS, optS, total float64
	for _, p := range progs {
		_, img, err := p.build()
		if err != nil {
			return stageShares{}, err
		}
		cfg := core.ScaledConfig()
		pa, err := core.ProfileStage(cfg, img, nil)
		if err != nil {
			return stageShares{}, err
		}
		for _, eq := range []bool{true, false} {
			cfg.Equiv = eq
			clone, cimg, err := p.build()
			if err != nil {
				return stageShares{}, err
			}
			ra, err := core.RegionStage(cfg, cimg, pa)
			if err != nil {
				return stageShares{}, err
			}
			rec := obs.NewRecorder()
			t := time.Now()
			if _, err := core.PackageStageObserved(cfg, clone, cimg, ra, rec); err != nil {
				return stageShares{}, err
			}
			call := time.Since(t).Seconds()
			span := make(map[string]float64)
			for _, st := range rec.Export().SpanTotals() {
				span[st.Name] = st.Total.Seconds()
			}
			if eq {
				packS += span[obs.StagePackage] + span[obs.StageLink]
				total += call
			} else {
				optS += span[obs.StageOptimize]
			}
		}
	}
	if total <= 0 {
		return stageShares{}, errors.New("package stage took no time")
	}
	s := stageShares{pack: packS / total, opt: optS / total}
	s.equiv = max(0, 1-s.pack-s.opt)
	return s, nil
}
