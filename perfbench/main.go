// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed number of seconds, checks the program's outputs,
// and prints every metric by name with its unit, followed by one JSON
// result line:
//
//	perfbench --workload suite-cold --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	suite-cold    report.RunSuite over the 19 paper inputs x 4 variants, no store
//	suite-warm    the same suite with -equiv against a filled artifact store
//	daemon-drift  vpackd serving all programs under an open-loop profile
//	              stream that shifts phase halfway through
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run. The
// benchmark measures the system from outside: it calls the public
// functions of report, core, cas, cpu, workload and obs, and drives
// vpackd over HTTP as a child process. run.sh builds perfbench and the
// daemon from source and passes its arguments through.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Fixed load shape: one process, at most nproc (fixed at 2) suite jobs,
// connections and repack workers.
const (
	jobs    = 2
	setups  = 3 // suite set-ups per run; setup_s is their median
	minRuns = 3 // measured suite passes per run, at least
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload fills in.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	buildDir string // holds the vpackd binary
	workDir  string // temporary space for stores and daemon files

	attempted, failed int64
	checks            []checkResult
	e2e               map[string]float64
	layers            map[string]float64
	notes             []string
}

type checkResult struct {
	name   string
	ok     bool
	detail string
}

// check records one output check; a failure counts as a failed
// operation.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, checkResult{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.failed++
	}
}

// set records a metric in the table that lists it: per-layer or else
// end-to-end.
func (r *run) set(name string, v float64) {
	if _, ok := layerUnits[name]; ok {
		r.layers[name] = v
		return
	}
	r.e2e[name] = v
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: suite-cold, suite-warm or daemon-drift")
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	buildDir := fs.String("build", ".bench_build", "directory holding the vpackd binary and temporary space")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	workDir, err := os.MkdirTemp(*buildDir, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		buildDir: *buildDir,
		workDir:  workDir,
		e2e:      make(map[string]float64),
		layers:   make(map[string]float64),
	}
	fp := fingerprint()
	r.note("host cpu=%q nproc=%d gomaxprocs=%d go=%s calibration_ns_per_op=%.4f",
		fp.cpu, fp.nproc, fp.gomaxprocs, fp.goVersion, fp.calibNS)
	r.layers["host.calibration_ns"] = fp.calibNS
	r.layers["host.nproc"] = float64(fp.nproc)

	switch *workload {
	case "suite-cold", "suite-warm":
		err = runSuiteWorkload(r)
	case "daemon-drift":
		err = runDaemonWorkload(r)
	default:
		err = fmt.Errorf("unknown --workload %q (want suite-cold, suite-warm or daemon-drift)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return emit(r)
}

// emit prints the notes, every check, every metric by name with its
// unit, and the final JSON line. A failed check fails the run.
func emit(r *run) int {
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	correct := true
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Printf("check %-28s %-4s %s\n", c.name, status, c.detail)
	}
	if r.attempted < 1 {
		r.attempted = 1
		correct = false
		fmt.Println("check attempted            FAIL no operation was attempted")
	}
	r.e2e["ok_frac"] = 1 - float64(r.failed)/float64(r.attempted)
	r.layers["fail_frac"] = float64(r.failed) / float64(r.attempted)

	out := result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	values, units := r.e2e, e2eUnits
	if r.trace {
		values, units = r.layers, layerUnits
	}
	for _, name := range sortedKeys(units) {
		v, ok := values[name]
		if !ok && !r.trace {
			fmt.Fprintf(os.Stderr, "perfbench: end-to-end metric %s was not measured\n", name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", name)
			return 1
		}
		out.Metrics[name] = metric{Value: v, Unit: units[name]}
		fmt.Printf("metric %-28s %16.6f %s\n", name, v, units[name])
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hostInfo is the host fingerprint every result records.
type hostInfo struct {
	cpu        string
	nproc      int
	gomaxprocs int
	goVersion  string
	calibNS    float64
}

func fingerprint() hostInfo {
	h := hostInfo{
		cpu:        "unknown",
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		calibNS:    calibrate(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// workPath returns a path inside the run's temporary directory.
func (r *run) workPath(name string) string { return filepath.Join(r.workDir, name) }
