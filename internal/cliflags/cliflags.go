// Package cliflags centralizes the flag declarations shared by the
// command-line tools (vpack, vpbench, vpdump, vpackd): the execution
// engine knobs (-blockcache, -superblock), the structured
// logging pair (-log, -q) and the static verifier gate (-verify). Each
// tool registers the shared groups into its own FlagSet so names,
// defaults and semantics stay identical across the toolbox.
package cliflags

import (
	"flag"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/drift"
	"repro/internal/telemetry"
)

// Machine carries the engine flags: the basic-block simulation cache and
// the superblock tier.
type Machine struct {
	blockCache string
	superblock string
}

// MachineFlags registers -blockcache and -superblock on fs.
func MachineFlags(fs *flag.FlagSet) *Machine {
	m := &Machine{}
	fs.StringVar(&m.blockCache, "blockcache", "on", "basic-block simulation cache for timed runs: on|off")
	fs.StringVar(&m.superblock, "superblock", "on", "superblock (tier-1) trace chaining in the block cache: on|off")
	return m
}

// Apply validates the parsed values and applies them to mc. The error
// text names the offending flag, ready for a "tool: error" line and a
// usage exit (2).
func (m *Machine) Apply(mc *cpu.Config) error {
	switch m.blockCache {
	case "on":
	case "off":
		mc.DisableBlockCache = true
	default:
		return fmt.Errorf("-blockcache must be on or off")
	}
	switch m.superblock {
	case "on":
	case "off":
		mc.DisableSuperblocks = true
	default:
		return fmt.Errorf("-superblock must be on or off")
	}
	return nil
}

// Log carries the logging pair: -log selects the structured mode, -q
// forces it off (each tool phrases its own -q usage line, since what -q
// silences differs per tool).
type Log struct {
	mode  string
	quiet bool
}

// LogFlags registers -log and -q on fs.
func LogFlags(fs *flag.FlagSet, quietUsage string) *Log {
	l := &Log{}
	fs.BoolVar(&l.quiet, "q", false, quietUsage)
	fs.StringVar(&l.mode, "log", "text", "structured log mode: "+telemetry.LogModes)
	return l
}

// Mode returns the effective log mode: "off" when -q was given,
// otherwise the -log value.
func (l *Log) Mode() string {
	if l.quiet {
		return "off"
	}
	return l.mode
}

// Quiet reports whether -q was given.
func (l *Log) Quiet() bool { return l.quiet }

// VerifyFlag registers -verify on fs.
func VerifyFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("verify", false, "run the static verifier after every pipeline stage (exit 3 on violation)")
}

// EquivFlag registers -equiv on fs: the translation-validation gate.
// Tools that accept it prove every optimized package observationally
// equivalent to its region code and refuse to proceed on refutation
// (exit 4, with a structured counterexample on stderr).
func EquivFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("equiv", false, "prove every optimized package equivalent to its region code (exit 4 on refutation)")
}

// StoreFlag registers -store on fs. Every tool parses it identically:
// an empty value (the default) keeps today's in-memory-only behavior;
// a directory enables the persistent artifact store there. Open the
// returned path with cas.Open (cliflags deliberately does not import
// internal/cas; lowering the flag to a live store is the tool's call).
func StoreFlag(fs *flag.FlagSet) *string {
	return fs.String("store", "", "persistent artifact store `directory` (empty: in-memory only)")
}

// Drift carries the drift-tracking pair: window and ring sizing. The
// same knobs size vpackd's live trackers, vpbench's phase-shift
// assertions and vpdump's offline drift report, so a score measured by
// one tool reproduces under another.
type Drift struct {
	window int
	ring   int
}

// DriftFlags registers -driftwindow and -driftring on fs.
func DriftFlags(fs *flag.FlagSet) *Drift {
	d := &Drift{}
	fs.IntVar(&d.window, "driftwindow", drift.DefaultWindow,
		"hot-spot records per drift analysis window (0 disables drift tracking)")
	fs.IntVar(&d.ring, "driftring", drift.DefaultRing,
		"closed drift windows retained per program (0 disables drift tracking)")
	return d
}

// Config lowers the parsed values to a drift tracker configuration.
func (d *Drift) Config() drift.Config {
	c := drift.DefaultConfig()
	c.Window = d.window
	c.Ring = d.ring
	return c
}
