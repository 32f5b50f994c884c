package cliflags

import (
	"flag"
	"io"
	"testing"

	"repro/internal/cpu"
	"repro/internal/drift"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestMachineDefaults(t *testing.T) {
	fs := newFS()
	m := MachineFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	mc := cpu.DefaultConfig()
	if err := m.Apply(&mc); err != nil {
		t.Fatal(err)
	}
	if mc != cpu.DefaultConfig() {
		t.Errorf("defaults changed the machine config: %+v", mc)
	}
}

func TestMachineOff(t *testing.T) {
	fs := newFS()
	m := MachineFlags(fs)
	if err := fs.Parse([]string{"-blockcache=off", "-superblock=off"}); err != nil {
		t.Fatal(err)
	}
	mc := cpu.DefaultConfig()
	if err := m.Apply(&mc); err != nil {
		t.Fatal(err)
	}
	if !mc.DisableBlockCache || !mc.DisableSuperblocks {
		t.Errorf("off values not applied: %+v", mc)
	}
}

func TestMachineInvalid(t *testing.T) {
	for _, arg := range []string{"-blockcache=maybe", "-superblock=maybe"} {
		fs := newFS()
		m := MachineFlags(fs)
		if err := fs.Parse([]string{arg}); err != nil {
			t.Fatal(err)
		}
		mc := cpu.DefaultConfig()
		if err := m.Apply(&mc); err == nil {
			t.Errorf("%s: Apply accepted an invalid value", arg)
		}
	}
}

func TestLogMode(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "text"},
		{[]string{"-log=json"}, "json"},
		{[]string{"-q"}, "off"},
		{[]string{"-log=json", "-q"}, "off"}, // -q wins
	}
	for _, c := range cases {
		fs := newFS()
		l := LogFlags(fs, "quiet")
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if got := l.Mode(); got != c.want {
			t.Errorf("%v: Mode() = %q, want %q", c.args, got, c.want)
		}
	}
}

func TestVerifyFlag(t *testing.T) {
	fs := newFS()
	v := VerifyFlag(fs)
	if err := fs.Parse([]string{"-verify"}); err != nil {
		t.Fatal(err)
	}
	if !*v {
		t.Error("-verify did not set the flag")
	}
}

func TestDriftFlags(t *testing.T) {
	fs := newFS()
	d := DriftFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	c := d.Config()
	if c.Window != drift.DefaultWindow || c.Ring != drift.DefaultRing {
		t.Errorf("default drift config = %+v", c)
	}
	if !c.Enabled() {
		t.Error("default drift config disabled")
	}

	fs = newFS()
	d = DriftFlags(fs)
	if err := fs.Parse([]string{"-driftwindow=8", "-driftring=32"}); err != nil {
		t.Fatal(err)
	}
	c = d.Config()
	if c.Window != 8 || c.Ring != 32 {
		t.Errorf("parsed drift config = %+v, want 8/32", c)
	}

	fs = newFS()
	d = DriftFlags(fs)
	if err := fs.Parse([]string{"-driftwindow=0"}); err != nil {
		t.Fatal(err)
	}
	if d.Config().Enabled() {
		t.Error("-driftwindow=0 did not disable drift tracking")
	}
}
