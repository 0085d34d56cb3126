package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDefaultScript(t *testing.T) {
	if err := run([]string{"-local", "16", "-guest", "64"}); err != nil {
		t.Fatal(err)
	}
}

func TestHotplugAndTick(t *testing.T) {
	if err := run([]string{"-local", "8", "-guest", "32",
		"-script", "status;hotplug 16;tick 100;status"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownCommand(t *testing.T) {
	if err := run([]string{"-local", "8", "-guest", "32", "-script", "explode"}); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestResizeArgValidation(t *testing.T) {
	if err := run([]string{"-local", "8", "-guest", "32", "-script", "resize"}); err == nil {
		t.Fatal("resize without argument accepted")
	}
	if err := run([]string{"-local", "8", "-guest", "32", "-script", "resize banana"}); err == nil {
		t.Fatal("non-numeric resize accepted")
	}
}

func TestBadBackend(t *testing.T) {
	if err := run([]string{"-backend", "abacus"}); err == nil {
		t.Fatal("bad backend accepted")
	}
}

func TestHostConsole(t *testing.T) {
	// The default host script runs status, slo, and market against every
	// planner (market prints a hint when the marketplace is off).
	for _, planner := range [][]string{nil, {"-arbiter"}, {"-market"}} {
		args := append([]string{"-vms", "2", "-local", "1", "-backend", "dram"}, planner...)
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", planner, err)
		}
	}
	if err := run([]string{"-vms", "2", "-local", "1", "-backend", "dram",
		"-script", "status;slo;market;status"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-vms", "2", "-local", "1", "-backend", "dram", "-script", "resize 4"}); err == nil {
		t.Fatal("machine command accepted by the host console")
	}
}

func TestMarketFlagValidation(t *testing.T) {
	if err := run([]string{"-market"}); err == nil {
		t.Fatal("-market without -vms accepted")
	}
	if err := run([]string{"-vms", "2", "-market", "-arbiter"}); err == nil {
		t.Fatal("-market with -arbiter accepted")
	}
}

// Every console refuses the flags it does not read instead of silently
// ignoring them, and a refused run writes nothing.
func TestConsoleFlagValidation(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "out.json")
	cases := []struct {
		name   string
		args   []string
		unused []string // flags the error must name; nil for a non-flag error
	}{
		{"zero vms", []string{"-vms", "0"}, nil},
		{"negative vms", []string{"-vms", "-3"}, nil},
		{"host ignores machine flags", []string{"-vms", "2", "-trace", trace, "-workers", "4", "-guest", "9999"},
			[]string{"-guest", "-trace", "-workers"}},
		{"host ignores scenario flags", []string{"-vms", "2", "-rate-scale", "2"}, []string{"-rate-scale"}},
		{"scenario ignores machine flags", []string{"-scenario", "diurnal", "-backend", "abacus", "-trace", trace},
			[]string{"-backend", "-trace"}},
		{"scenario ignores vms", []string{"-scenario", "diurnal", "-vms", "2"}, []string{"-vms"}},
		{"machine ignores arbiter", []string{"-arbiter"}, []string{"-arbiter"}},
		{"machine ignores market", []string{"-market"}, []string{"-market"}},
		{"machine ignores rate-scale", []string{"-rate-scale", "2"}, []string{"-rate-scale"}},
		{"scenario planners exclusive", []string{"-scenario", "diurnal", "-arbiter", "-market"}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args)
			if err == nil {
				t.Fatalf("%v accepted", c.args)
			}
			for _, f := range c.unused {
				if !strings.Contains(err.Error(), f) {
					t.Fatalf("%v: error %q does not name %s", c.args, err, f)
				}
			}
			if _, serr := os.Stat(trace); serr == nil {
				t.Fatalf("%v: refused run wrote %s", c.args, trace)
			}
		})
	}
}

func TestScenarioRateScaleValidation(t *testing.T) {
	// A NaN scale used to hang the arrival generator; every non-finite or
	// negative scale must now be refused before the replay starts.
	for _, scale := range []string{"NaN", "Inf", "-Inf", "-1"} {
		if err := run([]string{"-scenario", "diurnal", "-rate-scale", scale}); err == nil {
			t.Fatalf("-rate-scale %s accepted", scale)
		}
	}
}
