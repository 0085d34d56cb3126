package main

import "testing"

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

func TestScenarioRateScaleValidation(t *testing.T) {
	// A NaN scale used to hang the arrival generator; every non-finite or
	// negative scale must now be refused before the replay starts.
	for _, scale := range []string{"NaN", "Inf", "-Inf", "-1"} {
		if err := run([]string{"-scenario", "diurnal", "-rate-scale", scale}); err == nil {
			t.Fatalf("-rate-scale %s accepted", scale)
		}
	}
}
