package main

import "testing"

func TestRunArgs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
	}{
		{"zero faults", []string{"-faults", "0"}, true},
		{"negative faults", []string{"-faults", "-3"}, true},
		{"zero workers", []string{"-workers", "0", "-faults", "10"}, true},
		{"negative workers", []string{"-workers", "-2", "-faults", "10"}, true},
		{"unknown flag", []string{"-parallel"}, true},
		{"tiny run", []string{"-workers", "2", "-faults", "10"}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args)
			if gotErr := err != nil; gotErr != c.wantErr {
				t.Fatalf("run(%q) error = %v, want error %v", c.args, err, c.wantErr)
			}
		})
	}
}
