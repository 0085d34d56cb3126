package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fluidmem/internal/bench"
)

func TestListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "nonsense"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestQuickSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment still takes seconds")
	}
	if err := run([]string{"-quick", "-run", "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range experiments() {
		if seen[e.name] {
			t.Fatalf("duplicate experiment %q", e.name)
		}
		seen[e.name] = true
		if e.desc == "" {
			t.Fatalf("experiment %q lacks a description", e.name)
		}
	}
	// Every paper table/figure must be present.
	for _, want := range []string{"fig3", "fig4", "fig5", "table1", "table2", "table3"} {
		if !seen[want] {
			t.Fatalf("missing experiment %q", want)
		}
	}
	// "artifacts" is a reserved meta-name expanding to the registry's
	// artifact-bearing experiments — it must not collide with a real one,
	// and the expansion must be exactly the committed BENCH_*.json files at
	// the repo root: a baseline without a producer, or a producer without a
	// baseline, fails here.
	if seen["artifacts"] {
		t.Fatal(`an experiment is literally named "artifacts"`)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed []string
	for _, f := range files {
		committed = append(committed, strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json"))
	}
	arts := artifactNames()
	slices.Sort(committed)
	slices.Sort(arts)
	if !slices.Equal(arts, committed) {
		t.Fatalf("artifact experiments %v != committed baselines %v", arts, committed)
	}
}

// TestArtifactsPinned is the exact determinism gate: every artifact
// experiment, re-run at full scale with the default seed, must serialise
// byte-for-byte to its committed BENCH_<name>.json. These artifacts are
// virtual-time measurements, so any difference is a semantic change that
// must be regenerated (make bench-json) and committed deliberately.
func TestArtifactsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs every artifact experiment at full scale")
	}
	byName := make(map[string]experiment)
	for _, e := range experiments() {
		byName[e.name] = e
	}
	for _, name := range artifactNames() {
		t.Run(name, func(t *testing.T) {
			res, err := byName[name].run(bench.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			j, ok := res.(jsonable)
			if !ok {
				t.Fatalf("artifact experiment %q produces no JSON", name)
			}
			got, err := j.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("BENCH_%s.json differs from a fresh run: %s", name, firstJSONDiff(t, want, got))
			}
		})
	}
}

// firstJSONDiff decodes both documents and names the first path at which
// they differ, so a pin failure points at the moved metric rather than at a
// byte offset.
func firstJSONDiff(t *testing.T, want, got []byte) string {
	var w, g any
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("committed artifact: %v", err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("fresh artifact: %v", err)
	}
	if d := jsonDiff("$", w, g); d != "" {
		return d
	}
	return "same values, different bytes (formatting or key order)"
}

// jsonDiff returns the first path at which two decoded JSON values differ,
// or "" when they are equal. Object keys are visited in sorted order.
func jsonDiff(path string, want, got any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Sprintf("%s: committed object, fresh %T", path, got)
		}
		keys := make([]string, 0, len(w)+len(g))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, dup := w[k]; !dup {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		for _, k := range keys {
			wv, inW := w[k]
			gv, inG := g[k]
			switch {
			case !inW:
				return fmt.Sprintf("%s.%s: only in the fresh run", path, k)
			case !inG:
				return fmt.Sprintf("%s.%s: only in the committed artifact", path, k)
			}
			if d := jsonDiff(path+"."+k, wv, gv); d != "" {
				return d
			}
		}
		return ""
	case []any:
		g, ok := got.([]any)
		if !ok {
			return fmt.Sprintf("%s: committed array, fresh %T", path, got)
		}
		for i := 0; i < min(len(w), len(g)); i++ {
			if d := jsonDiff(fmt.Sprintf("%s[%d]", path, i), w[i], g[i]); d != "" {
				return d
			}
		}
		if len(w) != len(g) {
			return fmt.Sprintf("%s: committed length %d, fresh %d", path, len(w), len(g))
		}
		return ""
	}
	if want != got {
		return fmt.Sprintf("%s: committed %v, fresh %v", path, want, got)
	}
	return ""
}

func TestJSONDiffPaths(t *testing.T) {
	cases := []struct{ want, got, path string }{
		{`{"a":1}`, `{"a":1}`, ""},
		{`{"a":{"b":[1,2]}}`, `{"a":{"b":[1,3]}}`, "$.a.b[1]"},
		{`{"a":1}`, `{"a":1,"b":2}`, "$.b"},
		{`{"a":[1,2]}`, `{"a":[1]}`, "$.a"},
		{`{"a":"x"}`, `{"a":{}}`, "$.a"},
	}
	for _, c := range cases {
		var w, g any
		if err := json.Unmarshal([]byte(c.want), &w); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(c.got), &g); err != nil {
			t.Fatal(err)
		}
		d := jsonDiff("$", w, g)
		if c.path == "" {
			if d != "" {
				t.Errorf("%s vs %s: unexpected diff %q", c.want, c.got, d)
			}
			continue
		}
		if !strings.HasPrefix(d, c.path+":") {
			t.Errorf("%s vs %s: diff %q, want path %s", c.want, c.got, d, c.path)
		}
	}
}

func TestJSONFlagFailsLoudlyWithoutArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick experiment")
	}
	// workers renders a table but has no JSON artifact: naming it explicitly
	// with -json must be an error, not a silent skip.
	if err := run([]string{"-quick", "-run", "workers", "-json"}); err == nil {
		t.Fatal("-json with a non-jsonable experiment silently succeeded")
	}
}
