package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// spec is BENCHMARK.json at the repository root.
type specFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readSpecFile(t *testing.T) specFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units.
func TestSpecMatchesCatalog(t *testing.T) {
	s := readSpecFile(t)
	check := func(kind string, spec []struct{ Name, Unit string }, catalog []metricDef) {
		if len(spec) != len(catalog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(spec), len(catalog))
		}
		for i := range min(len(spec), len(catalog)) {
			if spec[i].Name != catalog[i].name || spec[i].Unit != catalog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, spec[i].Name, spec[i].Unit, catalog[i].name, catalog[i].unit)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i].name)
		}
	}
}

// README.md maps each per-layer module to the end-to-end metrics it should
// move and the workloads it moves them on. BENCHMARK.json has no field for
// the map, so every module of the catalog must have a row there, and each
// row may name only end-to-end metrics and workloads the program has.
func TestLayerMapCoversCatalog(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(raw), "### Which end-to-end metric each layer should move")
	if !ok {
		t.Fatal("README.md has no layer map")
	}
	code := regexp.MustCompile("`([^`]+)`")
	known := func(name string, names []string) bool {
		for _, n := range names {
			if n == name || strings.HasSuffix(name, ".*") && strings.HasPrefix(n, strings.TrimSuffix(name, "*")) {
				return true
			}
		}
		return false
	}
	var e2e, wls []string
	for _, d := range endToEnd {
		e2e = append(e2e, d.name)
	}
	for _, w := range workloads {
		wls = append(wls, w.name)
	}
	rows := make(map[string]bool)
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|") // "", layer, should move, on, ""
		if len(cells) != 5 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			if len(rows) > 0 && !strings.HasPrefix(line, "|") {
				break
			}
			continue
		}
		layer := strings.TrimSuffix(strings.Trim(cells[1], " `"), ".*")
		rows[layer] = true
		for _, m := range code.FindAllStringSubmatch(cells[2], -1) {
			if !known(m[1], e2e) {
				t.Errorf("layer %s: %s is not an end-to-end metric", layer, m[1])
			}
		}
		for _, m := range code.FindAllStringSubmatch(cells[3], -1) {
			if !known(m[1], wls) {
				t.Errorf("layer %s: %s is not a workload", layer, m[1])
			}
		}
	}
	for _, d := range perLayer {
		if module, _, _ := strings.Cut(d.name, "."); !rows[module] {
			t.Errorf("per-layer metric %s: module %s has no row in README.md's layer map", d.name, module)
		}
	}
}

// Every workload runs in short mode, untraced and traced: every metric is
// emitted, finite and unit-tagged, every digest check passes (including
// traced cells against untraced ones), and each traced cell's layer rows
// partition its wall time.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for i := range workloads {
		wl := &workloads[i]
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: wl.name, seed: 7, trace: traced, short: true,
				seconds: 400 * time.Millisecond, warmup: 50 * time.Millisecond,
			}
			var log strings.Builder
			start := time.Now()
			res, b, err := execute(cfg, wl, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.name, traced, err, log.String())
			}
			t.Logf("%s trace=%v: %d ops in %v", wl.name, traced, res.Attempted, time.Since(start).Round(time.Millisecond))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl.name, traced, res.Correct, res.Attempted, res.Failed, log.String())
			}
			catalog := endToEnd
			if traced {
				catalog = perLayer
			}
			if len(res.Metrics) != len(catalog) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(catalog))
			}
			for _, def := range catalog {
				m, ok := res.Metrics[def.name]
				if !ok || m.Unit != def.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a finite value in %s", wl.name, traced, def.name, m, def.unit)
				}
			}
			if traced && b.partition > 0.02 {
				t.Errorf("%s: layer rows miss a traced cell's wall time by %.2f%%", wl.name, 100*b.partition)
			}
		}
	}
}
