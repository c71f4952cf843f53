package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json --summarize reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readResults loads the result lines of one file: one JSON object per
// line, as the benchmark prints them last.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// summarizeFiles prints, for each comma-separated result file (the runs
// of one workload on one side), every metric's median, quartiles and
// spread (quartile distance over median) against its bound, and judges
// every later file against the first with compare.
func summarizeFiles(w io.Writer, specPath, files string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	bounds := make(map[string]specMetric, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m
	}
	paths := strings.Split(files, ",")
	sets := make([][]result, len(paths))
	for i, p := range paths {
		if sets[i], err = readResults(p); err != nil {
			return err
		}
	}
	var names []string
	for name := range sets[0][0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	values := func(rs []result, name string) []float64 {
		v := make([]float64, 0, len(rs))
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
		return v
	}
	for i, rs := range sets {
		failed := 0
		for _, r := range rs {
			if !r.Correct || r.Failed > 0 {
				failed++
			}
		}
		fmt.Fprintf(w, "[%d] %s: %d runs, %d with failures\n", i, paths[i], len(rs), failed)
	}
	for _, name := range names {
		base := values(sets[0], name)
		s := summarize(base)
		line := fmt.Sprintf("%-34s [0] median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f", name, s.Median, s.Q1, s.Q3, s.Spread())
		m, bounded := bounds[name]
		if bounded {
			line += fmt.Sprintf(" (bound %g", m.Bound)
			if s.Spread() > m.Bound/3 {
				line += ", over a third"
			}
			line += ")"
		}
		fmt.Fprintln(w, line)
		for i := 1; i < len(sets); i++ {
			cur := values(sets[i], name)
			c := summarize(cur)
			line := fmt.Sprintf("%-34s [%d] median %-12.6g spread %.4f change %+.4f", name, i, c.Median, c.Spread(), (c.Median-s.Median)/s.Median)
			if bounded {
				line += "  " + compare(base, cur, m.Bound, m.Better == "higher")
			}
			fmt.Fprintln(w, line)
		}
	}
	return nil
}
