package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// goldenSeed is the seed the committed digests were recorded at.
const goldenSeed = 101

//go:embed testdata/digests_seed101.json
var goldenJSON []byte

// digestOf condenses one session's simulated results — duration,
// energy, performance, DVFS transition counts and controller cycles —
// into a short hash. Floats are formatted exactly, so any change to the
// simulated trajectory changes the digest.
func digestOf(durationS, energyJ, gips float64, freqChanges, bwChanges, cycles int) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	sum := sha256.Sum256([]byte(fmt.Sprintf("dur=%s energy=%s gips=%s freq=%d bw=%d cycles=%d",
		f(durationS), f(energyJ), f(gips), freqChanges, bwChanges, cycles)))
	return hex.EncodeToString(sum[:8])
}

// digestChecker holds the correctness gate. Every session's digest must
// equal the committed golden digest (at the golden seed), the digest of
// every earlier run of the same cell within this run (rounds, repeated
// fleet configs, replicas), and — in a traced run — the untraced run of
// the same cell, which proves the instrumentation observation-only.
type digestChecker struct {
	golden     map[string]string // nil when the golden set does not apply
	seen       map[string]string
	mismatches []string
}

func newDigestChecker(cfg config) *digestChecker {
	c := &digestChecker{seen: make(map[string]string)}
	if cfg.seed == goldenSeed && !cfg.short {
		var all map[string]map[string]string
		if err := json.Unmarshal(goldenJSON, &all); err != nil {
			panic(fmt.Sprintf("embedded golden digests: %v", err)) // a build-time file
		}
		c.golden = all[cfg.workload]
	}
	return c
}

// check records one session's digest under its cell key and reports
// whether it matches every reference for that key.
func (c *digestChecker) check(key, digest string) bool {
	ok := true
	if want, found := c.golden[key]; found && want != digest {
		ok = false
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s: %s, golden %s", key, digest, want))
	}
	if first, found := c.seen[key]; !found {
		c.seen[key] = digest
	} else if first != digest {
		ok = false
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s: %s, earlier run %s", key, digest, first))
	}
	return ok
}

func (c *digestChecker) report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; %d cells digested", len(c.seen))
	if c.golden != nil {
		fmt.Fprintf(&sb, " (%d golden)", len(c.golden))
	}
	for i, m := range c.mismatches {
		if i == 10 {
			fmt.Fprintf(&sb, "\n  ... %d more", len(c.mismatches)-i)
			break
		}
		fmt.Fprintf(&sb, "\n  DIGEST MISMATCH %s", m)
	}
	return sb.String()
}

// goldenKeysPerWorkload bounds the committed set for workloads whose key
// space grows with the run length (the generated population).
const goldenKeysPerWorkload = 64

// writeGolden merges this run's digests into the golden file under the
// workload's name: the first goldenKeysPerWorkload keys in sorted order.
func (c *digestChecker) writeGolden(path, workload string) error {
	all := map[string]map[string]string{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	keys := make([]string, 0, len(c.seen))
	for k := range c.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	keep := make(map[string]string, goldenKeysPerWorkload)
	for _, k := range keys[:min(len(keys), goldenKeysPerWorkload)] {
		keep[k] = c.seen[k]
	}
	all[workload] = keep
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
