package experiment_test

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"aspeo/internal/experiment"
	"aspeo/internal/profile"
	"aspeo/internal/report"
	"aspeo/internal/workload"
)

// quickProfile profiles app at Quick fidelity, the table aspeo-profile
// -quick stores, and returns its path.
func quickProfile(t *testing.T, app string) string {
	t.Helper()
	spec, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := experiment.Quick().Profile(spec, workload.BaselineLoad, profile.Coordinated)
	if err != nil {
		t.Fatal(err)
	}
	return writeProfile(t, tab)
}

// TestNewSessionCheap holds session construction to its allocation
// budgets: a controller session on a stored Quick table at most 100
// allocations, a governor session at most 95. The device tree is built
// from one ladder text and a stored table is parsed once per process,
// so neither costs allocations per file, per ladder step or per JSON
// token.
func TestNewSessionCheap(t *testing.T) {
	prof := quickProfile(t, "spotify")
	for _, c := range []struct {
		name   string
		spec   experiment.SessionSpec
		budget float64
	}{
		{"controller", experiment.SessionSpec{
			App: "spotify", Load: "BL", Controller: true, Profile: prof, TargetGIPS: 1, Seed: 7,
		}, 100},
		{"governor", experiment.SessionSpec{
			App: "spotify", Load: "BL", Governor: "interactive", Seed: 7,
		}, 95},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := experiment.NewSession(c.spec); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s session: %.0f allocations", c.name, allocs)
		if allocs > c.budget {
			t.Errorf("%s session: %.0f allocations; budget %.0f", c.name, allocs, c.budget)
		}
	}
}

// TestStoredTableFollowsRewrite: stored tables are shared by content,
// so a rewritten profile file parses anew and the next session runs on
// the new table, while the same bytes, wherever they are read from,
// give back the one table already parsed.
func TestStoredTableFollowsRewrite(t *testing.T) {
	prof, _ := storedProfile(t)
	first, err := experiment.ReadStoredTable(prof)
	if err != nil {
		t.Fatal(err)
	}
	spec := experiment.SessionSpec{App: "spotify", Load: "BL", Controller: true, Profile: prof, TargetGIPS: 1, Seed: 7}
	check := func(want *profile.Table) {
		t.Helper()
		sess, err := experiment.NewSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		if sess.TableEntries != want.Len() || sess.BaseGIPS != want.BaseGIPS {
			t.Fatalf("session runs on %d entries at base %v GIPS, want %d at %v",
				sess.TableEntries, sess.BaseGIPS, want.Len(), want.BaseGIPS)
		}
	}
	check(first)

	raw, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	edited := *first
	edited.BaseGIPS = 1.25
	edited.Entries = first.Entries[:40]
	writeOver(t, prof, &edited)
	check(&edited)
	second, err := experiment.ReadStoredTable(prof)
	if err != nil {
		t.Fatal(err)
	}
	if second == first || second.Len() != 40 || second.BaseGIPS != 1.25 {
		t.Fatalf("rewritten file read back as %d entries at base %v GIPS", second.Len(), second.BaseGIPS)
	}

	copyPath := writeProfile(t, first)
	if got, err := experiment.ReadStoredTable(copyPath); err != nil || got != first {
		t.Fatalf("the first table's bytes in another file: %p (%v), want the one parsed table %p", got, err, first)
	}
	if again, _ := json.Marshal(first); !bytes.Equal(again, raw) {
		t.Fatal("a shared table was written to")
	}
}

// writeOver rewrites the profile file at path with tab.
func writeOver(t *testing.T, path string, tab *profile.Table) {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSessionsShareTable: eight sessions built and run at
// once on one stored table, the fleet's situation, each report exactly
// what the same session reports run alone. Run it under -race: the
// sessions share the parsed table, which nothing may write.
func TestConcurrentSessionsShareTable(t *testing.T) {
	prof, target := storedProfile(t)
	spec := func(i int) experiment.SessionSpec {
		return experiment.SessionSpec{
			App: "spotify", Load: "BL", Controller: true, Profile: prof, TargetGIPS: target,
			Seed: int64(300 + i), RunFor: 20 * time.Second,
		}
	}
	run := func(i int) ([]byte, error) {
		sess, err := experiment.NewSession(spec(i))
		if err != nil {
			return nil, err
		}
		return json.Marshal(report.NewRunSummary(sess, sess.Run(nil)))
	}
	const n = 8
	got := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := run(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], want) {
			t.Errorf("session %d run beside seven others:\n%s\nrun alone:\n%s", i, got[i], want)
		}
	}
}
