package sysfs

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// FuzzClean checks the path canonicalizer's invariants on arbitrary
// input: exactly one leading slash, no trailing slash (except the root
// itself), no surrounding whitespace, and idempotence — a canonical path
// canonicalizes to itself, which is what lets every FS entry point call
// clean unconditionally.
func FuzzClean(f *testing.F) {
	for _, seed := range []string{
		"", "/", "//", "a", "/a", "a/", "/a/b/c", "  /a/b  ", "///x///",
		CPUScalingGovernor, DevFreqSetFreq, "\t/weird path/\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, path string) {
		got := clean(path)
		if !strings.HasPrefix(got, "/") {
			t.Fatalf("clean(%q) = %q: no leading slash", path, got)
		}
		if strings.HasPrefix(got, "//") {
			t.Fatalf("clean(%q) = %q: doubled leading slash", path, got)
		}
		if got != "/" && strings.HasSuffix(got, "/") {
			t.Fatalf("clean(%q) = %q: trailing slash", path, got)
		}
		if strings.TrimSpace(got) != got {
			t.Fatalf("clean(%q) = %q: surrounding whitespace survived", path, got)
		}
		if again := clean(got); again != got {
			t.Fatalf("clean not idempotent: %q -> %q -> %q", path, got, again)
		}
	})
}

// A write rejected by the file's hook must leave the old value intact and
// atomically visible to concurrent readers — no torn or transient states.
// Run under -race this also proves the lock discipline of the
// hook-outside-lock write path.
func TestRejectedWriteKeepsOldValueUnderReaders(t *testing.T) {
	fs := New()
	const path = "/x/guarded"
	const good = "steady"
	fs.Create(path, good, true)
	rejection := errors.New("nope")
	fs.OnWrite(path, func(_, _, new string) error {
		if new != good {
			return rejection
		}
		return nil
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := fs.Read(path)
				if err != nil {
					t.Errorf("read failed: %v", err)
					return
				}
				if v != good {
					t.Errorf("reader observed %q, want %q", v, good)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		if err := fs.Write(path, "corrupt"); !errors.Is(err, rejection) {
			t.Fatalf("write %d: err = %v, want hook rejection", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if v, _ := fs.Read(path); v != good {
		t.Fatalf("value after rejected writes = %q", v)
	}
}
