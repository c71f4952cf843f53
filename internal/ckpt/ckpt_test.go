package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

type payload struct {
	A int     `json:"a"`
	B string  `json:"b"`
	C float64 `json:"c"`
}

type meta struct {
	ID string `json:"id"`
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s1.ckpt.json")
	in := payload{A: 7, B: "x", C: 0.30000000000000004}
	m := meta{ID: "s1"}
	if err := Save(OS{}, path, "test/payload", m, in); err != nil {
		t.Fatal(err)
	}
	var out payload
	var mOut meta
	if err := Load(OS{}, path, "test/payload", &mOut, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
	if mOut != m {
		t.Fatalf("meta round trip: got %+v want %+v", mOut, m)
	}
	// No temp droppings.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries, want just the checkpoint", len(ents))
	}
}

func TestLoadRejectsKindVersionCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s1.ckpt.json")
	if err := Save(OS{}, path, "test/payload", nil, payload{A: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Load(OS{}, path, "other/kind", nil, &payload{}); err == nil ||
		!strings.Contains(err.Error(), "kind") {
		t.Fatalf("kind mismatch not rejected: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(raw), `"a":1`, `"a":2`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(OS{}, path, "test/payload", nil, &payload{}); err == nil ||
		!strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corruption not rejected: %v", err)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(raw), `"version":1`, `"version":99`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(OS{}, path, "test/payload", nil, &payload{}); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not rejected: %v", err)
	}
}

// TestLoadRejectsMetaCorruption: the meta is checksummed like the cell,
// so one changed meta byte is a corrupt checkpoint rather than a
// restore under another identity. An envelope written before the meta
// carried a checksum still loads.
func TestLoadRejectsMetaCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s1.ckpt.json")
	if err := Save(OS{}, path, "test/payload", meta{ID: "seed7"}, payload{A: 1}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	changed := strings.Replace(string(raw), `"seed7"`, `"seed8"`, 1)
	if err := os.WriteFile(path, []byte(changed), 0o644); err != nil {
		t.Fatal(err)
	}
	var m meta
	if err := Load(OS{}, path, "test/payload", &m, &payload{}); err == nil ||
		!strings.Contains(err.Error(), "meta CRC") || !strings.Contains(err.Error(), "corrupt checkpoint") {
		t.Fatalf("meta corruption not rejected: %v (meta %+v)", err, m)
	}

	legacy := regexp.MustCompile(`"meta_crc32":\d+,`).ReplaceAllString(string(raw), "")
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(OS{}, path, "test/payload", &m, &payload{}); err != nil || m.ID != "seed7" {
		t.Fatalf("envelope without meta_crc32: %v (meta %+v)", err, m)
	}
}

// failFS fails the Nth write and verifies atomicity: a failed save
// leaves the previous checkpoint intact and no temp files behind.
type failFS struct {
	OS
	failWrites bool
}

type failFile struct {
	File
	fail bool
}

func (f failFile) Write(p []byte) (int, error) {
	if f.fail {
		return 0, fmt.Errorf("injected write failure")
	}
	return f.File.Write(p)
}

func (f failFS) CreateTemp(dir, pattern string) (File, error) {
	inner, err := f.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return failFile{File: inner, fail: f.failWrites}, nil
}

func TestFailedSaveLeavesPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s1.ckpt.json")
	if err := Save(OS{}, path, "test/payload", nil, payload{A: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Save(failFS{failWrites: true}, path, "test/payload", nil, payload{A: 2}); err == nil {
		t.Fatal("injected write failure not surfaced")
	}
	var out payload
	if err := Load(OS{}, path, "test/payload", nil, &out); err != nil {
		t.Fatalf("previous checkpoint unreadable after failed save: %v", err)
	}
	if out.A != 1 {
		t.Fatalf("previous checkpoint clobbered: got %+v", out)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp droppings after failed save: %d entries", len(ents))
	}
}

// TestProbe: a writable directory is created on demand and left empty;
// one that cannot exist (nested under a regular file) is an error.
func TestProbe(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	if err := Probe(OS{}, dir); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("probe left %d entries behind", len(ents))
	}
	file := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Probe(OS{}, filepath.Join(file, "sub")); err == nil {
		t.Fatal("probe under a regular file succeeded")
	}
}
