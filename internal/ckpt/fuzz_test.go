package ckpt

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// memFS is an in-memory FS: checkpoint bytes come from the fuzzer, not
// the disk.
type memFS struct {
	files map[string][]byte
	temps int
}

type memFile struct {
	fs   *memFS
	name string
	buf  bytes.Buffer
}

func (f *memFile) Write(p []byte) (int, error) { return f.buf.Write(p) }
func (f *memFile) Sync() error                 { return nil }
func (f *memFile) Name() string                { return f.name }
func (f *memFile) Close() error {
	f.fs.files[f.name] = f.buf.Bytes()
	return nil
}

func (m *memFS) MkdirAll(string) error { return nil }
func (m *memFS) CreateTemp(dir, pattern string) (File, error) {
	m.temps++
	return &memFile{fs: m, name: fmt.Sprintf("%s/%s%d", dir, strings.TrimSuffix(pattern, "*"), m.temps)}, nil
}
func (m *memFS) Rename(oldpath, newpath string) error {
	raw, ok := m.files[oldpath]
	if !ok {
		return os.ErrNotExist
	}
	delete(m.files, oldpath)
	m.files[newpath] = raw
	return nil
}
func (m *memFS) Remove(name string) error { delete(m.files, name); return nil }
func (m *memFS) ReadFile(name string) ([]byte, error) {
	raw, ok := m.files[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	return raw, nil
}
func (m *memFS) ReadDir(string) ([]string, error) {
	var names []string
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// fuzzMeta and fuzzCell give the decoded envelope typed targets with
// nesting, lists and maps, like the real session meta and cell.
type fuzzMeta struct {
	ID   string   `json:"id"`
	Seq  uint64   `json:"seq"`
	Tags []string `json:"tags"`
}

type fuzzCell struct {
	A int                `json:"a"`
	B string             `json:"b"`
	C float64            `json:"c"`
	D []float64          `json:"d"`
	M map[string]int64   `json:"m"`
	N *fuzzMeta          `json:"n"`
	R map[string]float64 `json:"r"`
}

// FuzzLoad feeds arbitrary bytes to Load as a checkpoint file. Load must
// never panic, and every input it accepts must re-save and re-load to
// the same meta and cell.
func FuzzLoad(f *testing.F) {
	seed := &memFS{files: map[string][]byte{}}
	if err := Save(seed, "d/s.ckpt.json", "test/fuzz",
		fuzzMeta{ID: "s1", Seq: 3, Tags: []string{"a"}},
		fuzzCell{A: 7, B: "x", C: 0.30000000000000004, D: []float64{1, 2.5}, M: map[string]int64{"k": 1}, N: &fuzzMeta{ID: "n"}}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.files["d/s.ckpt.json"])
	f.Add([]byte(`{"version":1,"kind":"test/fuzz","cell":{"a":1},"crc32":1444654255}`))
	f.Add([]byte(`{"version":1,"kind":"test/fuzz","meta":null,"cell":null,"crc32":634125391}`))
	f.Add([]byte(`{"version":1,"kind":"test/fuzz","cell":{"a":1},"crc32":0}`))
	f.Add([]byte(`{"version":2,"kind":"test/fuzz","cell":{},"crc32":0}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := &memFS{files: map[string][]byte{"d/in.ckpt.json": data}}
		var meta fuzzMeta
		var cell fuzzCell
		if err := Load(fs, "d/in.ckpt.json", "test/fuzz", &meta, &cell); err != nil {
			return
		}
		if err := Save(fs, "d/out.ckpt.json", "test/fuzz", meta, cell); err != nil {
			t.Fatalf("accepted checkpoint does not re-save: %v", err)
		}
		var meta2 fuzzMeta
		var cell2 fuzzCell
		if err := Load(fs, "d/out.ckpt.json", "test/fuzz", &meta2, &cell2); err != nil {
			t.Fatalf("re-saved checkpoint does not load: %v", err)
		}
		if !reflect.DeepEqual(meta, meta2) {
			t.Fatalf("meta round trip: %+v, then %+v", meta, meta2)
		}
		if !reflect.DeepEqual(cell, cell2) {
			t.Fatalf("cell round trip: %+v, then %+v", cell, cell2)
		}
	})
}
