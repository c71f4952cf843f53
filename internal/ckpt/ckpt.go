// Package ckpt persists session checkpoints durably: a versioned,
// checksummed JSON envelope written atomically (temp file + fsync +
// rename), so a reader never observes a partial or torn checkpoint —
// a crash mid-write leaves either the previous complete file or none.
//
// All filesystem access goes through the FS interface so the chaos
// harness (internal/fault) can inject write failures at chosen
// ordinals without touching the real disk path.
package ckpt

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Version is the current checkpoint format version. Loaders reject
// other versions loudly — a checkpoint is a contract about bit-exact
// restoration, and guessing across format changes would break it
// silently.
const Version = 1

// Envelope is the on-disk frame around a checkpoint payload.
type Envelope struct {
	Version int `json:"version"`
	// Kind names the payload schema (e.g. "aspeo/session-cell").
	Kind string `json:"kind"`
	// Meta is caller-defined identity (session id, spec, attempt) used
	// to verify a checkpoint belongs to the cell being restored.
	Meta json.RawMessage `json:"meta,omitempty"`
	// MetaCRC is the IEEE CRC-32 of the Meta bytes, present whenever
	// Meta is. Envelopes written before it existed carry Meta without
	// it and load unchecked.
	MetaCRC *uint32 `json:"meta_crc32,omitempty"`
	// Cell is the payload.
	Cell json.RawMessage `json:"cell"`
	// CRC is the IEEE CRC-32 of the Cell bytes.
	CRC uint32 `json:"crc32"`
}

// File is the writable-file surface Save needs.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS abstracts the filesystem operations checkpointing performs.
// OS is the real implementation; fault.ChaosFS wraps one to inject
// failures.
type FS interface {
	MkdirAll(dir string) error
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	// ReadDir returns the names (not paths) of the directory's entries.
	ReadDir(dir string) ([]string, error)
}

// OS is the real filesystem.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// CreateTemp implements FS.
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Probe creates dir if needed and proves it accepts writes by creating,
// closing and removing a temporary file in it — the check that turns an
// unwritable checkpoint or dump directory into an up-front error
// instead of a run that silently loses its durability.
func Probe(fsys FS, dir string) error {
	if err := fsys.MkdirAll(dir); err != nil {
		return err
	}
	f, err := fsys.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	if err := f.Close(); err != nil {
		_ = fsys.Remove(name)
		return err
	}
	return fsys.Remove(name)
}

// Save atomically writes a checkpoint: marshal the envelope, write it
// to a temp file in the target directory, fsync, close, rename over
// path. On any failure the temp file is removed and the previous
// checkpoint at path (if any) is left intact.
func Save(fsys FS, path, kind string, meta, cell any) error {
	cellRaw, err := json.Marshal(cell)
	if err != nil {
		return fmt.Errorf("ckpt: marshal cell: %w", err)
	}
	env := Envelope{Version: Version, Kind: kind, Cell: cellRaw, CRC: crc32.ChecksumIEEE(cellRaw)}
	if meta != nil {
		if env.Meta, err = json.Marshal(meta); err != nil {
			return fmt.Errorf("ckpt: marshal meta: %w", err)
		}
		crc := crc32.ChecksumIEEE(env.Meta)
		env.MetaCRC = &crc
	}
	raw, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("ckpt: marshal envelope: %w", err)
	}
	raw = append(raw, '\n')

	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	f, err := fsys.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	if _, err := f.Write(raw); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	return nil
}

// Load reads a checkpoint and unmarshals its meta and cell into the
// given pointers (either may be nil to skip). It rejects version and
// kind mismatches and corruption of the payload or the meta (CRC).
func Load(fsys FS, path, kind string, meta, cell any) error {
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return fmt.Errorf("ckpt: read %s: %w", path, err)
	}
	if env.Version != Version {
		return fmt.Errorf("ckpt: read %s: version %d, want %d", path, env.Version, Version)
	}
	if env.Kind != kind {
		return fmt.Errorf("ckpt: read %s: kind %q, want %q", path, env.Kind, kind)
	}
	if got := crc32.ChecksumIEEE(env.Cell); got != env.CRC {
		return fmt.Errorf("ckpt: read %s: payload CRC %08x, recorded %08x (corrupt checkpoint)", path, got, env.CRC)
	}
	if env.MetaCRC != nil {
		if got := crc32.ChecksumIEEE(env.Meta); got != *env.MetaCRC {
			return fmt.Errorf("ckpt: read %s: meta CRC %08x, recorded %08x (corrupt checkpoint)", path, got, *env.MetaCRC)
		}
	}
	if meta != nil && env.Meta != nil {
		if err := json.Unmarshal(env.Meta, meta); err != nil {
			return fmt.Errorf("ckpt: read %s meta: %w", path, err)
		}
	}
	if cell != nil {
		if err := json.Unmarshal(env.Cell, cell); err != nil {
			return fmt.Errorf("ckpt: read %s cell: %w", path, err)
		}
	}
	return nil
}
