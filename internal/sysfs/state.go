package sysfs

import "fmt"

// Export returns the stored values of every static file in the tree,
// for a session checkpoint. Dynamic files (read hooks) are excluded:
// their content derives from simulator state at read time, so they have
// nothing to store. Write hooks are wiring, not state, and are likewise
// not captured.
func (fs *FS) Export() map[string]string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make(map[string]string, len(fs.files))
	for p, f := range fs.files {
		if f.readHook != nil {
			continue
		}
		out[p] = f.value
	}
	return out
}

// RestoreValues force-sets exported values back onto the tree without
// running hooks or permission checks — the files already exist with
// their hooks wired (rebuilt by device construction, plus any runtime
// files like governor tunables recreated during actor restore), so only
// the values need to land. A path missing from the tree is an error:
// it means the restored cell was not rebuilt the same way the
// checkpointed one was, and continuing would silently diverge.
func (fs *FS) RestoreValues(values map[string]string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for p, v := range values {
		f, ok := fs.files[p]
		if !ok {
			return fmt.Errorf("sysfs: restore value for missing file %q", p)
		}
		if f.readHook != nil {
			return fmt.Errorf("sysfs: restore value for dynamic file %q", p)
		}
		f.value = v
	}
	return nil
}
