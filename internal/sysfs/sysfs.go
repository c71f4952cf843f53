// Package sysfs emulates the slice of the Linux sysfs file tree that DVFS
// software touches on an Android device: the cpufreq policy directory and
// the devfreq device directory.
//
// On the phone, both the stock governors' tunables and our controller's
// actuation happen through reads and writes of small text files such as
//
//	/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor
//	/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed
//	/sys/class/devfreq/soc:qcom,cpubw/governor
//
// Re-creating that file protocol keeps the simulated stack honest: the
// controller under test issues the same writes it would issue on the
// device, and the simulated kernel reacts through write hooks exactly the
// way cpufreq/devfreq drivers do. Fault injection does not reach into the
// tree: internal/fault decorates the device view the controller writes
// through (fault.WrapActuator), so every backend shares one fault model.
package sysfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Errors returned by FS operations.
var (
	ErrNotExist   = errors.New("sysfs: no such file")
	ErrPermission = errors.New("sysfs: permission denied")
	ErrInvalid    = errors.New("sysfs: invalid argument")
	ErrBusy       = errors.New("sysfs: device or resource busy")
)

// WriteHook observes or intercepts a write. It receives the old and new
// values and may return an error to reject the write (the file keeps its
// old value), mirroring how kernel store() callbacks return -EINVAL.
type WriteHook func(path, old, new string) error

// ReadHook produces the current value of a dynamic file (e.g. cur_freq),
// overriding the stored value.
type ReadHook func(path string) string

// file is one sysfs node.
type file struct {
	value     string
	writable  bool
	writeHook WriteHook
	readHook  ReadHook
}

// FS is an in-memory sysfs tree. It is safe for concurrent use.
type FS struct {
	mu    sync.RWMutex
	files map[string]*file
	spare []file // unused nodes, handed out by newNode
}

// treeSize is the file count of a device's tree — the kernel's
// cpufreq/devfreq files, a backend's /proc files and a governor's
// tunables come to about 25 — so New allocates the map and the node
// storage of one tree once. A larger tree grows both.
const treeSize = 32

// New returns an empty tree.
func New() *FS {
	return &FS{files: make(map[string]*file, treeSize), spare: make([]file, treeSize)}
}

// newNode returns f stored in the tree's node storage, taking another
// treeSize nodes when it runs out. The caller holds fs.mu.
func (fs *FS) newNode(f file) *file {
	if len(fs.spare) == 0 {
		fs.spare = make([]file, treeSize)
	}
	n := &fs.spare[0]
	fs.spare = fs.spare[1:]
	*n = f
	return n
}

// clean canonicalizes a path: exactly one leading slash, no trailing
// slash, no surrounding whitespace. Trimming slashes can expose more
// whitespace ("a /" → "a "), so both are trimmed as one predicate, which
// makes clean idempotent.
//
// Already-canonical paths — every constant in this package, i.e. every
// path on the actuation hot path — are returned as-is without
// allocating: a path that starts with '/' whose second and last bytes
// are plain ASCII outside the trim set cannot lose anything to either
// trim, so the result would be the input verbatim.
func clean(path string) string {
	if n := len(path); n >= 2 && path[0] == '/' &&
		!cleanTrimByte(path[1]) && !cleanTrimByte(path[n-1]) {
		return path
	}
	return "/" + strings.TrimFunc(path, func(r rune) bool {
		return r == '/' || unicode.IsSpace(r)
	})
}

// cleanTrimByte reports whether b, as a single byte, could be trimmed by
// clean (or could begin a multi-byte rune that might be — anything
// ≥ utf8.RuneSelf is conservatively sent to the slow path).
func cleanTrimByte(b byte) bool {
	return b == '/' || b == ' ' || ('\t' <= b && b <= '\r') || b >= utf8.RuneSelf
}

// Create registers a file. Writable files accept Write; read-only files
// reject it with ErrPermission, like mode 0444 sysfs attributes.
func (fs *FS) Create(path, initial string, writable bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[clean(path)] = fs.newNode(file{value: initial, writable: writable})
}

// CreateDynamic registers a read-only file whose content is produced by
// hook at read time (like cpuinfo_cur_freq reading the hardware).
func (fs *FS) CreateDynamic(path string, hook ReadHook) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[clean(path)] = fs.newNode(file{readHook: hook})
}

// OnWrite attaches a write hook to an existing file. It panics if the file
// does not exist, because hooks are wired at device construction time and
// a missing file is a programming error.
func (fs *FS) OnWrite(path string, hook WriteHook) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[clean(path)]
	if !ok {
		panic(fmt.Sprintf("sysfs: OnWrite on missing file %q", path))
	}
	f.writeHook = hook
}

// Exists reports whether path is registered.
func (fs *FS) Exists(path string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[clean(path)]
	return ok
}

// Read returns the file's value.
func (fs *FS) Read(path string) (string, error) {
	p := clean(path)
	fs.mu.RLock()
	f, ok := fs.files[p]
	if !ok {
		fs.mu.RUnlock()
		return "", fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if hook := f.readHook; hook != nil {
		fs.mu.RUnlock()
		return hook(p), nil
	}
	v := f.value
	fs.mu.RUnlock()
	return v, nil
}

// Write sets the file's value, running its write hook first. The value is
// trimmed of surrounding whitespace, as `echo val > file` would leave a
// newline.
func (fs *FS) Write(path, value string) error {
	p := clean(path)
	value = strings.TrimSpace(value)
	fs.mu.Lock()
	f, ok := fs.files[p]
	if !ok {
		fs.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if !f.writable {
		fs.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrPermission, path)
	}
	old := f.value
	hook := f.writeHook
	fs.mu.Unlock()

	if hook != nil {
		if err := hook(p, old, value); err != nil {
			return fmt.Errorf("sysfs: write %s=%q rejected: %w", path, value, err)
		}
	}
	fs.mu.Lock()
	f.value = value
	fs.mu.Unlock()
	return nil
}

// Set force-sets a value without running hooks or permission checks; for
// the kernel side (the simulation) to publish state.
func (fs *FS) Set(path, value string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[clean(path)]
	if !ok {
		panic(fmt.Sprintf("sysfs: Set on missing file %q", path))
	}
	f.value = value
}

// List returns all registered paths under prefix, sorted.
func (fs *FS) List(prefix string) []string {
	prefix = clean(prefix)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Canonical paths of the Nexus 6 DVFS tree. All four CPUs share one
// policy, so like the paper we expose cpu0's policy directory only.
const (
	CPUFreqDir = "/sys/devices/system/cpu/cpu0/cpufreq"
	DevFreqDir = "/sys/class/devfreq/soc:qcom,cpubw"

	CPUScalingGovernor = CPUFreqDir + "/scaling_governor"
	CPUScalingSetSpeed = CPUFreqDir + "/scaling_setspeed"
	CPUScalingCurFreq  = CPUFreqDir + "/scaling_cur_freq"
	CPUScalingMinFreq  = CPUFreqDir + "/scaling_min_freq"
	CPUScalingMaxFreq  = CPUFreqDir + "/scaling_max_freq"
	CPUAvailableFreqs  = CPUFreqDir + "/scaling_available_frequencies"
	CPUAvailableGovs   = CPUFreqDir + "/scaling_available_governors"
	CPUInfoCurFreq     = CPUFreqDir + "/cpuinfo_cur_freq"
	DevFreqGovernor    = DevFreqDir + "/governor"
	DevFreqCurFreq     = DevFreqDir + "/cur_freq"
	DevFreqSetFreq     = DevFreqDir + "/userspace/set_freq"
	DevFreqMinFreq     = DevFreqDir + "/min_freq"
	DevFreqMaxFreq     = DevFreqDir + "/max_freq"
	DevFreqAvailFreqs  = DevFreqDir + "/available_frequencies"
	DevFreqAvailGovs   = DevFreqDir + "/available_governors"
	MPDecisionEnabled  = "/sys/module/msm_mpdecision/enabled"
	TouchBoostEnabled  = "/sys/module/msm_performance/touchboost"
	ProcLoadAvg        = "/proc/loadavg"
	ProcMemInfoFreeMB  = "/proc/meminfo_free_mb" // simplified meminfo
)
