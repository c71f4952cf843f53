package platform

import (
	"fmt"
	"strconv"

	"aspeo/internal/obs"
	"aspeo/internal/soc"
	"aspeo/internal/sysfs"
)

// Kernel is the kernel side of a backend, the part every backend shares:
// the cpufreq/devfreq sysfs tree with its userspace setspeed/set_freq
// protocol, the ladder position those files actuate (clamped, bounded by
// the thermal cap, with its transition counts), the input-event queue
// and the decision-trace span sink. A backend embeds it by value and
// adds what only it knows — its clock, PMU, power rail, busy-time
// counters and /proc files — so every backend speaks one file protocol
// by construction.
//
// A zero Kernel is not usable: Init sets it up in place, because the
// write hooks bind its address. Like the rest of a backend it is a
// single-threaded cell.
type Kernel struct {
	chip *soc.SoC
	fs   *sysfs.FS
	st   kernelState // the dynamic state a checkpoint carries

	onFreqChange func() // nil when a transition costs the backend nothing
	spanSink     obs.Sink
}

var (
	_ ConfigActuator = (*Kernel)(nil)
	_ SysfsView      = (*Kernel)(nil)
	_ BatchWriter    = (*Kernel)(nil)
)

// Init sets k up for chip, which the caller has validated: the ladder
// at its lowest step, no thermal cap, and the cpufreq/devfreq tree under
// the Android default governors (interactive + cpubw_hwmon), with
// hotplug and touch boost disabled as in §IV-A. Writing setspeed or
// set_freq applies only under the userspace governor, exactly like the
// kernel. onFreqChange, when non-nil, runs after every CPU frequency
// transition, whichever path requested it — a backend that models the
// transition's energy charges it there.
//
// Every ladder value in the tree — both lists, the initial setspeed,
// set_freq, min and max values, and what the cur_freq files read — is
// a substring of one chip.LadderText, formatted once per Init.
func (k *Kernel) Init(chip *soc.SoC, onFreqChange func()) {
	*k = Kernel{chip: chip, fs: sysfs.New(), st: kernelState{ThermalCap: -1}, onFreqChange: onFreqChange}
	fs := k.fs
	freqList, bwList, freqs, bws := chip.LadderText()

	fs.Create(sysfs.CPUScalingGovernor, GovInteractive, true)
	fs.Create(sysfs.CPUScalingSetSpeed, freqs[0], true)
	fs.Create(sysfs.CPUAvailableFreqs, freqList, false)
	fs.Create(sysfs.CPUAvailableGovs, "interactive ondemand conservative userspace performance powersave", false)
	fs.Create(sysfs.CPUScalingMinFreq, freqs[0], true)
	fs.Create(sysfs.CPUScalingMaxFreq, freqs[len(freqs)-1], true)
	curFreq := func(string) string { return freqs[k.st.FreqIdx] }
	fs.CreateDynamic(sysfs.CPUScalingCurFreq, curFreq)
	fs.CreateDynamic(sysfs.CPUInfoCurFreq, curFreq)

	fs.Create(sysfs.DevFreqGovernor, GovCPUBWHwmon, true)
	fs.Create(sysfs.DevFreqSetFreq, bws[0], true)
	fs.Create(sysfs.DevFreqAvailFreqs, bwList, false)
	fs.Create(sysfs.DevFreqAvailGovs, "cpubw_hwmon userspace performance powersave", false)
	fs.Create(sysfs.DevFreqMinFreq, bws[0], true)
	fs.Create(sysfs.DevFreqMaxFreq, bws[len(bws)-1], true)
	fs.CreateDynamic(sysfs.DevFreqCurFreq, func(string) string { return bws[k.st.BWIdx] })

	fs.Create(sysfs.MPDecisionEnabled, "0", true)
	fs.Create(sysfs.TouchBoostEnabled, "0", true)

	fs.OnWrite(sysfs.CPUScalingSetSpeed, func(_, _, val string) error {
		gov, _ := fs.Read(sysfs.CPUScalingGovernor)
		if gov != GovUserspace {
			return fmt.Errorf("scaling_setspeed: governor is %q, not userspace", gov)
		}
		khz, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("scaling_setspeed: %w", err)
		}
		k.SetFreqIdx(chip.NearestFreqIdx(soc.FreqFromKHz(khz)))
		return nil
	})
	fs.OnWrite(sysfs.DevFreqSetFreq, func(_, _, val string) error {
		gov, _ := fs.Read(sysfs.DevFreqGovernor)
		if gov != GovUserspace {
			return fmt.Errorf("devfreq set_freq: governor is %q, not userspace", gov)
		}
		mbps, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("devfreq set_freq: %w", err)
		}
		k.SetBWIdx(chip.NearestBWIdx(soc.Bandwidth(mbps)))
		return nil
	})
}

// SoC describes the chip's ladders.
func (k *Kernel) SoC() *soc.SoC { return k.chip }

// FS returns the sysfs tree.
func (k *Kernel) FS() *sysfs.FS { return k.fs }

// --- ConfigActuator ---

// CurFreqIdx returns the current CPU frequency ladder index.
func (k *Kernel) CurFreqIdx() int { return k.st.FreqIdx }

// CurBWIdx returns the current bandwidth ladder index.
func (k *Kernel) CurBWIdx() int { return k.st.BWIdx }

// SetFreqIdx changes the CPU frequency (all four cores share one
// policy, §IV-A). The request clamps to the ladder, and a thermal cap,
// when set, bounds it like the kernel's thermal driver bounding
// policy->max.
func (k *Kernel) SetFreqIdx(i int) {
	i = k.chip.ClampFreqIdx(i)
	if k.st.ThermalCap >= 0 && i > k.st.ThermalCap {
		i = k.st.ThermalCap
	}
	if i != k.st.FreqIdx {
		k.st.FreqIdx = i
		k.st.FreqChanges++
		if k.onFreqChange != nil {
			k.onFreqChange()
		}
	}
}

// SetBWIdx changes the memory bandwidth vote; it clamps to the ladder.
func (k *Kernel) SetBWIdx(i int) {
	i = k.chip.ClampBWIdx(i)
	if i != k.st.BWIdx {
		k.st.BWIdx = i
		k.st.BWChanges++
	}
}

// SetThermalCapIdx bounds the CPU frequency to ladder index i (the
// thermal driver's mitigation); a negative i lifts the cap. An active
// cap applies immediately.
func (k *Kernel) SetThermalCapIdx(i int) {
	if i < 0 {
		k.st.ThermalCap = -1
		return
	}
	k.st.ThermalCap = k.chip.ClampFreqIdx(i)
	if k.st.FreqIdx > k.st.ThermalCap {
		k.SetFreqIdx(k.st.ThermalCap)
	}
}

// ThermalCapIdx returns the active cap, or -1 when none.
func (k *Kernel) ThermalCapIdx() int { return k.st.ThermalCap }

// FreqChanges returns how many CPU frequency transitions happened.
func (k *Kernel) FreqChanges() int { return k.st.FreqChanges }

// BWChanges returns how many bandwidth transitions happened.
func (k *Kernel) BWChanges() int { return k.st.BWChanges }

// --- SysfsView and BatchWriter ---

// ReadFile implements SysfsView.
func (k *Kernel) ReadFile(path string) (string, error) { return k.fs.Read(path) }

// WriteFile implements SysfsView (userspace semantics: permissions and
// hooks apply).
func (k *Kernel) WriteFile(path, value string) error { return k.fs.Write(path, value) }

// WriteFiles implements BatchWriter: sequential WriteFile semantics
// under one call, the first error aborts.
func (k *Kernel) WriteFiles(writes []FileWrite) error {
	for _, w := range writes {
		if err := k.fs.Write(w.Path, w.Value); err != nil {
			return err
		}
	}
	return nil
}

// SetFile implements SysfsView (root semantics: hooks and permissions
// bypassed).
func (k *Kernel) SetFile(path, value string) { k.fs.Set(path, value) }

// FileExists implements SysfsView.
func (k *Kernel) FileExists(path string) bool { return k.fs.Exists(path) }

// CreateFile implements SysfsView.
func (k *Kernel) CreateFile(path, initial string, writable bool, hook sysfs.WriteHook) {
	k.fs.Create(path, initial, writable)
	if hook != nil {
		k.fs.OnWrite(path, hook)
	}
}

// --- Input events and decision-trace spans ---

// AddTouches queues n input events for the next TakeTouches.
func (k *Kernel) AddTouches(n int) { k.st.PendingTouches += n }

// TakeTouches drains and returns the pending input events.
func (k *Kernel) TakeTouches() int {
	n := k.st.PendingTouches
	k.st.PendingTouches = 0
	return n
}

// AttachSpanSink installs the sink RecordSpan forwards to; nil detaches
// it. Observation only: attaching a sink never alters a run.
func (k *Kernel) AttachSpanSink(s obs.Sink) { k.spanSink = s }

// RecordSpan forwards a decision-trace span to the attached sink, or
// drops it when none is attached (Telemetry).
func (k *Kernel) RecordSpan(s obs.Span) {
	if k.spanSink != nil {
		k.spanSink.Emit(s)
	}
}

// --- Checkpoint ---

// kernelState is a Kernel's dynamic state besides its sysfs tree: the
// Kernel holds it and its checkpoint carries it.
type kernelState struct {
	FreqIdx        int `json:"freq_idx"`
	BWIdx          int `json:"bw_idx"`
	ThermalCap     int `json:"thermal_cap"` // max allowed freq index (thermal driver); -1 = none
	PendingTouches int `json:"pending_touches"`
	FreqChanges    int `json:"freq_changes"`
	BWChanges      int `json:"bw_changes"`
}

// KernelState is a Kernel's dynamic state in a checkpoint. Everything
// Init rebuilds from the chip (the tree's wiring, the hooks) is left
// out.
type KernelState struct {
	kernelState
	// Sysfs holds every static file's stored value, the backend's own
	// files and runtime tunables included. Dynamic (read-hook) files
	// derive their content from the state above and are excluded.
	Sysfs map[string]string `json:"sysfs"`
}

// State captures the kernel. The sysfs map is a fresh copy: the
// capture stays valid while the kernel runs on.
func (k *Kernel) State() KernelState {
	return KernelState{kernelState: k.st, Sysfs: k.fs.Export()}
}

// Restore puts a snapshot back onto a kernel initialised for the same
// chip. Every file in the snapshot must exist already: runtime files
// such as governor tunables are recreated before the restore. No write
// hook runs and onFreqChange is not called.
func (k *Kernel) Restore(s KernelState) error {
	if s.FreqIdx < 0 || s.FreqIdx >= len(k.chip.CPUFreqs) {
		return fmt.Errorf("freq index %d out of %d", s.FreqIdx, len(k.chip.CPUFreqs))
	}
	if s.BWIdx < 0 || s.BWIdx >= len(k.chip.MemBWs) {
		return fmt.Errorf("bw index %d out of %d", s.BWIdx, len(k.chip.MemBWs))
	}
	if err := k.fs.RestoreValues(s.Sysfs); err != nil {
		return err
	}
	k.st = s.kernelState
	return nil
}
