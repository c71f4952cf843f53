package sim

import (
	"aspeo/internal/platform"
	"aspeo/internal/pmu"
)

// This file is the thin adapter making Phone a platform.Device. The
// kernel side (ConfigActuator, SysfsView, BatchWriter, the touch queue
// and the span sink) comes from the embedded platform.Kernel, and Clock,
// PowerMeter and the busy-time telemetry are Phone's native method set;
// the methods below bridge the remaining PMU surface so consumers never
// need the concrete *Phone or *pmu.PMU types.

var (
	_ platform.Device      = (*Phone)(nil)
	_ platform.BatchWriter = (*Phone)(nil)
)

// PMUSnapshot implements platform.PerfReader.
func (p *Phone) PMUSnapshot() pmu.Snapshot { return p.pmu.Snapshot() }

// SetPerfOverhead implements platform.PerfReader: the sampling tool's
// standing cost, charged to the simulated device. cpuFrac of machine
// time goes to the tool's own computation (40% at a 100 ms sampling
// period, 4% at 1 s — paper §IV-B), clamped to [0, 0.9]; standingW is
// its persistent power draw.
func (p *Phone) SetPerfOverhead(cpuFrac, standingW float64) {
	if cpuFrac < 0 {
		cpuFrac = 0
	}
	if cpuFrac > 0.9 {
		cpuFrac = 0.9
	}
	p.st.PerfOverheadCPU = cpuFrac
	p.st.StandingOverlay = standingW
}
