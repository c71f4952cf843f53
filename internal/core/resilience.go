package core

import (
	"fmt"
	"math"

	"aspeo/internal/obs"
	"aspeo/internal/perftool"
	"aspeo/internal/platform"
	"aspeo/internal/profile"
	"aspeo/internal/sysfs"
)

// Resilience configures the controller's fault-handling ladder. On a
// real device neither I/O surface the controller depends on is
// trustworthy: sysfs stores fail transiently, OEM daemons rewrite the
// governor files mid-run, and PMU-derived readings drop, spike or stick.
// The ladder escalates — retry failed actuations, reinstall a hijacked
// governor, degrade to a safe mid-ladder configuration, and finally
// relinquish control to the stock governors — while Health exposes every
// step taken.
type Resilience struct {
	// Disabled turns every protection off (the unhardened baseline of
	// the fault campaign); faults are still counted, never acted on.
	Disabled bool
	// MaxRetriesPerCycle bounds actuation retries across the quanta of
	// one control cycle.
	MaxRetriesPerCycle int
	// OwnershipCheckEvery runs the governor-ownership check every N
	// control cycles (1 = every cycle).
	OwnershipCheckEvery int
	// OutlierSigma is the measurement gate width: a normalized
	// measurement farther than OutlierSigma·sqrt(P+R) from the Kalman
	// estimate is rejected instead of fed into the update. The default
	// is wide (10σ) because genuine workload phase transitions reach
	// 5–8σ and must pass untouched, while injected counter faults are
	// far more extreme (a zeroed reading is ~18σ, a multiplexing spike
	// ~50σ).
	OutlierSigma float64
	// OutlierPersistence accepts a measurement after this many
	// consecutive outlier rejections: isolated spikes are glitches, but
	// a persistent excursion is a genuine level shift (a workload phase
	// change) the filter must re-converge to. Must not exceed
	// DegradeAfter or real phase shifts trip the watchdog.
	OutlierPersistence int
	// StuckWindow rejects a measurement after this many bit-identical
	// consecutive values (a stuck counter; genuine readings carry
	// continuous noise).
	StuckWindow int
	// DegradeAfter is the watchdog threshold: this many consecutive
	// failing cycles switch the schedule to the safe configuration.
	DegradeAfter int
	// RelinquishAfter consecutive failing cycles hand the device back
	// to the stock governors and stop actuating.
	RelinquishAfter int
}

// DefaultResilience returns the hardened defaults.
func DefaultResilience() Resilience {
	return Resilience{
		MaxRetriesPerCycle:  3,
		OwnershipCheckEvery: 1,
		OutlierSigma:        10,
		OutlierPersistence:  2,
		StuckWindow:         3,
		DegradeAfter:        3,
		RelinquishAfter:     8,
	}
}

// withDefaults fills unset fields so a zero Options.Resilience means
// "hardened with defaults".
func (r Resilience) withDefaults() Resilience {
	d := DefaultResilience()
	if r.MaxRetriesPerCycle == 0 {
		r.MaxRetriesPerCycle = d.MaxRetriesPerCycle
	}
	if r.OwnershipCheckEvery == 0 {
		r.OwnershipCheckEvery = d.OwnershipCheckEvery
	}
	if r.OutlierSigma == 0 {
		r.OutlierSigma = d.OutlierSigma
	}
	if r.OutlierPersistence == 0 {
		r.OutlierPersistence = d.OutlierPersistence
	}
	if r.StuckWindow == 0 {
		r.StuckWindow = d.StuckWindow
	}
	if r.DegradeAfter == 0 {
		r.DegradeAfter = d.DegradeAfter
	}
	if r.RelinquishAfter == 0 {
		r.RelinquishAfter = d.RelinquishAfter
	}
	return r
}

// Health is the controller's self-diagnostics: what the fault ladder
// observed and did. The report layer prints it and the resilience tests
// match it against the injector's delivered-fault counts. The definition
// lives in platform (every backend records it through
// Telemetry.RecordHealth); the alias keeps core's consumers reading
// naturally.
type Health = platform.Health

// Health returns a snapshot of the controller's fault diagnostics.
func (c *Controller) Health() Health { return c.health }

// Perf exposes the controller's perf reader so a fault injector can arm
// its reading hook.
func (c *Controller) Perf() *perftool.Perf { return c.perf }

// applySlot actuates one slot with bounded retry-across-quanta: a failed
// write is retried immediately (transient EBUSY/EINVAL clears between
// attempts) while the cycle's retry budget lasts. It reports whether the
// configuration landed.
func (c *Controller) applySlot(dev platform.Device, e profile.Entry) bool {
	err := c.apply(dev, e)
	if err == nil {
		return true
	}
	c.health.ActuationFailures++
	if c.res.Disabled {
		return false
	}
	for c.retriesLeft > 0 {
		c.retriesLeft--
		c.health.ActuationRetries++
		if err = c.apply(dev, e); err == nil {
			return true
		}
		c.health.ActuationFailures++
	}
	return false
}

// checkOwnership verifies the controller still owns the DVFS policy
// files and repairs hijacks: a rewritten scaling_governor is switched
// back to userspace, a clamped scaling_max_freq is restored to its
// installed value. It reports false when a repair attempt failed.
func (c *Controller) checkOwnership(dev platform.Device) bool {
	if c.res.Disabled || !c.attached {
		return true
	}
	if c.res.OwnershipCheckEvery > 1 && c.cyclesRun%c.res.OwnershipCheckEvery != 0 {
		return true
	}
	ok := true
	if gov, err := dev.ReadFile(sysfs.CPUScalingGovernor); err == nil && gov != platform.GovUserspace {
		if werr := dev.WriteFile(sysfs.CPUScalingGovernor, platform.GovUserspace); werr == nil {
			c.health.GovernorReinstalls++
		} else {
			ok = false
		}
	}
	if c.installedMaxFreq != "" {
		if mf, err := dev.ReadFile(sysfs.CPUScalingMaxFreq); err == nil && mf != c.installedMaxFreq {
			if werr := dev.WriteFile(sysfs.CPUScalingMaxFreq, c.installedMaxFreq); werr == nil {
				c.health.MaxFreqRestores++
			} else {
				ok = false
			}
		}
	}
	if !c.opt.CPUOnly {
		if gov, err := dev.ReadFile(sysfs.DevFreqGovernor); err == nil && gov != platform.GovUserspace {
			if werr := dev.WriteFile(sysfs.DevFreqGovernor, platform.GovUserspace); werr == nil {
				c.health.GovernorReinstalls++
			} else {
				ok = false
			}
		}
	}
	return ok
}

// gate validates one cycle measurement before it reaches the Kalman
// update: non-finite values, stuck counters (StuckWindow bit-identical
// readings in a row) and >kσ innovation outliers are rejected; the
// regulator then falls back to the prior estimate for the cycle.
func (c *Controller) gate(y, z float64) bool {
	if c.res.Disabled {
		return true
	}
	if math.IsNaN(z) || math.IsInf(z, 0) {
		c.health.NonFiniteSamples++
		c.health.RejectedSamples++
		c.gateCause = "non-finite"
		return false
	}
	stuck := len(c.recentY) >= c.res.StuckWindow-1
	for _, prev := range c.recentY {
		if prev != y {
			stuck = false
			break
		}
	}
	c.pushRecentY(y)
	if stuck {
		c.health.StuckSamples++
		c.health.RejectedSamples++
		c.gateCause = "stuck"
		return false
	}
	if est, err := c.kf.Estimate(); err == nil {
		band := c.res.OutlierSigma * math.Sqrt(c.kf.Variance()+c.kf.MeasurementVariance())
		if math.Abs(z-est) > band && c.outlierRun < c.res.OutlierPersistence {
			c.outlierRun++
			c.health.OutlierSamples++
			c.health.RejectedSamples++
			c.gateCause = "outlier"
			return false
		}
	}
	c.outlierRun = 0
	return true
}

// pushRecentY records a raw measurement in the stuck-detection ring.
// Once the window is full the oldest entry is overwritten in place — the
// stuck scan is an order-independent equality sweep, so rotation is
// invisible to it and the steady state allocates nothing.
func (c *Controller) pushRecentY(y float64) {
	n := c.res.StuckWindow - 1
	if n <= 0 {
		c.recentY = append(c.recentY, y)
		return
	}
	if len(c.recentY) < n {
		c.recentY = append(c.recentY, y)
		return
	}
	c.recentY[c.recentYPos] = y
	c.recentYPos = (c.recentYPos + 1) % n
}

// watchdog consumes one cycle's health verdict and walks the degradation
// ladder. It returns true when the controller should skip the optimizer
// because it is degraded or has relinquished control.
func (c *Controller) watchdog(dev platform.Device, failing bool) bool {
	if c.res.Disabled {
		return false
	}
	if failing {
		c.health.ConsecutiveFailures++
	} else {
		c.health.ConsecutiveFailures = 0
		if c.degraded {
			// The fault cleared: resume closed-loop control.
			c.degraded = false
			c.ladderTransition(dev, "recovered")
		}
	}
	if c.health.ConsecutiveFailures >= c.res.RelinquishAfter {
		c.relinquish(dev)
		return true
	}
	if !c.degraded && c.health.ConsecutiveFailures >= c.res.DegradeAfter {
		c.degraded = true
		c.health.WatchdogTrips++
		c.ladderTransition(dev, "degraded")
	}
	if c.degraded {
		c.health.DegradedCycles++
		alloc := c.safeAllocation()
		c.lastAlloc = alloc
		c.fillSlots(alloc)
		if c.opt.Trace {
			c.emitSpan(dev, obs.StageSchedule, append(c.spanAttrs[:0],
				obs.Bool("safe", true),
				obs.Int("safe_freq_idx", alloc.Low.FreqIdx),
				obs.Int("safe_bw_idx", alloc.Low.BWIdx),
			))
		}
		return true
	}
	return false
}

// ladderTransition records a degradation-ladder transition in both
// observation surfaces at once: the health ledger's LastTransition field
// (which aggregate consumers — the run summary, the fleet rollup — read)
// and, when tracing, a ladder event span in the decision trace.
func (c *Controller) ladderTransition(dev platform.Device, name string) {
	c.health.LastTransition = fmt.Sprintf("%s@%d", name, c.cyclesRun)
	if c.opt.Trace {
		c.emitSpan(dev, obs.StageLadder, append(c.spanAttrs[:0],
			obs.String("transition", name),
			obs.Int("consecutive_failures", c.health.ConsecutiveFailures),
			obs.Int("watchdog_trips", c.health.WatchdogTrips),
		))
	}
}

// safeAllocation pins the whole cycle at the mid-ladder entry — a
// configuration every workload tolerates: roughly default-governor
// performance without the top-of-ladder power.
func (c *Controller) safeAllocation() Allocation {
	e := c.entries[len(c.entries)/2]
	return Allocation{
		Low: e, High: e,
		TauLow:          c.opt.CycleT,
		ExpectedSpeedup: e.Speedup,
	}
}

// relinquish is the ladder's last rung: restore the stock governors
// (best effort — the writes themselves may be failing) and stop
// actuating for good. Registered stock governor actors take over from
// the governor files; without them the device keeps its last state.
func (c *Controller) relinquish(dev platform.Device) {
	if c.health.Relinquished {
		return
	}
	c.health.Relinquished = true
	c.health.WatchdogTrips++
	c.ladderTransition(dev, "relinquished")
	cpuGov := c.stockCPUGov
	if cpuGov == "" {
		cpuGov = platform.GovInteractive
	}
	_ = dev.WriteFile(sysfs.CPUScalingGovernor, cpuGov)
	if c.installedMaxFreq != "" {
		_ = dev.WriteFile(sysfs.CPUScalingMaxFreq, c.installedMaxFreq)
	}
	if !c.opt.CPUOnly {
		bwGov := c.stockBWGov
		if bwGov == "" {
			bwGov = platform.GovCPUBWHwmon
		}
		_ = dev.WriteFile(sysfs.DevFreqGovernor, bwGov)
	}
}

// recordInstallState snapshots the pre-install governor names and the
// max-freq bound, so hijack repair knows the legitimate values and
// relinquish knows what to hand back to.
func (c *Controller) recordInstallState(dev platform.Device) {
	if gov, err := dev.ReadFile(sysfs.CPUScalingGovernor); err == nil && gov != platform.GovUserspace {
		c.stockCPUGov = gov
	}
	if gov, err := dev.ReadFile(sysfs.DevFreqGovernor); err == nil && gov != platform.GovUserspace {
		c.stockBWGov = gov
	}
	if mf, err := dev.ReadFile(sysfs.CPUScalingMaxFreq); err == nil {
		c.installedMaxFreq = mf
	}
}

// Degraded reports whether the watchdog currently pins the safe
// configuration.
func (c *Controller) Degraded() bool { return c.degraded }
