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

// The controller's fault-handling ladder. On a real device neither I/O
// surface the controller depends on is trustworthy: sysfs stores fail
// transiently, OEM daemons rewrite the governor files mid-run, and
// PMU-derived readings drop, spike or stick. The ladder escalates —
// retry failed actuations, reinstall a hijacked governor (checked every
// control cycle), degrade to a safe mid-ladder configuration, and
// finally relinquish control to the stock governors — while Health
// exposes every step taken. Options.Unhardened turns it off. Its
// thresholds:
const (
	// maxRetriesPerCycle bounds actuation retries across the quanta of
	// one control cycle.
	maxRetriesPerCycle = 3
	// outlierSigma is the measurement gate width: a normalized
	// measurement farther than outlierSigma·sqrt(P+R) from the Kalman
	// estimate is rejected instead of fed into the update. It is wide
	// (10σ) because genuine workload phase transitions reach 5–8σ and
	// must pass untouched, while injected counter faults are far more
	// extreme (a zeroed reading is ~18σ, a multiplexing spike ~50σ).
	outlierSigma = 10
	// outlierPersistence accepts a measurement after this many
	// consecutive outlier rejections: isolated spikes are glitches, but
	// a persistent excursion is a genuine level shift (a workload phase
	// change) the filter must re-converge to. Must not exceed
	// degradeAfter or real phase shifts trip the watchdog.
	outlierPersistence = 2
	// stuckWindow rejects a measurement after this many bit-identical
	// consecutive values (a stuck counter; genuine readings carry
	// continuous noise).
	stuckWindow = 3
	// degradeAfter is the watchdog threshold: this many consecutive
	// failing cycles switch the schedule to the safe configuration.
	degradeAfter = 3
	// relinquishAfter consecutive failing cycles hand the device back
	// to the stock governors and stop actuating.
	relinquishAfter = 8
)

// Health is the controller's self-diagnostics: what the fault ladder
// observed and did. The report layer prints it and the resilience tests
// match it against the injector's delivered-fault counts. The definition
// lives in platform, beside the counters the fleet sums; the alias keeps
// core's consumers reading naturally.
type Health = platform.Health

// Health returns a snapshot of the controller's fault diagnostics.
func (c *Controller) Health() Health { return c.st.Health }

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
	c.st.Health.ActuationFailures++
	if c.opt.Unhardened {
		return false
	}
	for c.st.RetriesLeft > 0 {
		c.st.RetriesLeft--
		c.st.Health.ActuationRetries++
		if err = c.apply(dev, e); err == nil {
			return true
		}
		c.st.Health.ActuationFailures++
	}
	return false
}

// checkOwnership verifies the controller still owns the DVFS policy
// files and repairs hijacks: a rewritten scaling_governor is switched
// back to userspace, a clamped scaling_max_freq is restored to its
// installed value. It reports false when a repair attempt failed.
func (c *Controller) checkOwnership(dev platform.Device) bool {
	if c.opt.Unhardened || !c.st.Attached {
		return true
	}
	ok := true
	if gov, err := dev.ReadFile(sysfs.CPUScalingGovernor); err == nil && gov != platform.GovUserspace {
		if werr := dev.WriteFile(sysfs.CPUScalingGovernor, platform.GovUserspace); werr == nil {
			c.st.Health.GovernorReinstalls++
		} else {
			ok = false
		}
	}
	if c.st.InstalledMaxFreq != "" {
		if mf, err := dev.ReadFile(sysfs.CPUScalingMaxFreq); err == nil && mf != c.st.InstalledMaxFreq {
			if werr := dev.WriteFile(sysfs.CPUScalingMaxFreq, c.st.InstalledMaxFreq); werr == nil {
				c.st.Health.MaxFreqRestores++
			} else {
				ok = false
			}
		}
	}
	if !c.opt.CPUOnly {
		if gov, err := dev.ReadFile(sysfs.DevFreqGovernor); err == nil && gov != platform.GovUserspace {
			if werr := dev.WriteFile(sysfs.DevFreqGovernor, platform.GovUserspace); werr == nil {
				c.st.Health.GovernorReinstalls++
			} else {
				ok = false
			}
		}
	}
	return ok
}

// gate validates one cycle measurement before it reaches the Kalman
// update: non-finite values, stuck counters (stuckWindow bit-identical
// readings in a row) and >kσ innovation outliers are rejected; the
// regulator then falls back to the prior estimate for the cycle.
func (c *Controller) gate(y, z float64) bool {
	if c.opt.Unhardened {
		return true
	}
	if math.IsNaN(z) || math.IsInf(z, 0) {
		c.st.Health.NonFiniteSamples++
		c.st.Health.RejectedSamples++
		c.st.GateCause = "non-finite"
		return false
	}
	stuck := len(c.st.RecentY) >= stuckWindow-1
	for _, prev := range c.st.RecentY {
		if prev != y {
			stuck = false
			break
		}
	}
	c.pushRecentY(y)
	if stuck {
		c.st.Health.StuckSamples++
		c.st.Health.RejectedSamples++
		c.st.GateCause = "stuck"
		return false
	}
	if est, err := c.kf.Estimate(); err == nil {
		band := outlierSigma * math.Sqrt(c.kf.Variance()+c.kf.MeasurementVariance())
		if math.Abs(z-est) > band && c.st.OutlierRun < outlierPersistence {
			c.st.OutlierRun++
			c.st.Health.OutlierSamples++
			c.st.Health.RejectedSamples++
			c.st.GateCause = "outlier"
			return false
		}
	}
	c.st.OutlierRun = 0
	return true
}

// pushRecentY records a raw measurement in the stuck-detection ring.
// Once the window is full the oldest entry is overwritten in place — the
// stuck scan is an order-independent equality sweep, so rotation is
// invisible to it and the steady state allocates nothing.
func (c *Controller) pushRecentY(y float64) {
	if len(c.st.RecentY) < stuckWindow-1 {
		c.st.RecentY = append(c.st.RecentY, y)
		return
	}
	c.st.RecentY[c.st.RecentYPos] = y
	c.st.RecentYPos = (c.st.RecentYPos + 1) % (stuckWindow - 1)
}

// watchdog consumes one cycle's health verdict and walks the degradation
// ladder. It returns true when the controller should skip the optimizer
// because it is degraded or has relinquished control.
func (c *Controller) watchdog(dev platform.Device, failing bool) bool {
	if c.opt.Unhardened {
		return false
	}
	if failing {
		c.st.Health.ConsecutiveFailures++
	} else {
		c.st.Health.ConsecutiveFailures = 0
		if c.st.Degraded {
			// The fault cleared: resume closed-loop control.
			c.st.Degraded = false
			c.ladderTransition(dev, "recovered")
		}
	}
	if c.st.Health.ConsecutiveFailures >= relinquishAfter {
		c.relinquish(dev)
		return true
	}
	if !c.st.Degraded && c.st.Health.ConsecutiveFailures >= degradeAfter {
		c.st.Degraded = true
		c.st.Health.WatchdogTrips++
		c.ladderTransition(dev, "degraded")
	}
	if c.st.Degraded {
		c.st.Health.DegradedCycles++
		alloc := c.safeAllocation()
		c.st.LastAlloc = alloc
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
	c.st.Health.LastTransition = fmt.Sprintf("%s@%d", name, c.st.CyclesRun)
	if c.opt.Trace {
		c.emitSpan(dev, obs.StageLadder, append(c.spanAttrs[:0],
			obs.String("transition", name),
			obs.Int("consecutive_failures", c.st.Health.ConsecutiveFailures),
			obs.Int("watchdog_trips", c.st.Health.WatchdogTrips),
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
	if c.st.Health.Relinquished {
		return
	}
	c.st.Health.Relinquished = true
	c.st.Health.WatchdogTrips++
	c.ladderTransition(dev, "relinquished")
	cpuGov := c.st.StockCPUGov
	if cpuGov == "" {
		cpuGov = platform.GovInteractive
	}
	_ = dev.WriteFile(sysfs.CPUScalingGovernor, cpuGov)
	if c.st.InstalledMaxFreq != "" {
		_ = dev.WriteFile(sysfs.CPUScalingMaxFreq, c.st.InstalledMaxFreq)
	}
	if !c.opt.CPUOnly {
		bwGov := c.st.StockBWGov
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
		c.st.StockCPUGov = gov
	}
	if gov, err := dev.ReadFile(sysfs.DevFreqGovernor); err == nil && gov != platform.GovUserspace {
		c.st.StockBWGov = gov
	}
	if mf, err := dev.ReadFile(sysfs.CPUScalingMaxFreq); err == nil {
		c.st.InstalledMaxFreq = mf
	}
}

// Degraded reports whether the watchdog currently pins the safe
// configuration.
func (c *Controller) Degraded() bool { return c.st.Degraded }
