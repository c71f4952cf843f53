package platform

import (
	"strconv"
	"strings"
	"testing"

	"aspeo/internal/soc"
	"aspeo/internal/sysfs"
)

// TestKernelInitCheap holds one device tree to a budget of 16
// allocations: the ladder values are substrings of one text and the
// tree's nodes share one backing array, so Init allocates per tree, not
// per file or per ladder step.
func TestKernelInitCheap(t *testing.T) {
	chip := soc.Nexus6()
	var k Kernel
	allocs := testing.AllocsPerRun(20, func() { k.Init(chip, nil) })
	t.Logf("Kernel.Init: %.0f allocations", allocs)
	if allocs > 16 {
		t.Fatalf("Kernel.Init makes %.0f allocations; budget 16", allocs)
	}
}

// TestKernelLadderFiles: the ladder lists, the initial and bound values
// and the cur_freq reads are the kHz and MBps integers of the chip's
// ladders.
func TestKernelLadderFiles(t *testing.T) {
	chip := soc.Nexus6()
	var k Kernel
	k.Init(chip, nil)
	var freqs, bws strings.Builder
	for i := range chip.CPUFreqs {
		freqs.WriteString(strconv.Itoa(chip.Freq(i).KHz()) + " ")
	}
	for i := range chip.MemBWs {
		bws.WriteString(strconv.Itoa(int(chip.BW(i).MBps())) + " ")
	}
	top, topBW := len(chip.CPUFreqs)-1, len(chip.MemBWs)-1
	want := map[string]string{
		sysfs.CPUAvailableFreqs:  freqs.String(),
		sysfs.CPUScalingSetSpeed: strconv.Itoa(chip.Freq(0).KHz()),
		sysfs.CPUScalingMinFreq:  strconv.Itoa(chip.Freq(0).KHz()),
		sysfs.CPUScalingMaxFreq:  strconv.Itoa(chip.Freq(top).KHz()),
		sysfs.CPUScalingCurFreq:  strconv.Itoa(chip.Freq(0).KHz()),
		sysfs.DevFreqAvailFreqs:  bws.String(),
		sysfs.DevFreqSetFreq:     strconv.Itoa(int(chip.BW(0).MBps())),
		sysfs.DevFreqMinFreq:     strconv.Itoa(int(chip.BW(0).MBps())),
		sysfs.DevFreqMaxFreq:     strconv.Itoa(int(chip.BW(topBW).MBps())),
		sysfs.DevFreqCurFreq:     strconv.Itoa(int(chip.BW(0).MBps())),
	}
	for path, v := range want {
		if got, err := k.ReadFile(path); err != nil || got != v {
			t.Errorf("%s = %q (%v), want %q", path, got, err, v)
		}
	}
	k.SetFreqIdx(top)
	k.SetBWIdx(5)
	for path, v := range map[string]string{
		sysfs.CPUScalingCurFreq: strconv.Itoa(chip.Freq(top).KHz()),
		sysfs.CPUInfoCurFreq:    strconv.Itoa(chip.Freq(top).KHz()),
		sysfs.DevFreqCurFreq:    strconv.Itoa(int(chip.BW(5).MBps())),
	} {
		if got, err := k.ReadFile(path); err != nil || got != v {
			t.Errorf("after a transition %s = %q (%v), want %q", path, got, err, v)
		}
	}
}
