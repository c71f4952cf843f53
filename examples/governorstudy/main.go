// Governorstudy: run one application under every stock cpufreq governor
// and under the energy controller, comparing energy and performance —
// the motivation experiment behind the paper's §II-C.
package main

import (
	"fmt"
	"log"
	"time"

	"aspeo/internal/core"
	"aspeo/internal/experiment"
	"aspeo/internal/platform"
	"aspeo/internal/profile"
	"aspeo/internal/workload"
)

func main() {
	spec := workload.WeChat()

	govs := []string{platform.GovInteractive, platform.GovOndemand, platform.GovPerformance, platform.GovPowersave}
	fmt.Printf("%-14s %10s %10s %10s %8s\n", "policy", "energy (J)", "power (W)", "GIPS", "dropped")

	var defaultGIPS float64
	for _, g := range govs {
		sess, err := experiment.NewSession(experiment.SessionSpec{
			App: spec.Name, Load: workload.BaselineLoad.String(), Governor: g, Seed: 101,
		})
		if err != nil {
			log.Fatal(err)
		}
		st := sess.Run(nil)
		fmt.Printf("%-14s %10.1f %10.3f %10.4f %8.2g\n", g, st.EnergyJ, st.AvgPowerW, st.GIPS, st.DroppedInstr)
		if g == platform.GovInteractive {
			defaultGIPS = st.GIPS
		}
	}

	// The controller, targeting the interactive governor's performance.
	opts := profile.Options{
		Load: workload.BaselineLoad, Mode: profile.Coordinated,
		Seeds: []int64{11}, Warmup: 2 * time.Second, Window: 16 * time.Second,
	}
	tab, err := profile.Run(spec, opts)
	if err != nil {
		log.Fatal(err)
	}
	h, err := experiment.NewHarness(experiment.HarnessConfig{
		Foreground: spec, Load: workload.BaselineLoad, Seed: 101,
		Install: func(r platform.Runner) error {
			co := core.DefaultOptions(tab, defaultGIPS)
			co.Seed = 101
			ctl, err := core.New(co)
			if err != nil {
				return err
			}
			return ctl.Install(r)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	st := h.RunSession()
	fmt.Printf("%-14s %10.1f %10.3f %10.4f %8.2g\n", "aspeo", st.EnergyJ, st.AvgPowerW, st.GIPS, st.DroppedInstr)

	fmt.Println("\nNote the motivation pattern (§II-C): `performance` burns the most")
	fmt.Println("energy, `powersave` destroys performance (dropped work), and the")
	fmt.Println("default `interactive` sits in between but still above the")
	fmt.Println("application-specific controller at equal delivered performance.")
}
