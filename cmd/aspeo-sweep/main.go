// Command aspeo-sweep measures an application exhaustively across the
// full 18×13 configuration space (or a sub-grid) and emits a CSV of
// GIPS and power per configuration — the ground truth against which the
// paper's sparse-profiling + interpolation scheme can be judged.
//
// Usage:
//
//	aspeo-sweep -app angrybirds -stride-f 2 -stride-bw 3 > sweep.csv
//	aspeo-sweep -app ebook -workers 8 > sweep.csv
//
// Grid cells are independent simulations and fan out over a worker pool
// (default: one worker per CPU); rows are emitted in ladder order
// regardless of which worker measured them, so output is bit-identical
// to a serial sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aspeo/internal/par"
	"aspeo/internal/profile"
	"aspeo/internal/soc"
	"aspeo/internal/workload"
)

func main() {
	var (
		app      = flag.String("app", "", "application: "+strings.Join(workload.Names(), ", "))
		load     = flag.String("load", "BL", "background load: NL, BL or HL")
		strideF  = flag.Int("stride-f", 1, "frequency ladder stride")
		strideBW = flag.Int("stride-bw", 1, "bandwidth ladder stride")
		window   = flag.Duration("window", 16*time.Second, "measurement window per configuration")
		warmup   = flag.Duration("warmup", 2*time.Second, "settling time per configuration")
		seed     = flag.Int64("seed", 11, "simulation seed")
		workers  = flag.Int("workers", 0, "sweep worker pool size (0 = one per CPU, 1 = serial; output identical)")
	)
	flag.Parse()

	spec, err := workload.ByName(*app)
	if err != nil {
		fatal("%v", err)
	}
	bg, err := workload.ParseBGLoad(*load)
	if err != nil {
		fatal("%v", err)
	}
	if *strideF < 1 || *strideBW < 1 {
		fatal("strides must be >= 1")
	}

	// Enumerate the grid up front, fan the cells out (one Phone per
	// goroutine), and print rows in grid order.
	chip := soc.Nexus6()
	type cell struct{ fi, bi int }
	var cells []cell
	for fi := 0; fi < len(chip.CPUFreqs); fi += *strideF {
		for bi := 0; bi < len(chip.MemBWs); bi += *strideBW {
			cells = append(cells, cell{fi: fi, bi: bi})
		}
	}
	// Each cell is measured exactly as the profiler measures its anchors,
	// so a sweep row and a measured profile entry agree at equal seed,
	// warm-up and window.
	opt := profile.Options{Load: bg, Warmup: *warmup, Window: *window}
	type row struct{ gips, powerW float64 }
	rows, err := par.Map(context.Background(), par.Workers(*workers), len(cells),
		func(_ context.Context, i int) (row, error) {
			g, p, err := profile.Measure(spec, opt, cells[i].fi, cells[i].bi, *seed)
			return row{gips: g, powerW: p}, err
		})
	if err != nil {
		fatal("%v", err)
	}

	fmt.Println("freq_idx,freq_ghz,bw_idx,bw_mbps,gips,power_w")
	for i, c := range cells {
		fmt.Printf("%d,%.4f,%d,%.0f,%.4f,%.4f\n",
			c.fi+1, chip.Freq(c.fi).GHz(), c.bi+1, chip.BW(c.bi).MBps(),
			rows[i].gips, rows[i].powerW)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aspeo-sweep: "+format+"\n", args...)
	os.Exit(1)
}
