package pipeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"aspeo/internal/platform"
)

// StreamBatch is one epoch's drained records, the NDJSON telemetry
// stream's line unit: everything an offline consumer needs to rebuild
// the rollup through the same fold code (aspeo-trace rollup does
// exactly that). Cohorts travel by name — the intern table is
// process-local.
type StreamBatch struct {
	Epoch    uint64          `json:"epoch"`
	Arrivals []StreamArrival `json:"arrivals,omitempty"`
	Cycles   []StreamCycle   `json:"cycles,omitempty"`
	Finals   []StreamFinal   `json:"finals,omitempty"`
}

func (b *StreamBatch) empty() bool {
	return len(b.Arrivals) == 0 && len(b.Cycles) == 0 && len(b.Finals) == 0
}

// StreamArrival is one session arrival.
type StreamArrival struct {
	Cohort string  `json:"cohort"`
	T      float64 `json:"t_s"`
}

// StreamCycle is one cycle record with the cohort resolved to its name.
type StreamCycle struct {
	Session      uint64                 `json:"session"`
	Cohort       string                 `json:"cohort"`
	T            float64                `json:"t_s"`
	MeasuredGIPS float64                `json:"measured_gips"`
	TargetGIPS   float64                `json:"target_gips,omitempty"`
	PowerW       float64                `json:"power_w"`
	Storm        bool                   `json:"storm,omitempty"`
	Health       *platform.HealthCounts `json:"health,omitempty"`
}

// StreamFinal is one terminal-session record with the cohort resolved.
type StreamFinal struct {
	Session        uint64                 `json:"session"`
	Cohort         string                 `json:"cohort"`
	HasSummary     bool                   `json:"has_summary"`
	Controller     bool                   `json:"controller,omitempty"`
	DurationS      float64                `json:"duration_s,omitempty"`
	EnergyJ        float64                `json:"energy_j,omitempty"`
	DroppedInstr   float64                `json:"dropped_instr,omitempty"`
	GIPS           float64                `json:"gips,omitempty"`
	MeanAbsErrGIPS float64                `json:"mean_abs_err_gips,omitempty"`
	Health         *platform.HealthCounts `json:"health,omitempty"`
	Relinquished   bool                   `json:"relinquished,omitempty"`
	LastTransition string                 `json:"last_transition,omitempty"`
}

// append moves a shard's pending records into the batch, resolving
// cohort names. Callers hold the shard's mutex.
func (b *StreamBatch) append(p *Pipeline, sh *shard) {
	names := p.cohortNames()
	name := func(id uint32) string {
		if int(id) < len(names) {
			return names[id]
		}
		return fmt.Sprintf("cohort-%d", id)
	}
	for _, ar := range sh.pendArrivals {
		b.Arrivals = append(b.Arrivals, StreamArrival{Cohort: name(ar.cohort), T: ar.t})
	}
	for i := range sh.pendCycles {
		rec := &sh.pendCycles[i]
		sc := StreamCycle{
			Session: rec.Session, Cohort: name(rec.Cohort), T: rec.T,
			MeasuredGIPS: rec.MeasuredGIPS, TargetGIPS: rec.TargetGIPS,
			PowerW: rec.PowerW, Storm: rec.Storm,
		}
		if rec.Health != (platform.HealthCounts{}) {
			h := rec.Health
			sc.Health = &h
		}
		b.Cycles = append(b.Cycles, sc)
	}
	for i := range sh.pendFinals {
		fin := &sh.pendFinals[i]
		sf := StreamFinal{
			Session: fin.Session, Cohort: name(fin.Cohort),
			HasSummary: fin.HasSummary, Controller: fin.Controller,
			DurationS: fin.DurationS, EnergyJ: fin.EnergyJ,
			DroppedInstr: fin.DroppedInstr, GIPS: fin.GIPS,
			MeanAbsErrGIPS: fin.MeanAbsErrGIPS,
			Relinquished:   fin.Relinquished, LastTransition: fin.LastTransition,
		}
		if fin.Health != (platform.HealthCounts{}) {
			h := fin.Health
			sf.Health = &h
		}
		b.Finals = append(b.Finals, sf)
	}
}

// WriteNDJSON writes batches as NDJSON, one batch per line.
func WriteNDJSON(w io.Writer, batches []StreamBatch) error {
	enc := json.NewEncoder(w)
	for i := range batches {
		if err := enc.Encode(&batches[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadNDJSON reads a captured batch stream (blank lines skipped).
func ReadNDJSON(r io.Reader) ([]StreamBatch, error) {
	var out []StreamBatch
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var b StreamBatch
		if err := json.Unmarshal(raw, &b); err != nil {
			return nil, fmt.Errorf("pipeline: stream line %d: %w", line, err)
		}
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Aggregate replays a captured batch stream through a fresh one-worker
// pipeline and returns its rollup — the offline counterpart of the live
// path, sharing the same fold and analyzer code, so an offline rollup
// of a complete stream matches the live rollup of the same records.
func Aggregate(batches []StreamBatch, o Options) *Rollup {
	o.Workers = 1
	p := New(o)
	for bi := range batches {
		b := &batches[bi]
		for _, ar := range b.Arrivals {
			p.ObserveArrival(0, p.CohortID(ar.Cohort), ar.T)
		}
		for i := range b.Cycles {
			c := &b.Cycles[i]
			rec := CycleRecord{
				Session: c.Session, Cohort: p.CohortID(c.Cohort), T: c.T,
				MeasuredGIPS: c.MeasuredGIPS, TargetGIPS: c.TargetGIPS,
				PowerW: c.PowerW, Storm: c.Storm,
			}
			if c.Health != nil {
				rec.Health = *c.Health
			}
			p.ObserveCycle(0, &rec)
		}
		for i := range b.Finals {
			f := &b.Finals[i]
			fin := FinalRecord{
				Session: f.Session, Cohort: p.CohortID(f.Cohort),
				HasSummary: f.HasSummary, Controller: f.Controller,
				DurationS: f.DurationS, EnergyJ: f.EnergyJ,
				DroppedInstr: f.DroppedInstr, GIPS: f.GIPS,
				MeanAbsErrGIPS: f.MeanAbsErrGIPS,
				Relinquished:   f.Relinquished, LastTransition: f.LastTransition,
			}
			if f.Health != nil {
				fin.Health = *f.Health
			}
			p.ObserveFinal(0, &fin)
		}
	}
	return p.Rollup()
}
