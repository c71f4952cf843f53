package core

import (
	"fmt"
	"math"
)

// PhaseTracker addresses the paper's §V-B second problem class:
// applications with rapidly varying phases (MobileBench's page-load /
// scroll alternation), where a single integrator state chases the phase
// transitions instead of the load. Following the phase-classification
// direction the paper cites ([23] Isci et al., [24] Lau et al.), the
// tracker clusters control cycles online by their measured performance
// signature and keeps an independent regulator state per phase: when the
// app re-enters a known phase, the controller resumes from that phase's
// converged speedup instead of re-learning it.
type PhaseTracker struct {
	maxPhases int
	joinTol   float64 // relative distance to join an existing cluster
	ewma      float64 // centroid adaptation rate

	st trackerState // the dynamic state a checkpoint carries
}

// trackerState is the tracker's dynamic state: the tracker holds it and
// the controller's checkpoint carries it.
type trackerState struct {
	Phases  []phaseState `json:"phases"`
	Current int          `json:"current"`
}

type phaseState struct {
	Centroid float64 `json:"centroid"` // typical measured GIPS of the phase
	Visits   int     `json:"visits"`
	S        float64 `json:"s"` // per-phase integrator state
	HasS     bool    `json:"has_s"`
}

// NewPhaseTracker creates a tracker holding at most maxPhases clusters;
// cycles whose measurement is within joinTol (relative) of a centroid
// join that cluster.
func NewPhaseTracker(maxPhases int, joinTol float64) (*PhaseTracker, error) {
	if maxPhases < 1 {
		return nil, fmt.Errorf("core: maxPhases %d invalid", maxPhases)
	}
	if joinTol <= 0 || joinTol >= 1 {
		return nil, fmt.Errorf("core: joinTol %v outside (0,1)", joinTol)
	}
	return &PhaseTracker{maxPhases: maxPhases, joinTol: joinTol, ewma: 0.2}, nil
}

// Classify assigns the measurement to a phase (creating one if the
// signature is new and capacity remains), updates the centroid, and
// returns the phase index.
func (pt *PhaseTracker) Classify(y float64) int {
	if y <= 0 || math.IsNaN(y) || math.IsInf(y, 0) {
		return pt.st.Current
	}
	best, bestDist := -1, math.Inf(1)
	for i, p := range pt.st.Phases {
		d := math.Abs(y-p.Centroid) / p.Centroid
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	switch {
	case best >= 0 && bestDist <= pt.joinTol:
		// Existing phase: adapt the centroid.
		pt.st.Phases[best].Centroid += pt.ewma * (y - pt.st.Phases[best].Centroid)
		pt.st.Phases[best].Visits++
		pt.st.Current = best
	case len(pt.st.Phases) < pt.maxPhases:
		pt.st.Phases = append(pt.st.Phases, phaseState{Centroid: y, Visits: 1})
		pt.st.Current = len(pt.st.Phases) - 1
	case best >= 0:
		// Full: absorb into the nearest cluster. A restored tracker can
		// hold centroids no measurement is a finite distance from (zero,
		// or small enough to overflow it); then the phase stays as is.
		pt.st.Phases[best].Centroid += pt.ewma * (y - pt.st.Phases[best].Centroid)
		pt.st.Phases[best].Visits++
		pt.st.Current = best
	}
	return pt.st.Current
}

// Load returns the stored integrator state for the current phase; ok is
// false on first visit.
func (pt *PhaseTracker) Load() (s float64, ok bool) {
	if len(pt.st.Phases) == 0 {
		return 0, false
	}
	p := pt.st.Phases[pt.st.Current]
	return p.S, p.HasS
}

// Store saves the integrator state into the current phase.
func (pt *PhaseTracker) Store(s float64) {
	if len(pt.st.Phases) == 0 {
		return
	}
	pt.st.Phases[pt.st.Current].S = s
	pt.st.Phases[pt.st.Current].HasS = true
}

// Phases returns how many distinct phases have been observed.
func (pt *PhaseTracker) Phases() int { return len(pt.st.Phases) }

// Current returns the index of the active phase.
func (pt *PhaseTracker) Current() int { return pt.st.Current }

// Centroid returns the typical measured performance of phase i.
func (pt *PhaseTracker) Centroid(i int) float64 {
	if i < 0 || i >= len(pt.st.Phases) {
		return 0
	}
	return pt.st.Phases[i].Centroid
}
