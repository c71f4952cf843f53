package workload

import (
	"time"

	"aspeo/internal/perfmodel"
)

// Additional library workloads beyond the paper's six evaluated apps.
// They exercise characteristic mixes the paper's scope discussion calls
// out — sustained navigation, camera capture, adaptive streaming — and
// give downstream users ready-made models for controller studies.
const (
	NameMaps        = "maps"
	NameCamera      = "camera"
	NameVideoStream = "videostream"
	NameSpotifyIdle = "spotify-idle"
	NameEBookIdle   = "ebook-idle"
)

// Maps models turn-by-turn navigation: continuous tile rendering and
// position tracking with a route-recalculation burst every few minutes,
// GPS radio always on. CPU demand is moderate and steady — the paper's
// "first type" of unsuitable app is nearby (network-dominated), but the
// render loop still leaves DVFS room.
func Maps() *Spec {
	render := perfmodel.Traits{CPI: 2.4, BPI: 2.2, Par: 1.4, Overlap: 0.05}
	reroute := perfmodel.Traits{CPI: 1.8, BPI: 1.2, Par: 2.0, Overlap: 0.10}
	return &Spec{
		Name: NameMaps,
		Phases: []Phase{
			{
				Name: "navigate", Kind: Paced, Traits: render,
				Duration: 45 * time.Second, DemandGIPS: 0.26,
				DemandJitter: 0.15, JitterPeriod: 100 * time.Millisecond,
				BacklogSec:  0.8,
				AuxBaseW:    0.35, // GPS + cell radio
				AuxWPerGIPS: 0.9,  // map tile rendering on the GPU
				NetBps:      60e3,
			},
			{
				// Route recalculation: a burst of graph search that must
				// finish within a few seconds.
				Name: "reroute", Kind: Batch, Traits: reroute,
				InstrBudget: 1.8e9, Duration: 4 * time.Second,
				AuxBaseW: 0.35, NetBps: 250e3,
			},
		},
		Loop:            true,
		RunFor:          180 * time.Second,
		ProfileFreqIdxs: evens(3, 15),
	}
}

// Camera models 1080p video recording: a hard real-time encode pipeline
// with ISP and sensor power that DVFS cannot touch, like WeChat but
// heavier. Frequencies 1–2 are excluded (encoder starves).
func Camera() *Spec {
	encode := perfmodel.Traits{CPI: 1.9, BPI: 1.1, Par: 2.2, Overlap: 0.05}
	return &Spec{
		Name: NameCamera,
		Phases: []Phase{
			{
				Name: "record-1080p", Kind: Paced, Traits: encode,
				Duration: 120 * time.Second, DemandGIPS: 0.72,
				DemandJitter: 0.30, JitterPeriod: 60 * time.Millisecond,
				BacklogSec: 0.2,
				AuxBaseW:   0.85, // sensor + ISP + preview display path
				TouchRate:  0.05,
			},
		},
		Loop:             true,
		LoopCount:        1,
		RunFor:           120 * time.Second,
		DeadlineCritical: true,
		ProfileFreqIdxs:  evens(3, 18),
	}
}

// VideoStream models adaptive web video (software decode, unlike MX
// Player's hardware path): steady decode demand with periodic segment
// downloads and an occasional quality switch that re-primes the decoder.
func VideoStream() *Spec {
	decode := perfmodel.Traits{CPI: 2.1, BPI: 1.8, Par: 1.8, Overlap: 0.05}
	fetch := perfmodel.Traits{CPI: 2.3, BPI: 1.4, Par: 1.0, Overlap: 0.05}
	return &Spec{
		Name: NameVideoStream,
		Phases: []Phase{
			{
				Name: "decode", Kind: Paced, Traits: decode,
				Duration: 9 * time.Second, DemandGIPS: 0.45,
				DemandJitter: 0.35, JitterPeriod: 60 * time.Millisecond,
				BacklogSec:  1.0, // the player buffers seconds of frames
				AuxWPerGIPS: 0.5,
			},
			{
				// Segment download + demux: a windowed batch racing the
				// buffer.
				Name: "segment-fetch", Kind: Batch, Traits: fetch,
				InstrBudget: 0.6e9, Duration: 3 * time.Second,
				NetBps: 2.5e6,
			},
		},
		Loop:            true,
		RunFor:          150 * time.Second,
		ProfileFreqIdxs: evens(3, 15),
	}
}

// SpotifyIdle models screen-off audio playback over a full hour: the
// steady decode demand of Spotify's stream phase with no buffer-refill
// jitter (σ = 0) and no song-change bursts. The demand trace is exactly
// periodic, which is the idle-dominated regime where the event
// engine's closed-form spans pay off: a whole controller quantum folds
// into one O(log k) accumulator jump instead of k fused steps.
func SpotifyIdle() *Spec {
	steady := perfmodel.Traits{CPI: 2.2, BPI: 1.2, Par: 1.0, Overlap: 0.05}
	return &Spec{
		Name: NameSpotifyIdle,
		Phases: []Phase{
			{
				Name: "stream-idle", Kind: Paced, Traits: steady,
				Duration: 3600 * time.Second, DemandGIPS: 0.075,
				BacklogSec: 2.0, AuxBaseW: 0.12,
			},
		},
		Loop:            true,
		RunFor:          3600 * time.Second,
		ProfileFreqIdxs: []int{0, 2, 4},
	}
}

// EBookIdle is the reader of Figure 1 left open on one page for an
// hour: render timers and background sync keep a tiny, perfectly
// steady CPU demand (σ = 0) with no page turns. Like SpotifyIdle it is
// an idle-dominated wall-time benchmark for the event engine.
func EBookIdle() *Spec {
	read := perfmodel.Traits{CPI: 2.0, BPI: 1.0, Par: 1.0, Overlap: 0.05}
	return &Spec{
		Name: NameEBookIdle,
		Phases: []Phase{
			{
				Name: "read-idle", Kind: Paced, Traits: read,
				Duration: 3600 * time.Second, DemandGIPS: 0.035,
			},
		},
		Loop:            true,
		RunFor:          3600 * time.Second,
		ProfileFreqIdxs: evens(1, 9),
	}
}

// Extras lists the additional library workloads.
func Extras() []*Spec {
	return []*Spec{Maps(), Camera(), VideoStream(), SpotifyIdle(), EBookIdle()}
}
