// Package kalman implements the scalar Kalman filter the controller uses
// to track an application's base speed (paper §III-B3, following POET).
//
// The state is the base speed b_n — the application speed at the lowest
// system configuration. The process model is a random walk
//
//	b_n = b_{n-1} + w_n,        w_n ~ N(0, Q)
//
// and the measurement is the observed performance divided by the speedup
// that was applied during the cycle:
//
//	z_n = y_n / s_{n-1} = b_n + v_n,   v_n ~ N(0, R)
//
// which is exactly how POET folds the multiplicative performance model
// y = s·b into a linear observation.
package kalman

import (
	"errors"
	"math"
)

// Filter is a one-dimensional Kalman filter. The zero value is not usable;
// construct with New. Its whole state is the State a checkpoint carries.
type Filter struct {
	st State
}

// Errors returned by Filter methods.
var (
	ErrBadVariance   = errors.New("kalman: variances must be positive and finite")
	ErrBadMeasure    = errors.New("kalman: measurement must be finite")
	ErrUninitialized = errors.New("kalman: filter not initialized")
)

// New creates a filter with process noise variance q and measurement noise
// variance r. Typical controller values are q ≈ (1% of base speed)² and
// r ≈ (5% of base speed)².
func New(q, r float64) (*Filter, error) {
	if !(q > 0) || !(r > 0) || math.IsInf(q, 0) || math.IsInf(r, 0) {
		return nil, ErrBadVariance
	}
	return &Filter{st: State{Q: q, R: r}}, nil
}

// MustNew is New but panics on invalid parameters; for use in tests and
// package-internal constants.
func MustNew(q, r float64) *Filter {
	f, err := New(q, r)
	if err != nil {
		panic(err)
	}
	return f
}

// Init seeds the state estimate. p0 is the initial estimate variance; it
// should reflect how much the seed is trusted (large when the seed is a
// guess).
func (f *Filter) Init(x0, p0 float64) {
	f.st.X = x0
	f.st.P = math.Abs(p0)
	f.st.Initialized = true
	f.st.Steps = 0
}

// Initialized reports whether Init or a first Update has run.
func (f *Filter) Initialized() bool { return f.st.Initialized }

// Update folds in a new measurement z and returns the posterior state
// estimate. If the filter has not been initialized, the first measurement
// initializes it with a large prior variance.
func (f *Filter) Update(z float64) (float64, error) {
	if math.IsNaN(z) || math.IsInf(z, 0) {
		return f.st.X, ErrBadMeasure
	}
	if !f.st.Initialized {
		f.Init(z, 100*f.st.R)
		f.st.Steps = 1
		return f.st.X, nil
	}
	// Predict.
	pPred := f.st.P + f.st.Q
	// Update.
	k := pPred / (pPred + f.st.R)
	f.st.X += k * (z - f.st.X)
	f.st.P = (1 - k) * pPred
	f.st.LastGain = k
	f.st.Steps++
	return f.st.X, nil
}

// Estimate returns the current state estimate.
func (f *Filter) Estimate() (float64, error) {
	if !f.st.Initialized {
		return 0, ErrUninitialized
	}
	return f.st.X, nil
}

// Variance returns the current estimate variance.
func (f *Filter) Variance() float64 { return f.st.P }

// MeasurementVariance returns the configured measurement noise variance
// R; controllers scale their innovation gates by sqrt(P + R).
func (f *Filter) MeasurementVariance() float64 { return f.st.R }

// Gain returns the Kalman gain applied by the most recent Update.
func (f *Filter) Gain() float64 { return f.st.LastGain }

// Steps returns the number of measurements folded in so far.
func (f *Filter) Steps() int { return f.st.Steps }

// SteadyStateGain returns the asymptotic Kalman gain for the filter's q
// and r; useful for analysis and tests. For the random-walk model it is
// the positive root of k² + (q/r)k - q/r = 0 applied to the predicted
// variance fixed point.
func (f *Filter) SteadyStateGain() float64 {
	// Fixed point of p' = (1-k)(p+q) with k = (p+q)/(p+q+r):
	// p* = (-q + sqrt(q² + 4qr)) / 2.
	q, r := f.st.Q, f.st.R
	pStar := (-q + math.Sqrt(q*q+4*q*r)) / 2
	return (pStar + q) / (pStar + q + r)
}
