// Package monitor is the repo's stand-in for the Network Weather Service
// (NWS): it periodically probes per-node resource sensors (CPU availability,
// free memory, link bandwidth), runs a family of time-series forecasters
// over the samples, and reports forecast resource measurements to the
// capacity calculator. Like NWS, the adaptive forecaster tracks each
// method's prediction error and answers with the historically best one.
package monitor

import (
	"fmt"
	"math"
	"sort"
)

// Sample is one timestamped sensor reading.
type Sample struct {
	time  float64
	value float64
}

// Forecaster predicts the next value of a resource time series.
type Forecaster interface {
	// Name identifies the method.
	Name() string
	// Update feeds one new sample.
	Update(s Sample)
	// Forecast predicts the next value. Before any update it returns 0.
	Forecast() float64
}

// NewForecaster returns a forecaster by name: "last", "mean", "median",
// "ewma" or "adaptive".
func NewForecaster(name string) (Forecaster, error) {
	switch name {
	case "last":
		return &lastValue{}, nil
	case "mean":
		return &runningMean{}, nil
	case "median":
		return newSlidingMedian(10), nil
	case "ewma":
		return newEWMA(0.4), nil
	case "adaptive":
		return newAdaptive(), nil
	default:
		return nil, fmt.Errorf("monitor: unknown forecaster %q", name)
	}
}

// lastValue predicts the most recent observation.
type lastValue struct {
	last float64
	seen bool
}

// Name implements Forecaster.
func (f *lastValue) Name() string { return "last" }

// Update implements Forecaster.
func (f *lastValue) Update(s Sample) { f.last, f.seen = s.value, true }

// Forecast implements Forecaster.
func (f *lastValue) Forecast() float64 { return f.last }

// runningMean predicts the mean of all observations.
type runningMean struct {
	sum float64
	n   int
}

// Name implements Forecaster.
func (f *runningMean) Name() string { return "mean" }

// Update implements Forecaster.
func (f *runningMean) Update(s Sample) { f.sum += s.value; f.n++ }

// Forecast implements Forecaster.
func (f *runningMean) Forecast() float64 {
	if f.n == 0 {
		return 0
	}
	return f.sum / float64(f.n)
}

// slidingMedian predicts the median of the last Window observations, robust
// to measurement spikes.
type slidingMedian struct {
	window int
	buf    []float64
}

// newSlidingMedian returns a median forecaster over the given window.
func newSlidingMedian(window int) *slidingMedian {
	if window < 1 {
		window = 1
	}
	return &slidingMedian{window: window}
}

// Name implements Forecaster.
func (f *slidingMedian) Name() string { return "median" }

// Update implements Forecaster.
func (f *slidingMedian) Update(s Sample) {
	f.buf = append(f.buf, s.value)
	if len(f.buf) > f.window {
		f.buf = f.buf[1:]
	}
}

// Forecast implements Forecaster.
func (f *slidingMedian) Forecast() float64 {
	if len(f.buf) == 0 {
		return 0
	}
	tmp := make([]float64, len(f.buf))
	copy(tmp, f.buf)
	sort.Float64s(tmp)
	mid := len(tmp) / 2
	if len(tmp)%2 == 1 {
		return tmp[mid]
	}
	return (tmp[mid-1] + tmp[mid]) / 2
}

// ewma predicts an exponentially weighted moving average with smoothing
// factor alpha (higher alpha = more reactive).
type ewma struct {
	alpha float64
	value float64
	seen  bool
}

// newEWMA returns an EWMA forecaster; alpha is clamped to (0, 1].
func newEWMA(alpha float64) *ewma {
	if alpha <= 0 {
		alpha = 0.1
	}
	if alpha > 1 {
		alpha = 1
	}
	return &ewma{alpha: alpha}
}

// Name implements Forecaster.
func (f *ewma) Name() string { return "ewma" }

// Update implements Forecaster.
func (f *ewma) Update(s Sample) {
	if !f.seen {
		f.value, f.seen = s.value, true
		return
	}
	f.value += f.alpha * (s.value - f.value)
}

// Forecast implements Forecaster.
func (f *ewma) Forecast() float64 { return f.value }

// adaptive is the NWS-style ensemble: it runs several forecasters in
// parallel, tracks each one's mean absolute prediction error against
// incoming samples, and forecasts with the member whose error is currently
// lowest.
type adaptive struct {
	members []Forecaster
	absErr  []float64
	n       int
}

// newAdaptive returns an adaptive ensemble over last-value, running-mean,
// sliding-median and EWMA members.
func newAdaptive() *adaptive {
	return &adaptive{
		members: []Forecaster{
			&lastValue{},
			&runningMean{},
			newSlidingMedian(10),
			newEWMA(0.4),
		},
		absErr: make([]float64, 4),
	}
}

// Name implements Forecaster.
func (f *adaptive) Name() string { return "adaptive" }

// Update implements Forecaster.
func (f *adaptive) Update(s Sample) {
	// Score each member's standing forecast against the new truth first.
	if f.n > 0 {
		for i, m := range f.members {
			f.absErr[i] += math.Abs(m.Forecast() - s.value)
		}
	}
	for _, m := range f.members {
		m.Update(s)
	}
	f.n++
}

// Forecast implements Forecaster.
func (f *adaptive) Forecast() float64 {
	if f.n == 0 {
		return 0
	}
	best := 0
	for i := 1; i < len(f.members); i++ {
		if f.absErr[i] < f.absErr[best] {
			best = i
		}
	}
	return f.members[best].Forecast()
}
