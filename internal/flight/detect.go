package flight

import "repro/internal/metrics"

// detector scores one watched series with a robust rolling z-score:
// the deviation of the newest input from the window median, scaled by
// the median absolute deviation (MAD). Median/MAD resist the very
// outliers the detector hunts, where mean/stddev would absorb them.
// Counters are differentiated first (rate-of-change), with a negative
// delta treated as a counter reset on restart — the post-reset reading
// becomes the rate, never a huge negative spike.
//
// All state is touched only by the sampler goroutine, and scoring
// sorts a preallocated scratch slice in place: zero allocations at
// steady state.
type detector struct {
	kind metrics.Kind
	z    float64 // firing threshold

	win     []float64 // rolling inputs, ring-indexed
	scratch []float64
	n       int // filled entries
	idx     int // next write slot

	prev     float64 // last cumulative value (counters)
	havePrev bool

	quietUntil int64 // tick before which re-firing is suppressed
}

func newDetector(kind metrics.Kind, window int, z float64) *detector {
	return &detector{
		kind:    kind,
		z:       z,
		win:     make([]float64, window),
		scratch: make([]float64, window),
	}
}

// feed scores one sample at the given tick. It returns whether the
// detector fired, plus the scored input, window median and robust z.
// The input joins the window after scoring, so a spike cannot vouch
// for itself; after a firing the detector stays quiet for one window
// so a sustained excursion raises one anomaly, not one per tick.
func (d *detector) feed(v float64, tick int64) (fired bool, x, med, z float64) {
	x = v
	if d.kind == metrics.KindCounter {
		if !d.havePrev {
			d.prev, d.havePrev = v, true
			return false, 0, 0, 0
		}
		x = v - d.prev
		if x < 0 {
			// Counter reset (process restart): the new cumulative value
			// IS the activity since the reset.
			x = v
		}
		d.prev = v
	}
	if d.n == len(d.win) {
		med, mad := d.medMAD()
		// MAD floors: an all-but-constant window (idle series, quantised
		// latencies) would otherwise make any change look infinitely
		// anomalous. Scale the floor to the median so the epsilon is
		// meaningful for ns-scale latencies and 0..1 rates alike.
		floor := 0.05 * abs(med)
		if floor < 1e-9 {
			floor = 1e-9
		}
		if mad < floor {
			mad = floor
		}
		// 0.6745 rescales MAD to a stddev-equivalent under normality.
		z = 0.6745 * (x - med) / mad
		if z > d.z && tick >= d.quietUntil {
			fired = true
			d.quietUntil = tick + int64(len(d.win))
		}
	}
	d.win[d.idx] = x
	d.idx = (d.idx + 1) % len(d.win)
	if d.n < len(d.win) {
		d.n++
	}
	return fired, x, med, z
}

// medMAD computes the window median and median absolute deviation with
// two in-place insertion sorts over scratch (windows are tens of
// entries; no allocation, no sort.Float64s interface boxing).
func (d *detector) medMAD() (med, mad float64) {
	s := d.scratch[:d.n]
	copy(s, d.win[:d.n])
	insertionSort(s)
	med = s[d.n/2]
	for i := range s {
		s[i] = abs(s[i] - med)
	}
	insertionSort(s)
	return med, s[d.n/2]
}

func insertionSort(s []float64) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
