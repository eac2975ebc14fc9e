package main

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile. A p99 needs at least 1000 samples; with fewer, the tail is
// reported at the highest percentile that still has minBeyond samples
// above it, and the percentile actually used is printed beside it.
const minBeyond = 10

// summary describes one set of raw samples: count, median and tail.
type summary struct {
	N      int
	Median float64
	// TailQ is the percentile (0..100) of Tail, with Beyond samples above
	// it; 0 when no percentile has minBeyond samples beyond it.
	TailQ  float64
	Tail   float64
	Beyond int
}

// summarize sorts a copy of xs and returns its median and the tail at the
// highest percentile not above p (0..100) that leaves minBeyond samples
// beyond it. Percentiles use the nearest-rank rule.
func summarize(xs []float64, p float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		s.Median = v[n/2]
	} else {
		s.Median = (v[n/2-1] + v[n/2]) / 2
	}
	rank := tailRank(n, p)
	if rank > 0 {
		s.Tail = v[rank-1]
		s.TailQ = 100 * float64(rank) / float64(n)
		s.Beyond = n - rank
	}
	return s
}

// tailRank returns the 1-based nearest rank of percentile p among n sorted
// samples, lowered until at least minBeyond samples lie above it; 0 when n
// is too small for any rank to qualify.
func tailRank(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if rank < 1 {
		return 0
	}
	return rank
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return summarize(xs, 50).Median }

// ops counts attempted and failed operations. Every failure mode a user
// would see — transport errors, refusals, dropped arrivals, lost runs and
// failed runs — is booked here against the same attempted total.
type ops struct {
	mu        sync.Mutex
	attempted int
	failed    map[string]int
}

func (o *ops) attempt(n int) {
	o.mu.Lock()
	o.attempted += n
	o.mu.Unlock()
}

func (o *ops) fail(kind string) {
	o.mu.Lock()
	if o.failed == nil {
		o.failed = map[string]int{}
	}
	o.failed[kind]++
	o.mu.Unlock()
}

func (o *ops) totals() (attempted, failed int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, n := range o.failed {
		failed += n
	}
	return o.attempted, failed
}

// share returns failed ÷ attempted.
func (o *ops) share() float64 {
	a, f := o.totals()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// span is one timed call into a layer. Spans of one regrid cycle or one
// request share a trace id: the regrid index or the run ID.
type span struct {
	Trace string `json:"trace"`
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// recorder keeps spans in memory; layer times are computed from them when
// the run ends. Safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// reset drops every recorded span (nil-safe).
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// add records a span of layer that started at start (a now() reading) and
// ends now.
func (r *recorder) add(trace, layer string, start int64) {
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Trace: trace, Layer: layer, Start: start, End: end})
	r.mu.Unlock()
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// totals returns each layer's summed span time in seconds and its span
// count. Regrid-cycle spans never nest, so these are self times; callers
// subtract nested layers themselves where a span encloses another.
func (r *recorder) totals() (sum map[string]float64, count map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sum, count = map[string]float64{}, map[string]int{}
	for _, s := range r.spans {
		sum[s.Layer] += float64(s.End-s.Start) / 1e9
		count[s.Layer]++
	}
	return sum, count
}
