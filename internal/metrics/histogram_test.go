package metrics

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestHistogramExactBelowLinearRegion(t *testing.T) {
	var h Histogram
	for v := 0; v < 2*subBuckets; v++ {
		if got := bucketUpper(bucketIndex(int64(v))); got != int64(v) {
			t.Fatalf("value %d maps to bucket upper %d, want exact", v, got)
		}
	}
	h.Record(3)
	if h.Quantile(0.5) != 3 || h.Max() != 3 {
		t.Errorf("p50 = %v, max = %v, want 3ns both", h.Quantile(0.5), h.Max())
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// Every representable value must land in a bucket whose upper
	// bound is within 1/subBuckets of the value itself.
	for _, v := range []int64{1, 63, 64, 65, 1000, 12345, 1e6, 987654321, 1e12, math.MaxInt64 / 2} {
		i := bucketIndex(v)
		up := bucketUpper(i)
		if up < v {
			t.Fatalf("bucketUpper(%d) = %d below value %d", i, up, v)
		}
		if rel := float64(up-v) / float64(v); rel > 1.0/subBuckets {
			t.Errorf("value %d: upper %d relative error %v too large", v, up, rel)
		}
		if i > 0 && bucketUpper(i-1) >= v {
			t.Errorf("value %d not in the first bucket that can hold it (index %d)", v, i)
		}
	}
}

func TestHistogramQuantilesAndMerge(t *testing.T) {
	var a, b Histogram
	for i := 1; i <= 900; i++ {
		a.Record(time.Duration(i) * time.Microsecond)
	}
	for i := 901; i <= 1000; i++ {
		b.Record(time.Duration(i) * time.Microsecond)
	}
	a.Merge(&b)
	if a.Count() != 1000 {
		t.Fatalf("merged count = %d, want 1000", a.Count())
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	} {
		got := a.Quantile(tc.q)
		if got < tc.want || float64(got) > float64(tc.want)*(1+1.0/subBuckets) {
			t.Errorf("p%v = %v, want within ~3%% above %v", tc.q*100, got, tc.want)
		}
	}
	if a.Quantile(1) != time.Millisecond {
		t.Errorf("p100 = %v, want exact max 1ms", a.Quantile(1))
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram must report zero")
	}
}

// TestHistogramQuantileProperty: over seeded samples spanning zero, one
// nanosecond and more than an hour, every quantile lies at or above the
// exact sorted quantile of the same rank and within 1/32 of it.
func TestHistogramQuantileProperty(t *testing.T) {
	qs := []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		samples := []time.Duration{0, 1, 2 * time.Hour}
		for len(samples) < 5000 {
			// Log-uniform over [1 ns, 2 h], with a tenth of the draws at 0.
			if rng.Intn(10) == 0 {
				samples = append(samples, 0)
				continue
			}
			samples = append(samples, time.Duration(math.Exp(rng.Float64()*math.Log(float64(2*time.Hour)))))
		}
		var h Histogram
		for _, s := range samples {
			h.Record(s)
		}
		slices.Sort(samples)
		for _, q := range qs {
			rank := max(int(q*float64(len(samples))+0.5), 1)
			want := samples[min(rank, len(samples))-1]
			got := h.Quantile(q)
			if got < want || float64(got-want) > float64(want)/subBuckets {
				t.Fatalf("seed %d: q%v = %v, exact %v: outside [exact, exact·(1+1/%d)]", seed, q, got, want, subBuckets)
			}
		}
		if h.Count() != uint64(len(samples)) || h.Max() != 2*time.Hour {
			t.Fatalf("seed %d: count %d max %v", seed, h.Count(), h.Max())
		}
	}
}

// TestHistogramConcurrentRecord: concurrent Records racing Quantile and
// AppendSummary readers lose nothing — count, sum and max end exact —
// and no reader sees a quantile beyond the largest value recorded.
func TestHistogramConcurrentRecord(t *testing.T) {
	const workers, perWorker = 8, 5000
	var h Histogram
	var wg sync.WaitGroup
	done := make(chan struct{})
	readerErr := make(chan string, 1)
	go func() {
		var buf []byte
		defer close(readerErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, q := range []float64{0.5, 0.99, 1} {
				if v := h.Quantile(q); v > workers*perWorker*time.Microsecond {
					readerErr <- "quantile " + v.String() + " beyond every recorded value"
					return
				}
			}
			buf = h.AppendSummary(buf[:0], "x_seconds", `route="r"`)
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWorker; i++ {
				h.Record(time.Duration(w*perWorker+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if msg, ok := <-readerErr; ok {
		t.Fatal(msg)
	}
	const n = workers * perWorker
	if h.Count() != n {
		t.Errorf("count = %d, want %d", h.Count(), n)
	}
	if want := time.Duration(n*(n+1)/2) * time.Microsecond; h.Sum() != want {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
	if h.Max() != n*time.Microsecond {
		t.Errorf("max = %v, want %v", h.Max(), n*time.Microsecond)
	}
}

func TestHistogramRecordAllocs(t *testing.T) {
	var h Histogram
	if a := testing.AllocsPerRun(1000, func() { h.Record(123 * time.Microsecond) }); a != 0 {
		t.Errorf("Record allocates %v times, want 0", a)
	}
}

func TestHistogramAppendSummary(t *testing.T) {
	var h Histogram
	h.Record(20 * time.Millisecond)
	got := h.AppendSummary(nil, "ttmcas_x_seconds", `route="GET /healthz"`)
	got = h.AppendSummary(got, "ttmcas_y_seconds", "")
	want := `ttmcas_x_seconds{route="GET /healthz",quantile="0.5"} 0.02
ttmcas_x_seconds{route="GET /healthz",quantile="0.99"} 0.02
ttmcas_x_seconds{route="GET /healthz",quantile="0.999"} 0.02
ttmcas_x_seconds_count{route="GET /healthz"} 1
ttmcas_x_seconds_sum{route="GET /healthz"} 0.02
ttmcas_x_seconds_max{route="GET /healthz"} 0.02
ttmcas_y_seconds{quantile="0.5"} 0.02
ttmcas_y_seconds{quantile="0.99"} 0.02
ttmcas_y_seconds{quantile="0.999"} 0.02
ttmcas_y_seconds_count 1
ttmcas_y_seconds_sum 0.02
ttmcas_y_seconds_max 0.02
`
	if string(got) != want {
		t.Errorf("summary =\n%s\nwant\n%s", got, want)
	}
}
