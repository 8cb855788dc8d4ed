package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilHandlesDiscard(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", DurationBuckets())
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil handles")
	}
	c.Add(3)
	c.Inc()
	g.Set(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must read as zero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry exposition = %q, %v", sb.String(), err)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := newRegistry()
	c := r.Counter("c_total", "help")
	c.Add(2)
	c.Inc()
	if c.Value() != 3 {
		t.Errorf("counter = %d", c.Value())
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	if g.value() != 2.5 {
		t.Errorf("gauge = %g", g.value())
	}
	h := r.Histogram("h_seconds", "help", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(50)
	if h.Count() != 3 {
		t.Errorf("hist count = %d", h.Count())
	}
	if h.Sum() != 50.55 {
		t.Errorf("hist sum = %g", h.Sum())
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := newRegistry()
	a := r.Counter("c_total", "h", Label{"rank", "0"})
	b := r.Counter("c_total", "h", Label{"rank", "0"})
	if a != b {
		t.Error("same name+labels must return the same handle")
	}
	c := r.Counter("c_total", "h", Label{"rank", "1"})
	if a == c {
		t.Error("distinct labels must return distinct handles")
	}
	defer func() {
		if recover() == nil {
			t.Error("type conflict must panic")
		}
	}()
	r.Gauge("c_total", "h")
}

func TestPrometheusExpositionGolden(t *testing.T) {
	r := newRegistry()
	r.Counter("samr_msgs_total", "Messages.", Label{"rank", "1"}).Add(7)
	r.Counter("samr_msgs_total", "Messages.", Label{"rank", "0"}).Add(4)
	r.Gauge("samr_imbalance_pct", "Imbalance.").Set(12.5)
	r.Gauge("samr_up", "Always one.").Set(1)
	h := r.Histogram("samr_wait_seconds", "Wait time.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP samr_imbalance_pct Imbalance.
# TYPE samr_imbalance_pct gauge
samr_imbalance_pct 12.5
# HELP samr_msgs_total Messages.
# TYPE samr_msgs_total counter
samr_msgs_total{rank="0"} 4
samr_msgs_total{rank="1"} 7
# HELP samr_up Always one.
# TYPE samr_up gauge
samr_up 1
# HELP samr_wait_seconds Wait time.
# TYPE samr_wait_seconds histogram
samr_wait_seconds_bucket{le="0.01"} 1
samr_wait_seconds_bucket{le="0.1"} 2
samr_wait_seconds_bucket{le="+Inf"} 3
samr_wait_seconds_sum 5.055
samr_wait_seconds_count 3
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := newRegistry()
	r.Counter("c_total", "h", Label{"k", "a\"b\\c\nd"}).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `c_total{k="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", sb.String())
	}
}

// TestRegistryConcurrentScrape hammers the registry from concurrent
// writers (one per simulated SPMD rank) while a scraper polls the
// exposition, the -race test the issue asks for.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := newRegistry()
	const ranks = 8
	const updates = 2000
	var writers sync.WaitGroup
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() { // scraper
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for rank := 0; rank < ranks; rank++ {
		writers.Add(1)
		go func(rank int) {
			defer writers.Done()
			// Registration races with updates and scrapes on purpose: ghost
			// plans re-register handles on rebuild while other ranks are
			// mid-iteration.
			rs := strconv.Itoa(rank)
			c := r.Counter("samr_hammer_total", "h", Label{"rank", rs})
			h := r.Histogram("samr_hammer_seconds", "h", DurationBuckets(), Label{"rank", rs})
			g := r.Gauge("samr_hammer", "h", Label{"rank", rs})
			for i := 0; i < updates; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				g.Set(float64(i))
			}
		}(rank)
	}
	writers.Wait()
	close(stop)
	<-scraped
	total := int64(0)
	for rank := 0; rank < ranks; rank++ {
		total += r.Counter("samr_hammer_total", "h", Label{"rank", strconv.Itoa(rank)}).Value()
	}
	if total != ranks*updates {
		t.Errorf("lost updates: total = %d, want %d", total, ranks*updates)
	}
}
