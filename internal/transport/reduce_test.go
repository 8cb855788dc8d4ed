package transport

import (
	"math"
	"sync"
	"testing"
)

func runAll(t *testing.T, eps []Endpoint, fn func(ep Endpoint) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(eps))
	for i, ep := range eps {
		i, ep := i, ep
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(ep)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func TestAllReduceOps(t *testing.T) {
	const n = 4
	eps, err := NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	cases := []struct {
		op   ReduceOp
		want float64
	}{
		{ReduceSum, 0 + 1 + 2 + 3},
		{ReduceMin, 0},
		{ReduceMax, 3},
	}
	for _, c := range cases {
		c := c
		var mu sync.Mutex
		results := map[int]float64{}
		runAll(t, eps, func(ep Endpoint) error {
			got, err := AllReduceFloat64(ep, float64(ep.Rank()), c.op)
			if err != nil {
				return err
			}
			mu.Lock()
			results[ep.Rank()] = got
			mu.Unlock()
			return nil
		})
		for r, got := range results {
			if got != c.want {
				t.Errorf("op %v rank %d: got %g, want %g", c.op, r, got, c.want)
			}
		}
	}
}

func TestAllReduceInfinities(t *testing.T) {
	eps, _ := NewGroup(2)
	defer closeAll(eps)
	var mu sync.Mutex
	var got []float64
	runAll(t, eps, func(ep Endpoint) error {
		v := math.Inf(1)
		if ep.Rank() == 1 {
			v = 5
		}
		r, err := AllReduceFloat64(ep, v, ReduceMin)
		if err != nil {
			return err
		}
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
		return nil
	})
	for _, v := range got {
		if v != 5 {
			t.Errorf("min with +Inf = %g", v)
		}
	}
}

func TestReduceOpPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown op should panic")
		}
	}()
	ReduceOp(99).apply(1, 2)
}
