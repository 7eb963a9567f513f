package muzha

import (
	"math"
	"testing"
	"time"

	"muzha/internal/sim"
	"muzha/internal/stats"
)

// degenerateResult stuffs non-finite floats into every field that
// carries one, a Result Run never builds.
func degenerateResult() *Result {
	return &Result{
		Flows: []FlowResult{{
			ID:            0,
			ThroughputBps: math.NaN(),
			CwndTrace:     []Sample{{At: 0, Value: math.Inf(1)}},
			ThroughputSeries: []Sample{
				{At: 0, Value: math.Inf(-1)},
				{At: time.Second, Value: 42},
			},
		}, {
			ID:            1,
			ThroughputBps: 1000,
		}},
		Background: []BackgroundResult{{DeliveryRatio: math.NaN()}},
		JainIndex:  math.Inf(1),
		Duration:   time.Second,
	}
}

func TestFiniteOr0(t *testing.T) {
	for _, tt := range []struct {
		give, want float64
	}{
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{0, 0},
		{-3.5, -3.5},
		{1e18, 1e18},
	} {
		if got := finiteOr0(tt.give); got != tt.want {
			t.Errorf("finiteOr0(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

// TestFlowResultZeroesNonFiniteCwnd: a NaN or ±Inf cwnd sample becomes
// 0 where the Result is built, so every Result Run returns encodes;
// finite samples keep their values.
func TestFlowResultZeroesNonFiniteCwnd(t *testing.T) {
	give := []float64{math.NaN(), 4, math.Inf(1), 2.5, math.Inf(-1), 7}
	fl := stats.NewFlow(1, string(NewReno), 0)
	for i, v := range give {
		fl.RecordCwnd(sim.FromDuration(time.Duration(i+1)*time.Millisecond), v)
	}
	got := flowResult(0, Flow{Src: 0, Dst: 1}, fl, false).CwndTrace
	want := []float64{0, 4, 0, 2.5, 0, 7}
	if len(got) != len(want) {
		t.Fatalf("got %d cwnd samples, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.Value != want[i] || s.At != time.Duration(i+1)*time.Millisecond {
			t.Errorf("sample %d = %+v, want %v at %v", i, s, want[i], time.Duration(i+1)*time.Millisecond)
		}
	}
}
