package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// benchmarkMetricNames reads the metric names BENCHMARK.json declares.
func benchmarkMetricNames(t *testing.T) (e2e, layers []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

func durations(n int) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = time.Duration(i + 1)
	}
	return d
}

func TestQuantileNearestRank(t *testing.T) {
	d := durations(1000)
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1},
	} {
		if got := quantile(d, tc.q); got != tc.want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile([]time.Duration(nil), 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
}

// TestTailQuantileKeepsTenBeyond pins the sample-count rule: a reported tail
// has at least minTail samples above it, falling back below p99 when there
// are too few samples.
func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		wantQ  float64
		wantAt time.Duration
	}{
		{1000, 0.99, 990},  // exactly ten beyond p99
		{5000, 0.99, 4950}, // plenty
		{500, 0.98, 490},   // p99 would leave five; fall back to p98
		{11, 1.0 / 11, 1},  // one sample is the only one with ten above
		{10, 0.5, 5},       // no quantile has ten above: report the median
		{1, 0.5, 1},        // a single sample
	} {
		d := durations(tc.n)
		v, q := tailQuantile(d, 0.99)
		if v != tc.wantAt {
			t.Errorf("n=%d: tail = %v, want %v", tc.n, v, tc.wantAt)
		}
		if diff := q - tc.wantQ; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("n=%d: tail quantile = %v, want %v", tc.n, q, tc.wantQ)
		}
		beyond := 0
		for _, x := range d {
			if x > v {
				beyond++
			}
		}
		if tc.n > minTail && beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
		}
	}
}

func TestSummaryCountsAndLabels(t *testing.T) {
	var l latencies
	for _, d := range durations(500) {
		l.add(d)
	}
	s := l.summarize()
	if s.N != 500 || s.P50 != 250 || s.Tail != 490 {
		t.Fatalf("summary = %+v, want N=500 P50=250 Tail=490", s)
	}
	if got := s.tailLabel(); got != "p98" {
		t.Errorf("tailLabel = %q, want p98", got)
	}
	if got := (summary{TailQ: 0.987}).tailLabel(); got != "p98.7" {
		t.Errorf("tailLabel = %q, want p98.7", got)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := medianFloat(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

// TestQuietKeepsTheLessStolenHalf pins the window choice: among the given
// windows, those whose host steal is at most their median are kept, and a
// host that reports no steal keeps every given window.
func TestQuietKeepsTheLessStolenHalf(t *testing.T) {
	all := []bool{true, true, true, true}
	keep := quiet([]float64{0.30, 0.01, 0.02, 0.20}, all)
	if want := []bool{false, true, true, false}; !reflect.DeepEqual(keep, want) {
		t.Errorf("quiet = %v, want %v", keep, want)
	}
	if got := pick([]float64{1, 2, 3, 4}, keep); !reflect.DeepEqual(got, []float64{2, 3}) {
		t.Errorf("pick = %v, want [2 3]", got)
	}
	// The median is taken over the given windows only: 0.02 and 0.20.
	keep = quiet([]float64{0.30, 0.01, 0.02, 0.20}, []bool{false, false, true, true})
	if want := []bool{false, false, true, false}; !reflect.DeepEqual(keep, want) {
		t.Errorf("quiet among the last two = %v, want %v", keep, want)
	}
	for i, k := range quiet(make([]float64, 12), gcFree(make([]bool, 12))) {
		if !k {
			t.Errorf("window %d dropped with no steal reported", i)
		}
	}
}

// TestGCFreeDropsCollectionWindows pins which windows the end-to-end metrics
// may use: those without a collection, or every window when each had one.
func TestGCFreeDropsCollectionWindows(t *testing.T) {
	if got, want := gcFree([]bool{false, true, false, false}), []bool{true, false, true, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("gcFree = %v, want %v", got, want)
	}
	if got, want := gcFree([]bool{true, true}), []bool{true, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("gcFree with a collection in every window = %v, want %v", got, want)
	}
}

// TestGCWatchSeesACycle pins that the collector watch reports a cycle that
// ran between two polls, and nothing once it has ended.
func TestGCWatchSeesACycle(t *testing.T) {
	runtime.GC()
	g := newGCWatch()
	if g.poll() {
		t.Error("watch reports a cycle before any ran")
	}
	runtime.GC()
	if !g.poll() {
		t.Error("watch missed a cycle that ran between two polls")
	}
	if g.poll() {
		t.Error("watch still reports a cycle after it ended")
	}
}

// TestStreamsDependOnlyOnSeedAndWorkload pins that a request stream is a
// function of (seed, workload, stream index) and nothing else.
func TestStreamsDependOnlyOnSeedAndWorkload(t *testing.T) {
	const n = 5000
	draw := func(seed int64, w workload) []op {
		s := newStream(seed, w, streamMain, n)
		out := make([]op, 200)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	for _, w := range workloads {
		a, b, c := draw(7, w), draw(7, w), draw(8, w)
		same, diff := true, false
		for i := range a {
			same = same && a[i] == b[i]
			diff = diff || a[i] != c[i]
		}
		if !same {
			t.Errorf("%s: the same seed gave different streams", w)
		}
		if !diff {
			t.Errorf("%s: different seeds gave the same stream", w)
		}
	}
	kinds := map[opKind]int{}
	s := newStream(1, openTwoPC, streamMain, n)
	for i := 0; i < 10000; i++ {
		o := s.next()
		kinds[o.kind]++
		if o.kind == opTransfer && o.a == o.b {
			t.Fatalf("transfer from %d to itself", o.a)
		}
	}
	if kinds[opTransfer] < 1700 || kinds[opTransfer] > 2300 {
		t.Errorf("open-2pc transfers = %d of 10000, want about 20%%", kinds[opTransfer])
	}
}

// TestLedgerCatchesWrongBalance checks the black-box read model: in exact
// mode a balance must equal the loaded amount plus the acknowledged
// deposits; a failed deposit makes that customer's balance unknown.
func TestLedgerCatchesWrongBalance(t *testing.T) {
	reactorNames(10)
	l := newLedger(true)
	base := 2 * initialBalance
	dep1 := op{kind: opDeposit, a: 1, amt: 5}
	l.sent(dep1)
	l.done(dep1, nil, nil)
	l.done(op{kind: opBalance, a: 1}, base+5, nil)
	if l.badReads != 0 {
		t.Fatalf("a correct read was flagged: %s", l.firstBad)
	}
	l.done(op{kind: opBalance, a: 1}, base, nil)
	if l.badReads != 1 {
		t.Fatalf("a read missing an acknowledged deposit was not flagged")
	}
	dep2 := op{kind: opDeposit, a: 2, amt: 7}
	l.sent(dep2)
	l.done(dep2, nil, errors.New("connection closed"))
	l.done(op{kind: opBalance, a: 2}, base+7, nil)
	if l.badReads != 1 {
		t.Fatalf("a read after an in-doubt deposit was flagged: %s", l.firstBad)
	}
	if l.acked != 5 || l.inDoubt != 7 {
		t.Fatalf("acked=%v inDoubt=%v, want 5 and 7", l.acked, l.inDoubt)
	}
}

// TestSmoke runs every workload briefly against a small database, traced
// and untraced, with every output check on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes about a minute")
	}
	e2e, layers := benchmarkMetricNames(t)
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rc := runConfig{w: w, seed: 3, seconds: 2, trace: trace, customers: 2000, out: out}
			res, err := run(rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			for _, c := range res.checks {
				if c.err != nil {
					t.Errorf("%s trace=%v: check %s: %v", w, trace, c.name, c.err)
				}
			}
			if res.attempted == 0 {
				t.Errorf("%s trace=%v: no requests attempted", w, trace)
			}
			want := e2e
			if trace {
				want = layers
			}
			got := map[string]bool{}
			for _, m := range res.metrics {
				got[m.name] = true
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: reported %d metrics, BENCHMARK.json names %d", w, trace, len(got), len(want))
			}
			for _, name := range want {
				if !got[name] {
					t.Errorf("%s trace=%v: metric %s named in BENCHMARK.json was not reported", w, trace, name)
				}
			}
		}
	}
}
