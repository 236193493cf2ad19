package main

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is the number of samples a reported percentile must have beyond it.
// A p99 over 300 samples rests on three observations; the benchmark reports
// the highest percentile that still has minTail samples above it instead.
const minTail = 10

// quantile returns the nearest-rank q-quantile of sorted (0 for no samples).
func quantile[T cmp.Ordered](sorted []T, q float64) T {
	n := len(sorted)
	if n == 0 {
		var zero T
		return zero
	}
	// The epsilon keeps float error in q*n (0.99*1000 = 990.0000000000001)
	// from pushing the rank one past the intended sample.
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// tailQuantile returns the q-quantile of sorted when at least minTail samples
// lie beyond it; otherwise it falls back to the highest quantile that has
// minTail samples beyond it, and returns the quantile it actually used. With
// no more than minTail samples there is no such quantile and it reports the
// median.
func tailQuantile(sorted []time.Duration, q float64) (time.Duration, float64) {
	n := len(sorted)
	if n <= minTail {
		return quantile(sorted, 0.5), 0.5
	}
	if float64(n)*(1-q) >= minTail {
		return quantile(sorted, q), q
	}
	used := float64(n-minTail) / float64(n)
	return sorted[n-minTail-1], used
}

// latencies accumulates one operation class's latency samples.
type latencies struct {
	d []time.Duration
}

func (l *latencies) add(d time.Duration) { l.d = append(l.d, d) }

func (l *latencies) merge(o *latencies) { l.d = append(l.d, o.d...) }

// summary is the median, p90 and tail of a latency distribution, with the
// sample count and the tail quantile actually reported.
type summary struct {
	N     int
	P50   time.Duration
	P90   time.Duration
	Tail  time.Duration
	TailQ float64
}

func (l *latencies) summarize() summary {
	sorted := append([]time.Duration(nil), l.d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := summary{N: len(sorted), P50: quantile(sorted, 0.5), P90: quantile(sorted, 0.9)}
	s.Tail, s.TailQ = tailQuantile(sorted, 0.99)
	return s
}

// tailLabel names the quantile a tail metric reports, e.g. "p99" or "p98.7".
func (s summary) tailLabel() string {
	p := s.TailQ * 100
	if p == float64(int(p)) {
		return fmt.Sprintf("p%d", int(p))
	}
	return fmt.Sprintf("p%.1f", p)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat returns the median of xs (the mean of the middle two for an
// even count).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windows is how many equal slices of its measured interval a repetition is
// split into. The windowed end-to-end metrics are medians over the quieter
// half of the slices of every repetition in which the collector did not run:
// host noise on this scale (a few seconds of CPU steal or slow fsyncs) and a
// collection cycle (up to a second) then move a few slices rather than the
// result.
const windows = 8

// clock is the process's CPU time and the host's steal time at one instant,
// and whether a garbage-collection cycle ran since the previous reading.
type clock struct {
	cpu   time.Duration
	steal time.Duration
	gc    bool
}

// userHZ is the unit of /proc/stat's counters (USER_HZ), 100 on every Linux
// ABI Go supports.
const userHZ = 100

// hostSteal is the time the hypervisor kept this machine's virtual CPUs from
// running while they had work, summed over the CPUs: the steal column of
// /proc/stat. It is 0 where the kernel does not report it.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// gcPoll is how often the clock sampler looks at the collector.
const gcPoll = 10 * time.Millisecond

// gcWatch follows the collector from outside: every cycle stops the world
// once when it starts (sweep termination) and once or more when it ends (mark
// termination), and the completed-cycle count moves when it ends. A cycle has
// started and not ended while the pause count is above what it was when the
// last cycle ended. It assumes no cycle is running when it is created, as
// after runtime.GC.
type gcWatch struct {
	s            []metrics.Sample
	pauses, done uint64
	endedAt      uint64 // the pause count when the last cycle ended
	settling     bool   // the last poll saw a cycle end
}

func newGCWatch() *gcWatch {
	g := &gcWatch{s: []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}}
	g.pauses, g.done = g.read()
	g.endedAt = g.pauses
	return g
}

func (g *gcWatch) read() (pauses, done uint64) {
	metrics.Read(g.s)
	if g.s[0].Value.Kind() == metrics.KindFloat64Histogram {
		for _, c := range g.s[0].Value.Float64Histogram().Counts {
			pauses += c
		}
	}
	if g.s[1].Value.Kind() == metrics.KindUint64 {
		done = g.s[1].Value.Uint64()
	}
	return pauses, done
}

// poll reports whether a cycle started, ended or was running since the last
// poll.
func (g *gcWatch) poll() bool {
	p, d := g.read()
	moved := p != g.pauses || d != g.done
	// The runtime counts a cycle done before it records the pause that
	// ends it, so a poll between the two would leave that pause looking
	// like the start of the next cycle: the poll after an end re-reads it.
	if d != g.done || g.settling {
		g.endedAt = p
	}
	g.settling = d != g.done
	g.pauses, g.done = p, d
	return moved || p > g.endedAt
}

func readClock() clock { return clock{cpu: cpuTime(), steal: hostSteal()} }

// sampleClock reads the clock at start and at each window boundary of
// [start, start+dur), and between them watches the collector every gcPoll;
// the returned function waits for the last reading.
func sampleClock(start time.Time, dur time.Duration) func() []clock {
	out := make([]clock, windows+1)
	g := newGCWatch()
	out[0] = readClock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= windows; i++ {
			end := start.Add(dur * time.Duration(i) / windows)
			gc := false
			for {
				left := time.Until(end)
				if left <= 0 {
					break
				}
				time.Sleep(min(left, gcPoll))
				gc = g.poll() || gc
			}
			out[i] = readClock()
			out[i].gc = g.poll() || gc
		}
	}()
	return func() []clock {
		<-done
		return out
	}
}

// quiet marks the windows among the given ones whose host steal is at most
// the median of theirs: at least half of them, and all of them when the host
// reports no steal.
func quiet(steal []float64, among []bool) []bool {
	m := medianFloat(pick(steal, among))
	keep := make([]bool, len(steal))
	for i, s := range steal {
		keep[i] = among[i] && s <= m
	}
	return keep
}

// gcFree marks the windows in which no collection cycle ran, or every
// window when the collector ran in each.
func gcFree(gc []bool) []bool {
	out := make([]bool, len(gc))
	found := false
	for i, g := range gc {
		out[i] = !g
		found = found || !g
	}
	if !found {
		for i := range out {
			out[i] = true
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// pick returns the xs whose keep flag is set.
func pick(xs []float64, keep []bool) []float64 {
	var out []float64
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}

// window returns the samples of l that completed in slice k of a dur-long
// interval; completions after the interval count in the last slice.
func window(l *latencies, at []time.Duration, dur time.Duration, k int) *latencies {
	var w latencies
	for i, a := range at {
		if min(int(a*windows/dur), windows-1) == k {
			w.add(l.d[i])
		}
	}
	return &w
}
