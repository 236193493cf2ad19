// Command perfbench is ReactDB-Go's end-to-end benchmark. It builds an
// in-process deployment — the one reactdb-server ships, on FileStorage with
// real fsync and zero modeled costs — serves it over loopback TCP, drives one
// of three workloads through the public client API, checks the outputs from
// outside, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a separate
// traced run reports per-layer ones. See README.md for the workloads, the
// deployment and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// reps is how many times an end-to-end run builds a fresh deployment and
// measures it; every metric is the median over the repetitions. Each
// repetition starts from the same state (an empty log, a collected heap) and
// replays the same request stream, so a burst of host noise moves one
// repetition rather than the result.
const reps = 3

// warmup is how long each deployment serves the workload before measuring.
const warmup = 500 * time.Millisecond

// smallbankCustomers is the database size of every run the command makes.
// Tests build a runConfig with a smaller one.
const smallbankCustomers = 100000

type runConfig struct {
	w         workload
	seed      int64
	seconds   int
	trace     bool
	customers int
	out       string // directory for temp files and span dumps
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // human-readable detail: sample count, percentile used
}

// result is one run's outcome.
type result struct {
	attempted int64
	failed    int64
	metrics   []metric // the machine-readable set for this trace mode
	info      []metric // printed only: the other end-to-end figures
	lines     []string // printed only: the traced run's layer breakdown
	checks    []check
}

type check struct {
	name string
	err  error
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return len(r.checks) > 0
}

func nproc() int { return runtime.NumCPU() }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func main() {
	var (
		w       = flag.String("workload", "", "workload: serial-rw, open-2pc or replica-read")
		seed    = flag.Int64("seed", 1, "workload seed; the request streams depend only on it and the workload")
		seconds = flag.Int("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for temp files and span dumps")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	rc := runConfig{w: workload(*w), seed: *seed, seconds: *seconds, trace: *trace == 1, customers: smallbankCustomers, out: *out}
	if !knownWorkload(rc.w) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want serial-rw, open-2pc or replica-read)\n", *w)
		os.Exit(2)
	}
	res, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(rc, res)
	if !res.correct() {
		os.Exit(1)
	}
}

func knownWorkload(w workload) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// report prints the human-readable lines, then the JSON result line.
func report(rc runConfig, res *result) {
	tr := 0
	if rc.trace {
		tr = 1
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d customers=%d\n",
		rc.w, rc.seed, rc.seconds, tr, nproc(), rc.customers)
	for _, l := range res.lines {
		fmt.Println(l)
	}
	for _, m := range append(append([]metric(nil), res.metrics...), res.info...) {
		fmt.Printf("metric %-34s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, c := range res.checks {
		if c.err != nil {
			fmt.Printf("check %-26s FAILED: %v\n", c.name, c.err)
		} else {
			fmt.Printf("check %-26s ok\n", c.name)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Println(string(b))
}

// run performs one benchmark run. An end-to-end run builds, warms up,
// measures and checks a fresh deployment reps times; a traced run does so
// once.
func run(rc runConfig) (*result, error) {
	tmp := filepath.Join(rc.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	// An interrupted run still removes its deployments' files.
	sig, finished := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(finished)
	}()
	go func() {
		select {
		case <-sig:
			os.RemoveAll(base)
			os.Exit(1)
		case <-finished:
		}
	}()
	reactorNames(rc.customers)

	n := reps
	if rc.trace {
		n = 1
	}
	res := &result{}
	var done []repetition
	for i := 0; i < n; i++ {
		rep, err := runRepetition(rc, base, i == n-1)
		if err != nil {
			return nil, err
		}
		res.attempted += rep.all.attempted
		res.failed += rep.all.failed
		for _, c := range rep.checks {
			res.checks = append(res.checks, check{fmt.Sprintf("%s#%d", c.name, i+1), c.err})
		}
		if rc.trace {
			res.metrics, res.lines = rep.layers.metrics, rep.layers.lines
		}
		done = append(done, rep)
	}
	if !rc.trace {
		res.metrics, res.info = endToEnd(rc, done)
	}
	return res, nil
}

// repetition is one build-measure-check cycle.
type repetition struct {
	setup   time.Duration
	pr      *phaseResult // end-to-end measurement
	ladder  []*rung      // open-2pc rate ladder (last repetition only)
	heap    float64      // live heap after a forced GC, MB
	layers  *layerRun    // traced run only
	all     *tally       // every measured request
	retries int64        // application-level conflict retries
	checks  []check
}

func runRepetition(rc runConfig, base string, last bool) (repetition, error) {
	var rep repetition
	// Start from a clean page cache: dirty pages other work left behind (the
	// build, the previous repetition's deleted files) are written back in the
	// next seconds and slow every fsync the repetition measures.
	syscall.Sync()
	d, took, err := setupTimed(rc.w, base, rc.customers)
	if err != nil {
		return rep, err
	}
	defer d.teardown()
	rep.setup = took

	led := newLedger(rc.w == serialRW)
	dur := time.Duration(rc.seconds) * time.Second
	wire := d.wireArm(nil)
	drive(rc, wire, streamWarmup, warmup, led)

	switch {
	case rc.trace:
		if rep.layers, err = measureLayers(rc, d, led, dur); err != nil {
			return rep, err
		}
		rep.all = rep.layers.all
	case rc.w == openTwoPC:
		// The reference rate gets three quarters of the measured time,
		// split across repetitions; the last repetition spends the rest on
		// the rate ladder.
		rep.pr = runPhase(rc, wire, streamMain, dur*3/4/reps, led)
		rep.all = newTally()
		rep.all.add(rep.pr.t)
		if last {
			rep.ladder = runLadder(rc, wire, streamMain+1, dur/4, led)
			for _, r := range rep.ladder {
				rep.all.add(r.t)
			}
		}
	default:
		rep.pr = runPhase(rc, wire, streamMain, dur/reps, led)
		rep.all = rep.pr.t
	}
	if rep.pr != nil {
		rep.heap = float64(rep.pr.mem.live) / 1e6
	}
	rep.retries = wire.retries.Load()
	rep.checks = runChecks(rc, d, led, last)
	return rep, nil
}

// wireArm sends requests over the wire: reads and writes through the router
// to the primary, except replica-read's reads, which go to the replica
// connection.
func (d *deployment) wireArm(rec *recorder) *arm {
	a := &arm{write: d.router.Execute, rec: rec, name: "client.call"}
	if d.repConn != nil {
		a.read = d.repConn.Execute
	}
	return a
}

// phaseResult is one measured phase.
type phaseResult struct {
	t      *tally // the measured requests
	dur    time.Duration
	span   time.Duration // the nominal interval the windows split
	clocks []clock       // at each window boundary
	late   latencies     // generator lateness (open-2pc, replica-read)
	rung   *rung         // open-2pc: the reference-rate rung
	mem    memCost       // what the phase allocated and collected
}

// runPhase is drive from a collected heap (see measured): the measured
// phases.
func runPhase(rc runConfig, a *arm, idx int, dur time.Duration, l *ledger) *phaseResult {
	var pr *phaseResult
	mem := measured(func() { pr = drive(rc, a, idx, dur, l) })
	pr.mem = mem
	return pr
}

// drive runs the workload on arm a for dur: serial-rw's closed loop,
// replica-read's open loops, or open-2pc at its reference rate.
func drive(rc runConfig, a *arm, idx int, dur time.Duration, l *ledger) *phaseResult {
	pr := &phaseResult{span: dur}
	switch rc.w {
	case serialRW, replicaRead:
		pr.t = newTally()
		start := time.Now()
		clocks := sampleClock(start, dur)
		if rc.w == serialRW {
			runSerial(a, newStream(rc.seed, rc.w, idx, rc.customers), dur, pr.t, l)
		} else {
			runReplicaRead(a, rc.seed, idx, rc.customers, dur, pr.t, l, &pr.late)
		}
		pr.dur, pr.clocks = time.Since(start), clocks()
	case openTwoPC:
		r := runOpen(a, newStream(rc.seed, rc.w, idx, rc.customers), refRate, dur, l)
		pr.t, pr.dur, pr.late, pr.rung, pr.clocks = r.t, r.dur, r.late, r, r.clocks
	}
	return pr
}

// runLadder runs open-2pc's rate ladder from a collected heap, ascending,
// each rung for an equal share of dur, and stops after the first rung that
// misses the latency limit.
func runLadder(rc runConfig, a *arm, idx int, dur time.Duration, l *ledger) []*rung {
	s := newStream(rc.seed, rc.w, idx, rc.customers)
	var rungs []*rung
	measured(func() {
		for _, rate := range ladder {
			r := runOpen(a, s, rate, dur/time.Duration(len(ladder)), l)
			rungs = append(rungs, r)
			if !r.meetsLimit() {
				break
			}
		}
	})
	return rungs
}

// maxRate is the highest rung, climbing from the bottom, whose p99 met the
// limit with no growing backlog (0 if even the lowest missed).
func maxRate(rungs []*rung) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.meetsLimit() {
			break
		}
		best = r.rate
	}
	return best
}

// endToEnd turns the repetitions into the end-to-end metrics: the bounded set
// the JSON line carries, and the figures printed beside it that are not
// defined (or not non-zero) on every workload.
func endToEnd(rc runConfig, done []repetition) (machine, info []metric) {
	var setup, heap, gcs, cpuRep, thrRep []float64
	var thr, cpu, ops, rp50, rp90, wp50, wp90, steal []float64 // one entry per window per repetition
	var gcWin []bool                                           // a collection cycle ran in the window
	var reads, writes latencies
	var ok, retries int64
	all := newTally()
	for _, rep := range done {
		pr := rep.pr
		setup = append(setup, rep.setup.Seconds())
		heap = append(heap, rep.heap)
		gcs = append(gcs, float64(pr.mem.gcs))
		cpuRep = append(cpuRep, us(pr.clocks[windows].cpu-pr.clocks[0].cpu)/max(float64(len(pr.t.reads.d)+len(pr.t.writes.d)), 1))
		good := float64(len(pr.t.reads.d) + len(pr.t.writes.d))
		if rc.w != serialRW {
			good = float64(within(&pr.t.reads, latencyLimit) + within(&pr.t.writes, latencyLimit))
		}
		thrRep = append(thrRep, good/pr.span.Seconds())
		wd := pr.span / windows
		for k := 0; k < windows; k++ {
			rd := window(&pr.t.reads, pr.t.readAt, pr.span, k)
			wr := window(&pr.t.writes, pr.t.writeAt, pr.span, k)
			n := float64(len(rd.d) + len(wr.d))
			good := n
			if rc.w != serialRW {
				// Open loops: goodput, completed within the latency limit.
				good = float64(within(rd, latencyLimit) + within(wr, latencyLimit))
			}
			thr = append(thr, good/wd.Seconds())
			at, next := pr.clocks[k], pr.clocks[k+1]
			cpu, ops = append(cpu, us(next.cpu-at.cpu)), append(ops, n)
			steal = append(steal, float64(next.steal-at.steal)/float64(wd*time.Duration(nproc())))
			gcWin = append(gcWin, next.gc)
			rs, ws := rd.summarize(), wr.summarize()
			rp50, rp90 = append(rp50, ms(rs.P50)), append(rp90, ms(rs.P90))
			wp50, wp90 = append(wp50, ms(ws.P50)), append(wp90, ms(ws.P90))
		}
		reads.merge(&pr.t.reads)
		writes.merge(&pr.t.writes)
		ok += pr.t.ok
		retries += rep.retries
		all.add(rep.all)
	}
	// The windowed metrics describe the program between collection cycles.
	// At serial-rw's allocation rate a cycle comes about 6 s into each
	// interval and marks a ~310 MB live heap for a second or more of CPU,
	// cutting the closed loop's throughput by half or more while it runs.
	// Whether a cycle fell in one window or straddled two moved medians over
	// all windows by 15-40% between runs of the same code. The
	// whole-interval figures printed beside them include the cycles, and
	// gc_cycles counts them.
	//
	// Of those, the metrics use the quieter half (see windows and quiet):
	// throughput and the percentiles are medians over them, and CPU per op
	// is their CPU over their ops. Steal moves CPU per op too: the replica's
	// poller and the other timers cost about a tenth of a CPU whatever the
	// load, so on serial-rw a window running at 450 ops/s under 25% steal
	// cost 400-440 µs per op, and one at 700 ops/s 280-350 µs. The p99s pool
	// the repetitions' samples instead: they need the count.
	noGC := gcFree(gcWin)
	keep := quiet(steal, noGC)
	kept := len(pick(steal, keep))
	cpuPerOp := sum(pick(cpu, keep)) / max(sum(pick(ops, keep)), 1)
	thr, rp50, rp90, wp50, wp90 = pick(thr, keep), pick(rp50, keep), pick(rp90, keep), pick(wp50, keep), pick(wp90, keep)
	rd, wr := reads.summarize(), writes.summarize()
	med := func(name string, xs []float64, unit, note string) metric {
		return metric{name: name, value: medianFloat(xs), unit: unit, note: medianNote(xs, note)}
	}
	pooled := func(name string, d time.Duration, note string) metric {
		return metric{name: name, value: ms(d), unit: "ms", note: note}
	}
	machine = []metric{
		med("setup_s", setup, "s", ""),
		med("throughput_ops", thr, "ops/s", fmt.Sprintf("n=%d; whole intervals, collections included: %s", ok, medianNote(thrRep, ""))),
		med("read_p50_ms", rp50, "ms", fmt.Sprintf("n=%d", rd.N)),
		med("write_p50_ms", wp50, "ms", fmt.Sprintf("n=%d", wr.N)),
		{name: "cpu_us_per_op", value: cpuPerOp, unit: "us", note: fmt.Sprintf("process user+sys over the ops of the %d kept windows; whole intervals, collections included: %s",
			kept, medianNote(cpuRep, ""))},
		med("heap_live_mb", heap, "MB", "after forced GC"),
	}
	// The tails are printed on every run and bounded nowhere: on a shared
	// 2-vCPU VM they follow the CPU the host steals from it, and spread
	// across seeds by more than any bound a regression gate can use (see
	// README.md).
	info = append(info,
		med("read_p90_ms", rp90, "ms", fmt.Sprintf("n=%d", rd.N)),
		med("write_p90_ms", wp90, "ms", fmt.Sprintf("n=%d", wr.N)),
		pooled("read_p99_ms", rd.Tail, fmt.Sprintf("%s of n=%d", rd.tailLabel(), rd.N)),
		pooled("write_p99_ms", wr.Tail, fmt.Sprintf("%s of n=%d", wr.tailLabel(), wr.N)))
	last := done[len(done)-1]
	switch rc.w {
	case replicaRead:
		machine[1].note += fmt.Sprintf(", goodput (completed within %v) at %d reads/s + %d writes/s", latencyLimit, readRate, writerRate)
	case openTwoPC:
		machine[1].note += fmt.Sprintf(", goodput (completed within %v) at the reference rate %d/s", latencyLimit, refRate)
	}
	if rc.w == openTwoPC {
		info = append(info, metric{name: "max_rate_ops", value: maxRate(last.ladder), unit: "ops/s", note: ladderNote(last.ladder)})
	} else {
		info = append(info, metric{name: "max_rate_ops", value: 0, unit: "ops/s", note: "n/a: open-2pc only"})
	}
	info = append(info, metric{name: "bench.host_steal_frac", value: medianFloat(steal), unit: "frac",
		note: fmt.Sprintf("%s; the windowed metrics use the %d of the %d windows without a collection cycle at or below their median", medianNote(steal, "share of the CPUs the hypervisor withheld, per window"), kept, len(pick(steal, noGC)))})
	info = append(info, failedFrac(all, retries), med("gc_cycles", gcs, "count", "collections the runtime ran inside each measured interval"))
	if rc.w != serialRW {
		var prs []*phaseResult
		for _, rep := range done {
			prs = append(prs, rep.pr)
		}
		info = append(info, genLate(prs)...)
	}
	return machine, info
}

// medianNote lists the values a median was taken over, then note.
func medianNote(xs []float64, note string) string {
	s := "median of"
	for _, x := range xs {
		s += fmt.Sprintf(" %.4g", x)
	}
	if note != "" {
		s += "; " + note
	}
	return s
}

func failedFrac(t *tally, retries int64) metric {
	att := max(float64(t.attempted), 1)
	note := fmt.Sprintf("failed=%d attempted=%d user_aborts=%d conflict_retries=%d", t.failed, t.attempted, t.userAborts, retries)
	keys := make([]string, 0, len(t.errs))
	for e := range t.errs {
		keys = append(keys, e)
	}
	sort.Strings(keys)
	for _, e := range keys {
		note += fmt.Sprintf(" [%s x%d]", e, t.errs[e])
	}
	return metric{name: "failed_frac", value: float64(t.failed) / att, unit: "frac", note: note}
}

func ladderNote(rungs []*rung) string {
	s := fmt.Sprintf("limit p99<=%v;", latencyLimit)
	for _, r := range rungs {
		p := r.p99()
		late := r.late.summarize()
		s += fmt.Sprintf(" %.0f/s:%s=%.2fms,late_%s=%.2fms,backlog=%d,meets=%v,valid=%v;",
			r.rate, p.tailLabel(), ms(p.Tail), late.tailLabel(), ms(late.Tail), r.outstanding, r.meetsLimit(), r.valid())
	}
	return s
}

// genLate reports the generator's lateness (send time minus due time),
// median over the phases, and for open-2pc whether every reference rung was
// valid: lateness p99 within lateShare of the latency p99 it measures.
func genLate(prs []*phaseResult) []metric {
	var p50, p99 []float64
	valid := 1.0
	for _, pr := range prs {
		late := pr.late.summarize()
		p50, p99 = append(p50, ms(late.P50)), append(p99, ms(late.Tail))
		if pr.rung != nil && !pr.rung.valid() {
			valid = 0
		}
	}
	return []metric{
		{name: "bench.gen_late_p50_ms", value: medianFloat(p50), unit: "ms", note: medianNote(p50, "")},
		{name: "bench.gen_late_p99_ms", value: medianFloat(p99), unit: "ms", note: medianNote(p99, "")},
		{name: "bench.gen_valid", value: valid, unit: "bool", note: fmt.Sprintf("1 when generator lateness p99 <= %.0f%% of the latency p99 it measures", lateShare*100)},
	}
}
