package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"reactdb"
	"reactdb/internal/randutil"
	"reactdb/internal/workload/smallbank"
)

type workload string

const (
	serialRW    workload = "serial-rw"
	openTwoPC   workload = "open-2pc"
	replicaRead workload = "replica-read"
)

var workloads = []workload{serialRW, openTwoPC, replicaRead}

// Workload parameters. They are fixed here, not derived from the machine, so
// two checkouts run the same inputs.
const (
	// zipfTheta is the key skew of open-2pc.
	zipfTheta = 0.99
	// refRate is open-2pc's named reference rate (ops/s): the rate its
	// end-to-end latency, throughput and CPU figures are taken at. It sits
	// well below the knee of a quiet 2-vCPU host (2000-2500/s) and at the
	// bottom of the 600-1000/s the knee falls to while the hypervisor steals
	// CPU: in such a period the p50s spread about 40% across seeds at
	// 1000/s, and 17-26% at 600/s.
	refRate = 600
	// latencyLimit is open-2pc's p99 limit; a ladder rate meets it when its
	// p99 (failures counting as misses) is within the limit and its backlog
	// did not grow.
	latencyLimit = 25 * time.Millisecond
	// maxBacklog is the share of a rung's rate, in seconds of arrivals, that
	// may still be outstanding when the rung ends before its backlog counts
	// as growing.
	maxBacklog = 0.05
	// maxOutstanding caps open-loop requests in flight; the generator blocks
	// past it, which shows up as generator lateness.
	maxOutstanding = 4096
	// writerRate is replica-read's writer rate (deposits/s to the primary).
	writerRate = 200
	// readRate is replica-read's read rate (balance reads/s to the replica),
	// a third to a half of the 14-26k/s two closed-loop readers pipelined on
	// one connection complete on a 2-vCPU host: the read path is loaded, the
	// CPU is not saturated. Busier executors also wake more steadily than at
	// 4000/s, where the read p50 spread 27% across seeds against 16% here.
	readRate = 8000
	// lateShare is the open-loop validity bound: a rung whose generator
	// lateness p99 exceeds this share of the latency p99 it measures is
	// marked invalid.
	lateShare = 0.5
)

// ladder is open-2pc's rate ladder (ops/s), ascending; refRate is one rung.
var ladder = []float64{300, refRate, 1000, 1500, 2000, 2500, 3000}

type opKind uint8

const (
	opBalance opKind = iota
	opDeposit
	opTransfer
)

// op is one generated request: a balance read of a, a deposit of amt into a's
// checking account, or a transfer of amt from a's savings to b's.
type op struct {
	kind opKind
	a, b int
	amt  float64
}

func (o op) isRead() bool { return o.kind == opBalance }

// stream generates one deterministic request stream. The mix and key
// distribution depend only on the workload; the draws only on the seed and
// the stream index.
type stream struct {
	r        *rand.Rand
	n        int
	zipf     *randutil.Zipfian // nil: uniform keys
	pBalance float64
	pDeposit float64 // the remainder are transfers
}

// streamSeed derives an independent seed for stream idx of workload w.
func streamSeed(seed int64, w workload, idx int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", w, seed, idx)
	return int64(h.Sum64() >> 1)
}

// Stream indexes: every phase of a run replays the same main stream (so the
// in-process arm sees exactly what the wire saw); warm-up has its own.
const (
	streamMain   = 0
	streamWriter = 100
	streamWarmup = 200
)

// zipfs caches one zipfian generator per key-space size: building one sums
// n powers, and the generators are read-only once built.
var zipfs struct {
	mu sync.Mutex
	by map[int]*randutil.Zipfian
}

func zipfFor(n int) *randutil.Zipfian {
	zipfs.mu.Lock()
	defer zipfs.mu.Unlock()
	if zipfs.by == nil {
		zipfs.by = map[int]*randutil.Zipfian{}
	}
	if zipfs.by[n] == nil {
		zipfs.by[n] = randutil.NewZipfian(n, zipfTheta)
	}
	return zipfs.by[n]
}

func newStream(seed int64, w workload, idx, customers int) *stream {
	s := &stream{r: randutil.New(streamSeed(seed, w, idx)), n: customers}
	switch w {
	case serialRW:
		s.pBalance, s.pDeposit = 0.5, 0.5
	case openTwoPC:
		s.pBalance, s.pDeposit = 0.4, 0.4
		s.zipf = zipfFor(customers)
	case replicaRead:
		// Reader streams are all balance reads; the writer stream is all
		// deposits (see writerStream).
		s.pBalance = 1
	}
	return s
}

func writerStream(seed int64, idx, customers int) *stream {
	s := newStream(seed, replicaRead, streamWriter+idx, customers)
	s.pBalance, s.pDeposit = 0, 1
	return s
}

func (s *stream) key() int {
	if s.zipf != nil {
		return s.zipf.Next(s.r)
	}
	return s.r.Intn(s.n)
}

func (s *stream) next() op {
	u := s.r.Float64()
	o := op{a: s.key(), amt: float64(1 + s.r.Intn(100))}
	switch {
	case u < s.pBalance:
		o.kind = opBalance
	case u < s.pBalance+s.pDeposit:
		o.kind = opDeposit
	default:
		o.kind = opTransfer
		for o.b = s.key(); o.b == o.a; o.b = s.key() {
		}
	}
	return o
}

// execFn runs one procedure on one reactor: Router.Execute, Conn.Execute or
// an in-process Database call.
type execFn func(reactor, procedure string, args ...any) (any, error)

// names holds the smallbank reactor names, built once.
var names []string

func reactorNames(n int) []string {
	if len(names) != n {
		names = make([]string, n)
		for i := range names {
			names[i] = smallbank.ReactorName(i)
		}
	}
	return names
}

func call(ex execFn, o op) (any, error) {
	switch o.kind {
	case opBalance:
		return ex(names[o.a], smallbank.ProcBalance)
	case opDeposit:
		return ex(names[o.a], smallbank.ProcDepositChecking, o.amt)
	default:
		return ex(names[o.a], smallbank.ProcTransfer, names[o.a], names[o.b], o.amt, false)
	}
}

// ledger is the black-box model of the money the workload moved: it checks
// every read it can against what was acknowledged, and bounds the final
// total between the acknowledged deposits and the acknowledged plus failed
// (outcome unknown) ones. Transfers conserve money whatever their outcome.
type ledger struct {
	// exact turns on per-customer read checks; valid only while a single
	// request is outstanding (serial-rw).
	exact bool

	issued atomic.Int64 // whole-number amount of every deposit and transfer sent

	mu        sync.Mutex
	acked     float64
	inDoubt   float64
	perCust   map[int]float64
	doubtCust map[int]bool
	badReads  int
	firstBad  string
}

func newLedger(exact bool) *ledger {
	return &ledger{exact: exact, perCust: map[int]float64{}, doubtCust: map[int]bool{}}
}

func (l *ledger) sent(o op) {
	if o.kind != opBalance {
		l.issued.Add(int64(o.amt))
	}
}

// done records a request's outcome.
func (l *ledger) done(o op, v any, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch o.kind {
	case opDeposit:
		if err == nil {
			l.acked += o.amt
			l.perCust[o.a] += o.amt
		} else if !reactdb.IsUserAbort(err) {
			l.inDoubt += o.amt
			l.doubtCust[o.a] = true
		}
	case opBalance:
		if err != nil {
			return
		}
		got, ok := v.(float64)
		if !ok {
			l.bad(fmt.Sprintf("balance of %s returned %T", names[o.a], v))
			return
		}
		base := 2 * initialBalance
		if l.exact && !l.doubtCust[o.a] {
			if want := base + l.perCust[o.a]; got != want {
				l.bad(fmt.Sprintf("balance of %s = %.0f, want %.0f", names[o.a], got, want))
			}
			return
		}
		if got != math.Trunc(got) || math.Abs(got-base) > float64(l.issued.Load()) {
			l.bad(fmt.Sprintf("balance of %s = %f, outside %.0f ± %d", names[o.a], got, base, l.issued.Load()))
		}
	}
}

func (l *ledger) bad(msg string) {
	l.badReads++
	if l.firstBad == "" {
		l.firstBad = msg
	}
}

// tally counts one phase's outcomes and latencies.
type tally struct {
	mu         sync.Mutex
	start      time.Time
	attempted  int64
	ok         int64
	failed     int64
	userAborts int64
	reads      latencies
	writes     latencies
	readAt     []time.Duration // completion offsets from start, parallel to reads.d
	writeAt    []time.Duration
	errs       map[string]int
}

func newTally() *tally { return &tally{start: time.Now(), errs: map[string]int{}} }

func (t *tally) record(o op, lat time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch {
	case err == nil:
		t.ok++
		at := time.Since(t.start)
		if o.isRead() {
			t.reads.add(lat)
			t.readAt = append(t.readAt, at)
		} else {
			t.writes.add(lat)
			t.writeAt = append(t.writeAt, at)
		}
	case reactdb.IsUserAbort(err):
		t.userAborts++
	default:
		t.failed++
		t.errs[errClass(err)]++
	}
}

func errClass(err error) string {
	switch {
	case errors.Is(err, reactdb.ErrConflict):
		return "conflict"
	case errors.Is(err, reactdb.ErrOverloaded):
		return "overloaded"
	}
	return err.Error()
}

// within counts the samples of l that met limit.
func within(l *latencies, limit time.Duration) int {
	n := 0
	for _, d := range l.d {
		if d <= limit {
			n++
		}
	}
	return n
}

// all returns the phase's read and write latencies together.
func (t *tally) all() *latencies {
	var l latencies
	l.merge(&t.reads)
	l.merge(&t.writes)
	return &l
}

// arm is where a phase sends its requests: the wire (through the router or a
// replica connection) or the in-process database, with optional tracing.
type arm struct {
	write execFn // read-write requests (and serial-rw / open-2pc reads)
	read  execFn // replica-read's reads
	rec   *recorder
	name  string // root span name: "client.call" or "engine.execute"

	mu    sync.Mutex
	calls latencies // call durations while tracing, kept apart from the capped span buffer

	retries atomic.Int64 // conflict retries sent on top of the router's
}

// issue runs o on the arm, recording a root span when tracing.
func (a *arm) issue(o op) (any, error) {
	ex := a.write
	if o.isRead() && a.read != nil {
		ex = a.read
	}
	if a.rec == nil {
		return a.callRetrying(ex, o)
	}
	start := time.Now()
	v, err := a.callRetrying(ex, o)
	end := time.Now()
	a.rec.span(0, 0, a.name, start, end)
	a.mu.Lock()
	a.calls.add(end.Sub(start))
	a.mu.Unlock()
	return v, err
}

// appRetries is how many more times a client sends a request the router
// gave up on with a serialization conflict, as an application on OCC would:
// zipfian transfers past the ladder's knee can outlast the router's own
// retries. A conflict abort commits nothing, so a retry is safe.
const appRetries = 8

func (a *arm) callRetrying(ex execFn, o op) (any, error) {
	for attempt := 0; ; attempt++ {
		v, err := call(ex, o)
		if err == nil || attempt == appRetries || !errors.Is(err, reactdb.ErrConflict) {
			return v, err
		}
		a.retries.Add(1)
	}
}

// runSerial is serial-rw's closed loop: one outstanding request at a time.
func runSerial(a *arm, s *stream, dur time.Duration, t *tally, l *ledger) {
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		o := s.next()
		l.sent(o)
		start := time.Now()
		v, err := a.issue(o)
		t.record(o, time.Since(start), err)
		l.done(o, v, err)
	}
}

// rung is the outcome of one open-loop rate.
type rung struct {
	rate        float64
	dur         time.Duration
	t           *tally
	late        latencies // generator lateness: send time minus due time
	outstanding int       // requests still in flight when the rung ended
	clocks      []clock   // at each window boundary
}

// p99 is the rung's tail over every request, failures counting as misses.
func (r *rung) p99() summary {
	all := r.t.all()
	for i := int64(0); i < r.t.failed; i++ {
		all.add(time.Duration(math.MaxInt64))
	}
	return all.summarize()
}

func (r *rung) backlogGrew() bool { return float64(r.outstanding) > r.rate*maxBacklog }

func (r *rung) meetsLimit() bool { return !r.backlogGrew() && r.p99().Tail <= latencyLimit }

// valid reports whether the generator kept to its schedule well enough for
// the rung's latencies to measure the system rather than the generator.
func (r *rung) valid() bool {
	late := r.late.summarize()
	return float64(late.Tail) <= lateShare*float64(r.p99().Tail)
}

// runOpen is one open-loop rung at rate for dur, timed from due times.
func runOpen(a *arm, s *stream, rate float64, dur time.Duration, l *ledger) *rung {
	r := &rung{rate: rate, dur: dur, t: newTally()}
	start := time.Now()
	clocks := sampleClock(start, dur)
	r.outstanding = openLoop(a, s, rate, start, dur, r.t, &r.late, l, true)
	r.clocks = clocks()
	return r
}

// openLoop sends s's requests as Poisson arrivals at rate during
// [start, start+dur), each on its own goroutine (pipelined over the arm's
// connections), recording every outcome in t and the generator's lateness
// (send time minus due time) in late. fromDue times a request from the moment
// it was due, so a late generator counts against the system; otherwise from
// the moment it was sent. It returns how many requests were still in flight
// at the end of the interval, after waiting for all of them.
func openLoop(a *arm, s *stream, rate float64, start time.Time, dur time.Duration, t *tally, late *latencies, l *ledger, fromDue bool) int {
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	offset := s.r.ExpFloat64() / rate
	for offset < dur.Seconds() {
		due := start.Add(time.Duration(offset * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		sent := time.Now()
		late.add(sent.Sub(due))
		if fromDue {
			sent = due
		}
		o := s.next()
		l.sent(o)
		wg.Add(1)
		go func(o op, from time.Time) {
			defer wg.Done()
			v, err := a.issue(o)
			t.record(o, time.Since(from), err)
			l.done(o, v, err)
			<-sem
		}(o, sent)
		offset += s.r.ExpFloat64() / rate
	}
	if rest := time.Until(start.Add(dur)); rest > 0 {
		time.Sleep(rest)
	}
	outstanding := len(sem)
	wg.Wait()
	return outstanding
}

// runReplicaRead runs replica-read for dur: balance reads at readRate on the
// arm's read path, timed from when they were sent, beside deposits at
// writerRate on its write path, timed from their due times. Both are open
// loops; generator lateness of both goes to late.
func runReplicaRead(a *arm, seed int64, idx, customers int, dur time.Duration, t *tally, l *ledger, late *latencies) {
	start := time.Now()
	var readLate latencies
	done := make(chan struct{})
	go func() {
		defer close(done)
		openLoop(a, newStream(seed, replicaRead, idx, customers), readRate, start, dur, t, &readLate, l, false)
	}()
	openLoop(a, writerStream(seed, idx, customers), writerRate, start, dur, t, late, l, true)
	<-done
	late.merge(&readLate)
}
