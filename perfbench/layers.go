package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"reactdb"
	"reactdb/internal/stats"
)

// profiles collects the engine's per-transaction latency profiles from the
// in-process arm.
type profiles struct {
	mu sync.Mutex
	p  []reactdb.Profile
}

// inproc runs requests straight on db through ExecuteProfiled — the
// in-process arm — keeping each profile and, when tracing, an engine.execute
// span with its commit and blocked-wait parts as children. The engine reports
// those parts as durations, so the child spans are placed at the end of the
// root span: commit last, blocked wait just before it.
func inproc(db *reactdb.Database, sink *profiles, rec *recorder) execFn {
	return func(reactor, procedure string, args ...any) (any, error) {
		v, p, err := db.ExecuteProfiled(reactor, procedure, args...)
		if err != nil {
			return v, err
		}
		end := time.Now()
		sink.mu.Lock()
		sink.p = append(sink.p, p)
		sink.mu.Unlock()
		if rec != nil {
			root := rec.span(0, 0, "engine.execute", end.Add(-p.Total), end)
			commitStart := end.Add(-p.Commit)
			rec.span(root, root, "engine.commit", commitStart, end)
			if p.BlockedWait > 0 {
				rec.span(root, root, "engine.xcall.blocked", commitStart.Add(-p.BlockedWait), commitStart)
			}
		}
		return v, nil
	}
}

// engineSnap is the engine counters the traced phase differences.
type engineSnap struct {
	committed, aborted uint64
	batches, txns      uint64
	appends, fsyncs    uint64
	absorbed           uint64
	rounds, applied    uint64
}

func snapEngine(d *deployment) engineSnap {
	var s engineSnap
	s.committed, s.aborted = d.db.Stats()
	for _, g := range d.db.GroupCommitStats() {
		s.batches += g.Batches
		s.txns += g.Txns
	}
	for _, w := range d.db.WALStats() {
		s.appends += w.Appends
		s.fsyncs += w.Fsyncs
		s.absorbed += w.SyncsAbsorbed
	}
	rs := d.rep.Stats()
	s.rounds, s.applied = rs.Rounds, rs.Applied
	return s
}

// servingDBs are the databases whose schedulers the workload loads.
func servingDBs(rc runConfig, d *deployment) []*reactdb.Database {
	if rc.w == replicaRead {
		return []*reactdb.Database{d.db, d.rep.Database()}
	}
	return []*reactdb.Database{d.db}
}

// sampleLag samples the replica's total lag (records) every 5ms until the
// returned stop function is called; stop returns the samples.
func sampleLag(rep *reactdb.Replica) func() []float64 {
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var out []float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- out
				return
			case <-tick.C:
				var lag uint64
				for _, sh := range rep.Stats().Shards {
					lag += sh.Lag
				}
				out = append(out, float64(lag))
			}
		}
	}()
	return func() []float64 {
		close(stop)
		return <-done
	}
}

func quantileFloat(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func histUS(s stats.HistogramSnapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Quantile(q) / 1e3
}

// layerRun is the traced run's outcome.
type layerRun struct {
	metrics []metric
	lines   []string
	all     *tally
}

// measureLayers is the traced run. It splits the measured time into phases
// on one deployment:
//
//   - untraced: the wire workload exactly as the end-to-end run drives it;
//   - traced: the same request stream with client spans, the storage
//     decorators timing every log write and fsync, the engine's counters
//     differenced across the phase and the replica's lag sampled;
//   - in-process: the same stream again through Database.ExecuteProfiled
//     (Replica.Database().ExecuteProfiled for replica-read's reads);
//   - ladder (open-2pc only): the rate ladder, for max_rate_ops.
//
// Per-layer figures come from the benchmark's own calls into each layer's
// public entry points; nothing inside the program is instrumented.
func measureLayers(rc runConfig, d *deployment, led *ledger, dur time.Duration) (*layerRun, error) {
	phases := 3
	if rc.w == openTwoPC {
		phases = 4
	}
	each := dur / time.Duration(phases)
	all := newTally()

	untracedArm := d.wireArm(nil)
	untraced := runPhase(rc, untracedArm, streamMain, each, led)
	all.add(untraced.t)

	rec := newRecorder()
	dbs := servingDBs(rc, d)
	for _, db := range dbs {
		db.ResetExecutorStats()
	}
	s0 := snapEngine(d)
	d.primaryIO.t.start(rec)
	d.mirrorIO.t.start(rec)
	stopLag := sampleLag(d.rep)
	tracedArm := d.wireArm(rec)
	traced := runPhase(rc, tracedArm, streamMain, each, led)
	lag := stopLag()
	d.primaryIO.t.stop()
	d.mirrorIO.t.stop()
	s1 := snapEngine(d)
	var waits, depths []stats.HistogramSnapshot
	var rejected int64
	var util float64
	var nexec int
	for _, db := range dbs {
		for _, q := range db.QueueStats() {
			waits = append(waits, q.Wait)
			depths = append(depths, q.DepthSeen)
			rejected += q.Rejected
		}
		for _, c := range db.ExecutorUtilization() {
			for _, u := range c {
				util += u
				nexec++
			}
		}
	}
	all.add(traced.t)

	prim, repl := &profiles{}, &profiles{}
	in := &arm{write: inproc(d.db, prim, rec)}
	if rc.w == replicaRead {
		in.read = inproc(d.rep.Database(), repl, rec)
	}
	inp := runPhase(rc, in, streamMain, each, led)
	all.add(inp.t)

	var lad []*rung
	ladderArm := d.wireArm(nil)
	if rc.w == openTwoPC {
		lad = runLadder(rc, ladderArm, streamMain+1, each, led)
		for _, r := range lad {
			all.add(r.t)
		}
	}

	// Engine profiles: every in-process request.
	profs := append(append([]reactdb.Profile(nil), prim.p...), repl.p...)
	var total, commit, preCommit, blocked latencies
	var sumCommit, sumTotal time.Duration
	remote, multi := 0, 0
	for _, p := range profs {
		total.add(p.Total)
		commit.add(p.Commit)
		preCommit.add(p.Total - p.Commit)
		sumCommit += p.Commit
		sumTotal += p.Total
		remote += p.RemoteCalls
		if p.RemoteCalls > 0 {
			multi++
			blocked.add(p.BlockedWait)
		}
	}
	var replExec latencies
	for _, p := range repl.p {
		replExec.add(p.Total)
	}
	nProf := float64(len(profs))

	io := d.primaryIO.t
	io.mu.Lock()
	syncS, writeS := io.syncs.summarize(), io.writes.summarize()
	var syncBusy time.Duration
	for _, s := range io.syncs.d {
		syncBusy += s
	}
	walBytes := float64(io.bytes)
	io.mu.Unlock()
	d.mirrorIO.t.mu.Lock()
	mirrorSync := d.mirrorIO.t.syncs.summarize()
	d.mirrorIO.t.mu.Unlock()

	committed := float64(s1.committed - s0.committed)
	aborted := float64(s1.aborted - s0.aborted)
	calls := tracedArm.calls.summarize()
	totalS := total.summarize()
	commitS := commit.summarize()
	preS := preCommit.summarize()
	waitSnap := stats.MergeSnapshots(waits...)
	depthSnap := stats.MergeSnapshots(depths...)
	untracedP50 := untraced.all50()
	tracedP50 := traced.all50()

	late := untraced.late.summarize()
	valid := 1.0
	if untraced.rung != nil && !untraced.rung.valid() {
		valid = 0
	}
	ops := float64(traced.t.attempted)
	rdU, wrU := untraced.t.reads.summarize(), untraced.t.writes.summarize()
	m := []metric{
		{name: "read_p99_ms", value: ms(rdU.Tail), unit: "ms", note: fmt.Sprintf("untraced phase, %s of n=%d", rdU.tailLabel(), rdU.N)},
		{name: "write_p99_ms", value: ms(wrU.Tail), unit: "ms", note: fmt.Sprintf("untraced phase, %s of n=%d", wrU.tailLabel(), wrU.N)},
		{name: "server.call_p50_us", value: us(calls.P50), unit: "us", note: fmt.Sprintf("client calls n=%d", calls.N)},
		{name: "server.call_p99_us", value: us(calls.Tail), unit: "us", note: calls.tailLabel()},
		{name: "server.overhead_p50_us", value: us(calls.P50) - us(totalS.P50), unit: "us", note: fmt.Sprintf("wire p50 - in-process p50 (%.1fus)", us(totalS.P50))},
		{name: "engine.sched.wait_p50_us", value: histUS(waitSnap, 0.5), unit: "us", note: fmt.Sprintf("n=%d", waitSnap.Count)},
		{name: "engine.sched.wait_p99_us", value: histUS(waitSnap, 0.99), unit: "us"},
		{name: "engine.sched.depth_p99", value: depthSnap.Quantile(0.99), unit: "count"},
		{name: "engine.sched.util", value: ratio(util, float64(nexec)), unit: "frac", note: fmt.Sprintf("mean over %d executors", nexec)},
		{name: "engine.sched.rejected", value: float64(rejected), unit: "count"},
		{name: "engine.commit.p50_us", value: us(commitS.P50), unit: "us", note: fmt.Sprintf("Profile.Commit n=%d", commitS.N)},
		{name: "engine.commit.p99_us", value: us(commitS.Tail), unit: "us", note: commitS.tailLabel()},
		{name: "engine.commit.share", value: ratio(float64(sumCommit), float64(sumTotal)), unit: "frac"},
		{name: "engine.commit.batch_mean", value: ratio(float64(s1.txns-s0.txns), float64(s1.batches-s0.batches)), unit: "txns"},
		{name: "engine.commit.records_per_txn", value: ratio(float64(s1.appends-s0.appends), committed), unit: "records"},
		{name: "engine.xcall.blocked_p50_us", value: us(blocked.summarize().P50), unit: "us", note: fmt.Sprintf("over %d multi-container txns", multi)},
		{name: "engine.xcall.remote_per_txn", value: ratio(float64(remote), nProf), unit: "calls"},
		{name: "engine.xcall.multi_container_frac", value: ratio(float64(multi), nProf), unit: "frac"},
		{name: "occ.abort_frac", value: ratio(aborted, committed+aborted), unit: "frac", note: fmt.Sprintf("committed=%.0f aborted=%.0f", committed, aborted)},
		{name: "wal.sync_p50_us", value: us(syncS.P50), unit: "us", note: fmt.Sprintf("n=%d", syncS.N)},
		{name: "wal.sync_p99_us", value: us(syncS.Tail), unit: "us", note: syncS.tailLabel()},
		{name: "wal.write_p50_us", value: us(writeS.P50), unit: "us", note: fmt.Sprintf("n=%d", writeS.N)},
		{name: "wal.sync_busy_frac", value: ratio(float64(syncBusy), float64(traced.dur)*float64(len(d.db.WALStats()))), unit: "frac", note: "per log"},
		{name: "wal.fsyncs_per_txn", value: ratio(float64(syncS.N), committed), unit: "fsyncs"},
		{name: "wal.absorbed_frac", value: ratio(float64(s1.absorbed-s0.absorbed), float64(s1.fsyncs-s0.fsyncs+s1.absorbed-s0.absorbed)), unit: "frac"},
		{name: "wal.bytes_per_txn", value: ratio(walBytes, committed), unit: "bytes"},
		{name: "wal.bytes_per_fsync", value: ratio(walBytes, float64(syncS.N)), unit: "bytes"},
		{name: "replica.lag_p50_records", value: quantileFloat(lag, 0.5), unit: "records", note: fmt.Sprintf("%d samples", len(lag))},
		{name: "replica.lag_p99_records", value: quantileFloat(lag, 0.99), unit: "records"},
		{name: "replica.applied_per_round", value: ratio(float64(s1.applied-s0.applied), float64(s1.rounds-s0.rounds)), unit: "records"},
		{name: "replica.mirror_sync_p50_us", value: us(mirrorSync.P50), unit: "us", note: fmt.Sprintf("n=%d", mirrorSync.N)},
		{name: "replica.exec_p50_us", value: us(replExec.summarize().P50), unit: "us", note: fmt.Sprintf("n=%d", len(replExec.d))},
		{name: "engine.exec.pre_commit_p50_us", value: us(preS.P50), unit: "us", note: "Profile.Total - Profile.Commit"},
		{name: "bench.gen_late_p50_ms", value: ms(late.P50), unit: "ms", note: fmt.Sprintf("n=%d", late.N)},
		{name: "bench.gen_late_p99_ms", value: ms(late.Tail), unit: "ms"},
		{name: "bench.trace_overhead_frac", value: ratio(float64(tracedP50-untracedP50), float64(untracedP50)), unit: "frac",
			note: fmt.Sprintf("traced p50 %.1fus vs untraced %.1fus", us(tracedP50), us(untracedP50))},
		{name: "bench.gen_valid", value: valid, unit: "bool", note: fmt.Sprintf("1 when generator lateness p99 <= %.0f%% of the latency p99 it measures", lateShare*100)},
		{name: "bench.alloc_kb_per_op", value: ratio(float64(traced.mem.alloc)/1e3, ops), unit: "KB", note: "traced phase, whole process"},
		{name: "bench.gc_cycles", value: float64(traced.mem.gcs), unit: "count", note: "collections the runtime ran inside the traced phase"},
		{name: "max_rate_ops", value: maxRate(lad), unit: "ops/s", note: ladderNote(lad)},
		failedFrac(all, untracedArm.retries.Load()+tracedArm.retries.Load()+in.retries.Load()+ladderArm.retries.Load()),
	}

	lines := breakdown(rc, untracedP50, us(calls.P50)-us(totalS.P50), histUS(waitSnap, 0.5), us(preS.P50), us(commitS.P50), us(writeS.P50), us(syncS.P50))
	lines = append(lines, fmt.Sprintf("trace overhead: traced p50 %.1fus, untraced p50 %.1fus, delta %+.1fus (%+.1f%%)",
		us(tracedP50), us(untracedP50), us(tracedP50-untracedP50), 100*ratio(float64(tracedP50-untracedP50), float64(untracedP50))))
	path := filepath.Join(rc.out, fmt.Sprintf("spans-%s-seed%d.jsonl", rc.w, rc.seed))
	if err := rec.writeJSONL(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	lines = append(lines, fmt.Sprintf("spans: %d written to %s (%d dropped past the cap)", len(rec.spans), path, rec.dropped))
	return &layerRun{metrics: m, lines: lines, all: all}, nil
}

// all50 is the median of every completed request of the phase.
func (pr *phaseResult) all50() time.Duration {
	return pr.t.all().summarize().P50
}

// breakdown attributes the end-to-end median (the untraced wire p50) to
// layers by their own medians, self time only, and prints what is left as
// unexplained. Medians of different distributions do not add exactly, so
// the remainder absorbs that too.
func breakdown(rc runConfig, e2e time.Duration, server, wait, preCommit, commit, walWrite, walSync float64) []string {
	total := us(e2e)
	exec := preCommit - wait
	wal := walWrite + walSync
	commitSelf := commit - wal
	if rc.w == replicaRead {
		// Replica reads do not wait on the log.
		commitSelf, wal = commit, 0
	}
	rows := []struct {
		layer string
		v     float64
	}{
		{"server (wire, session, client, router)", server},
		{"engine scheduler wait", wait},
		{"engine exec: procedure + rel + kv + occ reads", exec},
		{"engine commit, self (groupcommit window, roottxn, 2PC)", commitSelf},
		{"wal append + fsync", wal},
	}
	lines := []string{fmt.Sprintf("layer self time against the end-to-end median (untraced wire p50 %.1fus):", total)}
	rest := total
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("  %-56s %9.1fus %6.1f%%", r.layer, r.v, 100*ratio(r.v, total)))
		rest -= r.v
	}
	lines = append(lines, fmt.Sprintf("  %-56s %9.1fus %6.1f%%", "unexplained", rest, 100*ratio(rest, total)))
	return lines
}

// add folds another tally's counts (not its latencies) into t.
func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.failed += o.failed
	t.userAborts += o.userAborts
	for k, v := range o.errs {
		t.errs[k] += v
	}
}
