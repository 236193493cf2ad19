package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"reactdb"
	"reactdb/internal/wal"
	"reactdb/internal/workload/smallbank"
)

// Loaded balances: 1e9 in savings and in checking per customer, as
// reactdb-server loads them. Every amount the workloads move is a whole
// number, so float64 sums over 100k customers stay exact and the output checks
// can compare totals with ==.
const initialBalance = 1e9

// timedStorage decorates a wal.Storage and, while recording is on, times the
// segment writes, fsyncs and checkpoint writes that pass through it. It sits
// outside the engine (passed in as Durability.Storage or
// ReplicaOptions.Storage), so it sees the log exactly as the engine drives it.
type timedStorage struct {
	wal.Storage
	t *ioTimes
}

// ioTimes is shared by a storage and every sub-store and segment it hands out.
type ioTimes struct {
	on     atomic.Bool
	rec    *recorder // span sink while recording; nil records durations only
	prefix string    // span name prefix, "wal" or "mirror"

	mu     sync.Mutex
	writes latencies
	syncs  latencies
	bytes  int64
}

func newTimedStorage(inner wal.Storage, prefix string) *timedStorage {
	return &timedStorage{Storage: inner, t: &ioTimes{prefix: prefix}}
}

// start begins a recording window, discarding what an earlier one saw.
func (t *ioTimes) start(rec *recorder) {
	t.mu.Lock()
	t.writes, t.syncs, t.bytes = latencies{}, latencies{}, 0
	t.rec = rec
	t.mu.Unlock()
	t.on.Store(true)
}

func (t *ioTimes) stop() { t.on.Store(false) }

func (t *ioTimes) observe(kind string, start time.Time, n int) {
	end := time.Now()
	t.mu.Lock()
	switch kind {
	case "write":
		t.writes.add(end.Sub(start))
		t.bytes += int64(n)
	case "sync":
		t.syncs.add(end.Sub(start))
	}
	rec := t.rec
	t.mu.Unlock()
	if rec != nil {
		rec.span(0, 0, t.prefix+"."+kind, start, end)
	}
}

func (s *timedStorage) Sub(name string) wal.Storage {
	return &timedStorage{Storage: s.Storage.Sub(name), t: s.t}
}

func (s *timedStorage) Create(index uint64) (wal.SegmentFile, error) {
	f, err := s.Storage.Create(index)
	if err != nil {
		return nil, err
	}
	return &timedSegment{SegmentFile: f, t: s.t}, nil
}

func (s *timedStorage) WriteCheckpoint(seq uint64, data []byte) error {
	if !s.t.on.Load() {
		return s.Storage.WriteCheckpoint(seq, data)
	}
	start := time.Now()
	err := s.Storage.WriteCheckpoint(seq, data)
	s.t.observe("checkpoint", start, len(data))
	return err
}

type timedSegment struct {
	wal.SegmentFile
	t *ioTimes
}

func (f *timedSegment) Write(p []byte) (int, error) {
	if !f.t.on.Load() {
		return f.SegmentFile.Write(p)
	}
	start := time.Now()
	n, err := f.SegmentFile.Write(p)
	f.t.observe("write", start, n)
	return n, err
}

func (f *timedSegment) Sync() error {
	if !f.t.on.Load() {
		return f.SegmentFile.Sync()
	}
	start := time.Now()
	err := f.SegmentFile.Sync()
	f.t.observe("sync", start, 0)
	return err
}

// deployment is one in-process ReactDB fleet served over loopback TCP: a
// smallbank primary on FileStorage, one async replica mirroring it to its own
// FileStorage, a wire server for each, and the workload's client connections.
type deployment struct {
	dir       string
	customers int
	cfg       reactdb.Config

	primaryIO *timedStorage
	mirrorIO  *timedStorage

	db  *reactdb.Database
	rep *reactdb.Replica

	primarySrv, replicaSrv *reactdb.NodeServer
	primaryAddr            string
	replicaAddr            string

	router  *reactdb.Router // writes (and serial-rw reads) to the primary
	repConn *reactdb.Client // replica-read readers; nil elsewhere
}

// deploymentConfig is the configuration reactdb-server ships, with nproc
// executors, on the workload's strategy. Only fields whose engine defaults
// differ from what the server ships are set: group commit is off by default
// (the server turns it on and keeps the default window and batch), and
// durability is modeled by default (the benchmark logs to files). Costs stay
// zero: no modeled delays.
func deploymentConfig(w workload, store *timedStorage) reactdb.Config {
	cfg := reactdb.SharedEverythingWithAffinity(nproc())
	if w == openTwoPC {
		cfg = reactdb.SharedNothing(2)
	}
	cfg.GroupCommit = reactdb.GroupCommitConfig{Enabled: true}
	cfg.Durability = reactdb.DurabilityConfig{Mode: reactdb.DurabilityWAL, Storage: store}
	return cfg
}

// replicaPoll is the replica poll interval reactdb-server ships (the engine
// default is 500µs).
const replicaPoll = 200 * time.Microsecond

// deploy opens, loads and checkpoints the primary, attaches a caught-up
// replica, starts both listeners and dials the workload's connections. The
// caller owns dir and removes it.
func deploy(w workload, dir string, customers int) (*deployment, error) {
	d := &deployment{dir: dir, customers: customers}
	d.primaryIO = newTimedStorage(wal.NewFileStorage(filepath.Join(dir, "primary")), "wal")
	d.mirrorIO = newTimedStorage(wal.NewFileStorage(filepath.Join(dir, "mirror")), "mirror")
	d.cfg = deploymentConfig(w, d.primaryIO)
	if err := d.start(w); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) start(w workload) error {
	var err error
	if d.db, err = reactdb.Open(smallbank.NewDefinition(d.customers), d.cfg); err != nil {
		return fmt.Errorf("open primary: %w", err)
	}
	if err := smallbank.Load(d.db, d.customers, initialBalance, initialBalance); err != nil {
		return fmt.Errorf("load smallbank: %w", err)
	}
	if err := d.db.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	d.rep, err = reactdb.OpenReplica(d.db, reactdb.ReplicaOptions{PollInterval: replicaPoll, Storage: d.mirrorIO})
	if err != nil {
		return fmt.Errorf("open replica: %w", err)
	}
	if err := d.rep.WaitCaughtUp(60 * time.Second); err != nil {
		return fmt.Errorf("replica catch-up: %w", err)
	}
	d.primarySrv = reactdb.ServePrimary(d.db, reactdb.ServerOptions{})
	addr, err := d.primarySrv.Start("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen primary: %w", err)
	}
	d.primaryAddr = addr.String()
	d.replicaSrv = reactdb.ServeReplica(d.rep, reactdb.ServerOptions{})
	if addr, err = d.replicaSrv.Start("127.0.0.1:0"); err != nil {
		return fmt.Errorf("listen replica: %w", err)
	}
	d.replicaAddr = addr.String()

	// At most nproc client sockets: the router dials every endpoint it is
	// given, so replica-read hands it only the primary and reads through its
	// own replica connection.
	endpoints := []string{d.primaryAddr, d.replicaAddr}
	if w == replicaRead {
		endpoints = endpoints[:1]
		if d.repConn, err = reactdb.DialNode(d.replicaAddr); err != nil {
			return fmt.Errorf("dial replica: %w", err)
		}
	}
	if d.router, err = reactdb.NewRouter(endpoints, reactdb.RouterOptions{}); err != nil {
		return fmt.Errorf("dial router: %w", err)
	}
	return nil
}

// close stops everything the deployment started. It leaves the files in
// dir; the caller removes the directory.
func (d *deployment) close() {
	if d.router != nil {
		d.router.Close()
		d.router = nil
	}
	if d.repConn != nil {
		d.repConn.Close()
		d.repConn = nil
	}
	if d.replicaSrv != nil {
		d.replicaSrv.Close()
		d.replicaSrv = nil
	}
	if d.primarySrv != nil {
		d.primarySrv.Close()
		d.primarySrv = nil
	}
	if d.rep != nil {
		d.rep.Close()
		d.rep = nil
	}
	if d.db != nil {
		d.db.Close()
		d.db = nil
	}
}

// reopenAndRecover closes the whole fleet, reopens the primary on the same
// files and runs crash recovery, returning the recovered database.
func (d *deployment) reopenAndRecover(w workload) (*reactdb.Database, error) {
	d.close()
	cfg := deploymentConfig(w, newTimedStorage(wal.NewFileStorage(filepath.Join(d.dir, "primary")), "wal"))
	db, err := reactdb.Open(smallbank.NewDefinition(d.customers), cfg)
	if err != nil {
		return nil, fmt.Errorf("reopen primary: %w", err)
	}
	if _, err := db.Recover(); err != nil {
		db.Close()
		return nil, fmt.Errorf("recover primary: %w", err)
	}
	return db, nil
}

// setupTimed builds a deployment in a fresh directory under base and returns
// it with the wall time the build took.
func setupTimed(w workload, base string, customers int) (*deployment, time.Duration, error) {
	dir, err := os.MkdirTemp(base, "deploy-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err := deploy(w, dir, customers)
	elapsed := time.Since(start)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	return d, elapsed, nil
}

// teardown closes the deployment and removes its files.
func (d *deployment) teardown() {
	d.close()
	os.RemoveAll(d.dir)
}
