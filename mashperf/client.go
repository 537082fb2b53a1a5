package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/event"
	"rocksmash/internal/readprof"
	"rocksmash/internal/storage"
)

// store is one open engine instance with the benchmark's hooks around it.
type store struct {
	dir  string
	opts db.Options
	lat  storage.LatencyModel
	tr   *tracer
	d    *db.DB
	idle *idleWatch
}

// openStore opens (creating or recovering) the store under dir through
// db.Open, with the simulated cloud charging lat. With a tracer, both
// backends are wrapped in its timing decorator, its listener is installed
// and every read is profiled; the idle watcher is always installed.
func openStore(dir string, opts db.Options, lat storage.LatencyModel, tr *tracer) (*store, error) {
	local, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		return nil, err
	}
	cloud, err := storage.NewCloud(filepath.Join(dir, "cloud"), lat, storage.DefaultCost())
	if err != nil {
		return nil, err
	}
	idle := &idleWatch{}
	idle.touch(0)
	var lb, cb storage.Backend = local, cloud
	opts.EventListener = idle
	if tr != nil {
		lb, cb = tr.wrap(local, lat), tr.wrap(cloud, lat)
		opts.EventListener = event.Multi(idle, traceListener{t: tr})
		opts.ReadProfileSampleRate = 1 // time every iterator's block fetches
	}
	d, err := db.Open(opts, lb, cb)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	return &store{dir: dir, opts: opts, lat: lat, tr: tr, d: d, idle: idle}, nil
}

// flush writes the memtables to tables and waits until background work is
// idle. A store is flushed before it is closed and reopened, so the reopen
// has no recovered memtables to flush while the workload writes and reads:
// during that flush the engine serves reads without the recovered data (see
// NOTES.md).
func (s *store) flush() error {
	if err := s.d.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	_, err := s.idle.waitIdle()
	return err
}

// crashReopen crashes the store (the WAL keeps every acknowledged write)
// and opens it again, returning the new handle and how long the open took.
func (s *store) crashReopen() (*store, time.Duration, error) {
	s.d.Crash()
	runtime.GC() // as testing.B does: no earlier garbage is collected on the clock
	start := time.Now()
	s2, err := openStore(s.dir, s.opts, s.lat, s.tr)
	return s2, time.Since(start), err
}

// settle waits until background work is idle and every level's sorted view
// is built, so a timed phase starts from the same state every run (views
// are otherwise built lazily by the first scan). It returns when the last
// background work ended.
func (s *store) settle() (time.Time, error) {
	if _, err := s.idle.waitIdle(); err != nil {
		return time.Time{}, err
	}
	if err := s.d.BuildViews(); err != nil {
		return time.Time{}, fmt.Errorf("build views: %w", err)
	}
	return s.idle.waitIdle()
}

// localBytes is the space the store holds on the local device: tables,
// WAL, manifest and the persistent cache.
func (s *store) localBytes() int64 {
	return diskBytes(filepath.Join(s.dir, "local"), filepath.Join(s.dir, "pcache"))
}

// idleWatch tracks background work through engine events so the benchmark
// can start and end timed phases with flush and compaction idle.
type idleWatch struct {
	event.NopListener
	busy atomic.Int64
	last atomic.Int64 // unix nanos of the last background event
}

func (w *idleWatch) touch(delta int64) {
	w.busy.Add(delta)
	w.last.Store(time.Now().UnixNano())
}

func (w *idleWatch) OnFlushBegin(event.FlushBegin)           { w.touch(1) }
func (w *idleWatch) OnFlushEnd(event.FlushEnd)               { w.touch(-1) }
func (w *idleWatch) OnCompactionBegin(event.CompactionBegin) { w.touch(1) }
func (w *idleWatch) OnCompactionEnd(event.CompactionEnd)     { w.touch(-1) }
func (w *idleWatch) OnTableUploaded(event.TableUploaded)     { w.touch(0) }
func (w *idleWatch) OnViewBuilt(event.ViewBuilt)             { w.touch(0) }

// quietFor is how long background work must have been idle to count as
// settled: longer than the gap between a flush and the compaction it
// triggers.
const quietFor = 200 * time.Millisecond

// waitIdle returns once no flush or compaction has run for quietFor, with
// the time the last background event ended.
func (w *idleWatch) waitIdle() (time.Time, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		last := time.Unix(0, w.last.Load())
		if w.busy.Load() == 0 && time.Since(last) >= quietFor {
			return last, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return time.Time{}, errors.New("background work did not settle within 2m")
}

// recorder collects one client goroutine's outcomes.
type recorder struct {
	put, get, scan     samples
	ops, failed, wrong int64
	errs               []error
}

// succeeded is the number of operations that neither failed nor returned a
// wrong result.
func (r *recorder) succeeded() int64 { return r.ops - r.failed - r.wrong }

// maxReported bounds the errors kept per recorder for printing.
const maxReported = 5

func (r *recorder) fail(err error, wrong bool) {
	if wrong {
		r.wrong++
	} else {
		r.failed++
	}
	if len(r.errs) < maxReported {
		r.errs = append(r.errs, err)
	}
}

func (r *recorder) merge(o *recorder) {
	r.put = append(r.put, o.put...)
	r.get = append(r.get, o.get...)
	r.scan = append(r.scan, o.scan...)
	r.ops += o.ops
	r.failed += o.failed
	r.wrong += o.wrong
	for _, e := range o.errs {
		if len(r.errs) < maxReported {
			r.errs = append(r.errs, e)
		}
	}
}

// client issues checked operations against one store for one goroutine.
type client struct {
	st  *store
	m   *model
	tr  *tracer
	rec *recorder
}

func (c *client) put(i int) {
	start := time.Now()
	var o opSpan
	if c.tr != nil {
		o = c.tr.begin("db.put")
	}
	err := c.m.put(i, c.st.d.Put)
	if c.tr != nil {
		c.tr.end(o, nil)
	}
	lat := time.Since(start)
	c.rec.ops++
	if err != nil {
		c.rec.fail(fmt.Errorf("put %s: %w", keyOf(i), err), false)
		return
	}
	c.rec.put = append(c.rec.put, lat)
}

func (c *client) get(i int) {
	key := keyOf(i)
	lo := c.m.acked[i].Load()
	start := time.Now()
	var (
		v   []byte
		err error
	)
	if c.tr != nil {
		o := c.tr.begin("db.get")
		var p readprof.Profile
		v, p, err = c.st.d.GetProfiled(key)
		c.tr.end(o, &p)
	} else {
		v, err = c.st.d.Get(key)
	}
	lat := time.Since(start)
	c.rec.ops++
	if err != nil && !errors.Is(err, db.ErrNotFound) {
		c.rec.fail(fmt.Errorf("get %s: %w", key, err), false)
		return
	}
	if err := c.m.check(i, lo, v, err == nil); err != nil {
		c.rec.fail(err, true)
		return
	}
	c.rec.get = append(c.rec.get, lat)
}

// scan seeks to the first expected item and reads len(expect) entries,
// which must be exactly the expected items, in key order, each no older
// than its last write acknowledged before the scan began.
func (c *client) scan(expect []int) {
	lo := make([]uint64, len(expect))
	for j, i := range expect {
		lo[j] = c.m.acked[i].Load()
	}
	start := time.Now()
	var o opSpan
	if c.tr != nil {
		o = c.tr.begin("db.scan")
	}
	err := c.scanOnce(expect, lo)
	if c.tr != nil {
		c.tr.end(o, nil)
	}
	lat := time.Since(start)
	c.rec.ops++
	var wrong *wrongResult
	switch {
	case errors.As(err, &wrong):
		c.rec.fail(wrong.err, true)
	case err != nil:
		c.rec.fail(fmt.Errorf("scan from %s: %w", keyOf(expect[0]), err), false)
	default:
		c.rec.scan = append(c.rec.scan, lat)
	}
}

// wrongResult marks a scan that completed but returned wrong data, as
// opposed to one the engine failed.
type wrongResult struct{ err error }

func (w *wrongResult) Error() string { return w.err.Error() }

func (c *client) scanOnce(expect []int, lo []uint64) error {
	it, err := c.st.d.NewIterator()
	if err != nil {
		return err
	}
	it.Seek(keyOf(expect[0]))
	n := 0
	cerr := c.m.checkScan(expect, lo, func() ([]byte, []byte, bool) {
		if n > 0 {
			it.Next()
		}
		n++
		return it.Key(), it.Value(), it.Valid()
	})
	if err := errors.Join(it.Err(), it.Close()); err != nil {
		return err
	}
	if cerr != nil {
		return &wrongResult{cerr}
	}
	return nil
}

// runClients runs fn on n goroutines, one recorder each, waits for them and
// merges their recorders into into.
func runClients(n int, into *recorder, fn func(c int, rec *recorder)) {
	recs := make([]recorder, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, &recs[c])
		}(c)
	}
	wg.Wait()
	for c := range recs {
		into.merge(&recs[c])
	}
}

// removeStore closes a store and deletes its directory.
func removeStore(s *store) error {
	err := s.d.Close()
	return errors.Join(err, os.RemoveAll(s.dir))
}

// memDelta is the Go runtime's allocation and GC activity over a phase.
type memDelta struct{ mallocs, bytes, gcs uint64 }

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func (d *memDelta) add(a, b runtime.MemStats) {
	d.mallocs += b.Mallocs - a.Mallocs
	d.bytes += b.TotalAlloc - a.TotalAlloc
	d.gcs += uint64(b.NumGC - a.NumGC)
}
