package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/storage"
	"rocksmash/internal/ycsb"
)

// nClients is the number of client goroutines the workloads run (recover
// writes with recoverWriters): the core count of the machines the
// benchmark is sized for.
const nClients = 2

// workload is one set of generated inputs and the way they are driven.
type workload struct {
	name string
	run  func(r *runner, p *pass) error
}

// workloads lists every workload the program runs.
var workloads = []workload{
	{"fillrandom", runFillRandom},
	{"cloud-read", runCloudRead},
	{"recover", runRecover},
}

// runner holds one pass's settings. A pass is one complete run of a
// workload: set-up, the timed phase, and the crash-and-check tail.
type runner struct {
	seed    int64
	seconds time.Duration
	dir     string  // scratch directory for this pass's stores
	repeat  bool    // repeat set-up for a steady setup_s
	quick   bool    // end after the timed phase: no settle, crash or check
	tr      *tracer // nil when tracing is off
	nDirs   int
}

// pass is what one run of a workload measured.
type pass struct {
	setups  []time.Duration
	shapes  [][]int
	warmOps int

	prep  recorder // loading and warm-up: checked, never timed
	main  recorder // the timed phase
	check recorder // the read-back check after the crash
	ops   int64    // operations of the timed phase that succeeded
	dur   time.Duration
	rates []float64 // each timed phase's successful operations per second
	last  int64     // successful operations of the latest timed phase

	reopens   []time.Duration
	recovered []db.RecoveryReport
	cloudFrom storage.Snapshot // cloud counters when the timed phase began
	cloud     storage.Snapshot // cloud requests of the billed timed phases
	billedOps int64            // successful operations of those phases
	local     []float64        // local bytes per live user byte, per store

	eng engineDelta
	mem memDelta

	phases []phaseTime // wall time by phase, for the report
}

type phaseTime struct {
	name string
	dur  time.Duration
}

// phase records that the named phase ran from start until now.
func (p *pass) phase(name string, start time.Time) {
	p.phases = append(p.phases, phaseTime{name, time.Since(start)})
}

func (r *runner) freshDir() (string, error) {
	r.nDirs++
	dir := filepath.Join(r.dir, fmt.Sprintf("store-%d", r.nDirs))
	return dir, os.MkdirAll(dir, 0o755)
}

func (r *runner) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_003 + stream))
}

// setup builds the store from scratch n times when set-up is repeated (once
// otherwise), timing each build, and keeps the last. Every build ends
// settled, and its level shape is recorded so a run that starts from a
// different shape shows.
func (r *runner) setup(p *pass, n int, build func(dir string) (*store, *model, error)) (*store, *model, error) {
	defer p.phase("set-up", time.Now())
	if !r.repeat {
		n = 1
	}
	for k := 0; ; k++ {
		dir, err := r.freshDir()
		if err != nil {
			return nil, nil, err
		}
		runtime.GC()
		start := time.Now()
		st, m, err := build(dir)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		built := time.Now()
		idle, err := st.settle()
		if err != nil {
			return nil, nil, err
		}
		if idle.After(built) {
			built = idle
		}
		p.setups = append(p.setups, built.Sub(start))
		p.shapes = append(p.shapes, st.d.Metrics().LevelFiles)
		if k == n-1 {
			return st, m, nil
		}
		if err := removeStore(st); err != nil {
			return nil, nil, err
		}
	}
}

// timed runs the timed phase: fn drives the clients while the tracer (if
// any) records, and engine and runtime counters are diffed around it.
func (r *runner) timed(p *pass, st *store, fn func()) {
	runtime.GC()
	m0, mem0 := st.d.Metrics(), readMem()
	if r.tr != nil {
		r.tr.on.Store(true)
	}
	start := time.Now()
	ops0 := p.main.succeeded()
	fn()
	took := time.Since(start)
	p.dur += took
	p.phase("timed", start)
	ops := p.main.succeeded() - ops0
	p.ops += ops
	p.last = ops
	p.rates = append(p.rates, ratio(float64(ops), took.Seconds()))
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	m1, mem1 := st.d.Metrics(), readMem()
	p.eng.add(m0, m1)
	p.mem.add(mem0, mem1)
	p.cloudFrom = m0.CloudCost.Snapshot
}

// bill adds the cloud requests made since the latest timed phase began, and
// its operations. Called once background work has settled, it charges the
// timed phase for the flushes and compactions its writes caused, wherever
// they ran.
func (p *pass) bill(st *store) {
	p.cloud = addSnap(p.cloud, st.d.Metrics().CloudCost.Snapshot.Sub(p.cloudFrom))
	p.billedOps += p.last
}

func addSnap(a, b storage.Snapshot) storage.Snapshot {
	return storage.Snapshot{
		GetOps: a.GetOps + b.GetOps, PutOps: a.PutOps + b.PutOps,
		DeleteOps: a.DeleteOps + b.DeleteOps, ListOps: a.ListOps + b.ListOps,
		BytesRead: a.BytesRead + b.BytesRead, BytesWrite: a.BytesWrite + b.BytesWrite,
	}
}

// opSource makes one client's operation stream from its random source.
type opSource func(rng *rand.Rand) func(c *client)

// work is the number of operations a timed phase issues when each second
// of --seconds is worth perSecond of them. Timed phases do a fixed amount
// of work rather than run for a fixed time, so every run goes through the
// same flushes and compactions; perSecond is about what a 2-core machine
// completes in a second.
func (r *runner) work(perSecond int) int64 {
	return int64(r.seconds.Seconds() * float64(perSecond))
}

// closedLoop runs nClients clients, each sending its next operation when
// the previous one completes, until n operations have been sent. Client c
// draws from random stream stream+c.
func (r *runner) closedLoop(p *pass, st *store, m *model, n, stream int64, ops opSource) {
	var next atomic.Int64
	runClients(nClients, &p.main, func(c int, rec *recorder) {
		cl := &client{st: st, m: m, tr: r.tr, rec: rec}
		op := ops(r.rng(stream + int64(c)))
		for next.Add(1) <= n {
			op(cl)
		}
	})
}

// load writes every item once, in key order, split between the clients.
func load(st *store, m *model, into *recorder) {
	per := (m.items() + nClients - 1) / nClients
	runClients(nClients, into, func(n int, rec *recorder) {
		c := &client{st: st, m: m, rec: rec}
		for i := n * per; i < min((n+1)*per, m.items()); i++ {
			c.put(i)
		}
	})
}

// reopens is how many times finish crashes and reopens a store; the median
// reopen time is recovery_s.
const reopens = 15

// finish ends fillrandom and cloud-read. With background work idle it
// records the local footprint and bills the cloud requests. Then it crashes
// the store as the timed phase left it, memtable unflushed, and reopens it
// reopens times; last it checks every acknowledged item on the recovered
// store with chunked scans, and with Gets of one in getEvery of them when
// getEvery is positive.
func (r *runner) finish(p *pass, st *store, m *model, getEvery int) error {
	if r.quick {
		return removeStore(st)
	}
	start := time.Now()
	if _, err := st.idle.waitIdle(); err != nil {
		return err
	}
	p.phase("settle", start)
	p.bill(st)
	p.local = append(p.local, float64(st.localBytes())/float64(m.liveBytes()))
	st, err := r.crashReopen(p, st, reopens)
	if err != nil {
		return err
	}
	return r.checkRecovered(p, st, m, getEvery)
}

// crashReopen crashes the store and reopens it n times, recording each
// reopen's time and recovery report. Nothing flushes in between, so every
// reopen replays the same WAL tail.
func (r *runner) crashReopen(p *pass, st *store, n int) (*store, error) {
	defer p.phase("crash+reopen", time.Now())
	for k := 0; k < n; k++ {
		var (
			took time.Duration
			err  error
		)
		if st, took, err = st.crashReopen(); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		p.reopens = append(p.reopens, took)
		p.recovered = append(p.recovered, st.d.RecoveryReport())
	}
	return st, nil
}

// checkRecovered checks a store just reopened after a crash, then closes and
// removes it. The recovered memtables are checked themselves: nothing
// flushes them first.
func (r *runner) checkRecovered(p *pass, st *store, m *model, getEvery int) error {
	if _, err := st.idle.waitIdle(); err != nil {
		return err
	}
	r.check(p, st, m, getEvery)
	return removeStore(st)
}

// checkChunk is the length of the read-back scans. Each scan also reads
// the first key of the next chunk, so no key can hide between chunks.
const checkChunk = 50

// check reads back every acknowledged item with scans of checkChunk keys.
// When getEvery is positive it also Gets one in getEvery of them, chosen
// and ordered by the seed.
func (r *runner) check(p *pass, st *store, m *model, getEvery int) {
	defer p.phase("check", time.Now())
	written := m.written()
	var gets []int
	if getEvery > 0 {
		gets = slices.Clone(written)
		r.rng(7).Shuffle(len(gets), func(a, b int) { gets[a], gets[b] = gets[b], gets[a] })
		gets = gets[:len(gets)/getEvery]
	}
	chunks := (len(written) + checkChunk - 1) / checkChunk
	var next atomic.Int64
	runClients(nClients, &p.check, func(_ int, rec *recorder) {
		c := &client{st: st, m: m, rec: rec}
		for {
			switch k := int(next.Add(1) - 1); {
			case k < chunks:
				lo := k * checkChunk
				c.scan(written[lo:min(lo+checkChunk+1, len(written))])
			case k-chunks < len(gets):
				c.get(gets[k-chunks])
			default:
				return
			}
		}
	})
	// Nothing may precede the first or follow the last acknowledged key.
	it, err := st.d.NewIterator()
	if err != nil {
		p.check.fail(err, false)
		return
	}
	it.First()
	if len(written) > 0 {
		if it.Valid() && string(it.Key()) != string(keyOf(written[0])) {
			p.check.fail(fmt.Errorf("%s: %w", it.Key(), errExtra), true)
		}
		it.Seek(keyOf(written[len(written)-1]))
		it.Next()
	}
	if it.Valid() {
		p.check.fail(fmt.Errorf("%s: %w", it.Key(), errExtra), true)
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil {
		p.check.fail(err, false)
	}
}

// zipfItems draws items with a zipfian (theta 0.99) popularity whose ranks
// are scattered over the key space, so hot keys are not adjacent. items
// must be a power of two (the odd multiplier then permutes [0, items)).
type zipfItems struct {
	z     *ycsb.Zipfian
	items int
}

func newZipfItems(rng *rand.Rand, items int) zipfItems {
	return zipfItems{z: ycsb.NewZipfian(rng, uint64(items), 0.99), items: items}
}

func (z zipfItems) next() int {
	return int((z.z.Next() * 0x9e3779b1) & uint64(z.items-1))
}

// fills is how many empty stores fillrandom fills, one after the other.
// Late in a fill, the writes wait for a flush stuck behind an L1->L2 cloud
// compaction of either 8 MB (2.3 s) or 12 MB (4.7 s); which one varies
// between runs of the same seed, so a single fill's rate takes one of two
// values (see NOTES.md). throughput_ops_per_s is the median of the fills'
// rates.
const fills = 2

// fillrandom: two writers in a closed loop put uniform random keys into an
// empty store with DefaultOptions. The commit pipeline, WAL, memtable,
// flush, compaction and cloud PUTs do the work; the read path does none.
// Every fill but the last is crashed and removed after its timed phase; the
// last is settled and checked.
func runFillRandom(r *runner, p *pass) error {
	const items = 1 << 20
	opts := db.DefaultOptions()
	for f := 0; ; f++ {
		// Opening an empty store takes milliseconds; five opens per fill
		// give a steady median. The checker's model is made before the
		// clock starts: allocating it for 2^20 keys took longer than the
		// open, and varied more.
		m := newModel(items)
		st, _, err := r.setup(p, 5, func(dir string) (*store, *model, error) {
			st, err := openStore(dir, opts, storage.DefaultLatency(), r.tr)
			return st, m, err
		})
		if err != nil {
			return err
		}
		r.timed(p, st, func() {
			r.closedLoop(p, st, m, r.work(20000), int64(100+10*f), func(rng *rand.Rand) func(c *client) {
				return func(c *client) { c.put(rng.Intn(items)) }
			})
		})
		if f == fills-1 {
			return r.finish(p, st, m, 1)
		}
		start := time.Now()
		st.d.Crash()
		if err := os.RemoveAll(st.dir); err != nil {
			return err
		}
		p.phase("discard", start)
	}
}

// Geometry of cloud-read: 2^16 items of 416 bytes
// (27 MiB). A 2 MiB L1 and a 1 MiB memtable while loading keep the
// settled local levels small, so most of the data sits in the cloud
// levels (L2 and below).
const (
	readItems     = 1 << 16
	readLevelBase = 2 << 20
	loadMemtable  = 1 << 20
)

// loadCloud builds cloud-read's store. With the cloud latency model
// off it loads every item, compacts to a settled shape, runs warmCold
// operations of the workload's own mix, which fill the persistent cache,
// and flushes. It then reopens with the default latency model and runs
// warmHot more to fill the in-memory block cache.
func (r *runner) loadCloud(p *pass, opts db.Options, warmCold, warmHot int, ops opSource) (*store, *model, error) {
	p.warmOps = warmCold + warmHot
	warm := func(st *store, m *model, n int, stream int64) {
		var next atomic.Int64
		runClients(nClients, &p.prep, func(c int, rec *recorder) {
			cl := &client{st: st, m: m, rec: rec}
			op := ops(r.rng(stream + int64(c)))
			for next.Add(1) <= int64(n) {
				op(cl)
			}
		})
	}
	return r.setup(p, 3, func(dir string) (*store, *model, error) {
		m := newModel(readItems)
		lopts := opts
		lopts.MemtableBytes = loadMemtable
		st, err := openStore(dir, lopts, storage.NoLatency(), nil)
		if err != nil {
			return nil, nil, err
		}
		load(st, m, &p.prep)
		if err := st.d.CompactAll(); err != nil {
			return nil, nil, fmt.Errorf("compact: %w", err)
		}
		warm(st, m, warmCold, 200)
		if err := st.flush(); err != nil {
			return nil, nil, err
		}
		if err := st.d.Close(); err != nil {
			return nil, nil, err
		}
		if st, err = openStore(dir, opts, storage.DefaultLatency(), r.tr); err != nil {
			return nil, nil, err
		}
		if _, err := st.settle(); err != nil {
			return nil, nil, err
		}
		warm(st, m, warmHot, 300)
		return st, m, nil
	})
}

// cloud-read: two clients in a closed loop, zipfian keys, 90% Get, 5% scan
// of 1-100 keys, 5% update, over a dataset about twice the block cache
// plus the persistent cache and mostly in the cloud levels.
func runCloudRead(r *runner, p *pass) error {
	opts := db.DefaultOptions()
	opts.BlockCacheBytes = 2 << 20
	opts.PCacheBytes = 12 << 20
	opts.LevelBaseBytes = readLevelBase
	mix := func(rng *rand.Rand) func(c *client) {
		z := newZipfItems(rng, readItems)
		return func(c *client) {
			i := z.next()
			switch x := rng.Intn(100); {
			case x < 90:
				c.get(i)
			case x < 95:
				n := min(1+rng.Intn(100), readItems-i)
				c.scan(seq(i, n))
			default:
				c.put(i)
			}
		}
	}
	st, m, err := r.loadCloud(p, opts, 20000, 5000, mix)
	if err != nil {
		return err
	}
	r.timed(p, st, func() { r.closedLoop(p, st, m, r.work(3300), 100, mix) })
	return r.finish(p, st, m, 0)
}

func seq(first, n int) []int {
	out := make([]int, n)
	for j := range out {
		out[j] = first + j
	}
	return out
}

// Geometry of recover: the memtable is larger than the written volume, so
// nothing flushes and every write is replayed from its WAL segment.
const (
	recoverItems  = 1 << 17
	recoverVolume = 36 << 20 // bytes of key+value, about nine 4 MiB segments
	// recoverWriters is one: with two, the write rate depended on whether
	// the two writers' commits ran on separate cores (see NOTES.md).
	recoverWriters = 1
	// recoverGetEvery: the read-back check scans every acknowledged key and
	// also Gets one in four of them, which keeps a cycle short.
	recoverGetEvery = 4
)

// recover: each cycle writes recoverVolume with recoverWriters writers into
// a fresh store, crashes it, times one reopen and checks every acknowledged
// key. Each cycle's writes are a timed phase of their own, so
// throughput_ops_per_s is the median of the cycles' write rates. A cycle is
// worth 0.8 seconds of --seconds; the store open that starts each cycle is
// its set-up.
func runRecover(r *runner, p *pass) error {
	opts := db.DefaultOptions()
	opts.MemtableBytes = 64 << 20
	writes := recoverVolume / (16 + valueSize)
	cycles := max(1, int(r.seconds/(800*time.Millisecond)))
	for cycle := 0; cycle < cycles; cycle++ {
		m := newModel(recoverItems)
		st, _, err := r.setup(p, 1, func(dir string) (*store, *model, error) {
			st, err := openStore(dir, opts, storage.DefaultLatency(), r.tr)
			return st, m, err
		})
		if err != nil {
			return err
		}
		var next atomic.Int64
		r.timed(p, st, func() {
			runClients(recoverWriters, &p.main, func(n int, rec *recorder) {
				c := &client{st: st, m: m, tr: r.tr, rec: rec}
				rng := r.rng(int64(400 + 10*cycle + n))
				for next.Add(1) <= int64(writes) {
					c.put(rng.Intn(recoverItems))
				}
			})
		})
		if r.quick {
			if err := removeStore(st); err != nil {
				return err
			}
			continue
		}
		if _, err := st.idle.waitIdle(); err != nil {
			return err
		}
		if f := st.d.Metrics().Flushes; f != 0 {
			return fmt.Errorf("recover: %d flushes before the crash; the memtable must hold the whole volume", f)
		}
		p.bill(st)
		p.local = append(p.local, float64(st.localBytes())/float64(m.liveBytes()))
		// The traced pass records the reopen: it is the phase recovery.*
		// and the storage counters describe on this workload.
		if r.tr != nil {
			r.tr.on.Store(true)
		}
		st, err = r.crashReopen(p, st, 1)
		if r.tr != nil {
			r.tr.on.Store(false)
		}
		if err != nil {
			return err
		}
		p.cloud = addSnap(p.cloud, st.d.Metrics().CloudCost.Snapshot)
		if err := r.checkRecovered(p, st, m, recoverGetEvery); err != nil {
			return err
		}
	}
	return nil
}
