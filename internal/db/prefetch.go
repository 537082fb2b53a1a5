package db

import (
	"sync"

	"rocksmash/internal/readprof"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// Compaction prefetch: merging N sorted inputs consumes each table's data
// blocks strictly in file order, so the read pattern is known in advance.
// A prefetcher walks each cloud input's block index ahead of the merge
// iterator and issues range GETs covering Options.compactionSpanBlocks
// blocks at a time into a lookahead buffer. The merge loop then consumes
// decoded blocks from memory instead of paying per-block first-byte
// latency, and the span fetches of different inputs overlap each other
// through a shared worker pool.

// prefetchWorkers bounds concurrent span GETs per compaction. Object
// stores serve parallel requests independently, so a handful of streams is
// enough to hide first-byte latency without flooding the backend.
const prefetchWorkers = 4

// prefetchLookaheadSpans is how many spans beyond the one being consumed
// are kept in flight per table, bounding lookahead memory to roughly
// (1 + lookahead) × compactionSpanBlocks × BlockBytes per input.
const prefetchLookaheadSpans = 2

// prefetchPool runs span fetches for one compaction. The queue is
// unbounded (submission never blocks) so a table prefetcher may schedule
// while holding its own lock; total outstanding work is already bounded by
// the per-table lookahead window.
type prefetchPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool
	wg     sync.WaitGroup
}

func newPrefetchPool() *prefetchPool {
	p := &prefetchPool{}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < prefetchWorkers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *prefetchPool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		job := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		job()
	}
}

func (p *prefetchPool) submit(job func()) {
	p.mu.Lock()
	p.queue = append(p.queue, job)
	p.mu.Unlock()
	p.cond.Signal()
}

// close drains outstanding fetches and stops the workers. It must run
// before the compaction releases its table references, so in-flight reads
// never race with reader teardown.
func (p *prefetchPool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

const (
	spanIdle = iota
	spanQueued
	spanDone
)

// tablePrefetcher pipelines the block reads of one compaction input.
type tablePrefetcher struct {
	f     storage.Reader
	pool  *prefetchPool
	stats *Stats
	spans [][]sstable.Handle

	mu     sync.Mutex
	cond   *sync.Cond
	state  []int
	bodies [][][]byte // per span, per block; freed once consumption passes
	errs   []error
	freed  int // spans below this index have had their bodies released
}

// newTablePrefetcher plans the span schedule from the table's block index.
func newTablePrefetcher(r *sstable.Reader, pool *prefetchPool, blocksPerSpan int, stats *Stats) (*tablePrefetcher, error) {
	hs, err := r.DataHandles()
	if err != nil {
		return nil, err
	}
	spans := sstable.PlanSpans(hs, blocksPerSpan)
	p := &tablePrefetcher{
		f:      r.File(),
		pool:   pool,
		stats:  stats,
		spans:  spans,
		state:  make([]int, len(spans)),
		bodies: make([][][]byte, len(spans)),
		errs:   make([]error, len(spans)),
	}
	p.cond = sync.NewCond(&p.mu)
	return p, nil
}

// scheduleLocked queues idle spans in [from, from+lookahead].
func (p *tablePrefetcher) scheduleLocked(from int) {
	hi := from + prefetchLookaheadSpans
	if hi >= len(p.spans) {
		hi = len(p.spans) - 1
	}
	for i := from; i <= hi; i++ {
		if p.state[i] != spanIdle {
			continue
		}
		p.state[i] = spanQueued
		i := i
		p.pool.submit(func() { p.fetchSpan(i) })
	}
}

func (p *tablePrefetcher) fetchSpan(i int) {
	bodies, err := sstable.ReadRawSpan(p.f, p.spans[i])
	p.mu.Lock()
	p.bodies[i], p.errs[i] = bodies, err
	p.state[i] = spanDone
	p.mu.Unlock()
	p.cond.Broadcast()
	// Only coalesced reads count: a one-block span is a plain block GET.
	if err == nil && p.stats != nil && len(p.spans[i]) > 1 {
		p.stats.PrefetchSpans.Add(1)
		p.stats.PrefetchBlocks.Add(int64(len(p.spans[i])))
	}
}

// get returns the prefetched body for the block at hd, scheduling spans
// ahead of it and blocking until its span lands. ok=false means the block
// is outside the planned schedule (caller falls back to a direct read); a
// span fetch failure is returned as an error so it surfaces through the
// merge iterator instead of being silently retried.
func (p *tablePrefetcher) get(hd sstable.Handle) (body []byte, err error, ok bool) {
	si, bi := p.locate(hd.Offset)
	if si < 0 {
		return nil, nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Consumption has moved to span si: earlier spans can never be read
	// again (merge order is strictly forward), release their memory.
	for ; p.freed < si; p.freed++ {
		p.bodies[p.freed] = nil
	}
	p.scheduleLocked(si)
	for p.state[si] != spanDone {
		p.cond.Wait()
	}
	if p.errs[si] != nil {
		return nil, p.errs[si], true
	}
	return p.bodies[si][bi], nil, true
}

// locate maps a block offset to its (span, block) indices, or (-1, -1).
func (p *tablePrefetcher) locate(off uint64) (int, int) {
	lo, hi := 0, len(p.spans)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.spans[mid][0].Offset <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	si := lo - 1
	if si < 0 {
		return -1, -1
	}
	for bi, h := range p.spans[si] {
		if h.Offset == off {
			return si, bi
		}
	}
	return -1, -1
}

// prefetchFetchFor routes a compaction input's data-block reads through its
// prefetcher, falling back to the scan-resistant direct path for any block
// outside the prefetch plan.
func (tc *tableCache) prefetchFetchFor(h *tableHandle, pf *tablePrefetcher) sstable.FetchFunc {
	fallback := tc.compactionFetchFor(h)
	return func(fileNum uint64, hd sstable.Handle, prof *readprof.Profile) ([]byte, error) {
		if body, err, ok := pf.get(hd); ok {
			return body, err
		}
		return fallback(fileNum, hd, prof)
	}
}
