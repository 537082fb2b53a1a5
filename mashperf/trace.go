package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"math/bits"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rocksmash/internal/event"
	"rocksmash/internal/readprof"
	"rocksmash/internal/storage"
)

// span is one timed interval. Op is the id of the client operation the span
// belongs to (0 for background work); Parent is the id of the span that
// caused it. Derived spans carry a duration reported by the engine whose
// start offset inside the parent is nominal (laid end to end).
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Op      uint64 `json:"op,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// maxSpans bounds the in-memory span log; spans past it are counted, not
// kept.
const maxSpans = 2_000_000

// ioCounters accumulate one storage tier's requests as seen by the timing
// decorator.
type ioCounters struct {
	gets, getNs       atomic.Int64
	puts, putNs       atomic.Int64
	syncs, syncNs     atomic.Int64
	bytesRead         atomic.Int64
	bytesWritten      atomic.Int64
	failed            atomic.Int64
	modeledNs         atomic.Int64 // latency the cloud model charges
	modeledMeasuredNs atomic.Int64 // measured time of those same requests
}

// eventCounters accumulate engine events; guarded by tracer.mu.
type eventCounters struct {
	flushes, flushNs, flushBytes                int64
	compactions, compactNs                      int64
	compactReadNs, compactMergeNs               int64
	compactUploadNs, compactInstallNs           int64
	compactIn, compactOut                       int64
	stalls, stallNs                             map[string]int64
	groups, groupBatches, walAppendNs, walBytes int64
	pcacheAdmits, pcacheEvicts, cloudRetries    int64
	getProfiles, tables, blocks, bloomChecked   int64
	bloomNegative                               int64
	tierNs                                      [readprof.NumTiers]int64
}

// tracer records spans and per-layer counters from outside the engine: around
// each client call, in a decorator on both storage backends, and in an
// event listener. Recording happens only while on is set.
//
// Engine-side spans are recorded without a parent: from outside the engine
// a callback cannot tell which client goroutine it runs for. Two kinds are
// attributed afterwards. A Get's children are the per-tier fetch times of
// its own read profile. A Put's children are the WAL appends and write
// stalls that overlap it, since every in-flight writer waits on both.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int64
	ev      eventCounters

	local, cloud ioCounters
}

func newTracer() *tracer {
	return &tracer{
		t0: time.Now(),
		ev: eventCounters{stalls: map[string]int64{}, stallNs: map[string]int64{}},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// opSpan is a client operation in flight.
type opSpan struct {
	id    uint64
	name  string
	start int64
}

// begin opens a client operation span.
func (t *tracer) begin(name string) opSpan {
	return opSpan{id: t.nextID.Add(1), name: name, start: t.now()}
}

// end closes o and records it. For a Get, p is its read profile, whose
// per-tier fetch times become derived child spans.
func (t *tracer) end(o opSpan, p *readprof.Profile) {
	end := t.now()
	var kids []span
	if p != nil {
		kids = t.tierSpans(o, p)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans)+1+len(kids) > maxSpans {
		t.dropped += int64(1 + len(kids))
		return
	}
	t.spans = append(t.spans, span{ID: o.id, Op: o.id, Name: o.name, Start: o.start, End: end})
	t.spans = append(t.spans, kids...)
}

// engine records a span of work inside the engine.
func (t *tracer) engine(name string, start, end int64) {
	t.record(span{ID: t.nextID.Add(1), Name: name, Start: start, End: end})
}

// tierSpans lays the profile's per-tier fetch times end to end from the
// Get's start as derived child spans, and folds the profile into the
// read-path counters.
func (t *tracer) tierSpans(o opSpan, p *readprof.Profile) []span {
	at := o.start
	var out []span
	for tier := readprof.Tier(0); tier < readprof.NumTiers; tier++ {
		if ns := p.FetchNanos[tier]; ns > 0 {
			out = append(out, span{ID: t.nextID.Add(1), Parent: o.id, Op: o.id,
				Name: "get.tier." + tier.String(), Start: at, End: at + ns, Derived: true})
			at += ns
		}
	}
	t.mu.Lock()
	t.ev.getProfiles++
	t.ev.tables += int64(p.Tables)
	t.ev.blocks += int64(p.BlocksTotal())
	t.ev.bloomChecked += int64(p.BloomChecked)
	t.ev.bloomNegative += int64(p.BloomNegative)
	for i, ns := range p.FetchNanos {
		t.ev.tierNs[i] += ns
	}
	t.mu.Unlock()
	return out
}

// selfTime is the part of [start, end) that no child interval covers.
// Children may overlap each other and may reach outside the parent.
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c[0], start), min(c[1], end)
		if s < e {
			iv = append(iv, [2]int64{s, e})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	covered, reach := int64(0), start
	for _, c := range iv {
		if c[1] <= reach {
			continue
		}
		covered += c[1] - max(c[0], reach)
		reach = c[1]
	}
	return end - start - covered
}

// opStats summarizes the client operation spans of one name.
type opStats struct {
	count      int
	selfNs     []time.Duration
	spanNs     int64 // sum of span durations
	childSumNs int64 // sum of direct child durations, unclipped
	selfSumNs  int64
	overruns   int // operations whose own child spans add up to more than the span
}

// blocksWriters reports whether an engine span holds up every write in
// flight while it runs.
func blocksWriters(name string) bool {
	return name == "wal.append" || strings.HasPrefix(name, "stall.")
}

// blockIndex finds the writer-blocking spans that overlap an interval. The
// spans are grouped by the bit length of their duration, each group sorted by
// start, so the search for spans that began before an interval reaches back
// only as far as the longest span of each group: a few microseconds for the
// WAL appends, not the seconds of the longest stall.
type blockIndex [65][]span

func (x *blockIndex) add(s span) {
	k := bits.Len64(uint64(max(s.End-s.Start, 0)))
	x[k] = append(x[k], s)
}

func (x *blockIndex) sort() {
	for _, g := range x {
		slices.SortFunc(g, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	}
}

// overlapping appends to into every span that overlaps [start, end).
func (x *blockIndex) overlapping(start, end int64, into [][2]int64) [][2]int64 {
	for k, g := range x {
		// Every span of group k lasts less than 1<<k.
		from := start - int64(1)<<min(k, 62)
		first, _ := slices.BinarySearchFunc(g, from, func(b span, t int64) int { return cmp.Compare(b.Start, t) })
		for _, b := range g[first:] {
			if b.Start >= end {
				break
			}
			if b.End > start {
				into = append(into, [2]int64{b.Start, b.End})
			}
		}
	}
	return into
}

// opSelfTimes computes self time for every client operation span. A Get's
// children are its derived tier spans; a Put's are the WAL appends and
// stalls overlapping it.
func (t *tracer) opSelfTimes() map[string]*opStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][][2]int64{}
	var writeBlocks blockIndex
	for _, s := range t.spans {
		switch {
		case s.Parent != 0:
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		case blocksWriters(s.Name):
			writeBlocks.add(s)
		}
	}
	writeBlocks.sort()
	out := map[string]*opStats{}
	for _, s := range t.spans {
		if s.Parent != 0 || s.Op != s.ID {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &opStats{}
			out[s.Name] = st
		}
		children := kids[s.ID]
		if s.Name == "db.put" {
			children = writeBlocks.overlapping(s.Start, s.End, children)
		}
		var own int64
		for _, k := range kids[s.ID] {
			own += k[1] - k[0]
		}
		if own > s.End-s.Start {
			st.overruns++
		}
		self := selfTime(s.Start, s.End, children)
		st.count++
		st.selfNs = append(st.selfNs, time.Duration(self))
		st.spanNs += s.End - s.Start
		st.selfSumNs += self
		for _, k := range children {
			st.childSumNs += k[1] - k[0]
		}
	}
	return out
}

// writeSpans writes the span log as JSON lines.
func (t *tracer) writeSpans(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// timedBackend decorates a storage backend, timing every request into the
// tracer. For the cloud tier it also charges each request the latency the
// simulator's model prescribes, so slept time can be compared with modeled
// time. Unwrap lets the engine find the simulator and the local root
// beneath it.
type timedBackend struct {
	storage.Backend
	t     *tracer
	c     *ioCounters
	name  string               // span name prefix: "storage.local" or "storage.cloud"
	cloud bool                 // requests are charged model latency
	model storage.LatencyModel // the cloud simulator's model
}

// wrap decorates b; model is the latency model of the cloud simulator and
// is ignored for the local tier.
func (t *tracer) wrap(b storage.Backend, model storage.LatencyModel) *timedBackend {
	if b.Tier() == storage.TierCloud {
		return &timedBackend{Backend: b, t: t, c: &t.cloud, name: "storage.cloud", cloud: true, model: model}
	}
	return &timedBackend{Backend: b, t: t, c: &t.local, name: "storage.local"}
}

// Unwrap returns the decorated backend.
func (b *timedBackend) Unwrap() storage.Backend { return b.Backend }

// transfer is the time n bytes take at bw bytes per second, as the
// simulator computes it.
func transfer(n, bw int64) time.Duration {
	if bw <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(bw) * float64(time.Second))
}

func (b *timedBackend) fail(err error) {
	if err != nil && !errors.Is(err, storage.ErrNotFound) {
		b.c.failed.Add(1)
	}
}

// modeled records a cloud request the model charges model for and that
// took measuredNs.
func (b *timedBackend) modeled(model time.Duration, measuredNs int64) {
	if b.cloud {
		b.c.modeledNs.Add(int64(model))
		b.c.modeledMeasuredNs.Add(measuredNs)
	}
}

func (b *timedBackend) get(start int64, n int, err error) {
	if !b.t.on.Load() {
		return
	}
	end := b.t.now()
	b.c.gets.Add(1)
	b.c.getNs.Add(end - start)
	b.c.bytesRead.Add(int64(n))
	b.fail(err)
	b.modeled(b.model.GetFirstByte+transfer(int64(n), b.model.ReadBandwidth), end-start)
	b.t.engine(b.name+".get", start, end)
}

func (b *timedBackend) meta(start int64, model time.Duration, err error) error {
	if b.t.on.Load() {
		b.fail(err)
		b.modeled(model, b.t.now()-start)
	}
	return err
}

// Open implements storage.Backend; each ReadAt on the reader is one GET.
func (b *timedBackend) Open(name string) (storage.Reader, error) {
	r, err := b.Backend.Open(name)
	if err != nil {
		b.fail(err)
		return nil, err
	}
	return &timedReader{Reader: r, b: b}, nil
}

// ReadAll implements storage.Backend as one GET.
func (b *timedBackend) ReadAll(name string) ([]byte, error) {
	start := b.t.now()
	data, err := b.Backend.ReadAll(name)
	b.get(start, len(data), err)
	return data, err
}

// Create implements storage.Backend; the object's PUT is timed by the
// returned writer.
func (b *timedBackend) Create(name string) (storage.Writer, error) {
	w, err := b.Backend.Create(name)
	if err != nil {
		b.fail(err)
		return nil, err
	}
	return &timedWriter{Writer: w, b: b}, nil
}

// Delete implements storage.Backend.
func (b *timedBackend) Delete(name string) error {
	start := b.t.now()
	return b.meta(start, b.model.MetaRTT, b.Backend.Delete(name))
}

// List implements storage.Backend.
func (b *timedBackend) List(prefix string) ([]string, error) {
	start := b.t.now()
	names, err := b.Backend.List(prefix)
	return names, b.meta(start, b.model.MetaRTT, err)
}

// Size implements storage.Backend.
func (b *timedBackend) Size(name string) (int64, error) {
	start := b.t.now()
	n, err := b.Backend.Size(name)
	return n, b.meta(start, b.model.MetaRTT, err)
}

// Rename implements storage.Backend; the cloud model prices it as a PUT
// round trip plus a DELETE.
func (b *timedBackend) Rename(oldname, newname string) error {
	start := b.t.now()
	return b.meta(start, b.model.PutFirstByte+b.model.MetaRTT, b.Backend.Rename(oldname, newname))
}

type timedReader struct {
	storage.Reader
	b *timedBackend
}

func (r *timedReader) ReadAt(p []byte, off int64) (int, error) {
	start := r.b.t.now()
	n, err := r.Reader.ReadAt(p, off)
	r.b.get(start, len(p), err)
	return n, err
}

// timedWriter times the calls the engine makes on one object being
// written. The object's PUT time is the time spent inside Write, Sync and
// Close, not its lifetime: a WAL segment stays open for minutes.
type timedWriter struct {
	storage.Writer
	b *timedBackend
	n int64
}

// io times one call on the writer.
func (w *timedWriter) io(call func() error) error {
	start := w.b.t.now()
	err := call()
	if w.b.t.on.Load() {
		w.b.c.putNs.Add(w.b.t.now() - start)
		w.b.fail(err)
	}
	return err
}

func (w *timedWriter) Write(p []byte) (n int, err error) {
	err = w.io(func() error {
		n, err = w.Writer.Write(p)
		return err
	})
	w.n += int64(n)
	if w.b.t.on.Load() {
		w.b.c.bytesWritten.Add(int64(n))
	}
	return n, err
}

func (w *timedWriter) Sync() error {
	start := w.b.t.now()
	err := w.io(w.Writer.Sync)
	if w.b.t.on.Load() {
		end := w.b.t.now()
		w.b.c.syncs.Add(1)
		w.b.c.syncNs.Add(end - start)
		w.b.t.engine(w.b.name+".sync", start, end)
	}
	return err
}

// Close completes the object. On the cloud tier this is where the
// simulator charges the PUT, so the modeled PUT time is set against it.
func (w *timedWriter) Close() error {
	start := w.b.t.now()
	err := w.io(w.Writer.Close)
	if w.b.t.on.Load() {
		end := w.b.t.now()
		w.b.c.puts.Add(1)
		w.b.modeled(w.b.model.PutFirstByte+transfer(w.n, w.b.model.WriteBandwidth), end-start)
		w.b.t.engine(w.b.name+".put", start, end)
	}
	return err
}

// traceListener feeds engine events into the tracer.
type traceListener struct {
	event.NopListener
	t *tracer
}

func (l traceListener) ev(f func(e *eventCounters)) {
	l.t.mu.Lock()
	f(&l.t.ev)
	l.t.mu.Unlock()
}

// since returns the [start, end) of an event that just finished after d.
func (l traceListener) since(d time.Duration) (int64, int64) {
	end := l.t.now()
	return end - int64(d), end
}

func (l traceListener) OnFlushEnd(e event.FlushEnd) {
	if !l.t.on.Load() {
		return
	}
	l.ev(func(c *eventCounters) {
		c.flushes++
		c.flushNs += int64(e.Duration)
		c.flushBytes += e.Bytes
	})
	start, end := l.since(e.Duration)
	l.t.engine("flush", start, end)
}

func (l traceListener) OnCompactionEnd(e event.CompactionEnd) {
	if !l.t.on.Load() {
		return
	}
	l.ev(func(c *eventCounters) {
		c.compactions++
		c.compactNs += int64(e.Duration)
		c.compactReadNs += int64(e.ReadDur)
		c.compactMergeNs += int64(e.MergeDur)
		c.compactUploadNs += int64(e.UploadDur)
		c.compactInstallNs += int64(e.InstallDur)
		c.compactIn += e.InputBytes
		c.compactOut += e.OutputBytes
	})
	start, end := l.since(e.Duration)
	l.t.engine("compaction", start, end)
}

func (l traceListener) OnWriteStallEnd(e event.WriteStallEnd) {
	if !l.t.on.Load() {
		return
	}
	l.ev(func(c *eventCounters) {
		c.stalls[e.Reason]++
		c.stallNs[e.Reason] += int64(e.Duration)
	})
	start, end := l.since(e.Duration)
	l.t.engine("stall."+e.Reason, start, end)
}

func (l traceListener) OnCommitGroup(e event.CommitGroup) {
	if !l.t.on.Load() {
		return
	}
	l.ev(func(c *eventCounters) {
		c.groups++
		c.groupBatches += int64(e.Batches)
		c.walAppendNs += int64(e.Duration)
		c.walBytes += e.Bytes
	})
	start, end := l.since(e.Duration)
	l.t.engine("wal.append", start, end)
}

func (l traceListener) OnPCacheAdmit(e event.PCacheAdmit) {
	if l.t.on.Load() {
		l.ev(func(c *eventCounters) { c.pcacheAdmits += int64(e.Blocks) })
	}
}

func (l traceListener) OnPCacheEvict(e event.PCacheEvict) {
	if l.t.on.Load() {
		l.ev(func(c *eventCounters) { c.pcacheEvicts += int64(e.Blocks) })
	}
}

func (l traceListener) OnCloudRetry(event.CloudRetry) {
	if l.t.on.Load() {
		l.ev(func(c *eventCounters) { c.cloudRetries++ })
	}
}
