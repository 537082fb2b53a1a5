package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/storage"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 5000}, {99, 5000}, {100, 9000},
		{999, 9000}, {1000, 9900}, {9999, 9900}, {10000, 9990}, {100000, 9999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPercentileAt(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s = append(s, time.Duration(i))
	}
	if got := s.at(5000); got != 500 {
		t.Errorf("p50 = %d, want 500", got)
	}
	if got := s.at(9900); got != 990 {
		t.Errorf("p99 = %d, want 990", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	for _, c := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", [][2]int64{{10, 20}, {30, 40}}, 80},
		{"overlapping", [][2]int64{{10, 30}, {20, 50}}, 60},
		{"nested", [][2]int64{{10, 60}, {20, 30}}, 50},
		{"past the parent", [][2]int64{{-20, 10}, {90, 150}}, 80},
		{"unsorted overlap", [][2]int64{{40, 70}, {10, 30}, {25, 45}}, 40},
		{"covering", [][2]int64{{0, 100}, {50, 60}}, 0},
	} {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestPutSelfTimeSubtractsOverlappingWALAppends(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Op: 1, Name: "db.put", Start: 0, End: 100},
		{ID: 2, Op: 2, Name: "db.put", Start: 50, End: 150},
		{ID: 3, Name: "wal.append", Start: 40, End: 70},
		{ID: 4, Name: "stall.memtable", Start: 60, End: 90},
		{ID: 5, Name: "storage.cloud.get", Start: 0, End: 150},
	}
	st := tr.opSelfTimes()["db.put"]
	got := slices.Clone(st.selfNs)
	slices.Sort(got)
	// put 1 loses [40,90); put 2 loses [50,90).
	if want := []time.Duration{50, 60}; !slices.Equal(got, want) {
		t.Errorf("put self times = %v, want %v", got, want)
	}
}

// A long stall that began before many short WAL appends still counts
// against the Puts it overlaps.
func TestPutSelfTimeFindsLongStallBehindShortAppends(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "stall.memtable", Start: 0, End: 1000},
		{ID: 2, Name: "wal.append", Start: 10, End: 12},
		{ID: 3, Name: "wal.append", Start: 500, End: 502},
		{ID: 4, Name: "wal.append", Start: 1050, End: 1060},
		{ID: 5, Op: 5, Name: "db.put", Start: 900, End: 1100},
		{ID: 6, Op: 6, Name: "db.put", Start: 1000, End: 1100},
	}
	got := slices.Clone(tr.opSelfTimes()["db.put"].selfNs)
	slices.Sort(got)
	// put 5 loses [900,1000) and [1050,1060); put 6 loses [1050,1060).
	if want := []time.Duration{90, 90}; !slices.Equal(got, want) {
		t.Errorf("put self times = %v, want %v", got, want)
	}
}

// Closure leaves 1 only when a Get's tier times add up to more than its
// span; those Gets are counted.
func TestGetTierOverruns(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Op: 1, Name: "db.get", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "get.tier.cloud", Start: 0, End: 80, Derived: true},
		{ID: 3, Op: 3, Name: "db.get", Start: 0, End: 100},
		{ID: 4, Parent: 3, Op: 3, Name: "get.tier.local", Start: 0, End: 70, Derived: true},
		{ID: 5, Parent: 3, Op: 3, Name: "get.tier.cloud", Start: 70, End: 130, Derived: true},
	}
	g := tr.opSelfTimes()["db.get"]
	if g.overruns != 1 {
		t.Errorf("overruns = %d, want 1", g.overruns)
	}
	// Self 20 + 0, children 80 + 130, spans 200.
	if closure := ratio(float64(g.selfSumNs+g.childSumNs), float64(g.spanNs)); closure != 1.15 {
		t.Errorf("closure = %g, want 1.15", closure)
	}
}

func TestCheckValue(t *testing.T) {
	key := keyOf(7)
	v := encodeValue(key, 5)
	if err := checkValue(key, v, 5, 5); err != nil {
		t.Fatalf("fresh value rejected: %v", err)
	}
	if err := checkValue(key, v, 3, 9); err != nil {
		t.Fatalf("value within bounds rejected: %v", err)
	}
	if err := checkValue(key, v, 6, 9); !errors.Is(err, errStale) {
		t.Errorf("stale value: got %v, want errStale", err)
	}
	if err := checkValue(key, v, 1, 4); !errors.Is(err, errUnknown) {
		t.Errorf("value never issued: got %v, want errUnknown", err)
	}
	if err := checkValue(keyOf(8), v, 0, 9); !errors.Is(err, errWrongKey) {
		t.Errorf("another key's value: got %v, want errWrongKey", err)
	}
	bad := slices.Clone(v)
	bad[100] ^= 1
	if err := checkValue(key, bad, 0, 9); !errors.Is(err, errCorrupt) {
		t.Errorf("corrupt value: got %v, want errCorrupt", err)
	}
	if err := checkValue(key, v[:valueSize-1], 0, 9); !errors.Is(err, errCorrupt) {
		t.Errorf("short value: got %v, want errCorrupt", err)
	}
}

func TestModelRejectsStaleAndMissing(t *testing.T) {
	m := newModel(4)
	var stored [][]byte
	put := func(_, v []byte) error { stored = append(stored, v); return nil }
	for range 3 {
		if err := m.put(2, put); err != nil {
			t.Fatal(err)
		}
	}
	lo := m.acked[2].Load()
	if err := m.check(2, lo, stored[2], true); err != nil {
		t.Errorf("latest value rejected: %v", err)
	}
	if err := m.check(2, lo, stored[1], true); !errors.Is(err, errStale) {
		t.Errorf("older value: got %v, want errStale", err)
	}
	if err := m.check(2, lo, nil, false); !errors.Is(err, errMissing) {
		t.Errorf("acknowledged key not found: got %v, want errMissing", err)
	}
	if err := m.check(1, 0, nil, false); err != nil {
		t.Errorf("never-written key not found: %v", err)
	}
	if err := m.check(1, 0, stored[2], true); !errors.Is(err, errWrongKey) {
		t.Errorf("value of item 2 returned for item 1: got %v, want errWrongKey", err)
	}
}

func TestCheckScan(t *testing.T) {
	m := newModel(8)
	for i := range 8 {
		if i == 3 {
			continue // never written
		}
		if err := m.put(i, func(_, _ []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	type entry struct{ k, v []byte }
	e := func(i int) entry { return entry{keyOf(i), encodeValue(keyOf(i), 1)} }
	expect := []int{1, 2, 4, 5}
	lo := []uint64{1, 1, 1, 1}
	for _, c := range []struct {
		name string
		got  []entry
		want error
	}{
		{"exact", []entry{e(1), e(2), e(4), e(5)}, nil},
		{"missing key", []entry{e(1), e(2), e(5)}, errMissing},
		{"short", []entry{e(1), e(2)}, errMissing},
		{"extra key", []entry{e(1), e(2), e(3), e(4)}, errExtra},
		{"out of order", []entry{e(1), e(2), e(1), e(4)}, errOrder},
		{"stale value", []entry{e(1), {keyOf(2), encodeValue(keyOf(2), 0)}, e(4), e(5)}, errStale},
		{"value of another key", []entry{e(1), {keyOf(2), e(1).v}, e(4), e(5)}, errWrongKey},
	} {
		n := 0
		err := m.checkScan(expect, lo, func() ([]byte, []byte, bool) {
			if n >= len(c.got) {
				return nil, nil, false
			}
			n++
			return c.got[n-1].k, c.got[n-1].v, true
		})
		if c.want == nil && err != nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

var errBadDisk = errors.New("read error")

// failingBackend fails every read once fail is set, as a bad disk would.
type failingBackend struct {
	storage.Backend
	fail *atomic.Bool
}

func (b failingBackend) Unwrap() storage.Backend { return b.Backend }

func (b failingBackend) Open(name string) (storage.Reader, error) {
	r, err := b.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	return failingReader{r, b.fail}, nil
}

func (b failingBackend) ReadAll(name string) ([]byte, error) {
	if b.fail.Load() {
		return nil, errBadDisk
	}
	return b.Backend.ReadAll(name)
}

type failingReader struct {
	storage.Reader
	fail *atomic.Bool
}

func (r failingReader) ReadAt(p []byte, off int64) (int, error) {
	if r.fail.Load() {
		return 0, errBadDisk
	}
	return r.Reader.ReadAt(p, off)
}

// A Get of an acknowledged key that returns an error instead of a value is
// a failed operation, and any failed operation makes the run incorrect and
// leaves the timed throughput.
func TestGetErrorOnAckedKeyFailsRun(t *testing.T) {
	dir := t.TempDir()
	local, err := storage.NewLocal(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := storage.NewCloud(filepath.Join(dir, "cloud"), storage.NoLatency(), storage.DefaultCost())
	if err != nil {
		t.Fatal(err)
	}
	var fail atomic.Bool
	lb := failingBackend{local, &fail}
	d, err := db.Open(db.DefaultOptions(), lb, cloud)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(100)
	for i := range 100 {
		if err := m.put(i, d.Put); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen so no block of the table is cached, then break the disk.
	if d, err = db.Open(db.DefaultOptions(), lb, cloud); err != nil {
		t.Fatal(err)
	}
	p := &pass{}
	c := &client{st: &store{d: d}, m: m, rec: &p.main}
	fail.Store(true)
	c.get(7)
	fail.Store(false)
	c.get(8)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if p.main.failed != 1 || p.main.wrong != 0 || p.main.succeeded() != 1 {
		t.Errorf("failed %d, wrong %d, succeeded %d; want 1, 0, 1", p.main.failed, p.main.wrong, p.main.succeeded())
	}
	if res := tally([]*pass{p}); res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Errorf("tally = %+v; want incorrect, 1 of 2 failed", res)
	}
}

// The timing decorator must stay transparent to the engine: through Unwrap
// it still finds the cloud simulator (so CloudCost works) and the local
// root (so the persistent cache lands beside it, not in the working
// directory).
func TestDecoratorUnwrapKeepsCostAndPCacheDir(t *testing.T) {
	dir := t.TempDir()
	tr := newTracer()
	opts := db.DefaultOptions()
	opts.LocalLevels = -1 // every table in the cloud
	st, err := openStore(dir, opts, storage.NoLatency(), tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.on.Store(true)
	m := newModel(100)
	for i := range 100 {
		if err := m.put(i, st.d.Put); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.d.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range 100 {
		v, err := st.d.Get(keyOf(i))
		if err := m.check(i, m.acked[i].Load(), v, err == nil); err != nil {
			t.Fatal(err)
		}
	}
	tr.on.Store(false)
	cost, ok := st.d.CloudCost()
	if !ok {
		t.Fatal("CloudCost not available through the decorator")
	}
	if cost.Snapshot.PutOps == 0 || tr.cloud.puts.Load() == 0 {
		t.Errorf("cloud PUTs: simulator %d, decorator %d; want both > 0", cost.Snapshot.PutOps, tr.cloud.puts.Load())
	}
	if _, err := os.Stat(filepath.Join(dir, "pcache")); err != nil {
		t.Errorf("persistent cache not under the store directory: %v", err)
	}
	if _, err := os.Stat("pcache"); err == nil {
		t.Error("persistent cache created in the working directory")
	}
	if err := st.d.Close(); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json must list exactly the metrics the program reports.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, sw := range spec.Workloads {
		if !slices.ContainsFunc(workloads, func(w workload) bool { return w.name == sw.Name }) {
			t.Errorf("BENCHMARK.json workload %s is not in the program", sw.Name)
		}
	}
	same := func(what string, ms []metric, spec []struct{ Name, Unit string }) {
		if len(ms) != len(spec) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json lists %d", what, len(ms), len(spec))
			return
		}
		for i, m := range ms {
			if m.name != spec[i].Name || m.unit != spec[i].Unit {
				t.Errorf("%s %d: program %s (%s), BENCHMARK.json %s (%s)", what, i, m.name, m.unit, spec[i].Name, spec[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd(&pass{}), spec.EndToEnd)
	same("per_layer", perLayer(newTracer(), &pass{}, &pass{}), spec.PerLayer)
}
