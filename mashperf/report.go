package main

import (
	"fmt"
	"io"
	"time"

	"rocksmash/internal/db"
	"rocksmash/internal/readprof"
	"rocksmash/internal/storage"
)

// engineDelta accumulates the engine's own counters over timed phases.
type engineDelta struct {
	blockHits, blockMisses    int64
	pcacheHits, pcacheMisses  int64
	iterSeeks, iterKeys       int64
	viewHits, viewMisses      int64
	iterBlocks                [readprof.NumTiers]int64
	iterNs                    [readprof.NumTiers]int64
	readaheadSpans, readahead int64
	userBytes                 int64
}

func (e *engineDelta) add(a, b db.Metrics) {
	e.blockHits += b.BlockCacheHits - a.BlockCacheHits
	e.blockMisses += b.BlockCacheMisses - a.BlockCacheMisses
	e.pcacheHits += b.PCacheHits - a.PCacheHits
	e.pcacheMisses += b.PCacheMisses - a.PCacheMisses
	e.iterSeeks += b.ReadAmp.IterSeeks - a.ReadAmp.IterSeeks
	e.iterKeys += b.IterKeys - a.IterKeys
	e.viewHits += b.ReadAmp.IterViewHits - a.ReadAmp.IterViewHits
	e.viewMisses += b.ReadAmp.IterViewMisses - a.ReadAmp.IterViewMisses
	for t := range e.iterBlocks {
		e.iterBlocks[t] += b.ReadAmp.IterBlocks[t] - a.ReadAmp.IterBlocks[t]
		e.iterNs[t] += b.ReadAmp.IterNanos[t] - a.ReadAmp.IterNanos[t]
	}
	e.readaheadSpans += b.ReadaheadSpans - a.ReadaheadSpans
	e.readahead += b.ReadaheadBlocks - a.ReadaheadBlocks
	e.userBytes += b.BytesWritten - a.BytesWritten
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// readSamples picks the Gets (or scans) a workload reports: those of its
// timed phase, or those of its read-back check when the timed phase issues
// none.
func readSamples(main, check samples) samples {
	if len(main) > 0 {
		return main
	}
	return check
}

// endToEnd computes the gated end-to-end metrics of an untraced pass.
//
// Latency tails are in the readable report only. Over ten seeds on a shared
// 2-core machine, in a busy hour, their quartile spread reached 28% of the
// median (fillrandom Put p99), 46% (cloud-read Get p99, set by how far the
// simulator's sleeps overshoot) and 40% (cloud-read scan p99), beyond the
// 25% a gated metric may have.
func endToEnd(p *pass) []metric {
	cost := storage.DefaultCost().Cost(0, p.cloud)
	return []metric{
		{"setup_s", "s", median(p.setups).Seconds()},
		{"throughput_ops_per_s", "1/s", medianFloat(p.rates)},
		{"put_p50_us", "us", micros(p.main.put.sorted().at(5000))},
		{"get_p50_us", "us", micros(readSamples(p.main.get, p.check.get).sorted().at(5000))},
		{"scan_p50_us", "us", micros(readSamples(p.main.scan, p.check.scan).sorted().at(5000))},
		{"recovery_s", "s", median(p.reopens).Seconds()},
		{"cloud_usd_per_mop", "usd/Mop", ratio((cost.RequestCost+cost.EgressCost)*1e6, float64(p.billedOps))},
		{"local_bytes_per_user_byte", "ratio", medianFloat(p.local)},
		{"max_rss_mb", "MB", maxRSSMB()},
	}
}

// perLayer computes the per-layer metrics from a traced pass (tp) and the
// untraced pass of the same run (up), which also gives tracing overhead.
func perLayer(t *tracer, tp, up *pass) []metric {
	ops := float64(tp.ops)
	self := t.opSelfTimes()
	selfMedian := func(name string) float64 {
		if s := self[name]; s != nil {
			return micros(median(s.selfNs))
		}
		return 0
	}
	closure, overruns := 0.0, 0
	if g := self["db.get"]; g != nil {
		closure = ratio(float64(g.selfSumNs+g.childSumNs), float64(g.spanNs))
		overruns = g.overruns
	}
	// Scans get no per-operation split from outside the engine; their self
	// time is the mean of scan time minus the block-fetch time the engine's
	// iterator profiles (every iterator is timed in a traced pass) report.
	scanSelf := 0.0
	if s := self["db.scan"]; s != nil {
		var fetch int64
		for _, ns := range tp.eng.iterNs {
			fetch += ns
		}
		scanSelf = ratio(float64(s.spanNs-fetch), float64(s.count)) / 1e3
	}
	t.mu.Lock()
	ev := t.ev
	stalls := map[string]int64{}
	stallNs := map[string]int64{}
	for k, v := range ev.stalls {
		stalls[k] = v
		stallNs[k] = ev.stallNs[k]
	}
	t.mu.Unlock()
	e := tp.eng
	var iterBlocks int64
	for _, b := range e.iterBlocks {
		iterBlocks += b
	}
	lc, cc := &t.local, &t.cloud
	var recSegs, recSkipped []float64
	var replay, other []time.Duration
	for i, rep := range tp.recovered {
		recSegs = append(recSegs, float64(rep.WALSegments))
		recSkipped = append(recSkipped, float64(rep.WALSkipped))
		replay = append(replay, rep.Duration)
		other = append(other, tp.reopens[i]-rep.Duration)
	}
	uops := float64(up.ops)
	overhead := func(traced, untraced samples) float64 {
		u := untraced.sorted().at(5000)
		if u == 0 {
			return 0
		}
		return float64(traced.sorted().at(5000))/float64(u) - 1
	}
	return []metric{
		{"db.put.self_us", "us", selfMedian("db.put")},
		{"db.get.self_us", "us", selfMedian("db.get")},
		{"db.scan.self_us", "us", scanSelf},
		{"db.get.closure", "ratio", closure},
		{"db.get.tier_overruns", "count", float64(overruns)},
		{"commit.groups", "count", float64(ev.groups)},
		{"commit.batches_per_group", "count", ratio(float64(ev.groupBatches), float64(ev.groups))},
		{"wal.append_s", "s", secs(ev.walAppendNs)},
		{"wal.bytes", "bytes", float64(ev.walBytes)},
		{"stall.memtable.count", "count", float64(stalls["memtable"])},
		{"stall.memtable_s", "s", secs(stallNs["memtable"])},
		{"stall.l0.count", "count", float64(stalls["l0"])},
		{"stall.l0_s", "s", secs(stallNs["l0"])},
		{"flush.count", "count", float64(ev.flushes)},
		{"flush.busy_s", "s", secs(ev.flushNs)},
		{"flush.bytes", "bytes", float64(ev.flushBytes)},
		{"compaction.count", "count", float64(ev.compactions)},
		{"compaction.busy_s", "s", secs(ev.compactNs)},
		{"compaction.read_s", "s", secs(ev.compactReadNs)},
		{"compaction.merge_s", "s", secs(ev.compactMergeNs)},
		{"compaction.upload_s", "s", secs(ev.compactUploadNs)},
		{"compaction.install_s", "s", secs(ev.compactInstallNs)},
		{"compaction.bytes_in", "bytes", float64(ev.compactIn)},
		{"compaction.bytes_out", "bytes", float64(ev.compactOut)},
		{"compaction.write_amp", "ratio", ratio(float64(ev.flushBytes+ev.compactOut), float64(e.userBytes))},
		{"sstable.tables_per_get", "count", ratio(float64(ev.tables), float64(ev.getProfiles))},
		{"sstable.blocks_per_get", "count", ratio(float64(ev.blocks), float64(ev.getProfiles))},
		{"bloom.true_negative_rate", "ratio", ratio(float64(ev.bloomNegative), float64(ev.bloomChecked))},
		{"cache.block.hits", "count", float64(e.blockHits)},
		{"cache.block.misses", "count", float64(e.blockMisses)},
		{"cache.block.hit_ratio", "ratio", ratio(float64(e.blockHits), float64(e.blockHits+e.blockMisses))},
		{"pcache.hits", "count", float64(e.pcacheHits)},
		{"pcache.misses", "count", float64(e.pcacheMisses)},
		{"pcache.hit_ratio", "ratio", ratio(float64(e.pcacheHits), float64(e.pcacheHits+e.pcacheMisses))},
		{"pcache.admits", "count", float64(ev.pcacheAdmits)},
		{"pcache.evicts", "count", float64(ev.pcacheEvicts)},
		{"pcache.fetch_s", "s", secs(ev.tierNs[readprof.TierPCache] + e.iterNs[readprof.TierPCache])},
		{"iter.seeks", "count", float64(e.iterSeeks)},
		{"iter.view_hit_ratio", "ratio", ratio(float64(e.viewHits), float64(e.viewHits+e.viewMisses))},
		{"iter.blocks_per_key", "count", ratio(float64(iterBlocks), float64(e.iterKeys))},
		{"iter.cloud_blocks_per_key", "count", ratio(float64(e.iterBlocks[readprof.TierCloud]), float64(e.iterKeys))},
		{"iter.readahead_spans", "count", float64(e.readaheadSpans)},
		{"iter.readahead_blocks", "count", float64(e.readahead)},
		{"storage.local.get.count", "count", float64(lc.gets.Load())},
		{"storage.local.get_s", "s", secs(lc.getNs.Load())},
		{"storage.local.put.count", "count", float64(lc.puts.Load())},
		{"storage.local.put_s", "s", secs(lc.putNs.Load())},
		{"storage.local.sync.count", "count", float64(lc.syncs.Load())},
		{"storage.local.sync_s", "s", secs(lc.syncNs.Load())},
		{"storage.local.bytes_read", "bytes", float64(lc.bytesRead.Load())},
		{"storage.local.bytes_written", "bytes", float64(lc.bytesWritten.Load())},
		{"storage.cloud.get.count", "count", float64(cc.gets.Load())},
		{"storage.cloud.get_s", "s", secs(cc.getNs.Load())},
		{"storage.cloud.get_per_op", "count", ratio(float64(cc.gets.Load()), ops)},
		{"storage.cloud.put.count", "count", float64(cc.puts.Load())},
		{"storage.cloud.put_s", "s", secs(cc.putNs.Load())},
		{"storage.cloud.bytes_read", "bytes", float64(cc.bytesRead.Load())},
		{"storage.cloud.bytes_written", "bytes", float64(cc.bytesWritten.Load())},
		{"storage.cloud.failed", "count", float64(cc.failed.Load())},
		{"storage.cloud.retries", "count", float64(ev.cloudRetries)},
		{"storage.cloud.modeled_s", "s", secs(cc.modeledNs.Load())},
		{"storage.cloud.overshoot_ratio", "ratio", ratio(float64(cc.modeledMeasuredNs.Load()), float64(cc.modeledNs.Load()))},
		{"recovery.segments", "count", medianFloat(recSegs)},
		{"recovery.skipped", "count", medianFloat(recSkipped)},
		{"recovery.replay_s", "s", median(replay).Seconds()},
		{"recovery.open_other_s", "s", median(other).Seconds()},
		{"go.allocs_per_op", "count", ratio(float64(up.mem.mallocs), uops)},
		{"go.bytes_alloc_per_op", "bytes", ratio(float64(up.mem.bytes), uops)},
		{"go.gc_cycles", "count", float64(up.mem.gcs)},
		{"trace.overhead.throughput", "ratio", 1 - ratio(ratio(ops, tp.dur.Seconds()), ratio(uops, up.dur.Seconds()))},
		{"trace.overhead.put_p50", "ratio", overhead(tp.main.put, up.main.put)},
		{"trace.overhead.get_p50", "ratio", overhead(tp.main.get, up.main.get)},
	}
}

// closureTolerance is how far db.get.closure may stray from 1.
const closureTolerance = 0.01

// warnClosure prints a warning when the Gets' tier times do not fit inside
// their spans. Self time is a Get's span minus its tier children, laid end
// to end from its start, so closure leaves 1 only when the tier times of
// some Gets add up to more than their span (db.get.tier_overruns counts
// those Gets): the engine's timers and the outside clock disagree.
func warnClosure(w io.Writer, ms []metric) {
	for _, m := range ms {
		if m.name == "db.get.closure" && m.value != 0 && (m.value < 1-closureTolerance || m.value > 1+closureTolerance) {
			fmt.Fprintf(w, "WARNING: db.get.closure %.4f is outside 1 ± %g: Get tier times exceed their spans\n", m.value, closureTolerance)
		}
	}
}

// describe prints a pass in readable form: sample counts, each op kind's
// median and highest supported percentile, error rate, and the settled
// start.
func describe(w io.Writer, label string, p *pass) {
	fmt.Fprintf(w, "== %s\n", label)
	fmt.Fprintf(w, "setup: %d builds, median %.3fs, settled level shapes %v", len(p.setups), median(p.setups).Seconds(), p.shapes)
	if p.warmOps > 0 {
		fmt.Fprintf(w, ", %d warm-up ops", p.warmOps)
	}
	fmt.Fprintln(w)
	for _, s := range p.shapes[1:] {
		if fmt.Sprint(s) != fmt.Sprint(p.shapes[0]) {
			fmt.Fprintf(w, "WARNING: set-up settled in different level shapes %v; timed phase starts from %v\n", p.shapes, p.shapes[len(p.shapes)-1])
			break
		}
	}
	fmt.Fprintf(w, "timed phase: %d ops in %.3fs", p.ops, p.dur.Seconds())
	if len(p.rates) > 1 {
		fmt.Fprintf(w, ", median of %d phases' rates %.0f/s:", len(p.rates), medianFloat(p.rates))
		for _, r := range p.rates {
			fmt.Fprintf(w, " %.0f", r)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "wall time by phase:")
	for _, ph := range p.phases {
		fmt.Fprintf(w, " %s %.2fs", ph.name, ph.dur.Seconds())
	}
	fmt.Fprintln(w)
	line := func(name string, s samples) {
		if len(s) == 0 {
			return
		}
		s = s.sorted()
		fmt.Fprintf(w, "  %-12s n=%-8d p50=%9.1fus", name, len(s), micros(s.at(5000)))
		if bp := tailPercentile(len(s)); bp > 5000 {
			fmt.Fprintf(w, "  p%g=%9.1fus", float64(bp)/100, micros(s.at(bp)))
		} else {
			fmt.Fprintf(w, "  (too few samples for a tail percentile)")
		}
		fmt.Fprintln(w)
	}
	line("put", p.main.put)
	line("get", p.main.get)
	line("scan", p.main.scan)
	fmt.Fprintln(w, "read-back check after crash and reopen:")
	line("check.get", p.check.get)
	line("check.scan", p.check.scan)
	for i, d := range p.reopens {
		fmt.Fprintf(w, "  reopen %d: %.4fs %v\n", i+1, d.Seconds(), p.recovered[i])
	}
	if len(p.reopens) > 0 {
		fmt.Fprintf(w, "  recovery_s (median of %d reopens): %.4fs\n", len(p.reopens), median(p.reopens).Seconds())
	}
	var attempted, failed, wrong int64
	for _, rec := range []struct {
		phase string
		r     *recorder
	}{{"set-up", &p.prep}, {"timed", &p.main}, {"check", &p.check}} {
		attempted += rec.r.ops
		failed += rec.r.failed
		wrong += rec.r.wrong
		for _, err := range rec.r.errs {
			fmt.Fprintf(w, "  error (%s): %v\n", rec.phase, err)
		}
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d, wrong %d, error_rate %g\n",
		attempted, failed, wrong, ratio(float64(failed+wrong), float64(attempted)))
}
